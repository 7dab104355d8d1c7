// Shared pieces of the end-to-end benchmark: the fixed workload
// parameters, the result report (metrics with their sample counts, and
// correctness checks counted against operations attempted), and the
// serving phase both kinds of workload run.
//
// The benchmark drives the library from outside: it generates every input
// from the seed before any timer starts, times the library's public calls
// itself, and reads the library's obs counters only in traced runs.

#ifndef DSWM_BENCH_E2E_E2E_H_
#define DSWM_BENCH_E2E_E2E_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tracker.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "serve/snapshot_store.h"
#include "stream/timed_row.h"

namespace dswm::e2e {

// Every workload: m = 8 sites, epsilon = 0.1 (paper defaults, Sec. IV-A).
inline constexpr int kSites = 8;
inline constexpr double kEpsilon = 0.1;
// Closed-loop reader sessions in every serving phase.
inline constexpr int kReaders = 2;
// Set-up is repeated at least kSetupTrials times per run, after
// kSetupWarmup untimed trials, and until the timed trials took
// kSetupMinSeconds (at most kSetupMaxTrials trials); setup_s is the median.
// A set-up of a tenth of a millisecond needs hundreds of trials for a
// median that repeats from run to run.
inline constexpr int kSetupTrials = 21;
inline constexpr int kSetupMaxTrials = 401;
inline constexpr double kSetupMinSeconds = 0.2;
inline constexpr int kSetupWarmup = 3;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

// One reported number and the evidence behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 0;
  // What `value` is over its samples: "median", "p99.9", "mean", "max",
  // "count", "ratio of medians", ...
  std::string statistic;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           long samples, const std::string& statistic);
  // Operations issued to the program (Observe calls, tracker queries,
  // publishes, reader queries).
  void Attempt(long n) { attempted_ += n; }
  // Operations that returned a non-OK Status.
  void Fail(long n, const std::string& what);
  // One correctness gate: counts as attempted, and as failed unless `ok`.
  void Check(bool ok, const std::string& what);
  // Adds a run-context key (printed with every result).
  void Context(const std::string& key, const std::string& json_value);

  [[nodiscard]] long failed() const { return failed_; }
  // Prints the human table, the context line, and as the last line the
  // result object {"correct", "attempted", "failed", "metrics"}.
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<std::string> failures_;
  long attempted_ = 0;
  long failed_ = 0;
};

// ---- measurement helpers (report.cc) ----

// The count-valued outputs of one stream of a run.
struct StreamCounts {
  long words = 0;
  long wire_frame_bytes = 0;
  double windows = 0.0;  // window lengths the stream spans
  long max_site_space_words = 0;
  std::vector<double> errs;  // at the stream's query points
};

// Adds the count-valued end-to-end metrics over a run's streams:
// words_per_window and wire_bytes_per_window pooled over all streams,
// avg_err over all query points, max_site_space_words as the maximum, and
// max_err as the median over streams of each stream's maximum (one
// stream's maximum is heavy-tailed; a maximum over all streams would
// follow the rarest one).
void ReportStreams(const std::vector<StreamCounts>& streams, Report* report);

[[nodiscard]] int64_t NowNs();
[[nodiscard]] double Median(std::vector<double> values);
// Median over `items` of f(item).
template <typename T, typename F>
[[nodiscard]] double MedianOf(const std::vector<T>& items, F f) {
  std::vector<double> values;
  for (const T& item : items) values.push_back(f(item));
  return Median(std::move(values));
}
// Nearest-rank percentile, q in [0, 1]; sorts `values`.
[[nodiscard]] double Percentile(std::vector<double>* values, double q);
// Process user + system CPU seconds (getrusage).
[[nodiscard]] double CpuSeconds();
// A "VmRSS" / "VmHWM" field of /proc/self/status, in MiB (0 if absent).
[[nodiscard]] double ProcStatusMib(const char* field);
// Bytes the program holds allocated through malloc (every arena, and
// mmapped blocks), in MiB.
[[nodiscard]] double HeapInUseMib();
// Count-valued fields of a run, bit-exact ("%a" for doubles), for the
// determinism cross-checks.
[[nodiscard]] std::string HexDouble(double v);
// The deterministic part of an obs delta: counters and histograms under
// linalg./window./sketch./sampling./net., plus serve.store.published.
[[nodiscard]] std::string DeterministicCounters(
    const obs::MetricsSnapshot& delta);
// The counter `name` (0 when absent).
[[nodiscard]] long CounterOr0(const obs::MetricsSnapshot& s,
                              const std::string& name);
// Wall nanoseconds of span phase `phase` wherever it nested: the sum of
// span.<phase>.wall_ns and every span.<parent>.<phase>.wall_ns.
[[nodiscard]] long SpanWallNs(const obs::MetricsSnapshot& s,
                              const std::string& phase);

// The seed of stream k of a run: a run draws several independent streams
// (inputs and tracker seeds) from its --seed.
[[nodiscard]] uint64_t StreamSeed(uint64_t seed, int k);

// Builds the m-site assignment of every row from the seed (uniform sites,
// drawn once before timing).
[[nodiscard]] std::vector<int> AssignSites(uint64_t seed, size_t rows);

// ---- serving phase (serve.cc) ----

// Query kinds of the reader mix, issued in turn.
inline constexpr int kKinds = 3;  // 0 = PCA, 1 = anomaly, 2 = change
// Consecutive queries of one reader per query_p99_us chunk: 163 samples
// lie beyond each chunk's p99. A p99.9 is not reported: on a shared
// 4-vCPU host it measured how often the host interrupted a reader's CPU,
// and moved by 1.6x from run to run.
inline constexpr size_t kTailChunk = 16384;

// One reader's latency log for one serving phase: each query's latency
// in microseconds (timed in nanoseconds) and kind, in issue order. The
// buffers are allocated and touched up front (before the memory
// baseline), so recording never allocates. Past capacity it keeps the
// most recent samples.
class LatencyLog {
 public:
  static constexpr size_t kCapacity = size_t{1} << 21;
  LatencyLog();
  void Add(int kind, double us);
  // Appends the kept samples of `kind` (-1: every kind), oldest first.
  void AppendTo(int kind, std::vector<double>* out) const;
  void Clear() { count_ = 0; }

 private:
  std::vector<float> us_;
  std::vector<uint8_t> kind_;
  size_t count_ = 0;
};

// What the readers saw in one serving phase (one RunServing call).
struct ServePhase {
  long queries = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  // The p99 of each chunk of kTailChunk consecutive queries of one
  // reader (empty when no chunk is full).
  std::vector<double> chunk_p99_us;
  std::array<double, kKinds> kind_p50_us{};
};

// Everything the benchmark measured while readers ran beside a publisher.
// Successive RunServing calls accumulate into one ServeStats.
struct ServeStats {
  ServeStats() : latency(kReaders) {}

  std::vector<LatencyLog> latency;  // one per reader, current phase
  std::vector<ServePhase> phases;
  std::array<long, kKinds> kind_queries{};

  // Wall time of each Query() + Publish, one per published version, and
  // the total spent in the Query() part.
  std::vector<double> publish_ms;
  double query_s = 0.0;
  long queries = 0;
  long query_errors = 0;
  long publish_errors = 0;
  // A session saw SnapshotMeta.version go backwards.
  bool version_regressed = false;
  // Wall time of the loaded phases (publisher + readers).
  double wall_s = 0.0;
};

// Set-up objects of the serving tier: the store, the service, and one
// session per reader.
struct ServingTier {
  ServingTier();
  serve::SnapshotStore store;
  serve::QueryService service;
  std::vector<serve::QueryService::Session> sessions;
};

// Set-up times of one workload: building the tracker (through `build`,
// which also builds the runtime where the workload has one) and the
// serving tier, once per trial. `make_tracker_s` is the `build` part.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> make_tracker_s;
};
SetupTimes MeasureSetup(
    const std::function<StatusOr<std::unique_ptr<DistributedTracker>>()>& build,
    Report* report);

// A tracker estimate and the wall time of the Query() that produced it.
struct Queried {
  CovarianceEstimate estimate;
  double query_s = 0.0;
};
[[nodiscard]] Queried TimedQuery(const DistributedTracker& tracker);

// Publishes an estimate as the next version, recording its Query() time
// plus the Publish time.
using PublishFn = std::function<Status(Queried queried, Timestamp at)>;

// One serving phase: runs `feed` on a publisher thread while kReaders
// closed-loop sessions issue a fixed PCA / anomaly / change mix against
// the latest version, probing with rows of `probes` (of dimension `dim`).
// Readers start at the first published version and stop when `feed`
// returns. Accumulates into `stats`, one ServePhase per call.
void RunServing(int dim, ServingTier* tier, Timestamp window,
                const std::vector<TimedRow>& probes,
                const std::function<void(const PublishFn&)>& feed,
                ServeStats* stats);

// Adds the serving end-to-end metrics (serve_qps, query_p50_us,
// query_p99_us, publish_p50_ms) and the serving gates.
void ReportServing(const ServeStats& stats, Report* report);

// Adds the serve/analytics per-layer metrics of a traced serving phase.
void ReportServingLayers(const ServeStats& stats,
                         const obs::MetricsSnapshot& delta, Report* report);

// Inputs of the per-layer metrics of a traced run. Times are medians over
// the traced repetitions; `counts` is one traced repetition's obs delta
// (its count-valued part is identical over repetitions).
struct Layers {
  long runs = 0;
  double observe_s = 0.0;       // inside DistributedTracker::Observe
  double query_s = 0.0;         // tracker Query() at query points
  double eval_s = 0.0;          // error evaluation against the exact window
  double make_tracker_s = 0.0;  // MakeTracker, median of the set-up trials
  long setup_trials = 0;
  double batched_shrink_ns = 0.0;
  double cpu_per_wall = 0.0;    // process CPU / wall over ingest
  double trace_overhead = 0.0;  // traced / untraced ingest wall time
  long messages = 0;
  long broadcasts = 0;
  long wire_frame_bytes = 0;
  obs::MetricsSnapshot counts;
  obs::MetricsSnapshot serving;  // obs delta over the traced serving phase
};

// Adds every per-layer metric, in one fixed order for all workloads.
void ReportLayers(const Layers& layers, const ServeStats& serve,
                  Report* report);

// ---- workloads ----

// True when `name` is an ingest workload (ingest.cc).
[[nodiscard]] bool IsIngestWorkload(const std::string& name);
void RunIngestWorkload(const Options& options, Report* report);
void RunServeWorkload(const Options& options, Report* report);

}  // namespace dswm::e2e

#endif  // DSWM_BENCH_E2E_E2E_H_
