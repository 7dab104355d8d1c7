// The ingest workloads: each repetition hands one whole generated stream
// to a lockstep Runtime::Run, on a fresh tracker.
//
//   da2_synthetic  DA2 on SYNTHETIC-like dense rows, d = 128, global pool
//                  at min(4, nproc) threads.
//   pwr_pamap      PWR on PAMAP-like rows, d = 43, single-threaded.
//
// A run generates `streams` independently seeded streams (and tracker
// seeds) from --seed and times whole passes over them, so every metric
// summarizes several draws rather than one, which keeps its seed-to-seed
// spread small; the count-valued ones depend only on --seed. After each
// repetition a short serving phase publishes its final estimate beside
// kReaders closed-loop sessions, so every end-to-end metric exists on
// every workload; ingest timing excludes it.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/tracker_factory.h"
#include "e2e.h"
#include "monitor/runtime.h"
#include "stream/pamap_like.h"
#include "stream/synthetic.h"

namespace dswm::e2e {

namespace {

struct IngestWorkload {
  const char* name;
  Algorithm algorithm;
  int dim;
  int rows;          // per stream
  Timestamp window;  // ticks; both generators emit ~1 row per tick
  int streams;
  int max_threads;   // global pool size, capped at nproc
  std::vector<TimedRow> (*generate)(uint64_t seed, int rows, int dim);
};

std::vector<TimedRow> SyntheticRows(uint64_t seed, int rows, int dim) {
  SyntheticConfig config;
  config.rows = rows;
  config.dim = dim;
  config.seed = seed;
  SyntheticGenerator gen(config);
  return Materialize(&gen, rows);
}

std::vector<TimedRow> PamapRows(uint64_t seed, int rows, int dim) {
  PamapLikeConfig config;
  config.rows = rows;
  config.dim = dim;
  config.seed = seed;
  PamapLikeGenerator gen(config);
  return Materialize(&gen, rows);
}

const IngestWorkload kWorkloads[] = {
    {"da2_synthetic", Algorithm::kDa2, 128, 3000, 750, 9, 4, SyntheticRows},
    {"pwr_pamap", Algorithm::kPwr, 43, 2500, 625, 7, 1, PamapRows},
};

// Publishes of each final estimate in a serving phase.
constexpr int kPhasePublishes = 3;

const IngestWorkload* Find(const std::string& name) {
  for (const IngestWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

StatusOr<std::unique_ptr<DistributedTracker>> Build(const IngestWorkload& w,
                                                    uint64_t seed) {
  TrackerConfig config;
  config.dim = w.dim;
  config.num_sites = kSites;
  config.window = w.window;
  config.epsilon = kEpsilon;
  config.seed = seed;
  return MakeTracker(w.algorithm, config);
}

// One Runtime::Run over one whole stream.
struct Rep {
  Status status = Status::OK();
  RunResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Queried final;  // the tracker's estimate after the stream, for the tail
};

Rep RunOnce(const IngestWorkload& w, const std::vector<TimedRow>& rows,
            uint64_t seed) {
  Rep rep;
  auto tracker = Build(w, seed);
  if (!tracker.ok()) {
    rep.status = tracker.status();
    return rep;
  }
  LockstepRuntime runtime;
  DriverOptions options;  // 50 query points, as in the paper
  options.seed = seed;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  auto run = runtime.Run(tracker.value().get(), rows, kSites, w.window, options);
  rep.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
  rep.cpu_s = CpuSeconds() - cpu0;
  if (run.ok()) {
    rep.result = std::move(run).value();
    rep.final = TimedQuery(*tracker.value());
  } else {
    rep.status = run.status();
  }
  return rep;
}

// Every count-valued output of a run, bit-exact.
std::string Signature(const RunResult& r) {
  std::string s = std::to_string(r.rows) + "|" + std::to_string(r.total_words) +
                  "|" + std::to_string(r.messages) + "|" +
                  std::to_string(r.broadcasts) + "|" +
                  std::to_string(r.rows_sent) + "|" +
                  std::to_string(r.wire_payload_bytes) + "|" +
                  std::to_string(r.wire_frame_bytes) + "|" +
                  std::to_string(r.wire_transmissions) + "|" +
                  std::to_string(r.max_site_space_words) + "|" +
                  HexDouble(r.avg_err) + "|" + HexDouble(r.max_err);
  for (const TraceEntry& e : r.trace) {
    s += "|" + std::to_string(e.timestamp) + ":" + HexDouble(e.err) + ":" +
         std::to_string(e.words_so_far) + ":" +
         std::to_string(e.site_space_words);
  }
  return s;
}

// One serving phase: kPhasePublishes publishes of `final`, evenly spaced over
// `seconds`, beside kReaders closed-loop sessions probing with `probes`.
void ServeEstimate(const Queried& final, int dim,
                   const std::vector<TimedRow>& probes, Timestamp window,
                   double seconds, ServeStats* stats) {
  ServingTier tier;
  const Timestamp at = probes.back().timestamp;
  RunServing(
      dim, &tier, window, probes,
      [&](const PublishFn& publish) {
        const auto start = std::chrono::steady_clock::now();
        const auto step = std::chrono::duration<double>(seconds / kPhasePublishes);
        for (int v = 0; v < kPhasePublishes; ++v) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                          step * v));
          // The copy is fresh, so Publish materializes it anew.
          if (!publish(final, at).ok()) return;
        }
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                        step * kPhasePublishes));
      },
      stats);
}

// Runs passes over streams 0 .. `cycle` - 1, one repetition per stream,
// as many as best fill `budget_s` (at least `min_passes`). Each
// repetition is checked against the correctness gates and against the
// first repetition of its stream in the whole run (`references`, filled
// on first sight). With `serve`, every repetition is followed by a
// serving phase of a third of its wall time on its final estimate, so
// serving is sampled across the whole run.
std::vector<Rep> RunPasses(const IngestWorkload& w,
                           const std::vector<std::vector<TimedRow>>& inputs,
                           const std::vector<uint64_t>& seeds, int cycle,
                           double budget_s, int min_passes, bool traced,
                           std::vector<std::string>* references,
                           ServeStats* serve, Report* report) {
  obs::SetEnabled(traced);
  std::vector<Rep> reps;
  const int64_t start = NowNs();
  for (int pass = 0;; ++pass) {
    const int64_t pass_start = NowNs();
    for (int k = 0; k < cycle; ++k) {
      const std::vector<TimedRow>& rows = inputs[static_cast<size_t>(k)];
      Rep rep = RunOnce(w, rows, seeds[static_cast<size_t>(k)]);
      report->Attempt(static_cast<long>(rows.size()));
      if (!rep.status.ok()) {
        report->Fail(static_cast<long>(rows.size()),
                     "Runtime::Run: " + rep.status.ToString());
        obs::SetEnabled(false);
        return reps;
      }
      const RunResult& r = rep.result;
      report->Attempt(static_cast<long>(r.trace.size()));
      long over = 0;
      for (const TraceEntry& e : r.trace) over += e.err <= kEpsilon ? 0 : 1;
      report->Fail(over, "query points with err > epsilon");
      report->Check(!r.trace.empty(), "query points were evaluated");
      std::string& reference = (*references)[static_cast<size_t>(k)];
      const std::string sig = Signature(r);
      if (reference.empty()) reference = sig;
      report->Check(sig == reference,
                    traced ? "traced run reports the untraced counts bit for bit"
                           : "repeated runs report identical counts");
      if (serve != nullptr) {
        ServeEstimate(rep.final, w.dim, rows, w.window, rep.wall_s / 3.0,
                      serve);
      }
      reps.push_back(std::move(rep));
    }
    // Another pass only if it would end nearer the budget than this one
    // did: the pass count then rarely depends on small speed changes.
    const int64_t now = NowNs();
    if (pass + 1 >= min_passes &&
        1e-9 * static_cast<double>(now - start + (now - pass_start) / 2) >
            budget_s) {
      break;
    }
  }
  obs::SetEnabled(false);
  return reps;
}

}  // namespace

bool IsIngestWorkload(const std::string& name) { return Find(name) != nullptr; }

void RunIngestWorkload(const Options& options, Report* report) {
  const IngestWorkload& w = *Find(options.workload);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ThreadPool::SetGlobalThreads(std::min(w.max_threads, nproc));
  const int pool_threads = ThreadPool::Global()->num_threads();

  // Set-up first, before input generation touches the heap.
  const SetupTimes setup = MeasureSetup(
      [&] {
        LockstepRuntime runtime;
        return Build(w, options.seed);
      },
      report);

  // Inputs and measurement buffers next; the memory baseline follows.
  std::vector<uint64_t> seeds;
  std::vector<std::vector<TimedRow>> inputs;
  for (int k = 0; k < w.streams; ++k) {
    seeds.push_back(StreamSeed(options.seed, k));
    inputs.push_back(w.generate(seeds.back(), w.rows, w.dim));
  }
  ServeStats serve_stats;
  report->Context("algorithm", std::string("\"") + AlgorithmName(w.algorithm) + "\"");
  report->Context("streams", std::to_string(w.streams));
  report->Context("rows_per_stream", std::to_string(w.rows));
  report->Context("dim", std::to_string(w.dim));
  report->Context("window", std::to_string(w.window));
  report->Context("sites", std::to_string(kSites));
  report->Context("epsilon", std::to_string(kEpsilon));
  report->Context("pool_threads", std::to_string(pool_threads));
  report->Context("loop", "\"Runtime::Run (lockstep) per stream and pass, "
                          "each followed by a serving phase: " +
                              std::to_string(kPhasePublishes) +
                              " publishes + " + std::to_string(kReaders) +
                              " closed-loop sessions\"");
  const double baseline_mib = ProcStatusMib("VmRSS");

  const double seconds = options.seconds;
  std::vector<std::string> references(static_cast<size_t>(w.streams));
  if (!options.trace) {
    const std::vector<Rep> reps =
        RunPasses(w, inputs, seeds, w.streams, seconds, 1, false,
                  &references, &serve_stats, report);
    if (static_cast<int>(reps.size()) < w.streams) return;

    // Pooled over whole passes: each stream weighs the same, and per-stream
    // cost differs by tens of percent.
    const long n = static_cast<long>(reps.size());
    double wall_s = 0.0;
    for (const Rep& r : reps) wall_s += r.wall_s;
    report->Add("ingest_rows_per_s",
                static_cast<double>(n) * w.rows / wall_s, "1/s", n,
                "rows / Runtime::Run wall time, summed over " +
                    std::to_string(n / w.streams) + " pass(es) of every stream");
    // The first pass holds one repetition per stream.
    std::vector<StreamCounts> counts;
    for (int k = 0; k < w.streams; ++k) {
      const RunResult& r = reps[static_cast<size_t>(k)].result;
      StreamCounts& c = counts.emplace_back();
      c.words = r.total_words;
      c.wire_frame_bytes = r.wire_frame_bytes;
      c.windows = r.windows_spanned;
      c.max_site_space_words = r.max_site_space_words;
      for (const TraceEntry& e : r.trace) c.errs.push_back(e.err);
    }
    ReportStreams(counts, report);
    report->Add("mem_peak_mb", ProcStatusMib("VmHWM") - baseline_mib, "MiB",
                1, "peak RSS - RSS after input generation");
    report->Add("setup_s", Median(setup.setup_s), "s",
                static_cast<long>(setup.setup_s.size()), "median");
    ReportServing(serve_stats, report);
    return;
  }

  // Traced run, on stream 0 only: untraced repetitions first (the
  // reference and the overhead base), then traced ones, then a traced
  // serving tail.
  const std::vector<Rep> plain =
      RunPasses(w, inputs, seeds, 1, 0.3 * seconds, 1, false, &references,
                nullptr, report);
  const std::vector<Rep> traced =
      RunPasses(w, inputs, seeds, 1, 0.45 * seconds, 2, true, &references,
                nullptr, report);
  if (plain.empty() || traced.size() < 2) return;
  const std::string counters = DeterministicCounters(traced.front().result.metrics);
  for (const Rep& rep : traced) {
    report->Check(DeterministicCounters(rep.result.metrics) == counters,
                  "traced repeats report identical counters");
  }
  obs::SetEnabled(true);
  const obs::MetricsSnapshot before = obs::Registry().Snapshot();
  ServeEstimate(traced.back().final, w.dim, inputs.front(), w.window,
                0.25 * seconds, &serve_stats);
  const obs::MetricsSnapshot tail = obs::Registry().Snapshot().DeltaSince(before);
  obs::SetEnabled(false);

  const auto median_span_s = [&](const char* phase) {
    return MedianOf(traced, [&](const Rep& r) {
      return 1e-9 * static_cast<double>(SpanWallNs(r.result.metrics, phase));
    });
  };
  const RunResult& r = traced.front().result;
  Layers layers;
  layers.runs = static_cast<long>(traced.size());
  layers.observe_s = median_span_s("driver.observe");
  layers.query_s = median_span_s("driver.query");
  layers.eval_s = median_span_s("driver.eval");
  layers.make_tracker_s = Median(setup.make_tracker_s);
  layers.setup_trials = static_cast<long>(setup.setup_s.size());
  layers.batched_shrink_ns = 1e9 * median_span_s("batched_shrink");
  layers.cpu_per_wall =
      MedianOf(traced, [](const Rep& rep) { return rep.cpu_s / rep.wall_s; });
  layers.trace_overhead =
      MedianOf(traced, [](const Rep& rep) { return rep.wall_s; }) /
      MedianOf(plain, [](const Rep& rep) { return rep.wall_s; });
  layers.messages = r.messages;
  layers.broadcasts = r.broadcasts;
  layers.wire_frame_bytes = r.wire_frame_bytes;
  layers.counts = r.metrics;
  layers.serving = tail;
  ReportLayers(layers, serve_stats, report);
}

}  // namespace dswm::e2e
