// The serve_wiki workload: PWOR fed WIKI-like sparse rows (d = 256) by one
// feeder thread that publishes a version at every window boundary, while
// kReaders closed-loop sessions issue a fixed PCA / anomaly / change mix
// (three threads in total; the global pool stays at one thread).
//
// The benchmark calls DistributedTracker::Observe / Query,
// SnapshotStore::Publish and the QueryService sessions itself and times
// every call. The served feed runs on stream 0 of the seed. The
// count-valued metrics come from an untimed quality pass that feeds each
// of kStreams independently seeded streams to its own tracker and
// evaluates the estimate at every publication point against an exact
// window; summarizing several draws keeps their seed-to-seed spread
// small. A served feed must report the same counts as the quality
// pass of its stream: serving never changes the tracker.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/tracker_factory.h"
#include "e2e.h"
#include "net/channel.h"
#include "sketch/covariance.h"
#include "stream/wiki_like.h"
#include "window/exact_window.h"

namespace dswm::e2e {

namespace {

// At d = 512 the d x d matrices a publish builds and an anomaly query
// reads (2 MiB each) overflow a 2 MiB per-core L2, and every timing then
// swung by 1.6-1.9x with memory traffic from outside the process. At
// d = 256 they stay in L2.
constexpr int kDim = 256;
constexpr int kRows = 10000;
// WIKI-like streams carry ~20 rows per tick, so a window holds ~400 rows
// and a stream crosses ~24 boundaries.
constexpr Timestamp kWindow = 20;
constexpr int kMinBoundaries = 20;
// Streams in the quality pass; max_err is a median over them of each
// stream's heavy-tailed maximum, and needs this many to repeat across seeds.
constexpr int kStreams = 27;

struct Stream {
  uint64_t seed = 0;
  std::vector<TimedRow> rows;
  std::vector<int> sites;
};

Stream MakeStream(uint64_t seed) {
  WikiLikeConfig config;
  config.rows = kRows;
  config.dim = kDim;
  config.seed = seed;
  WikiLikeGenerator gen(config);
  Stream s;
  s.seed = seed;
  s.rows = Materialize(&gen, kRows);
  s.sites = AssignSites(seed, s.rows.size());
  return s;
}

StatusOr<std::unique_ptr<DistributedTracker>> Build(uint64_t seed) {
  TrackerConfig config;
  config.dim = kDim;
  config.num_sites = kSites;
  config.window = kWindow;
  config.epsilon = kEpsilon;
  config.seed = seed;
  return MakeTracker(Algorithm::kPwor, config);
}

double EvalError(const ExactWindow& exact, const CovarianceEstimate& estimate) {
  return estimate.NativeIsRows()
             ? CovarianceErrorOfSketch(exact.Covariance(), estimate.Rows(),
                                       exact.FrobeniusSquared())
             : CovarianceErrorOfCovariance(exact.Covariance(),
                                           estimate.Covariance(),
                                           exact.FrobeniusSquared());
}

// Feeds `s` to `tracker` row by row and calls `at_point(i)` after row i at
// every publication point: the first row of each window period, and the
// last row. Returns the number of boundaries crossed.
template <typename AtPoint>
long Feed(DistributedTracker* tracker, const Stream& s, long* observe_errors,
          AtPoint at_point) {
  long boundaries = 0;
  Timestamp window_index = s.rows.front().timestamp / kWindow;
  for (size_t i = 0; i < s.rows.size(); ++i) {
    if (!tracker->Observe(s.sites[i], s.rows[i]).ok()) ++*observe_errors;
    const Timestamp w = s.rows[i].timestamp / kWindow;
    if (w > window_index) {
      window_index = w;
      ++boundaries;
      at_point(i);
    }
  }
  at_point(s.rows.size() - 1);
  return boundaries;
}

// The counts every feed of one stream reports identically, served or not.
struct Counts {
  long observe_errors = 0;
  long boundaries = 0;
  long words = 0;
  long wire_frame_bytes = 0;
  long messages = 0;
  long broadcasts = 0;
  long max_site_space_words = 0;
  double final_err = 0.0;  // at the last row

  void ReadComm(const DistributedTracker& tracker) {
    const CommStats& comm = tracker.Comm();
    words = comm.TotalWords();
    messages = comm.messages;
    broadcasts = comm.broadcasts;
    for (net::Channel* c : tracker.Channels()) {
      wire_frame_bytes += c->ledger().TotalFrameBytes();
    }
  }
  [[nodiscard]] std::string Signature() const {
    return std::to_string(observe_errors) + "|" + std::to_string(boundaries) +
           "|" + std::to_string(words) + "|" +
           std::to_string(wire_frame_bytes) + "|" + std::to_string(messages) +
           "|" + std::to_string(broadcasts) + "|" +
           std::to_string(max_site_space_words) + "|" + HexDouble(final_err);
  }
};

// One stream through the quality pass: no store, no readers, error at
// every publication point.
struct Quality {
  Counts counts;
  std::vector<double> errs;
  double windows = 0.0;  // window lengths the stream spans
};

Quality RunQuality(const Stream& s) {
  Quality q;
  auto built = Build(s.seed);
  if (!built.ok()) {
    q.counts.observe_errors = static_cast<long>(s.rows.size());
    return q;
  }
  std::unique_ptr<DistributedTracker> tracker = std::move(built).value();
  ExactWindow exact(kDim, kWindow);
  size_t added = 0;
  q.counts.boundaries = Feed(tracker.get(), s, &q.counts.observe_errors,
                             [&](size_t i) {
                               for (; added <= i; ++added) {
                                 exact.Add(s.rows[added]);
                                 exact.Advance(s.rows[added].timestamp);
                               }
                               q.errs.push_back(EvalError(exact, tracker->Query()));
                               q.counts.max_site_space_words =
                                   std::max(q.counts.max_site_space_words,
                                            tracker->MaxSiteSpaceWords());
                             });
  q.counts.final_err = q.errs.back();
  q.counts.ReadComm(*tracker);
  q.windows = static_cast<double>(s.rows.back().timestamp -
                                  s.rows.front().timestamp + 1) /
              static_cast<double>(kWindow);
  return q;
}

// One served feed: the feeder publishes at every publication point while
// kReaders sessions query.
struct Served {
  Counts counts;
  double observe_s = 0.0;     // feeder loop without its publishes
  // Rows / feeder-loop wall time of each window period (the rows up to a
  // publication point since the previous one), without its publish.
  std::vector<double> period_rows_per_s;
  double query_s = 0.0;       // tracker Query() inside the publishes
  double eval_s = 0.0;        // final published estimate vs exact window
  double cpu_per_wall = 0.0;  // process CPU / wall over the loaded phase
  double peak_heap_mib = 0.0;  // heap in use after each publish, maximum
  long versions = 0;          // versions the store reports published
  obs::MetricsSnapshot delta;
};

Served RunServed(const Stream& s, bool traced, ServeStats* stats) {
  Served out;
  auto built = Build(s.seed);
  if (!built.ok()) {
    out.counts.observe_errors = static_cast<long>(s.rows.size());
    return out;
  }
  std::unique_ptr<DistributedTracker> tracker = std::move(built).value();
  ServingTier tier;

  obs::SetEnabled(traced);
  const obs::MetricsSnapshot before =
      traced ? obs::Registry().Snapshot() : obs::MetricsSnapshot();
  const double query_before = stats->query_s;
  const double wall_before = stats->wall_s;
  const double cpu_before = CpuSeconds();
  RunServing(
      kDim, &tier, kWindow, s.rows,
      [&](const PublishFn& publish) {
        const int64_t start = NowNs();
        int64_t publishing = 0;
        int64_t period_start = start;
        size_t period_begin = 0;  // first row of the current period
        out.counts.boundaries =
            Feed(tracker.get(), s, &out.counts.observe_errors, [&](size_t i) {
              const int64_t t0 = NowNs();
              if (i + 1 > period_begin) {
                out.period_rows_per_s.push_back(
                    static_cast<double>(i + 1 - period_begin) /
                    (1e-9 * static_cast<double>(t0 - period_start)));
                period_begin = i + 1;
              }
              (void)publish(TimedQuery(*tracker), s.rows[i].timestamp);
              out.counts.max_site_space_words =
                  std::max(out.counts.max_site_space_words,
                           tracker->MaxSiteSpaceWords());
              out.peak_heap_mib = std::max(out.peak_heap_mib, HeapInUseMib());
              period_start = NowNs();
              publishing += period_start - t0;
            });
        out.observe_s =
            1e-9 * static_cast<double>(NowNs() - start - publishing);
      },
      stats);
  if (traced) out.delta = obs::Registry().Snapshot().DeltaSince(before);
  obs::SetEnabled(false);
  out.versions = tier.store.published_count();
  out.query_s = stats->query_s - query_before;
  out.cpu_per_wall = (CpuSeconds() - cpu_before) / (stats->wall_s - wall_before);
  out.counts.ReadComm(*tracker);

  // The final published version, as a reader sees it, against the exact
  // window at the last row.
  const int64_t eval_start = NowNs();
  ExactWindow exact(kDim, kWindow);
  for (const TimedRow& row : s.rows) {
    exact.Add(row);
    exact.Advance(row.timestamp);
  }
  serve::SnapshotReader reader(&tier.store);
  const serve::SnapshotRef latest = reader.Pin();
  out.counts.final_err =
      latest.has_value() ? EvalError(exact, latest->estimate()) : 1.0;
  out.eval_s = 1e-9 * static_cast<double>(NowNs() - eval_start);
  return out;
}

void CheckServed(const Served& feed, const Stream& s,
                 const std::string& reference, const char* what,
                 Report* report) {
  report->Attempt(static_cast<long>(s.rows.size()));
  report->Fail(feed.counts.observe_errors, "Observe returned non-OK");
  report->Check(feed.counts.boundaries >= kMinBoundaries,
                "the feed crosses >= 20 window boundaries");
  report->Check(feed.versions == feed.counts.boundaries + 1,
                "versions published = window boundaries crossed + 1");
  report->Check(feed.counts.final_err <= kEpsilon,
                "final published estimate within epsilon of the exact window");
  report->Check(feed.counts.Signature() == reference, what);
}

void CheckQuality(const Quality& q, const Stream& s, Report* report) {
  report->Attempt(static_cast<long>(s.rows.size() + q.errs.size()));
  report->Fail(q.counts.observe_errors, "Observe returned non-OK");
  long over = 0;
  for (double e : q.errs) over += e <= kEpsilon ? 0 : 1;
  report->Fail(over, "publication points with err > epsilon");
  report->Check(q.counts.boundaries >= kMinBoundaries,
                "the stream crosses >= 20 window boundaries");
}

}  // namespace

void RunServeWorkload(const Options& options, Report* report) {
  ThreadPool::SetGlobalThreads(1);
  // Set-up first, before input generation touches the heap.
  const SetupTimes setup =
      MeasureSetup([&] { return Build(options.seed); }, report);

  // The quality pass generates its other streams itself; it is untimed
  // and runs after the memory peak is read.
  const Stream served = MakeStream(StreamSeed(options.seed, 0));
  report->Context("algorithm", "\"PWOR\"");
  report->Context("streams", std::to_string(kStreams));
  report->Context("rows_per_stream", std::to_string(kRows));
  report->Context("dim", std::to_string(kDim));
  report->Context("window", std::to_string(kWindow));
  report->Context("sites", std::to_string(kSites));
  report->Context("epsilon", std::to_string(kEpsilon));
  report->Context("pool_threads",
                  std::to_string(ThreadPool::Global()->num_threads()));
  report->Context("loop", "\"1 feeder publishing per window boundary + " +
                              std::to_string(kReaders) +
                              " closed-loop sessions\"");
  ServeStats stats;
  const double baseline_mib = HeapInUseMib();

  if (!options.trace) {
    // As many served feeds as best fill --seconds (at least one); as for
    // the ingest passes, another only if it would end nearer the budget.
    std::vector<Served> feeds;
    const int64_t start = NowNs();
    for (;;) {
      const int64_t t0 = NowNs();
      feeds.push_back(RunServed(served, false, &stats));
      const int64_t now = NowNs();
      if (1e-9 * static_cast<double>(now - start + (now - t0) / 2) >
          options.seconds) {
        break;
      }
    }
    // Heap in use, not RSS: which freed blocks the allocator keeps depends
    // on the order readers drop old versions, and RSS followed it from run
    // to run by up to 50%.
    const double mem_peak_mb =
        MedianOf(feeds, [](const Served& f) { return f.peak_heap_mib; }) -
        baseline_mib;
    std::vector<Quality> quality;
    for (int k = 0; k < kStreams; ++k) {
      Stream other;
      if (k > 0) other = MakeStream(StreamSeed(options.seed, k));
      const Stream& s = k == 0 ? served : other;
      quality.push_back(RunQuality(s));
      CheckQuality(quality.back(), s, report);
    }
    const std::string reference = quality.front().counts.Signature();
    for (const Served& feed : feeds) {
      CheckServed(feed, served, reference,
                  "a served feed reports its stream's quality-pass counts",
                  report);
    }

    // Window periods are short (milliseconds) and many, so their median
    // is robust to bursts of interference from outside the process.
    std::vector<double> period_rows_per_s;
    for (const Served& feed : feeds) {
      period_rows_per_s.insert(period_rows_per_s.end(),
                               feed.period_rows_per_s.begin(),
                               feed.period_rows_per_s.end());
    }
    report->Add("ingest_rows_per_s", Median(period_rows_per_s), "1/s",
                static_cast<long>(period_rows_per_s.size()),
                "median over the window periods of all feeds of rows / "
                "feeder-loop wall time without the publish");
    std::vector<StreamCounts> counts;
    for (const Quality& q : quality) {
      StreamCounts& c = counts.emplace_back();
      c.words = q.counts.words;
      c.wire_frame_bytes = q.counts.wire_frame_bytes;
      c.windows = q.windows;
      c.max_site_space_words = q.counts.max_site_space_words;
      c.errs = q.errs;
    }
    ReportStreams(counts, report);
    report->Add("mem_peak_mb", mem_peak_mb, "MiB",
                static_cast<long>(feeds.size()),
                "median over feeds of the peak heap in use after a publish "
                "- heap in use after input generation");
    report->Add("setup_s", Median(setup.setup_s), "s",
                static_cast<long>(setup.setup_s.size()), "median");
    ReportServing(stats, report);
    return;
  }

  // Traced run: the quality pass of the served stream gives the reference
  // counts; one untraced served feed is the overhead base, then two traced
  // feeds whose counters must repeat exactly.
  const Quality quality = RunQuality(served);
  CheckQuality(quality, served, report);
  const std::string reference = quality.counts.Signature();
  const Served plain = RunServed(served, false, &stats);
  CheckServed(plain, served, reference,
              "a served feed reports its stream's quality-pass counts",
              report);
  std::vector<ServeStats> traced_stats(2);
  std::vector<Served> traced;
  for (ServeStats& ts : traced_stats) {
    traced.push_back(RunServed(served, true, &ts));
    CheckServed(traced.back(), served, reference,
                "traced feed reports the untraced counts bit for bit", report);
    report->Check(DeterministicCounters(traced.back().delta) ==
                      DeterministicCounters(traced.front().delta),
                  "traced repeats report identical counters");
  }
  Layers layers;
  layers.runs = static_cast<long>(traced.size());
  layers.observe_s = MedianOf(traced, [](const Served& f) { return f.observe_s; });
  layers.query_s = MedianOf(traced, [](const Served& f) { return f.query_s; });
  layers.eval_s = MedianOf(traced, [](const Served& f) { return f.eval_s; });
  layers.make_tracker_s = Median(setup.make_tracker_s);
  layers.setup_trials = static_cast<long>(setup.setup_s.size());
  layers.batched_shrink_ns = MedianOf(traced, [](const Served& f) {
    return static_cast<double>(SpanWallNs(f.delta, "batched_shrink"));
  });
  layers.cpu_per_wall =
      MedianOf(traced, [](const Served& f) { return f.cpu_per_wall; });
  layers.trace_overhead = layers.observe_s / plain.observe_s;
  layers.messages = plain.counts.messages;
  layers.broadcasts = plain.counts.broadcasts;
  layers.wire_frame_bytes = plain.counts.wire_frame_bytes;
  layers.counts = traced.front().delta;
  layers.serving = traced.front().delta;
  ReportLayers(layers, traced_stats.front(), report);
}

}  // namespace dswm::e2e
