// The serving phase: one publisher thread runs a feed that publishes
// versions into the SnapshotStore while kReaders closed-loop sessions
// issue a fixed PCA / anomaly / change mix. Every call is timed here, in
// nanoseconds, because the obs serve.query.latency_us histogram's first
// bucket edge is 1 us and cannot resolve these queries.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "e2e.h"

namespace dswm::e2e {

namespace {

// Pins the calling thread to the (1 + slot)-th CPU the process may use,
// wrapping around. The serving threads each get a CPU of their own, so the
// closed-loop sessions always run in parallel: left to the scheduler, two
// short-lived readers sometimes share one CPU for a whole phase, which
// halves throughput without moving latency. Best effort: a failure leaves
// the thread unpinned.
void PinToCpu(int slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  int skip = (1 + slot) % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

const char* const kKindNames[kKinds] = {"pca", "anomaly", "change"};

serve::StoreOptions TierStoreOptions() {
  serve::StoreOptions options;
  options.max_readers = kReaders + 2;
  return options;
}

}  // namespace

LatencyLog::LatencyLog() : us_(kCapacity, 0.0f), kind_(kCapacity, 0) {}

void LatencyLog::Add(int kind, double us) {
  const size_t i = count_ % kCapacity;
  us_[i] = static_cast<float>(us);
  kind_[i] = static_cast<uint8_t>(kind);
  ++count_;
}

void LatencyLog::AppendTo(int kind, std::vector<double>* out) const {
  const size_t kept = std::min(count_, kCapacity);
  for (size_t n = 0; n < kept; ++n) {
    const size_t i = (count_ - kept + n) % kCapacity;
    if (kind < 0 || kind_[i] == kind) out->push_back(us_[i]);
  }
}

namespace {

// Summarizes the phase in `latency` and clears the logs. The p99 is
// taken per chunk of kTailChunk consecutive queries of one reader;
// ReportServing takes the median over the chunks of every phase, so a
// burst of interference from outside the process moves a few chunks, not
// the statistic.
ServePhase EndPhase(long queries, double wall_s,
                    std::vector<LatencyLog>* latency) {
  ServePhase phase;
  phase.queries = queries;
  phase.qps = wall_s > 0.0 ? static_cast<double>(queries) / wall_s : 0.0;
  std::vector<double> all;
  for (const LatencyLog& log : *latency) {
    std::vector<double> mine;
    log.AppendTo(-1, &mine);
    for (size_t at = 0; at + kTailChunk <= mine.size(); at += kTailChunk) {
      std::vector<double> chunk(mine.begin() + static_cast<long>(at),
                                mine.begin() + static_cast<long>(at + kTailChunk));
      phase.chunk_p99_us.push_back(Percentile(&chunk, 0.99));
    }
    all.insert(all.end(), mine.begin(), mine.end());
  }
  phase.p50_us = Percentile(&all, 0.5);
  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> kind;
    for (const LatencyLog& log : *latency) log.AppendTo(k, &kind);
    phase.kind_p50_us[static_cast<size_t>(k)] = Percentile(&kind, 0.5);
  }
  for (LatencyLog& log : *latency) log.Clear();
  return phase;
}

}  // namespace

ServingTier::ServingTier()
    : store(TierStoreOptions()), service(&store) {
  sessions.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) sessions.push_back(service.NewSession());
}

SetupTimes MeasureSetup(
    const std::function<StatusOr<std::unique_ptr<DistributedTracker>>()>& build,
    Report* report) {
  SetupTimes times;
  double timed_s = 0.0;
  for (int i = -kSetupWarmup;
       i < kSetupMaxTrials && (i < kSetupTrials || timed_s < kSetupMinSeconds);
       ++i) {
    {
      const int64_t t0 = NowNs();
      auto tracker = build();
      const int64_t t1 = NowNs();
      ServingTier tier;
      const int64_t t2 = NowNs();
      report->Check(tracker.ok(), "MakeTracker succeeds");
      if (i >= 0) {
        times.setup_s.push_back(1e-9 * static_cast<double>(t2 - t0));
        timed_s += times.setup_s.back();
        times.make_tracker_s.push_back(1e-9 * static_cast<double>(t1 - t0));
      }
    }
    // Every trial starts with the freed memory returned to the system, as
    // a fresh process would. Otherwise whether the allocator kept the last
    // trial's pages (tens of MiB for PWR) varies from run to run, and with
    // it the page faults a trial takes.
    malloc_trim(0);
  }
  return times;
}

Queried TimedQuery(const DistributedTracker& tracker) {
  const int64_t t0 = NowNs();
  Queried q{tracker.Query(), 0.0};
  q.query_s = 1e-9 * static_cast<double>(NowNs() - t0);
  return q;
}

void RunServing(int dim, ServingTier* tier, Timestamp window,
                const std::vector<TimedRow>& probes,
                const std::function<void(const PublishFn&)>& feed,
                ServeStats* stats) {
  std::atomic<bool> feed_done{false};
  struct ReaderTally {
    long queries = 0;
    std::array<long, kKinds> kind_queries{};
    long errors = 0;
    bool regressed = false;
  };
  std::vector<ReaderTally> tallies(kReaders);

  const PublishFn publish = [&](Queried queried, Timestamp at) -> Status {
    const int64_t t0 = NowNs();
    Status status = tier->store.Publish(std::move(queried.estimate), at, window);
    const double publish_s = 1e-9 * static_cast<double>(NowNs() - t0);
    stats->query_s += queried.query_s;
    stats->publish_ms.push_back(1e3 * (queried.query_s + publish_s));
    if (!status.ok()) ++stats->publish_errors;
    return status;
  };

  const auto reader = [&](int r) {
    PinToCpu(r);
    ReaderTally& tally = tallies[static_cast<size_t>(r)];
    serve::QueryService::Session& session =
        tier->sessions[static_cast<size_t>(r)];
    LatencyLog& log = stats->latency[static_cast<size_t>(r)];
    // Queries start once a version exists: before it every query is a
    // FailedPrecondition by contract, not a measurement.
    while (tier->store.latest_version() == 0) {
      if (feed_done.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    uint64_t last_version = 0;
    for (long q = 0; !feed_done.load(std::memory_order_acquire); ++q) {
      const int kind = static_cast<int>(q % kKinds);
      // A per-reader stride keeps the sessions off the same probe rows.
      const double* x =
          probes[static_cast<size_t>(q * 7 + r * 31) % probes.size()]
              .values.data();
      Status status = Status::OK();
      uint64_t version = 0;
      const int64_t t0 = NowNs();
      switch (kind) {
        case 0: {
          auto got = session.Pca(x, dim);
          status = got.status();
          if (got.ok()) version = got.value().meta.version;
          break;
        }
        case 1: {
          auto got = session.Anomaly(x, dim);
          status = got.status();
          if (got.ok()) version = got.value().meta.version;
          break;
        }
        default: {
          auto got = session.Change();
          status = got.status();
          if (got.ok()) version = got.value().meta.version;
          break;
        }
      }
      log.Add(kind, 1e-3 * static_cast<double>(NowNs() - t0));
      ++tally.queries;
      ++tally.kind_queries[static_cast<size_t>(kind)];
      if (!status.ok()) {
        ++tally.errors;
        continue;
      }
      if (version < last_version) tally.regressed = true;
      last_version = version;
    }
  };

  const int64_t start = NowNs();
  {
    // The caller only waits; the publisher and every reader get a worker.
    ThreadPool pool(kReaders + 2);
    pool.Submit([&] {
      PinToCpu(kReaders);
      feed(publish);
      feed_done.store(true, std::memory_order_release);
    });
    for (int r = 0; r < kReaders; ++r) pool.Submit([&, r] { reader(r); });
    pool.WaitIdle();
  }
  const double wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  stats->wall_s += wall_s;
  long queries = 0;
  for (const ReaderTally& t : tallies) {
    queries += t.queries;
    stats->query_errors += t.errors;
    stats->version_regressed = stats->version_regressed || t.regressed;
    for (int k = 0; k < kKinds; ++k) {
      stats->kind_queries[static_cast<size_t>(k)] +=
          t.kind_queries[static_cast<size_t>(k)];
    }
  }
  stats->queries += queries;
  stats->phases.push_back(EndPhase(queries, wall_s, &stats->latency));
}

void ReportServing(const ServeStats& stats, Report* report) {
  const long publishes = static_cast<long>(stats.publish_ms.size());
  report->Attempt(stats.queries + publishes);
  report->Fail(stats.query_errors, "reader queries returned non-OK");
  report->Fail(stats.publish_errors, "publishes returned non-OK");
  report->Check(!stats.version_regressed,
                "a session's SnapshotMeta.version never decreases");
  report->Check(publishes >= 1, "at least one version was published");
  std::vector<double> chunk_p99_us;
  for (const ServePhase& phase : stats.phases) {
    // A chunk's p99 has 163 samples beyond it.
    report->Check(!phase.chunk_p99_us.empty(),
                  "every serving phase fills a p99 chunk");
    chunk_p99_us.insert(chunk_p99_us.end(), phase.chunk_p99_us.begin(),
                         phase.chunk_p99_us.end());
  }

  // Medians over phases: each phase samples the machine at another time.
  const long phases = static_cast<long>(stats.phases.size());
  const std::string over =
      "median over " + std::to_string(phases) + " serving phase(s) of ";
  report->Add("serve_qps",
              MedianOf(stats.phases, [](const ServePhase& p) { return p.qps; }),
              "1/s", stats.queries, over + "queries / phase wall time");
  report->Add("query_p50_us",
              MedianOf(stats.phases, [](const ServePhase& p) { return p.p50_us; }),
              "us", stats.queries, over + "the p50");
  report->Add("query_p99_us", Median(chunk_p99_us), "us", stats.queries,
              "median over " + std::to_string(chunk_p99_us.size()) +
                  " chunks of " + std::to_string(kTailChunk) +
                  " consecutive queries of one reader of the chunk's p99");
  report->Add("publish_p50_ms", Median(stats.publish_ms), "ms", publishes,
              "median of Query()+Publish per version");
}

void ReportServingLayers(const ServeStats& stats,
                         const obs::MetricsSnapshot& delta, Report* report) {
  const long publishes = static_cast<long>(stats.publish_ms.size());
  double publish_s = 0.0;
  for (double ms : stats.publish_ms) publish_s += 1e-3 * ms;
  report->Add("serve.publish.wall_s", publish_s, "s", publishes, "sum");
  report->Add("serve.publish.count", static_cast<double>(publishes), "count",
              publishes, "count");
  // Materialization spans; publication outside any enclosing span records
  // them as span.query.*, inside the driver as span.driver.*.query.*.
  for (const char* phase : {"query.gram", "query.eigen", "query.psd_sqrt"}) {
    report->Add(std::string("span.") + phase + ".wall_ns",
                static_cast<double>(SpanWallNs(delta, phase)), "ns", publishes,
                "sum");
  }
  for (const char* name : {"serve.store.published", "serve.store.reclaimed"}) {
    report->Add(name, static_cast<double>(CounterOr0(delta, name)), "count",
                1, "count");
  }
  for (int k = 0; k < kKinds; ++k) {
    const auto kk = static_cast<size_t>(k);
    const long issued = stats.kind_queries[kk];
    const std::string base = std::string("serve.") + kKindNames[k];
    report->Add(base + ".p50_us",
                MedianOf(stats.phases,
                         [&](const ServePhase& p) { return p.kind_p50_us[kk]; }),
                "us", issued, "median over serving phases of the p50");
    report->Add(base + ".count", static_cast<double>(issued), "count", issued,
                "queries issued");
  }
}

}  // namespace dswm::e2e
