#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "e2e.h"

namespace dswm::e2e {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, long samples,
                 const std::string& statistic) {
  metrics_.push_back(Metric{name, value, unit, samples, statistic});
}

void Report::Fail(long n, const std::string& what) {
  if (n <= 0) return;
  failed_ += n;
  failures_.push_back(std::to_string(n) + " x " + what);
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Fail(1, what);
}

void Report::Context(const std::string& key, const std::string& json_value) {
  context_.emplace_back(key, json_value);
}

void Report::Print() const {
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "dswm_e2e: FAILED %s\n", f.c_str());
  }
  std::printf("%-36s %22s %-6s %9s  %s\n", "# metric", "value", "unit",
              "samples", "statistic");
  for (const Metric& m : metrics_) {
    std::printf("%-36s %22.10g %-6s %9ld  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.statistic.c_str());
  }
  // Run context plus every metric's sample count and statistic, as one
  // JSON line ahead of the result line.
  std::string ctx = "{\"context\": {";
  for (size_t i = 0; i < context_.size(); ++i) {
    ctx += (i > 0 ? ", \"" : "\"") + context_[i].first +
           "\": " + context_[i].second;
  }
  ctx += "}, \"samples\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    ctx += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"n\": " +
           std::to_string(m.samples) + ", \"statistic\": \"" + m.statistic +
           "\"}";
  }
  ctx += "}}";
  std::printf("%s\n", ctx.c_str());

  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Percentile(&values, 0.5);
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ProcStatusMib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mib = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mib = std::strtod(line + len + 1, nullptr) / 1024.0;  // kB
      break;
    }
  }
  std::fclose(f);
  return mib;
}

double HeapInUseMib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string DeterministicCounters(const obs::MetricsSnapshot& delta) {
  static const char* const kPrefixes[] = {"linalg.", "window.", "sketch.",
                                          "sampling.", "net."};
  const auto keep = [](const std::string& name) {
    if (name == "serve.store.published") return true;
    for (const char* p : kPrefixes) {
      if (name.rfind(p, 0) == 0) return true;
    }
    return false;
  };
  std::string out;
  for (const auto& [name, value] : delta.counters) {
    if (keep(name)) out += name + "=" + std::to_string(value) + ";";
  }
  for (const auto& [name, h] : delta.histograms) {
    if (!keep(name)) continue;
    out += name + "=[" + std::to_string(h.total_count) + "," +
           std::to_string(h.sum);
    for (long c : h.counts) out += "," + std::to_string(c);
    out += "];";
  }
  return out;
}

long CounterOr0(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

long SpanWallNs(const obs::MetricsSnapshot& s, const std::string& phase) {
  // "span.<phase>.wall_ns" and "span.<parents>.<phase>.wall_ns" alike
  // end in ".<phase>.wall_ns".
  const std::string suffix = "." + phase + ".wall_ns";
  long ns = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("span.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ns += value;
    }
  }
  return ns;
}

void ReportStreams(const std::vector<StreamCounts>& streams, Report* report) {
  const long k = static_cast<long>(streams.size());
  double words = 0.0;
  double wire = 0.0;
  double windows = 0.0;
  double err_sum = 0.0;
  long points = 0;
  long space = 0;
  std::vector<double> max_errs;
  for (const StreamCounts& s : streams) {
    words += static_cast<double>(s.words);
    wire += static_cast<double>(s.wire_frame_bytes);
    windows += s.windows;
    for (double e : s.errs) err_sum += e;
    points += static_cast<long>(s.errs.size());
    space = std::max(space, s.max_site_space_words);
    max_errs.push_back(
        s.errs.empty() ? 0.0 : *std::max_element(s.errs.begin(), s.errs.end()));
  }
  const std::string pooled = "total over " + std::to_string(k) +
                             " streams / their windows";
  report->Add("words_per_window", words / windows, "words", k, pooled);
  report->Add("wire_bytes_per_window", wire / windows, "bytes", k, pooled);
  report->Add("avg_err", err_sum / static_cast<double>(std::max(points, 1L)),
              "ratio", points, "mean over query points of all streams");
  report->Add("max_err", Median(max_errs), "ratio", k,
              "median over streams of the max over query points");
  report->Add("max_site_space_words", static_cast<double>(space), "words",
              points, "max over query points of all streams");
}

void ReportLayers(const Layers& in, const ServeStats& serve, Report* report) {
  const long n = in.runs;
  const std::string med = "median over traced runs";
  const auto count = [&](const char* name) {
    report->Add(name, static_cast<double>(CounterOr0(in.counts, name)),
                "count", 1, "count");
  };
  report->Add("core.observe.wall_s", in.observe_s, "s", n, med);
  report->Add("monitor.query.wall_s", in.query_s, "s", n, med);
  report->Add("monitor.eval.wall_s", in.eval_s, "s", n, med);
  report->Add("core.make_tracker_s", in.make_tracker_s, "s", in.setup_trials,
              "median of set-up trials");
  for (const char* c :
       {"linalg.eigen.calls", "linalg.eigen.ql_iterations",
        "linalg.eigen.jacobi_sweeps", "linalg.gram.flops",
        "linalg.gram_transpose.flops", "linalg.matmul.flops",
        "linalg.psd_sqrt.calls"}) {
    count(c);
  }
  const auto batch = in.counts.histograms.find("linalg.batched_eigen.batch_size");
  const long batches =
      batch == in.counts.histograms.end() ? 0 : batch->second.total_count;
  report->Add("linalg.batched_eigen.batch_size_mean",
              batches > 0 ? static_cast<double>(batch->second.sum) /
                                static_cast<double>(batches)
                          : 0.0,
              "count", batches, "mean over batches");
  count("sketch.fd.shrinks");
  report->Add("span.batched_shrink.wall_ns", in.batched_shrink_ns, "ns", n,
              med);
  for (const char* c :
       {"window.meh.merges", "window.meh.expired_buckets", "window.geh.merges",
        "sampling.threshold_broadcasts", "sampling.negotiations",
        "sampling.refill_rounds", "net.sends", "net.deliveries"}) {
    count(c);
  }
  report->Add("comm.messages", static_cast<double>(in.messages), "count", 1,
              "count");
  report->Add("comm.broadcasts", static_cast<double>(in.broadcasts), "count",
              1, "count");
  report->Add("comm.wire_frame_bytes", static_cast<double>(in.wire_frame_bytes),
              "bytes", 1, "count");
  ReportServingLayers(serve, in.serving, report);
  report->Add("common.thread_pool.cpu_per_wall", in.cpu_per_wall, "ratio", n,
              med);
  report->Add("obs.trace_overhead", in.trace_overhead, "ratio", n,
              "median traced / median untraced ingest wall time");
}

uint64_t StreamSeed(uint64_t seed, int k) {
  Rng rng(seed);
  uint64_t s = rng.NextU64();
  for (int i = 0; i < k; ++i) s = rng.NextU64();
  return s;
}

std::vector<int> AssignSites(uint64_t seed, size_t rows) {
  Rng rng(seed ^ 0x5175e5a551735ULL);
  std::vector<int> sites(rows);
  for (int& s : sites) s = static_cast<int>(rng.NextBelow(kSites));
  return sites;
}

}  // namespace dswm::e2e
