// dswm_e2e: the repository's end-to-end benchmark.
//
//   dswm_e2e --workload <da2_synthetic|pwr_pamap|serve_wiki> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, measures for about
// --seconds, checks the outputs, and prints a metric table, a context line
// (build, machine, seed, per-metric sample counts and statistics) and, as
// the last line, {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics with obs off; --trace 1 reports the
// per-layer metrics from obs-on runs. Exits 1 when any correctness gate
// fails, 2 on bad arguments or a build it refuses to measure.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "e2e.h"

namespace dswm::e2e {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dswm_e2e: %s\nusage: dswm_e2e --workload "
               "<da2_synthetic|pwr_pamap|serve_wiki> --seed <n> --seconds "
               "<s> --trace <0|1>\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      options->workload = value;
      have[0] = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options->seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && options->seconds > 0.0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      have[3] = value == "0" || value == "1";
      options->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

// Numbers from a debug, sanitizer or FMA-contracted build are not the
// program users run; refuse to produce them.
const char* UnmeasurableBuild() {
#ifndef NDEBUG
  return "assertions are on (not a Release build)";
#else
  if (std::strcmp(DSWM_E2E_BUILD_TYPE, "Release") != 0) {
    return "CMAKE_BUILD_TYPE is not Release";
  }
  if (DSWM_E2E_FAST_MATH) return "DSWM_FAST_MATH is on";
  if (DSWM_E2E_SANITIZE[0] != '\0') return "a sanitizer build";
  return nullptr;
#endif
}

}  // namespace
}  // namespace dswm::e2e

int main(int argc, char** argv) {
  using namespace dswm::e2e;
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  const bool ingest = IsIngestWorkload(options.workload);
  if (!ingest && options.workload != "serve_wiki") {
    return Usage("unknown workload");
  }
  if (const char* why = UnmeasurableBuild()) {
    std::fprintf(stderr, "dswm_e2e: refusing to measure: %s\n", why);
    return 2;
  }

  Report report;
  report.Context("workload", "\"" + options.workload + "\"");
  report.Context("seed", std::to_string(options.seed));
  report.Context("seconds", std::to_string(options.seconds));
  report.Context("trace", options.trace ? "1" : "0");
  report.Context("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Context("build_type", std::string("\"") + DSWM_E2E_BUILD_TYPE + "\"");
  report.Context("fast_math", DSWM_E2E_FAST_MATH ? "true" : "false");
  report.Context("compiler", std::string("\"") + DSWM_E2E_COMPILER + "\"");
  if (ingest) {
    RunIngestWorkload(options, &report);
  } else {
    RunServeWorkload(options, &report);
  }
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
