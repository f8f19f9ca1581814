// b2h-perfbench — binary-in -> report-out benchmark of the whole flow.
//
//   b2h-perfbench --workload cold_flow|design_sweep|serve_mix --seed N
//                 --seconds S --trace 0|1 --run-dir DIR
//
// Prints the drawn inputs, a metric table (name, value, unit, samples) and,
// as the last line, one JSON object {"correct","attempted","failed",
// "metrics"}: end-to-end metrics with --trace 0, per-layer ones with
// --trace 1.  Exits 1 when any output was wrong, 2 on a usage or set-up
// error (no result line then).  Ops the program answered with an error
// count as failed without making the run incorrect.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: b2h-perfbench --workload cold_flow|design_sweep|"
               "serve_mix --seed N --seconds S --trace 0|1 --run-dir DIR\n");
  return 2;
}

void PrintResult(const perfbench::Outcome& outcome) {
  std::printf("%-40s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& metric : outcome.metrics) {
    std::printf("%-40s %16.6f %-6s %8zu\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              outcome.wrong == 0 ? "true" : "false", outcome.attempted,
              outcome.failed);
  bool first = true;
  for (const perfbench::Metric& metric : outcome.metrics) {
    // failed_ratio is 0 on a correct run, so it has no relative bound; the
    // result line carries it as attempted/failed instead.
    if (metric.name == "failed_ratio") continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.serve_bin = PERFBENCH_SERVE_BIN;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.run_dir.empty() || args.seconds <= 0.0) {
    return Usage();
  }
  // Measure the default configuration: no persisted cache, default engine.
  ::unsetenv("B2H_CACHE_DIR");
  ::unsetenv("B2H_SIM_ENGINE");
  ::mkdir(args.run_dir.c_str(), 0755);

  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  perfbench::Outcome outcome;
  try {
    if (args.workload == "cold_flow") {
      outcome = perfbench::RunColdFlow(args);
    } else if (args.workload == "design_sweep") {
      outcome = perfbench::RunDesignSweep(args);
    } else if (args.workload == "serve_mix") {
      outcome = perfbench::RunServeMix(args);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "b2h-perfbench: %s\n", e.what());
    return 2;
  }
  PrintResult(outcome);
  return outcome.wrong == 0 ? 0 : 1;
}
