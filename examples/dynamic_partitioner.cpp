// Dynamic (runtime) partitioning demo: the scenario the paper's §6 argues
// decompilation-based partitioning was built for.  The benchmark binary
// executes on the simulated MIPS while an online detector watches backward
// branches; when a loop turns hot it is incrementally decompiled,
// synthesized, and swapped into the (modeled) FPGA mid-run.  The final
// report shows the dynamic outcome next to the static ahead-of-time oracle
// on the same binary.
//
//   ./build/examples/dynamic_partitioner crc
//   ./build/examples/dynamic_partitioner fir --platform mips400
//   ./build/examples/dynamic_partitioner brev --threshold 200
//   ./build/examples/dynamic_partitioner --all        # whole suite summary
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

namespace {

int RunWholeSuite(const Toolchain& toolchain,
                  const std::string& platform_name) {
  printf("%-11s %9s %9s %11s %7s %7s\n", "benchmark", "static-x", "dynamic-x",
         "convergence", "swaps", "events");
  double sum_convergence = 0.0;
  int counted = 0;
  for (const auto& bench : suite::AllBenchmarks()) {
    auto binary = suite::BuildBinary(bench, 1);
    if (!binary.ok()) continue;
    const auto run = toolchain.RunDynamicOn(
        platform_name,
        std::make_shared<const mips::SoftBinary>(std::move(binary).take()),
        bench.name);
    if (!run.ok()) {
      printf("%-11s (%s)\n", bench.name.c_str(),
             ToString(run.status().kind()));
      continue;
    }
    const ToolchainRun& oracle = run.value().static_run;
    const dynamic::DynamicRun& dyn = run.value().dynamic_run;
    const double convergence = run.value().convergence;
    printf("%-11s %9.2f %9.2f %10.0f%% %7zu %7llu\n", bench.name.c_str(),
           oracle.estimate.speedup, dyn.estimate.speedup, convergence * 100.0,
           dyn.swaps.size(),
           static_cast<unsigned long long>(dyn.detector_events));
    sum_convergence += convergence;
    ++counted;
  }
  if (counted > 0) {
    printf("%-11s %29.0f%%\n", "AVERAGE", sum_convergence / counted * 100.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    printf("usage: %s <benchmark-name | --all> [--platform NAME] "
           "[--threshold N]\n", argv[0]);
    printf("benchmarks:");
    for (const auto& bench : suite::AllBenchmarks()) {
      printf(" %s", bench.name.c_str());
    }
    printf("\n");
    return 1;
  }

  std::string platform_name = "mips200-xc2v1000";
  partition::DynamicPolicy policy;
  const std::string input = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) {
      printf("flag '%s' is missing its value\n", argv[i]);
      return 1;
    }
    if (std::strcmp(argv[i], "--platform") == 0) {
      platform_name = argv[i + 1];
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      char* end = nullptr;
      policy.hot_threshold = std::strtoull(argv[i + 1], &end, 10);
      if (end == argv[i + 1] || *end != '\0' || policy.hot_threshold == 0) {
        printf("--threshold needs a positive integer, got '%s'\n",
               argv[i + 1]);
        return 1;
      }
    } else {
      printf("unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  if (!PlatformRegistry::Global().Find(platform_name).has_value()) {
    printf("unknown platform '%s'\n", platform_name.c_str());
    return 1;
  }

  Toolchain toolchain;
  toolchain.WithDynamicPolicy(policy);

  if (input == "--all") return RunWholeSuite(toolchain, platform_name);

  const suite::Benchmark* bench = suite::FindBenchmark(input);
  if (bench == nullptr) {
    printf("unknown benchmark '%s'\n", input.c_str());
    return 1;
  }
  auto built = suite::BuildBinary(*bench, 1);
  if (!built.ok()) {
    printf("build failed: %s\n", built.status().message().c_str());
    return 1;
  }
  auto binary =
      std::make_shared<const mips::SoftBinary>(std::move(built).take());

  auto run = toolchain.RunDynamicOn(platform_name, binary, input);
  if (!run.ok()) {
    printf("dynamic partitioning failed (%s): %s\n",
           ToString(run.status().kind()), run.status().message().c_str());
    return 2;
  }
  printf("%s", run.value().Report().c_str());
  printf("time to first kernel: %.1f ms host wall clock "
         "(online CAD total %.1f ms)\n",
         run.value().dynamic_run.time_to_first_kernel_ms,
         run.value().dynamic_run.online_cad_ms);
  return 0;
}
