// Experiment E5: partitioning speed (google-benchmark).
//
// Paper §3: "we use a simpler technique based on the well-known 90-10 rule
// in order to reduce the time required for partitioning.  Achieving a small
// partitioning execution time is important because we intend to integrate
// our approach with existing dynamic partitioning and dynamic synthesis
// approaches."
//
// Measures the wall time of each flow stage on representative binaries:
// decompilation alone, partitioning+synthesis alone (the paper-greedy
// strategy), and the full flow (Toolchain::RunOn).  For dynamic (on-chip)
// use the whole flow must be milliseconds-scale.
#include <benchmark/benchmark.h>

#include <memory>

#include "decomp/pass_manager.hpp"
#include "mips/simulator.hpp"
#include "partition/strategy.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

namespace {

struct Prepared {
  std::shared_ptr<const mips::SoftBinary> binary;
  mips::RunResult run;
};

Prepared Prepare(const char* name) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  auto binary = suite::BuildBinary(*bench, 1);
  Prepared prepared;
  prepared.binary =
      std::make_shared<const mips::SoftBinary>(std::move(binary).take());
  mips::Simulator sim(*prepared.binary);
  prepared.run = sim.Run();
  return prepared;
}

const decomp::PassManager& DefaultPipeline() {
  static const decomp::PassManager pipeline =
      decomp::PassManager::Preset("default").take();
  return pipeline;
}

void BM_Decompile(benchmark::State& state, const char* name) {
  const Prepared prepared = Prepare(name);
  for (auto _ : state) {
    auto program =
        DefaultPipeline().Run(prepared.binary, &prepared.run.profile);
    benchmark::DoNotOptimize(program);
  }
  state.SetLabel(std::to_string(prepared.binary->text.size()) + " instrs");
}

void BM_PartitionAndSynthesize(benchmark::State& state, const char* name) {
  const Prepared prepared = Prepare(name);
  auto program = DefaultPipeline().Run(prepared.binary, &prepared.run.profile);
  if (!program.ok()) {
    state.SkipWithError("decompilation failed");
    return;
  }
  const auto strategy =
      partition::StrategyRegistry::Global().Create("paper-greedy");
  const partition::Platform platform;
  for (auto _ : state) {
    auto result = strategy->Partition(program.value(), prepared.run.profile,
                                      platform, {}, {});
    benchmark::DoNotOptimize(result);
  }
}

void BM_FullFlow(benchmark::State& state, const char* name) {
  const Prepared prepared = Prepare(name);
  Toolchain toolchain;
  toolchain.WithThreads(1);
  for (auto _ : state) {
    auto run = toolchain.RunOn("mips200-xc2v1000", prepared.binary, name);
    benchmark::DoNotOptimize(run);
  }
}

}  // namespace
BENCHMARK_CAPTURE(BM_Decompile, fir, "fir");
BENCHMARK_CAPTURE(BM_Decompile, adpcm_enc, "adpcm_enc");
BENCHMARK_CAPTURE(BM_Decompile, matmul, "matmul");
BENCHMARK_CAPTURE(BM_PartitionAndSynthesize, fir, "fir");
BENCHMARK_CAPTURE(BM_PartitionAndSynthesize, adpcm_enc, "adpcm_enc");
BENCHMARK_CAPTURE(BM_PartitionAndSynthesize, matmul, "matmul");
BENCHMARK_CAPTURE(BM_FullFlow, fir, "fir");
BENCHMARK_CAPTURE(BM_FullFlow, brev, "brev");

BENCHMARK_MAIN();
