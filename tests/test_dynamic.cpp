// Dynamic (runtime) partitioning tests: online detection matches the static
// oracle's choice, kernels swap in mid-run with a real speedup, the whole
// flow is deterministic, the instrumented simulator is semantically
// identical to the plain one, and the detector hook stays cheap.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "decomp/lifter.hpp"
#include "dynamic/dynamic_partitioner.hpp"
#include "dynamic/hot_region.hpp"
#include "mips/assembler.hpp"
#include "mips/simulator.hpp"
#include "partition/dynamic_policy.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

std::shared_ptr<const mips::SoftBinary> BuildSuiteBinary(const char* name) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  if (bench == nullptr) return nullptr;
  auto built = suite::BuildBinary(*bench, 1);
  if (!built.ok()) return nullptr;
  return std::make_shared<const mips::SoftBinary>(std::move(built).take());
}

// ---------------------------------------------------------- detector unit

TEST(HotRegionCache, ReportsOncePerResidencyAtThreshold) {
  dynamic::HotRegionCache cache(16, 3);
  EXPECT_FALSE(cache.Observe(0x400100, 0x400120).has_value());
  EXPECT_FALSE(cache.Observe(0x400100, 0x400120).has_value());
  const auto hot = cache.Observe(0x400100, 0x400140);
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->header_pc, 0x400100u);
  EXPECT_EQ(hot->count, 3u);
  // Widest latch seen so far is tracked.
  EXPECT_EQ(hot->max_latch_pc, 0x400140u);
  // No re-report while resident.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(cache.Observe(0x400100, 0x400120).has_value());
  }
  EXPECT_EQ(cache.events(), 13u);
}

TEST(HotRegionCache, ConflictingHeaderMustWearDownResident) {
  dynamic::HotRegionCache cache(1, 100);  // every header maps to one slot
  for (int i = 0; i < 5; ++i) (void)cache.Observe(0x400100, 0x400120);
  // A conflicting header decays the resident counter; it takes over only
  // after the resident count reaches zero.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cache.MaxLatchFor(0x400100), 0x400120u);
    (void)cache.Observe(0x400200, 0x400220);
  }
  (void)cache.Observe(0x400200, 0x400220);  // takes the slot over
  EXPECT_EQ(cache.MaxLatchFor(0x400200), 0x400220u);
  EXPECT_EQ(cache.MaxLatchFor(0x400100), 0u);
}

// ----------------------------------------------------- eviction plan unit

TEST(DynamicPolicy, PlanEvictionFitsWithoutEvicting) {
  const auto plan = partition::PlanEviction({}, 1000.0, 200.0, 300.0,
                                            /*candidate_value_density=*/1.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(DynamicPolicy, PlanEvictionPicksLowestValueDensity) {
  std::vector<partition::ActiveKernel> active = {
      {/*id=*/0, /*area=*/400.0, /*density=*/0.5},
      {/*id=*/1, /*area=*/400.0, /*density=*/0.1},
  };
  const auto plan =
      partition::PlanEviction(active, 1000.0, 800.0, 300.0,
                              /*candidate_value_density=*/0.3);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->size(), 1u);
  EXPECT_EQ(plan->front(), 1u);  // the low-density kernel goes
}

TEST(DynamicPolicy, PlanEvictionRefusesWhenCandidateIsWorse) {
  std::vector<partition::ActiveKernel> active = {
      {/*id=*/0, /*area=*/800.0, /*density=*/0.9},
  };
  EXPECT_FALSE(partition::PlanEviction(active, 1000.0, 800.0, 300.0,
                                       /*candidate_value_density=*/0.3)
                   .has_value());
  // And an over-budget candidate is rejected outright.
  EXPECT_FALSE(
      partition::PlanEviction({}, 1000.0, 0.0, 1500.0, 9.0).has_value());
}

// ------------------------------------------- instrumented-run equivalence

class CountingObserver final : public mips::RunObserver {
 public:
  void OnBackwardBranches(std::span<const mips::BranchEvent> events,
                          const mips::RunResult&) override {
    total_ += events.size();
    for (const auto& event : events) {
      EXPECT_LT(event.target_pc, event.from_pc);
    }
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  std::uint64_t total_ = 0;
};

TEST(InstrumentedRun, SemanticallyIdenticalToPlainRun) {
  for (const char* name : {"crc", "fir", "g721_quan"}) {
    auto binary = BuildSuiteBinary(name);
    ASSERT_NE(binary, nullptr) << name;

    mips::Simulator plain(*binary);
    const auto base = plain.Run();

    mips::Simulator instrumented(*binary);
    CountingObserver observer;
    const auto hooked =
        instrumented.RunInstrumented({}, 100'000'000, &observer);

    EXPECT_EQ(base.reason, hooked.reason) << name;
    EXPECT_EQ(base.return_value, hooked.return_value) << name;
    EXPECT_EQ(base.instructions, hooked.instructions) << name;
    EXPECT_EQ(base.cycles, hooked.cycles) << name;
    EXPECT_EQ(base.profile.instr_count, hooked.profile.instr_count) << name;
    EXPECT_EQ(base.profile.cycle_count, hooked.profile.cycle_count) << name;

    // Every taken backward branch/jump in the profile reached the observer.
    std::uint64_t expected = 0;
    for (std::size_t word = 0; word < binary->text.size(); ++word) {
      const auto instr = mips::Decode(binary->text[word]);
      if (!instr.has_value()) continue;
      const auto pc =
          mips::kTextBase + static_cast<std::uint32_t>(word) * 4u;
      if (mips::IsBranch(instr->op) &&
          mips::BranchTarget(pc, *instr) < pc) {
        expected += base.profile.branch_taken[word];
      } else if (instr->op == mips::Op::kJ &&
                 mips::JumpTarget(pc, *instr) < pc) {
        expected += base.profile.instr_count[word];
      }
    }
    EXPECT_EQ(observer.total(), expected) << name;
  }
}

// ------------------------------------------------- end-to-end dynamic flow

TEST(DynamicFlow, DetectsStaticTopLoopSwapsMidRunAndSpeedsUp) {
  // Acceptance: on at least 3 suite benchmarks the online partitioner finds
  // the same top loop as the static oracle, swaps its kernel in mid-run,
  // and the dynamic estimate beats all-software execution.
  for (const char* name : {"crc", "fir", "checksum"}) {
    auto binary = BuildSuiteBinary(name);
    ASSERT_NE(binary, nullptr) << name;

    Toolchain toolchain;
    auto run = toolchain.RunDynamicOn("mips200-xc2v1000", binary, name);
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().message();
    const ToolchainRun& oracle = run.value().static_run;
    const dynamic::DynamicRun& dyn = run.value().dynamic_run;

    // A kernel swapped in strictly mid-run.
    ASSERT_FALSE(dyn.swaps.empty()) << name;
    EXPECT_GT(dyn.swaps.front().at_instruction, 0u) << name;
    EXPECT_LT(dyn.swaps.front().at_instruction, dyn.run.instructions) << name;

    // Dynamic estimate beats software, but cannot beat the static oracle.
    EXPECT_GT(dyn.estimate.speedup, 1.0) << name;
    EXPECT_LE(dyn.estimate.speedup, oracle.estimate.speedup) << name;

    // The static top kernel (highest software cycles, selected first) is
    // the same loop the online detector converged on.
    ASSERT_FALSE(oracle.partition.hw.empty()) << name;
    const std::uint32_t static_top =
        oracle.partition.hw.front().synthesized.region.blocks.front()
            ->start_pc;
    std::uint32_t dynamic_top = 0;
    std::uint64_t best_cycles = 0;
    for (const auto& kernel : dyn.kernels) {
      if (kernel.observed.cycles >= best_cycles) {
        best_cycles = kernel.observed.cycles;
        dynamic_top = kernel.header_pc;
      }
    }
    EXPECT_EQ(dynamic_top, static_top) << name;
  }
}

TEST(DynamicFlow, CadLatencyReportedInSimulatedTime) {
  // ROADMAP item: the online CAD cost (incremental decompile + synthesis)
  // is converted from host wall clock into simulated CPU cycles via
  // DynamicPolicy::cad_cycles_per_ms, and time-to-first-kernel is reported
  // in simulated cycles.
  auto binary = BuildSuiteBinary("crc");
  ASSERT_NE(binary, nullptr);
  const auto platform = *PlatformRegistry::Global().Find("mips200-xc2v1000");

  // Default model (CAD inline on the 200 MHz CPU): simulated CAD cost is
  // positive and time-to-first-kernel lands strictly after the swap point.
  dynamic::DynamicPartitioner online(platform);
  auto run = online.Run(binary, "crc");
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run.value().swaps.empty());
  EXPECT_GT(run.value().cad_simulated_cycles, 0u);
  EXPECT_GT(run.value().time_to_first_kernel_cycles,
            run.value().swaps.front().at_cycle);

  // With the conversion disabled, time-to-first-kernel is exactly the
  // simulated cycle of the first swap — a deterministic anchor.
  dynamic::DynamicOptions free_cad;
  free_cad.policy.cad_cycles_per_ms = 0.0;
  dynamic::DynamicPartitioner anchored(platform, free_cad);
  auto anchor = anchored.Run(binary, "crc");
  ASSERT_TRUE(anchor.ok());
  ASSERT_FALSE(anchor.value().swaps.empty());
  EXPECT_EQ(anchor.value().cad_simulated_cycles, 0u);
  EXPECT_EQ(anchor.value().time_to_first_kernel_cycles,
            anchor.value().swaps.front().at_cycle);
}

TEST(DynamicFlow, FunctionalResultUnchangedByKernelSwaps) {
  // Cosimulation invariant: swapping kernels never changes the program's
  // result — only the accounting.
  for (const char* name : {"crc", "matmul", "g3fax"}) {
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    auto binary = BuildSuiteBinary(name);
    ASSERT_NE(binary, nullptr) << name;
    dynamic::DynamicPartitioner online(
        *PlatformRegistry::Global().Find("mips200-xc2v1000"));
    auto run = online.Run(binary, name);
    ASSERT_TRUE(run.ok()) << name;
    EXPECT_EQ(run.value().run.return_value, bench->reference()) << name;
  }
}

TEST(DynamicFlow, DeterministicReports) {
  // Same binary + same config => identical dynamic report, twice over.
  auto binary = BuildSuiteBinary("fir");
  ASSERT_NE(binary, nullptr);
  Toolchain toolchain;
  auto first = toolchain.RunDynamicOn("mips200-xc2v1000", binary, "fir");
  auto second = toolchain.RunDynamicOn("mips200-xc2v1000", binary, "fir");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().dynamic_run.Report(),
            second.value().dynamic_run.Report());
  EXPECT_EQ(first.value().dynamic_run.estimate.speedup,
            second.value().dynamic_run.estimate.speedup);
  EXPECT_EQ(first.value().dynamic_run.swaps.size(),
            second.value().dynamic_run.swaps.size());
}

TEST(DynamicFlow, OracleMatchesRunManyAcrossThreadCounts) {
  // RunDynamicOn's static oracle is the RunMany slot of the same pair, and
  // neither the oracle nor the online run depends on the thread count.
  std::vector<NamedBinary> binaries;
  for (const char* name : {"crc", "fir", "checksum", "brev"}) {
    auto binary = BuildSuiteBinary(name);
    ASSERT_NE(binary, nullptr) << name;
    binaries.push_back({name, std::move(binary)});
  }
  const std::vector<std::string> platforms = {"mips200-xc2v1000", "mips400"};
  Toolchain serial;
  serial.WithThreads(1);
  Toolchain parallel;
  parallel.WithThreads(4);
  const BatchResult batch = parallel.RunMany(binaries, platforms);
  for (std::size_t b = 0; b < binaries.size(); ++b) {
    for (std::size_t p = 0; p < platforms.size(); ++p) {
      const std::string where = binaries[b].name + " on " + platforms[p];
      const auto lhs = serial.RunDynamicOn(platforms[p], binaries[b].binary,
                                           binaries[b].name);
      const auto rhs = parallel.RunDynamicOn(platforms[p], binaries[b].binary,
                                             binaries[b].name);
      ASSERT_TRUE(lhs.ok()) << where;
      ASSERT_TRUE(rhs.ok()) << where;
      ASSERT_TRUE(batch.At(b, p).ok()) << where;
      EXPECT_EQ(lhs.value().Report(), rhs.value().Report()) << where;
      EXPECT_EQ(lhs.value().static_run.ReportBody(),
                batch.At(b, p).value().ReportBody())
          << where;
      EXPECT_EQ(lhs.value().static_run.Json(), batch.At(b, p).value().Json())
          << where;
    }
  }
}

TEST(DynamicFlow, AreaBudgetRespectedUnderEviction) {
  // A platform whose FPGA fits roughly one kernel: the online partitioner
  // must keep the live area within budget, evicting or rejecting the rest.
  auto binary = BuildSuiteBinary("matmul");
  ASSERT_NE(binary, nullptr);
  partition::Platform tiny =
      *PlatformRegistry::Global().Find("mips200-xc2v1000");
  tiny.fpga.capacity_gates = 40'000.0;  // 30% usable => 12k gate budget
  dynamic::DynamicPartitioner online(tiny);
  auto run = online.Run(binary, "matmul");
  ASSERT_TRUE(run.ok()) << run.status().message();
  double live_area = 0.0;
  for (const auto& kernel : run.value().kernels) {
    if (!kernel.evicted) live_area += kernel.estimate.area_gates;
  }
  EXPECT_LE(live_area, tiny.fpga.budget_gates());
  // Something had to give: either a kernel was evicted or a candidate was
  // rejected for area.
  bool constrained = false;
  for (const auto& kernel : run.value().kernels) {
    constrained |= kernel.evicted;
  }
  for (const auto& reason : run.value().rejected) {
    constrained |= reason.find("area") != std::string::npos;
  }
  EXPECT_TRUE(constrained);
}

TEST(DynamicFlow, IncrementalDecompilationIsRegionScoped) {
  // RunAt lifts only the enclosing function (plus callees), not the binary.
  auto binary = BuildSuiteBinary("crc");
  ASSERT_NE(binary, nullptr);
  const auto entries = decomp::FunctionEntries(*binary);
  ASSERT_GE(entries.size(), 2u);  // main + crc16 at least
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end()));
  EXPECT_EQ(entries.front(), binary->entry);

  auto manager = decomp::PassManager::Preset("default");
  ASSERT_TRUE(manager.ok());
  auto whole = manager.value().Run(binary);
  ASSERT_TRUE(whole.ok());

  // Lift rooted at a non-entry function: main is that function, and the
  // module cannot be larger than the whole-binary lift.
  auto region = manager.value().RunAt(binary, entries.back());
  ASSERT_TRUE(region.ok()) << region.status().message();
  EXPECT_EQ(region.value().module.main->entry_pc(), entries.back());
  EXPECT_LE(region.value().module.functions.size(),
            whole.value().module.functions.size());
}

TEST(DynamicFlow, GracefulOnCdfgFailureBinaries) {
  // The two jump-table benchmarks defeat whole-binary CDFG recovery, so
  // the static flow errors out.  The dynamic flow still *executes* them
  // correctly — candidates that cannot be decompiled are rejected and the
  // application simply stays in software (speedup 1.0).
  for (const auto& bench : suite::AllBenchmarks()) {
    if (!bench.expect_cdfg_failure) continue;
    auto built = suite::BuildBinary(bench, 1);
    ASSERT_TRUE(built.ok()) << bench.name;
    auto binary =
        std::make_shared<const mips::SoftBinary>(std::move(built).take());
    dynamic::DynamicPartitioner online(
        *PlatformRegistry::Global().Find("mips200-xc2v1000"));
    auto run = online.Run(binary, bench.name);
    ASSERT_TRUE(run.ok()) << bench.name << ": " << run.status().message();
    EXPECT_EQ(run.value().run.return_value, bench.reference()) << bench.name;
    EXPECT_GE(run.value().estimate.speedup, 1.0) << bench.name;
  }
}

TEST(DynamicFlow, FaultingBinaryReportsCleanError) {
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, 20
    loop:
      sw $t0, 0($zero)        # store to unmapped address -> fault
      addiu $t0, $t0, -1
      bgtz $t0, loop
      jr $ra
  )");
  ASSERT_TRUE(assembled.ok()) << assembled.status().message();
  auto binary =
      std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
  dynamic::DynamicPartitioner online(
      *PlatformRegistry::Global().Find("mips200-xc2v1000"));
  auto run = online.Run(binary, "faulty");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().kind(), ErrorKind::kMalformedBinary);
}

}  // namespace
}  // namespace b2h
