// The repo's capstone property test (DESIGN.md §5): for every benchmark at
// every compiler optimization level, three executors agree with the native
// C++ reference:
//   1. the MIPS simulator running the compiled binary,
//   2. the IR interpreter running the fully-optimized decompiled CDFG,
//   3. (at -O1) the RTL simulator running the synthesized whole-app circuit
//      — covered separately in test_rtl.cpp.
// The interpreter and the RTL simulator share each IR operator's semantics
// (ir::Evaluate, which constant folding uses too) and their loads and
// stores (mips::Memory::Load/Store).  The simulator and the C++ reference
// implement the platform's semantics on their own, so they stay the
// independent oracle: a wrong ir::Evaluate fails here.
// Also checks every decompiled function's dominator tree against
// brute-force dominator sets, and that the decompilation stats tell the
// expected story per level (heavy stack traffic removed at -O0, loops
// rerolled at -O3).
#include <gtest/gtest.h>

#include "ir/interp.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "testing_support.hpp"

namespace b2h {
namespace {

using testing_support::DecompileWith;

class SuiteCosim
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(SuiteCosim, SimulatorInterpreterReferenceAgree) {
  const auto& [name, level] = GetParam();
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  ASSERT_NE(bench, nullptr);
  const std::int32_t expected = bench->reference();

  auto binary = suite::BuildBinary(*bench, level);
  ASSERT_TRUE(binary.ok()) << binary.status().message();

  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  ASSERT_EQ(run.reason, mips::HaltReason::kReturned) << run.fault_message;
  EXPECT_EQ(run.return_value, expected) << "compiler or simulator bug";

  auto program = DecompileWith("default", binary.value(), &run.profile);
  ASSERT_TRUE(program.ok()) << program.status().message();
  testing_support::ExpectDominatorTreesMatchBruteForce(
      program.value().module, std::string(name) + " -O" + std::to_string(level));

  ir::Interpreter interp(program.value().module, binary.value().data);
  const auto result = interp.Run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.return_value, expected) << "decompilation changed semantics";
}

std::vector<std::tuple<const char*, int>> AllCombos() {
  std::vector<std::tuple<const char*, int>> combos;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    for (int level = 0; level <= 3; ++level) {
      combos.emplace_back(bench->name.c_str(), level);
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllLevels, SuiteCosim, ::testing::ValuesIn(AllCombos()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_O" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SuiteInventory, TwentyBenchmarksTwoExpectedFailures) {
  // Paper §4: twenty examples; CDFG recovery fails for two EEMBC examples
  // because of indirect jumps.
  const auto& all = suite::AllBenchmarks();
  EXPECT_EQ(all.size(), 20u);
  std::size_t failures = 0;
  std::size_t eembc_failures = 0;
  for (const auto& bench : all) {
    if (bench.expect_cdfg_failure) {
      ++failures;
      if (bench.origin == "EEMBC") ++eembc_failures;
    }
  }
  EXPECT_EQ(failures, 2u);
  EXPECT_EQ(eembc_failures, 2u);
  EXPECT_EQ(suite::WorkingBenchmarks().size(), 18u);
  // Origins span the suites the paper lists.
  std::set<std::string> origins;
  for (const auto& bench : all) origins.insert(bench.origin);
  EXPECT_TRUE(origins.count("EEMBC"));
  EXPECT_TRUE(origins.count("PowerStone"));
  EXPECT_TRUE(origins.count("MediaBench"));
  EXPECT_TRUE(origins.count("local"));
}

TEST(SuiteInventory, AssemblyBenchmarksRunButDoNotDecompile) {
  for (const auto& bench : suite::AllBenchmarks()) {
    if (!bench.expect_cdfg_failure) continue;
    auto binary = suite::BuildBinary(bench, 1);
    ASSERT_TRUE(binary.ok()) << bench.name;
    mips::Simulator sim(binary.value());
    const auto run = sim.Run();
    EXPECT_EQ(run.reason, mips::HaltReason::kReturned) << bench.name;
    EXPECT_EQ(run.return_value, bench.reference()) << bench.name;
    auto program = DecompileWith("default", binary.value());
    ASSERT_FALSE(program.ok()) << bench.name;
    EXPECT_EQ(program.status().kind(), ErrorKind::kIndirectJump)
        << bench.name;
  }
}

TEST(DecompStats, StackRemovalDominatesAtO0) {
  const suite::Benchmark* bench = suite::FindBenchmark("fir");
  auto at_o0 = suite::BuildBinary(*bench, 0);
  ASSERT_TRUE(at_o0.ok());
  auto program = DecompileWith("default", at_o0.value());
  ASSERT_TRUE(program.ok());
  // -O0 spills everything: dozens of stack operations must disappear.
  EXPECT_GT(program.value().stats.stack_ops_removed, 20u);
  EXPECT_GT(program.value().stats.stack_slots_promoted, 2u);
}

TEST(DecompStats, RerollingFiresAtO3) {
  std::size_t rerolled_totals = 0;
  for (const char* name : {"fir", "bcnt", "brev", "autcor00"}) {
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    auto at_o3 = suite::BuildBinary(*bench, 3);
    ASSERT_TRUE(at_o3.ok());
    auto program = DecompileWith("default", at_o3.value());
    ASSERT_TRUE(program.ok()) << name;
    rerolled_totals += program.value().stats.loops_rerolled;
  }
  EXPECT_GT(rerolled_totals, 0u)
      << "no unrolled loop recovered across the O3 suite";
}

TEST(DecompStats, RerollingShrinksO3TowardO2) {
  // The rerolled O3 CDFG should be close in size to the O2 CDFG (the paper:
  // roll loops "back into a representation similar to their original
  // representation").
  const suite::Benchmark* bench = suite::FindBenchmark("brev");
  auto at_o2 = suite::BuildBinary(*bench, 2);
  auto at_o3 = suite::BuildBinary(*bench, 3);
  ASSERT_TRUE(at_o2.ok());
  ASSERT_TRUE(at_o3.ok());
  auto program_o2 = DecompileWith("default", at_o2.value());
  auto program_o3 = DecompileWith("default", at_o3.value());
  ASSERT_TRUE(program_o2.ok());
  ASSERT_TRUE(program_o3.ok());
  ASSERT_GT(program_o3.value().stats.loops_rerolled, 0u);
  const double o2_size =
      static_cast<double>(program_o2.value().stats.final_instrs);
  const double o3_size =
      static_cast<double>(program_o3.value().stats.final_instrs);
  EXPECT_LT(o3_size, o2_size * 1.5)
      << "rerolling failed to recover the compact representation";
}

TEST(DecompStats, StrengthPromotionFiresAtO2) {
  // -O2 decomposes x*181 etc. into shift/add chains; promotion must
  // recover multiplications somewhere in the DCT-style benchmarks.
  std::size_t recovered = 0;
  for (const char* name : {"idct01", "jpeg_dct", "autcor00"}) {
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    auto at_o2 = suite::BuildBinary(*bench, 2);
    ASSERT_TRUE(at_o2.ok());
    auto program = DecompileWith("default", at_o2.value());
    ASSERT_TRUE(program.ok()) << name;
    recovered += program.value().stats.muls_recovered;
  }
  EXPECT_GT(recovered, 0u);
}

TEST(DecompStats, SizeReductionNarrowsByteKernels) {
  const suite::Benchmark* bench = suite::FindBenchmark("rgbcmy01");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  auto program = DecompileWith("default", binary.value());
  ASSERT_TRUE(program.ok());
  EXPECT_GT(program.value().stats.instrs_narrowed, 5u);
  EXPECT_GT(program.value().stats.bits_saved, 50u);
}

TEST(DecompStats, ConstantsSimplifiedEverywhere) {
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    auto binary = suite::BuildBinary(*bench, 1);
    ASSERT_TRUE(binary.ok());
    auto program = DecompileWith("default", binary.value());
    ASSERT_TRUE(program.ok()) << bench->name;
    // Lifted code always carries move idioms / address chains to fold.
    EXPECT_GT(program.value().stats.constants_simplified, 0u) << bench->name;
    EXPECT_LT(program.value().stats.final_instrs,
              program.value().stats.lifted_instrs)
        << bench->name;
  }
}

}  // namespace
}  // namespace b2h
