// RTL simulator co-simulation: the synthesized FSM+datapath executed on the
// RTL model must reproduce the IR interpreter / MIPS simulator results for
// whole-function regions across the benchmark suite.  This is the third leg
// of the verification triangle (DESIGN.md §5) and doubles as a strict
// schedule-legality check (the RTL model refuses to read unscheduled
// values).
#include "synth/rtl_sim.hpp"

#include <gtest/gtest.h>

#include "ir/dominators.hpp"
#include "ir/loops.hpp"
#include "mips/assembler.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "synth/synth.hpp"
#include "testing_support.hpp"

namespace b2h::synth {
namespace {

using testing_support::DecompileWith;

class RtlCosim : public ::testing::TestWithParam<const char*> {};

TEST_P(RtlCosim, WholeMainMatchesSoftware) {
  const suite::Benchmark* bench = suite::FindBenchmark(GetParam());
  ASSERT_NE(bench, nullptr);
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok()) << binary.status().message();

  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  ASSERT_EQ(run.reason, mips::HaltReason::kReturned);
  ASSERT_EQ(run.return_value, bench->reference());

  auto program = DecompileWith("default", binary.value(), &run.profile);
  ASSERT_TRUE(program.ok()) << program.status().message();

  // Whole-application synthesis (paper: "our methods are also applicable
  // for synthesizing an entire software application ... to a custom
  // circuit"): main must be call-free after inlining for this to work.
  const ir::Function* main_fn = program.value().module.main;
  const HwRegion region = ExtractFunctionRegion(*main_fn);
  if (!region.synthesizable) {
    GTEST_SKIP() << "main still contains calls: " << region.reject_reason;
  }
  decomp::AliasAnalysis alias(*main_fn, &binary.value().symbols);
  auto synthesized = Synthesize(region, &alias);
  ASSERT_TRUE(synthesized.ok()) << synthesized.status().message();

  RtlSimulator rtl(region, synthesized.value().schedule,
                   binary.value().data);
  std::map<unsigned, std::int32_t> inputs;
  inputs[29] = static_cast<std::int32_t>(mips::kStackTop - 64);  // sp
  const auto result = rtl.Run(inputs);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.return_value, bench->reference())
      << "RTL result diverged from software";
  EXPECT_GT(result.fsm_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RtlCosim,
    ::testing::Values("autcor00", "conven00", "rgbcmy01", "idct01",
                      "bitmnp01", "crc", "bcnt", "blit", "fir", "engine",
                      "g3fax", "adpcm_enc", "adpcm_dec", "g721_quan",
                      "jpeg_dct", "brev", "matmul", "checksum"),
    [](const auto& info) { return std::string(info.param); });

TEST(RtlSim, SequentialFsmIsSlowerThanSoftwareClaims) {
  // Sanity: the *sequential* FSM cycle count relates to states x trips;
  // the speedup comes from chaining (fewer states than instructions) and
  // pipelining (accounted analytically in EstimateCycles).
  const suite::Benchmark* bench = suite::FindBenchmark("brev");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  auto program = DecompileWith("default", binary.value(), &run.profile);
  ASSERT_TRUE(program.ok());
  const HwRegion region =
      ExtractFunctionRegion(*program.value().module.main);
  ASSERT_TRUE(region.synthesizable);
  auto synthesized = Synthesize(region, nullptr);
  ASSERT_TRUE(synthesized.ok());
  RtlSimulator rtl(region, synthesized.value().schedule,
                   binary.value().data);
  std::map<unsigned, std::int32_t> inputs;
  inputs[29] = static_cast<std::int32_t>(mips::kStackTop - 64);
  const auto result = rtl.Run(inputs);
  ASSERT_TRUE(result.ok) << result.error;
  // Chaining compresses the bit-reversal tree: far fewer cycles than the
  // MIPS instruction count.
  EXPECT_LT(result.fsm_cycles, run.instructions);
}

TEST(RtlSim, WholeFunctionRegionHasNoPorts) {
  // checksum's loop produces an accumulator, which main returns.
  const suite::Benchmark* bench = suite::FindBenchmark("checksum");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  auto program = DecompileWith("default", binary.value(), &run.profile);
  ASSERT_TRUE(program.ok());
  const ir::Function* main_fn = program.value().module.main;
  const HwRegion region = ExtractFunctionRegion(*main_fn);
  ASSERT_TRUE(region.synthesizable);
  // A whole-function region has no live-outs (the ret consumes them).
  EXPECT_TRUE(region.live_outs.empty());
  EXPECT_TRUE(region.live_ins.empty());
}

TEST(RtlSim, RefusesRegionsWithLiveIns) {
  // The model has no input ports: a loop region that reads values defined
  // before it fails up front rather than at its first read.
  const suite::Benchmark* bench = suite::FindBenchmark("fir");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  auto program = DecompileWith("default", binary.value(), &run.profile);
  ASSERT_TRUE(program.ok());
  std::size_t refused = 0;
  for (const auto& function : program.value().module.functions) {
    const ir::DominatorTree dom(*function);
    const ir::LoopForest forest(*function, dom);
    for (const auto& loop : forest.loops()) {
      const HwRegion region = ExtractLoopRegion(*function, *loop);
      if (region.live_ins.empty() || !region.synthesizable) continue;
      auto synthesized = Synthesize(region, nullptr);
      ASSERT_TRUE(synthesized.ok()) << synthesized.status().message();
      RtlSimulator rtl(region, synthesized.value().schedule,
                       binary.value().data);
      const RtlResult result = rtl.Run();
      EXPECT_FALSE(result.ok) << region.name;
      EXPECT_NE(result.error.find("has live-in values"), std::string::npos)
          << result.error;
      EXPECT_EQ(result.fsm_cycles, 0u);
      ++refused;
    }
  }
  EXPECT_GT(refused, 0u);
}

TEST(RtlSim, LoadAtTopOfAddressSpaceFailsCleanly) {
  // 0xFFFFFFFC + 4 wraps to 0 in 32 bits, so an `addr + size <= end`
  // bounds check passes it.  The binary has no .data segment either, so
  // the constructor sees an empty initial image.
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, -4
      lw $v0, 0($t0)
      jr $ra
  )");
  ASSERT_TRUE(assembled.ok()) << assembled.status().message();
  const mips::SoftBinary& binary = assembled.value();
  ASSERT_TRUE(binary.data.empty());
  auto program = DecompileWith("default", binary);
  ASSERT_TRUE(program.ok()) << program.status().message();
  const HwRegion region = ExtractFunctionRegion(*program.value().module.main);
  ASSERT_TRUE(region.synthesizable) << region.reject_reason;
  auto synthesized = Synthesize(region, nullptr);
  ASSERT_TRUE(synthesized.ok()) << synthesized.status().message();

  RtlSimulator rtl(region, synthesized.value().schedule, binary.data);
  std::map<unsigned, std::int32_t> inputs;
  inputs[29] = static_cast<std::int32_t>(mips::kStackTop - 64);
  const RtlResult result = rtl.Run(inputs);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("bad load address"), std::string::npos)
      << result.error;
}

}  // namespace
}  // namespace b2h::synth
