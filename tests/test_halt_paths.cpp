// Simulator halt paths end-to-end: binaries that exhaust the instruction
// budget (HaltReason::kMaxInstructions) or fault (HaltReason::kFault) must
// surface as clean Result errors from every flow entry point —
// Toolchain::RunOn, Toolchain::RunMany, and RunDynamicOn — never as partial
// or garbage estimates.
#include <gtest/gtest.h>

#include <memory>

#include "mips/assembler.hpp"
#include "mips/simulator.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

std::shared_ptr<const mips::SoftBinary> InfiniteLoopBinary() {
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, 0
    loop:
      addiu $t0, $t0, 1
      j loop
  )");
  Check(assembled.ok(), "assemble failed");
  return std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
}

std::shared_ptr<const mips::SoftBinary> FaultingBinary() {
  // Runs a short loop, then stores to an unmapped address.
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, 8
      li $v0, 0
    loop:
      addiu $v0, $v0, 3
      addiu $t0, $t0, -1
      bgtz $t0, loop
      sw $v0, 0($zero)
      jr $ra
  )");
  Check(assembled.ok(), "assemble failed");
  return std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
}

TEST(HaltPaths, SimulatorReportsBudgetAndFault) {
  {
    // The simulator references the binary; keep it alive past the call.
    const auto binary = InfiniteLoopBinary();
    mips::Simulator sim(*binary);
    const auto run = sim.Run({}, 10'000);
    EXPECT_EQ(run.reason, mips::HaltReason::kMaxInstructions);
    EXPECT_EQ(run.instructions, 10'000u);
    EXPECT_EQ(run.profile.total_instructions, 10'000u);
  }
  {
    const auto binary = FaultingBinary();
    mips::Simulator sim(*binary);
    const auto run = sim.Run();
    EXPECT_EQ(run.reason, mips::HaltReason::kFault);
    EXPECT_NE(run.fault_message.find("store outside memory"),
              std::string::npos)
        << run.fault_message;
    // The profile is consistent up to the fault.
    EXPECT_EQ(run.profile.total_instructions, run.instructions);
  }
}

TEST(HaltPaths, ToolchainRunPropagatesBothHaltReasons) {
  Toolchain budgeted;
  budgeted.WithMaxSimInstructions(5'000);
  auto exhausted =
      budgeted.RunOn("mips200-xc2v1000", InfiniteLoopBinary(), "spin");
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().kind(), ErrorKind::kMalformedBinary);
  EXPECT_NE(exhausted.status().message().find("did not complete"),
            std::string::npos)
      << exhausted.status().message();

  Toolchain toolchain;
  auto faulted =
      toolchain.RunOn("mips200-xc2v1000", FaultingBinary(), "faulty");
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().kind(), ErrorKind::kMalformedBinary);
  EXPECT_NE(faulted.status().message().find("fault"), std::string::npos)
      << faulted.status().message();
}

TEST(HaltPaths, RunManyIsolatesBadBinariesPerSlot) {
  // A batch mixing a good binary, a faulting one, and a budget-buster:
  // exactly the bad slots error; the good one still partitions.
  auto good = mips::Assemble(R"(
    main:
      li $t0, 200
      li $v0, 0
    loop:
      addiu $v0, $v0, 2
      addiu $t0, $t0, -1
      bgtz $t0, loop
      jr $ra
  )");
  ASSERT_TRUE(good.ok());
  std::vector<NamedBinary> binaries = {
      {"good",
       std::make_shared<const mips::SoftBinary>(std::move(good).take())},
      {"faulty", FaultingBinary()},
      {"spin", InfiniteLoopBinary()},
      {"null", nullptr},
  };
  Toolchain toolchain;
  toolchain.WithMaxSimInstructions(100'000);
  const BatchResult batch =
      toolchain.RunMany(binaries, {"mips200-xc2v1000", "mips400"});
  ASSERT_EQ(batch.runs.size(), 8u);
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(batch.At(0, p).ok()) << batch.At(0, p).status().message();
    // Clean estimates, not garbage: finite positive times and speedup.
    EXPECT_GT(batch.At(0, p).value().estimate.speedup, 0.0);
    EXPECT_GT(batch.At(0, p).value().estimate.sw_time, 0.0);
    EXPECT_GT(batch.At(0, p).value().estimate.partitioned_time, 0.0);

    EXPECT_FALSE(batch.At(1, p).ok());
    EXPECT_EQ(batch.At(1, p).status().kind(), ErrorKind::kMalformedBinary);
    EXPECT_FALSE(batch.At(2, p).ok());
    EXPECT_NE(batch.At(2, p).status().message().find("did not complete"),
              std::string::npos);
    EXPECT_FALSE(batch.At(3, p).ok());
  }
}

TEST(HaltPaths, DynamicFrontDoorPropagatesBudgetExhaustion) {
  Toolchain toolchain;
  toolchain.WithMaxSimInstructions(5'000);
  auto result =
      toolchain.RunDynamicOn("mips200-xc2v1000", InfiniteLoopBinary(), "spin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().kind(), ErrorKind::kMalformedBinary);
}

}  // namespace
}  // namespace b2h
