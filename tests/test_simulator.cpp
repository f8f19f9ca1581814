// MIPS simulator tests: per-instruction semantics (parameterized), memory
// behaviour, faults, cycle model, and the profiler the partitioner relies on.
#include "mips/simulator.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "mips/assembler.hpp"

namespace b2h::mips {
namespace {

std::int32_t RunAsm(const std::string& body) {
  auto binary = Assemble("main:\n" + body + "\n jr $ra\n");
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  const auto run = sim.Run();
  EXPECT_EQ(run.reason, HaltReason::kReturned) << run.fault_message;
  return run.return_value;
}

/// Table-driven ALU semantics: {assembly, expected result in $v0}.
struct AluCase {
  const char* name;
  const char* body;
  std::int32_t expected;
};

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, Matches) {
  EXPECT_EQ(RunAsm(GetParam().body), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    ::testing::Values(
        AluCase{"addu", "li $t0, 7\n li $t1, 8\n addu $v0, $t0, $t1", 15},
        AluCase{"addu_wrap",
                "li $t0, 0x7FFFFFFF\n li $t1, 1\n addu $v0, $t0, $t1",
                INT32_MIN},
        AluCase{"subu", "li $t0, 5\n li $t1, 9\n subu $v0, $t0, $t1", -4},
        AluCase{"and", "li $t0, 0xFF0F\n li $t1, 0x0FF0\n and $v0, $t0, $t1",
                0x0F00},
        AluCase{"or", "li $t0, 0xF000\n li $t1, 0x000F\n or $v0, $t0, $t1",
                0xF00F},
        AluCase{"xor", "li $t0, 0xFFFF\n li $t1, 0x0F0F\n xor $v0, $t0, $t1",
                0xF0F0},
        AluCase{"nor", "li $t0, -1\n li $t1, 0\n nor $v0, $t0, $t1", 0},
        AluCase{"slt_true", "li $t0, -3\n li $t1, 2\n slt $v0, $t0, $t1", 1},
        AluCase{"slt_false", "li $t0, 3\n li $t1, 2\n slt $v0, $t0, $t1", 0},
        AluCase{"sltu_wraps", "li $t0, -1\n li $t1, 2\n sltu $v0, $t0, $t1",
                0},
        AluCase{"sll", "li $t0, 3\n sll $v0, $t0, 4", 48},
        AluCase{"srl_logical", "li $t0, -16\n srl $v0, $t0, 2", 0x3FFFFFFC},
        AluCase{"sra_arith", "li $t0, -16\n sra $v0, $t0, 2", -4},
        AluCase{"sllv", "li $t0, 1\n li $t1, 10\n sllv $v0, $t0, $t1", 1024},
        AluCase{"srav_masks_amount",
                "li $t0, 256\n li $t1, 33\n srav $v0, $t0, $t1", 128},
        AluCase{"addiu_negative", "li $t0, 10\n addiu $v0, $t0, -15", -5},
        AluCase{"andi_zero_extends", "li $t0, -1\n andi $v0, $t0, 0xFF",
                255},
        AluCase{"ori", "li $t0, 0x100\n ori $v0, $t0, 0xFF", 0x1FF},
        AluCase{"xori", "li $t0, 0xFF\n xori $v0, $t0, 0x0F", 0xF0},
        AluCase{"slti", "li $t0, -5\n slti $v0, $t0, -4", 1},
        AluCase{"sltiu_signext_imm", "li $t0, 5\n sltiu $v0, $t0, -1", 1},
        AluCase{"lui", "lui $v0, 0x1234", 0x12340000},
        AluCase{"mult_mflo",
                "li $t0, 1000\n li $t1, -3000\n mult $t0, $t1\n mflo $v0",
                -3000000},
        AluCase{"mult_mfhi",
                "li $t0, 0x10000\n li $t1, 0x10000\n mult $t0, $t1\n"
                " mfhi $v0",
                1},
        AluCase{"multu_mfhi",
                "li $t0, -1\n li $t1, 2\n multu $t0, $t1\n mfhi $v0", 1},
        AluCase{"div_quotient",
                "li $t0, 17\n li $t1, 5\n div $t0, $t1\n mflo $v0", 3},
        AluCase{"div_remainder",
                "li $t0, 17\n li $t1, 5\n div $t0, $t1\n mfhi $v0", 2},
        AluCase{"div_negative_trunc",
                "li $t0, -17\n li $t1, 5\n div $t0, $t1\n mflo $v0", -3},
        AluCase{"div_by_zero_quotient",
                "li $t0, 9\n li $t1, 0\n div $t0, $t1\n mflo $v0", 0},
        AluCase{"div_by_zero_remainder",
                "li $t0, 9\n li $t1, 0\n div $t0, $t1\n mfhi $v0", 9},
        AluCase{"divu",
                "li $t0, -2\n li $t1, 2\n divu $t0, $t1\n mflo $v0",
                0x7FFFFFFF},
        AluCase{"mthi_mtlo",
                "li $t0, 11\n mtlo $t0\n li $t1, 22\n mthi $t1\n"
                " mflo $v0\n mfhi $t2\n addu $v0, $v0, $t2",
                33}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Simulator, ZeroRegisterIsImmutable) {
  EXPECT_EQ(RunAsm("li $zero, 55\n move $v0, $zero"), 0);
}

TEST(Simulator, MemoryByteHalfWord) {
  auto binary = Assemble(R"(
  main:
    la $t0, buf
    li $t1, -2
    sb $t1, 0($t0)      # 0xFE
    lbu $v0, 0($t0)     # 254
    lb $t2, 0($t0)      # -2
    addu $v0, $v0, $t2  # 252
    li $t3, -3
    sh $t3, 2($t0)
    lhu $t4, 2($t0)     # 65533
    addu $v0, $v0, $t4
    lh $t5, 2($t0)      # -3
    addu $v0, $v0, $t5
    jr $ra
  .data
  buf:
    .space 8
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().return_value, 252 + 65533 - 3);
}

TEST(Simulator, StackMemoryWorks) {
  EXPECT_EQ(RunAsm(R"(
    addiu $sp, $sp, -16
    li $t0, 1234
    sw $t0, 4($sp)
    lw $v0, 4($sp)
    addiu $sp, $sp, 16
  )"),
            1234);
}

TEST(Simulator, FaultsOnUnalignedAccess) {
  auto binary = Assemble(R"(
    main:
      la $t0, buf
      lw $v0, 1($t0)
      jr $ra
    .data
    buf: .word 1, 2
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  const auto run = sim.Run();
  EXPECT_EQ(run.reason, HaltReason::kFault);
  EXPECT_NE(run.fault_message.find("unaligned"), std::string::npos);
}

TEST(Simulator, AddressWrapAroundFaults) {
  // Regression: `addr + size` overflowed 32 bits for addresses near
  // UINT32_MAX, so `addr >= kDataBase && addr + size <= end` accepted the
  // access and handed out a pointer ~3.7 GiB past the 1 MiB data segment.
  // The bounds checks are now end-exclusive offset comparisons that cannot
  // wrap; every such access must fault cleanly on every engine.
  for (const char* body : {
           "li $t0, -4\n lw $v0, 0($t0)",   // 0xFFFFFFFC: aligned word
           "li $t0, -4\n sw $t0, 0($t0)",
           "li $t0, -1\n lbu $v0, 0($t0)",  // 0xFFFFFFFF: byte, +1 wraps to 0
           "li $t0, -1\n sb $t0, 0($t0)",
           "li $t0, -2\n lhu $v0, 0($t0)",  // 0xFFFFFFFE: aligned half
       }) {
    SCOPED_TRACE(body);
    auto binary = Assemble("main:\n" + std::string(body) + "\n jr $ra\n");
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    for (ExecEngine engine : {ExecEngine::kBlock, ExecEngine::kReference}) {
      Simulator sim(binary.value(), {}, engine);
      const auto run = sim.Run();
      EXPECT_EQ(run.reason, HaltReason::kFault);
      EXPECT_NE(run.fault_message.find("outside memory"), std::string::npos);
    }
  }
}

TEST(Simulator, SegmentBoundariesStayEndExclusive) {
  // The wrap-safe checks must not shrink the valid range: the last aligned
  // word of the data segment is accessible, one byte past it is not.
  const std::uint32_t last_word =
      kDataBase + kDataSegmentSize - 4;
  {
    std::ostringstream src;
    src << "main:\n li $t0, " << last_word << "\n lw $v0, 0($t0)\n jr $ra\n";
    auto binary = Assemble(src.str());
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    Simulator sim(binary.value());
    EXPECT_EQ(sim.Run().reason, HaltReason::kReturned);
  }
  {
    std::ostringstream src;
    src << "main:\n li $t0, " << (last_word + 4)
        << "\n lbu $v0, 0($t0)\n jr $ra\n";
    auto binary = Assemble(src.str());
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    Simulator sim(binary.value());
    EXPECT_EQ(sim.Run().reason, HaltReason::kFault);
  }
}

TEST(Simulator, FaultsOnWildAddress) {
  auto binary = Assemble("main:\n li $t0, 0x200\n lw $v0, 0($t0)\n jr $ra\n");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  EXPECT_EQ(sim.Run().reason, HaltReason::kFault);
}

TEST(Simulator, InstructionBudget) {
  auto binary = Assemble("main:\nspin:\n b spin\n jr $ra\n");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  const auto run = sim.Run({}, 1000);
  EXPECT_EQ(run.reason, HaltReason::kMaxInstructions);
  EXPECT_EQ(run.instructions, 1000u);
}

TEST(Simulator, ArgumentsArriveInA0toA3) {
  auto binary = Assemble(R"(
    main:
      addu $v0, $a0, $a1
      addu $v0, $v0, $a2
      addu $v0, $v0, $a3
      jr $ra
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  const std::int32_t args[4] = {1, 20, 300, 4000};
  EXPECT_EQ(sim.Run(args).return_value, 4321);
}

TEST(Simulator, CycleModelCharging) {
  // 3 instructions: li (1), lw (1+1), jr (1+1) = 5 cycles with defaults.
  auto binary = Assemble(R"(
    main:
      la $t0, buf
      lw $v0, 0($t0)
      jr $ra
    .data
    buf: .word 9
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  const auto run = sim.Run();
  // la = lui+ori (2 cycles) + lw (2) + jr (2) = 6.
  EXPECT_EQ(run.cycles, 6u);
  EXPECT_EQ(run.instructions, 4u);
}

TEST(Simulator, ProfileCountsBranchDirections) {
  auto binary = Assemble(R"(
    main:
      li $t0, 4
      li $v0, 0
    loop:
      addiu $v0, $v0, 1
      addiu $t0, $t0, -1
      bgtz $t0, loop
      jr $ra
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  const auto run = sim.Run();
  EXPECT_EQ(run.return_value, 4);
  // The bgtz at word index 4: taken 3 times, not taken once.
  EXPECT_EQ(run.profile.branch_taken[4], 3u);
  EXPECT_EQ(run.profile.branch_not_taken[4], 1u);
  // Loop body (word 2) executed 4 times.
  EXPECT_EQ(run.profile.instr_count[2], 4u);
  EXPECT_EQ(run.profile.CountAt(kTextBase + 8), 4u);
  EXPECT_EQ(run.profile.total_instructions, run.instructions);
  EXPECT_EQ(run.profile.total_cycles, run.cycles);
}

TEST(Simulator, JalLinksAndJrReturns) {
  EXPECT_EQ(RunAsm(R"(
    move $s7, $ra       # jal clobbers $ra
    li $s0, 5
    jal double
    move $v0, $s0
    move $ra, $s7
    jr $ra
  double:
    sll $s0, $s0, 1
    jr $ra
  )"),
            10);
}

TEST(Simulator, LoadFromTextSegment) {
  // Jump tables read code-segment words; lw must allow it.
  auto binary = Assemble(R"(
    main:
      li $t0, 0x00400000
      lw $v0, 0($t0)
      jr $ra
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  const auto run = sim.Run();
  EXPECT_EQ(static_cast<std::uint32_t>(run.return_value),
            binary.value().text[0]);
}

TEST(Simulator, PeekPokeWord) {
  auto binary = Assemble(R"(
    main:
      la $t0, buf
      lw $v0, 0($t0)
      jr $ra
    .data
    buf: .word 5
  )");
  ASSERT_TRUE(binary.ok());
  Simulator sim(binary.value());
  EXPECT_EQ(sim.PeekWord(kDataBase), 5u);
  sim.PokeWord(kDataBase, 123);
  EXPECT_EQ(sim.Run().return_value, 123);
}

}  // namespace
}  // namespace b2h::mips
