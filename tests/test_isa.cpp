// MIPS ISA encode/decode tests: field packing, round trips, targets.
#include "mips/isa.hpp"

#include <gtest/gtest.h>

namespace b2h::mips {
namespace {

TEST(Isa, EncodesKnownWords) {
  // addu $v0, $a0, $a1 = 0x00851021
  EXPECT_EQ(Encode({.op = Op::kAddu, .rs = kA0, .rt = kA1, .rd = kV0}),
            0x00851021u);
  // addiu $sp, $sp, -32 = 0x27BDFFE0
  EXPECT_EQ(Encode({.op = Op::kAddiu, .rs = kSp, .rt = kSp, .imm = -32}),
            0x27BDFFE0u);
  // lw $t0, 4($sp) = 0x8FA80004
  EXPECT_EQ(Encode({.op = Op::kLw, .rs = kSp, .rt = kT0, .imm = 4}),
            0x8FA80004u);
  // sll $t0, $t1, 2 = 0x00094080
  EXPECT_EQ(Encode({.op = Op::kSll, .rt = kT1, .rd = kT0, .shamt = 2}),
            0x00094080u);
  // jr $ra = 0x03E00008
  EXPECT_EQ(Encode({.op = Op::kJr, .rs = kRa}), 0x03E00008u);
}

TEST(Isa, DecodeRejectsGarbage) {
  EXPECT_FALSE(Decode(0xFFFFFFFFu).has_value());
  // opcode 0 with unused funct
  EXPECT_FALSE(Decode(0x0000003Fu).has_value());
}

TEST(Isa, BranchTargets) {
  Instr branch{.op = Op::kBeq, .rs = kT0, .rt = kT1, .imm = 3};
  EXPECT_EQ(BranchTarget(0x00400000, branch), 0x00400010u);
  branch.imm = -1;
  EXPECT_EQ(BranchTarget(0x00400010, branch), 0x00400010u);
  branch.imm = -5;
  EXPECT_EQ(BranchTarget(0x00400020, branch), 0x00400010u);
}

TEST(Isa, JumpTargets) {
  Instr jump{.op = Op::kJ, .target = 0x00400040 >> 2};
  EXPECT_EQ(JumpTarget(0x00400000, jump), 0x00400040u);
}

TEST(Isa, Classification) {
  EXPECT_TRUE(IsBranch(Op::kBeq));
  EXPECT_TRUE(IsBranch(Op::kBgez));
  EXPECT_FALSE(IsBranch(Op::kJ));
  EXPECT_TRUE(IsDirectJump(Op::kJal));
  EXPECT_TRUE(IsIndirectJump(Op::kJr));
  EXPECT_TRUE(IsIndirectJump(Op::kJalr));
  EXPECT_TRUE(IsLoad(Op::kLbu));
  EXPECT_TRUE(IsStore(Op::kSh));
  EXPECT_TRUE(IsControl(Op::kBne));
  EXPECT_FALSE(IsControl(Op::kAddu));
}

TEST(Isa, RegNames) {
  EXPECT_STREQ(RegName(0), "$zero");
  EXPECT_STREQ(RegName(29), "$sp");
  EXPECT_STREQ(RegName(31), "$ra");
  EXPECT_STREQ(RegName(32), "$??");
}

/// Round-trip property: every opcode encodes and decodes back to itself
/// with representative field values.
class RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RoundTrip, EncodeDecode) {
  const Op op = static_cast<Op>(GetParam());
  Instr instr;
  instr.op = op;
  // Pick fields legal for every format.
  instr.rs = 3;
  instr.rt = 4;
  instr.rd = 5;
  instr.shamt = 7;
  instr.imm = 100;
  instr.target = 0x12345;
  switch (op) {
    case Op::kJr: case Op::kMthi: case Op::kMtlo:
      instr.rt = instr.rd = 0;
      instr.shamt = 0;
      break;
    case Op::kMfhi: case Op::kMflo:
      instr.rs = instr.rt = 0;
      instr.shamt = 0;
      break;
    case Op::kMult: case Op::kMultu: case Op::kDiv: case Op::kDivu:
      instr.rd = 0;
      instr.shamt = 0;
      break;
    case Op::kJalr:
      instr.rt = 0;
      instr.shamt = 0;
      break;
    case Op::kSll: case Op::kSrl: case Op::kSra:
      instr.rs = 0;
      break;
    case Op::kBlez: case Op::kBgtz: case Op::kBltz: case Op::kBgez:
      instr.rt = 0;
      [[fallthrough]];
    case Op::kBeq: case Op::kBne:
      instr.rd = 0;
      instr.shamt = 0;
      break;
    case Op::kLui:
      instr.rs = 0;
      [[fallthrough]];
    default:
      instr.rd = 0;
      instr.shamt = 0;
      break;
  }
  if (op == Op::kJ || op == Op::kJal) {
    instr.rs = instr.rt = instr.rd = 0;
    instr.imm = 0;
  } else {
    instr.target = 0;
  }
  // Non-branch/jump R-types keep their fields.
  if (op == Op::kAdd || op == Op::kAddu || op == Op::kSub ||
      op == Op::kSubu || op == Op::kAnd || op == Op::kOr || op == Op::kXor ||
      op == Op::kNor || op == Op::kSlt || op == Op::kSltu ||
      op == Op::kSllv || op == Op::kSrlv || op == Op::kSrav) {
    instr.rd = 5;
    instr.shamt = 0;
    instr.imm = 0;
  }
  if (op == Op::kSll || op == Op::kSrl || op == Op::kSra) {
    instr.rd = 5;
    instr.shamt = 7;
    instr.imm = 0;
  }
  if (op == Op::kJr || op == Op::kJalr || op == Op::kMthi ||
      op == Op::kMtlo || op == Op::kMfhi || op == Op::kMflo ||
      op == Op::kMult || op == Op::kMultu || op == Op::kDiv ||
      op == Op::kDivu) {
    instr.imm = 0;
  }
  if (op == Op::kJalr) instr.rd = 5;

  const std::uint32_t word = Encode(instr);
  const auto decoded = Decode(word);
  ASSERT_TRUE(decoded.has_value()) << Mnemonic(op);
  EXPECT_EQ(decoded->op, op) << Mnemonic(op);
  EXPECT_EQ(Encode(*decoded), word) << Mnemonic(op);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, RoundTrip,
                         ::testing::Range(0, static_cast<int>(Op::kInvalid)),
                         [](const auto& info) {
                           return Mnemonic(static_cast<Op>(info.param));
                         });

}  // namespace
}  // namespace b2h::mips
