#include "mips/isa.hpp"

#include <array>

#include "support/bits.hpp"
#include "support/error.hpp"

namespace b2h::mips {
namespace {

constexpr std::array<const char*, 32> kRegNames = {
    "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
    "$t0",   "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
    "$s0",   "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
    "$t8",   "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra"};

enum class Format { kShift, kShiftVar, kR3, kRsOnly, kRdRs, kRsRt, kRdOnly,
                    kBranch2, kBranch1, kImmArith, kImmLogic, kLui, kMem,
                    kJump };

struct OpInfo {
  const char* mnemonic;
  Format format;
  std::uint8_t opcode;  // primary opcode field
  std::uint8_t funct;   // funct (R-type) or rt (REGIMM)
};

constexpr OpInfo Info(Op op) {
  switch (op) {
    case Op::kSll:   return {"sll", Format::kShift, 0x00, 0x00};
    case Op::kSrl:   return {"srl", Format::kShift, 0x00, 0x02};
    case Op::kSra:   return {"sra", Format::kShift, 0x00, 0x03};
    case Op::kSllv:  return {"sllv", Format::kShiftVar, 0x00, 0x04};
    case Op::kSrlv:  return {"srlv", Format::kShiftVar, 0x00, 0x06};
    case Op::kSrav:  return {"srav", Format::kShiftVar, 0x00, 0x07};
    case Op::kJr:    return {"jr", Format::kRsOnly, 0x00, 0x08};
    case Op::kJalr:  return {"jalr", Format::kRdRs, 0x00, 0x09};
    case Op::kMfhi:  return {"mfhi", Format::kRdOnly, 0x00, 0x10};
    case Op::kMthi:  return {"mthi", Format::kRsOnly, 0x00, 0x11};
    case Op::kMflo:  return {"mflo", Format::kRdOnly, 0x00, 0x12};
    case Op::kMtlo:  return {"mtlo", Format::kRsOnly, 0x00, 0x13};
    case Op::kMult:  return {"mult", Format::kRsRt, 0x00, 0x18};
    case Op::kMultu: return {"multu", Format::kRsRt, 0x00, 0x19};
    case Op::kDiv:   return {"div", Format::kRsRt, 0x00, 0x1a};
    case Op::kDivu:  return {"divu", Format::kRsRt, 0x00, 0x1b};
    case Op::kAdd:   return {"add", Format::kR3, 0x00, 0x20};
    case Op::kAddu:  return {"addu", Format::kR3, 0x00, 0x21};
    case Op::kSub:   return {"sub", Format::kR3, 0x00, 0x22};
    case Op::kSubu:  return {"subu", Format::kR3, 0x00, 0x23};
    case Op::kAnd:   return {"and", Format::kR3, 0x00, 0x24};
    case Op::kOr:    return {"or", Format::kR3, 0x00, 0x25};
    case Op::kXor:   return {"xor", Format::kR3, 0x00, 0x26};
    case Op::kNor:   return {"nor", Format::kR3, 0x00, 0x27};
    case Op::kSlt:   return {"slt", Format::kR3, 0x00, 0x2a};
    case Op::kSltu:  return {"sltu", Format::kR3, 0x00, 0x2b};
    case Op::kBltz:  return {"bltz", Format::kBranch1, 0x01, 0x00};
    case Op::kBgez:  return {"bgez", Format::kBranch1, 0x01, 0x01};
    case Op::kJ:     return {"j", Format::kJump, 0x02, 0};
    case Op::kJal:   return {"jal", Format::kJump, 0x03, 0};
    case Op::kBeq:   return {"beq", Format::kBranch2, 0x04, 0};
    case Op::kBne:   return {"bne", Format::kBranch2, 0x05, 0};
    case Op::kBlez:  return {"blez", Format::kBranch1, 0x06, 0};
    case Op::kBgtz:  return {"bgtz", Format::kBranch1, 0x07, 0};
    case Op::kAddi:  return {"addi", Format::kImmArith, 0x08, 0};
    case Op::kAddiu: return {"addiu", Format::kImmArith, 0x09, 0};
    case Op::kSlti:  return {"slti", Format::kImmArith, 0x0a, 0};
    case Op::kSltiu: return {"sltiu", Format::kImmArith, 0x0b, 0};
    case Op::kAndi:  return {"andi", Format::kImmLogic, 0x0c, 0};
    case Op::kOri:   return {"ori", Format::kImmLogic, 0x0d, 0};
    case Op::kXori:  return {"xori", Format::kImmLogic, 0x0e, 0};
    case Op::kLui:   return {"lui", Format::kLui, 0x0f, 0};
    case Op::kLb:    return {"lb", Format::kMem, 0x20, 0};
    case Op::kLh:    return {"lh", Format::kMem, 0x21, 0};
    case Op::kLw:    return {"lw", Format::kMem, 0x23, 0};
    case Op::kLbu:   return {"lbu", Format::kMem, 0x24, 0};
    case Op::kLhu:   return {"lhu", Format::kMem, 0x25, 0};
    case Op::kSb:    return {"sb", Format::kMem, 0x28, 0};
    case Op::kSh:    return {"sh", Format::kMem, 0x29, 0};
    case Op::kSw:    return {"sw", Format::kMem, 0x2b, 0};
    case Op::kInvalid: break;
  }
  return {"invalid", Format::kR3, 0xFF, 0xFF};
}

constexpr bool ImmIsSigned(Format format) {
  return format == Format::kImmArith || format == Format::kMem ||
         format == Format::kBranch1 || format == Format::kBranch2;
}

std::optional<Op> DecodeRType(std::uint8_t funct) {
  for (int i = 0; i <= static_cast<int>(Op::kSltu); ++i) {
    const Op op = static_cast<Op>(i);
    const OpInfo info = Info(op);
    if (info.opcode == 0x00 && info.funct == funct) return op;
  }
  return std::nullopt;
}

std::optional<Op> DecodePrimary(std::uint8_t opcode) {
  for (int i = 0; i < static_cast<int>(Op::kInvalid); ++i) {
    const Op op = static_cast<Op>(i);
    const OpInfo info = Info(op);
    if (info.opcode == opcode && opcode != 0x00 && opcode != 0x01) return op;
  }
  return std::nullopt;
}

}  // namespace

const char* RegName(unsigned reg) noexcept {
  return reg < 32 ? kRegNames[reg] : "$??";
}

const char* Mnemonic(Op op) noexcept { return Info(op).mnemonic; }

bool IsBranch(Op op) noexcept {
  switch (op) {
    case Op::kBeq: case Op::kBne: case Op::kBlez: case Op::kBgtz:
    case Op::kBltz: case Op::kBgez:
      return true;
    default:
      return false;
  }
}

bool IsDirectJump(Op op) noexcept { return op == Op::kJ || op == Op::kJal; }

bool IsIndirectJump(Op op) noexcept {
  return op == Op::kJr || op == Op::kJalr;
}

bool IsLoad(Op op) noexcept {
  switch (op) {
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      return true;
    default:
      return false;
  }
}

bool IsStore(Op op) noexcept {
  return op == Op::kSb || op == Op::kSh || op == Op::kSw;
}

bool IsControl(Op op) noexcept {
  return IsBranch(op) || IsDirectJump(op) || IsIndirectJump(op);
}

std::uint32_t Encode(const Instr& instr) {
  Check(instr.op != Op::kInvalid, "Encode: invalid opcode");
  Check(instr.rs < 32 && instr.rt < 32 && instr.rd < 32 && instr.shamt < 32,
        "Encode: register field out of range");
  const OpInfo info = Info(instr.op);
  const auto opc = static_cast<std::uint32_t>(info.opcode) << 26;
  const auto rs = static_cast<std::uint32_t>(instr.rs) << 21;
  const auto rt = static_cast<std::uint32_t>(instr.rt) << 16;
  const auto rd = static_cast<std::uint32_t>(instr.rd) << 11;
  const auto sh = static_cast<std::uint32_t>(instr.shamt) << 6;
  const std::uint32_t imm16 = static_cast<std::uint32_t>(instr.imm) & 0xFFFFu;
  if (ImmIsSigned(info.format)) {
    Check(instr.imm >= -32768 && instr.imm <= 32767,
          "Encode: signed immediate out of range");
  }
  switch (info.format) {
    case Format::kShift:
      return opc | rt | rd | sh | info.funct;
    case Format::kShiftVar:
    case Format::kR3:
      return opc | rs | rt | rd | info.funct;
    case Format::kRsOnly:
      return opc | rs | info.funct;
    case Format::kRdRs:
      return opc | rs | rd | info.funct;
    case Format::kRsRt:
      return opc | rs | rt | info.funct;
    case Format::kRdOnly:
      return opc | rd | info.funct;
    case Format::kBranch1:
      // REGIMM encodes the condition in the rt field.
      if (info.opcode == 0x01) {
        return opc | rs | (static_cast<std::uint32_t>(info.funct) << 16) |
               imm16;
      }
      return opc | rs | imm16;
    case Format::kBranch2:
    case Format::kImmArith:
    case Format::kImmLogic:
    case Format::kMem:
      if (!ImmIsSigned(info.format)) {
        Check(instr.imm >= 0 && instr.imm <= 0xFFFF,
              "Encode: unsigned immediate out of range");
      }
      return opc | rs | rt | imm16;
    case Format::kLui:
      Check(instr.imm >= 0 && instr.imm <= 0xFFFF,
            "Encode: lui immediate out of range");
      return opc | rt | imm16;
    case Format::kJump:
      Check(instr.target < (1u << 26), "Encode: jump target out of range");
      return opc | instr.target;
  }
  throw InternalError("Encode: unreachable");
}

std::optional<Instr> Decode(std::uint32_t word) noexcept {
  const auto opcode = static_cast<std::uint8_t>(Bits(word, 26, 6));
  Instr instr;
  instr.rs = static_cast<std::uint8_t>(Bits(word, 21, 5));
  instr.rt = static_cast<std::uint8_t>(Bits(word, 16, 5));
  instr.rd = static_cast<std::uint8_t>(Bits(word, 11, 5));
  instr.shamt = static_cast<std::uint8_t>(Bits(word, 6, 5));
  const std::uint32_t imm16 = Bits(word, 0, 16);

  if (opcode == 0x00) {
    const auto funct = static_cast<std::uint8_t>(Bits(word, 0, 6));
    const auto op = DecodeRType(funct);
    if (!op) return std::nullopt;
    instr.op = *op;
    // Normalize unused fields so Encode(Decode(w)) == w round-trips only for
    // canonical encodings; tests cover this.
    return instr;
  }
  if (opcode == 0x01) {
    instr.op = instr.rt == 0 ? Op::kBltz
               : instr.rt == 1 ? Op::kBgez
                               : Op::kInvalid;
    if (instr.op == Op::kInvalid) return std::nullopt;
    instr.rt = 0;
    instr.imm = SignExtend(imm16, 16);
    return instr;
  }
  const auto op = DecodePrimary(opcode);
  if (!op) return std::nullopt;
  instr.op = *op;
  const OpInfo info = Info(*op);
  if (info.format == Format::kJump) {
    instr.rs = instr.rt = instr.rd = instr.shamt = 0;
    instr.target = Bits(word, 0, 26);
    return instr;
  }
  instr.imm = ImmIsSigned(info.format)
                  ? SignExtend(imm16, 16)
                  : static_cast<std::int32_t>(imm16);
  return instr;
}

std::uint32_t BranchTarget(std::uint32_t pc, const Instr& instr) noexcept {
  return pc + 4 + (static_cast<std::uint32_t>(instr.imm) << 2);
}

std::uint32_t JumpTarget(std::uint32_t pc, const Instr& instr) noexcept {
  return ((pc + 4) & 0xF000'0000u) | (instr.target << 2);
}

}  // namespace b2h::mips
