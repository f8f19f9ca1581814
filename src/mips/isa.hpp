// MIPS-I integer subset: instruction model plus binary encode/decode.
//
// This is the ISA of the paper's hypothetical platform ("a MIPS
// microprocessor").  We implement the classic MIPS-I integer instruction set
// minus delay slots (see DESIGN.md §6): branches and jumps take effect
// immediately.  None of the decompilation techniques studied by the paper
// depend on delay-slot scheduling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace b2h::mips {

/// Architectural register numbers with their MIPS ABI names.
enum Reg : std::uint8_t {
  kZero = 0,
  kAt = 1,
  kV0 = 2,
  kV1 = 3,
  kA0 = 4,
  kA1 = 5,
  kA2 = 6,
  kA3 = 7,
  kT0 = 8,
  kT1 = 9,
  kT2 = 10,
  kT3 = 11,
  kT4 = 12,
  kT5 = 13,
  kT6 = 14,
  kT7 = 15,
  kS0 = 16,
  kS1 = 17,
  kS2 = 18,
  kS3 = 19,
  kS4 = 20,
  kS5 = 21,
  kS6 = 22,
  kS7 = 23,
  kT8 = 24,
  kT9 = 25,
  kK0 = 26,
  kK1 = 27,
  kGp = 28,
  kSp = 29,
  kFp = 30,
  kRa = 31,
};

/// ABI name ("$sp", "$t0", ...) for a register number.
[[nodiscard]] const char* RegName(unsigned reg) noexcept;

/// All implemented operations; kInvalid is always last.
enum class Op : std::uint8_t {
  // Shifts (R-type).
  kSll, kSrl, kSra, kSllv, kSrlv, kSrav,
  // Indirect jumps (R-type).
  kJr, kJalr,
  // HI/LO moves and multiply/divide (R-type).
  kMfhi, kMthi, kMflo, kMtlo, kMult, kMultu, kDiv, kDivu,
  // Three-register ALU (R-type).
  kAdd, kAddu, kSub, kSubu, kAnd, kOr, kXor, kNor,
  kSlt, kSltu,
  // Branches.
  kBltz, kBgez, kBeq, kBne, kBlez, kBgtz,
  // Immediate ALU.
  kAddi, kAddiu, kSlti, kSltiu, kAndi, kOri, kXori, kLui,
  // Memory.
  kLb, kLh, kLw, kLbu, kLhu, kSb, kSh, kSw,
  // Absolute jumps (J-type).
  kJ, kJal,
  kInvalid,
};

[[nodiscard]] const char* Mnemonic(Op op) noexcept;

/// Classification helpers used by the simulator, lifter, and CFG recovery.
[[nodiscard]] bool IsBranch(Op op) noexcept;        // conditional branches
[[nodiscard]] bool IsDirectJump(Op op) noexcept;    // j / jal
[[nodiscard]] bool IsIndirectJump(Op op) noexcept;  // jr / jalr
[[nodiscard]] bool IsLoad(Op op) noexcept;
[[nodiscard]] bool IsStore(Op op) noexcept;
[[nodiscard]] bool IsControl(Op op) noexcept;  // any branch or jump
[[nodiscard]] bool WritesGpr(Op op) noexcept;  // writes a general register

/// A decoded instruction.  Fields not used by a format are zero.
struct Instr {
  Op op = Op::kInvalid;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::uint8_t rd = 0;
  std::uint8_t shamt = 0;
  /// I-type immediate: sign-extended for arithmetic/memory/branch forms,
  /// zero-extended (0..65535) for andi/ori/xori/lui.
  std::int32_t imm = 0;
  /// J-type 26-bit word-address field (not shifted).
  std::uint32_t target = 0;

  [[nodiscard]] bool operator==(const Instr&) const = default;
};

/// Encode to a 32-bit machine word. Throws InternalError for kInvalid or
/// out-of-range fields.
[[nodiscard]] std::uint32_t Encode(const Instr& instr);

/// Decode a machine word; returns std::nullopt for words outside the subset.
[[nodiscard]] std::optional<Instr> Decode(std::uint32_t word) noexcept;

/// Branch target byte address for a conditional branch at `pc`.
[[nodiscard]] std::uint32_t BranchTarget(std::uint32_t pc,
                                         const Instr& instr) noexcept;

/// Jump target byte address for a J-type instruction at `pc`.
[[nodiscard]] std::uint32_t JumpTarget(std::uint32_t pc,
                                       const Instr& instr) noexcept;

/// One-line disassembly, e.g. "addiu $sp, $sp, -32".
[[nodiscard]] std::string Disassemble(const Instr& instr, std::uint32_t pc);

}  // namespace b2h::mips
