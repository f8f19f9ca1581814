// Constant propagation / folding / algebraic simplification.
//
// Paper §2: "One such overhead is the use of arithmetic instructions with an
// immediate value of zero in order to move a value between two registers ...
// If the arithmetic operator is synthesized, then large amounts of area will
// be wasted.  We remove this overhead using constant propagation."
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "decomp/passes.hpp"
#include "support/bits.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

/// Evaluate a binary op over constants with the platform's semantics
/// (identical to the IR interpreter and MIPS simulator).
std::optional<std::int32_t> Fold(Opcode op, std::int32_t a, std::int32_t b) {
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  switch (op) {
    case Opcode::kAdd: return static_cast<std::int32_t>(ua + ub);
    case Opcode::kSub: return static_cast<std::int32_t>(ua - ub);
    case Opcode::kMul: return static_cast<std::int32_t>(ua * ub);
    case Opcode::kMulHiS:
      return static_cast<std::int32_t>(
          (static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b)) >> 32);
    case Opcode::kMulHiU:
      return static_cast<std::int32_t>(
          (static_cast<std::uint64_t>(ua) * static_cast<std::uint64_t>(ub)) >>
          32);
    case Opcode::kDivS:
      return b == 0 ? 0 : (a == INT32_MIN && b == -1) ? INT32_MIN : a / b;
    case Opcode::kDivU:
      return b == 0 ? 0 : static_cast<std::int32_t>(ua / ub);
    case Opcode::kRemS:
      return b == 0 ? a : (a == INT32_MIN && b == -1) ? 0 : a % b;
    case Opcode::kRemU:
      return b == 0 ? a : static_cast<std::int32_t>(ua % ub);
    case Opcode::kAnd: return static_cast<std::int32_t>(ua & ub);
    case Opcode::kOr:  return static_cast<std::int32_t>(ua | ub);
    case Opcode::kXor: return static_cast<std::int32_t>(ua ^ ub);
    case Opcode::kNor: return static_cast<std::int32_t>(~(ua | ub));
    case Opcode::kShl: return static_cast<std::int32_t>(ua << (ub & 31u));
    case Opcode::kShrL: return static_cast<std::int32_t>(ua >> (ub & 31u));
    case Opcode::kShrA: return a >> (ub & 31u);
    case Opcode::kEq:  return a == b;
    case Opcode::kNe:  return a != b;
    case Opcode::kLtS: return a < b;
    case Opcode::kLtU: return ua < ub;
    case Opcode::kLeS: return a <= b;
    case Opcode::kLeU: return ua <= ub;
    case Opcode::kGtS: return a > b;
    case Opcode::kGtU: return ua > ub;
    case Opcode::kGeS: return a >= b;
    case Opcode::kGeU: return ua >= ub;
    default: return std::nullopt;
  }
}

bool IsBinary(Opcode op) {
  switch (op) {
    case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
    case Opcode::kMulHiS: case Opcode::kMulHiU: case Opcode::kDivS:
    case Opcode::kDivU: case Opcode::kRemS: case Opcode::kRemU:
    case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor:
    case Opcode::kNor: case Opcode::kShl: case Opcode::kShrL:
    case Opcode::kShrA:
      return true;
    default:
      return ir::IsComparison(op);
  }
}

/// Algebraic identities returning a replacement value, or None.
Value Identity(const ir::Instr& instr) {
  if (!IsBinary(instr.op) || instr.operands.size() != 2) return Value::None();
  const Value& a = instr.operands[0];
  const Value& b = instr.operands[1];
  switch (instr.op) {
    case Opcode::kAdd:
      if (b.is_const_value(0)) return a;  // the move idiom `addiu rd, rs, 0`
      if (a.is_const_value(0)) return b;
      break;
    case Opcode::kSub:
      if (b.is_const_value(0)) return a;
      if (a == b) return Value::Const(0);
      break;
    case Opcode::kMul:
      if (b.is_const_value(1)) return a;
      if (a.is_const_value(1)) return b;
      if (a.is_const_value(0) || b.is_const_value(0)) return Value::Const(0);
      break;
    case Opcode::kOr:
    case Opcode::kXor:
      if (b.is_const_value(0)) return a;  // the move idiom `or rd, rs, $zero`
      if (a.is_const_value(0)) return b;
      if (instr.op == Opcode::kOr && a == b) return a;
      if (instr.op == Opcode::kXor && a == b) return Value::Const(0);
      break;
    case Opcode::kAnd:
      if (b.is_const_value(-1)) return a;
      if (a.is_const_value(-1)) return b;
      if (a.is_const_value(0) || b.is_const_value(0)) return Value::Const(0);
      if (a == b) return a;
      break;
    case Opcode::kShl:
    case Opcode::kShrL:
    case Opcode::kShrA:
      if (b.is_const_value(0)) return a;
      break;
    case Opcode::kEq:
      if (a == b && a.is_instr()) return Value::Const(1);
      break;
    case Opcode::kNe:
      if (a == b && a.is_instr()) return Value::Const(0);
      break;
    default:
      break;
  }
  return Value::None();
}

}  // namespace

std::size_t SimplifyConstants(ir::Function& function) {
  std::size_t simplified = 0;
  while (true) {
    bool changed = false;
    std::unordered_map<const ir::Instr*, Value> replacements;

    for (const auto& block : function.blocks()) {
      for (ir::Instr* instr : block->instrs) {
        // Constant-fold pure binaries.
        if (IsBinary(instr->op) && instr->operands.size() == 2 &&
            instr->operands[0].is_const() && instr->operands[1].is_const()) {
          if (auto value = Fold(instr->op, instr->operands[0].imm,
                                instr->operands[1].imm)) {
            replacements[instr] = Value::Const(*value);
            continue;
          }
        }
        // kConst instructions become immediate operands.
        if (instr->op == Opcode::kConst) {
          replacements[instr] = Value::Const(instr->imm);
          continue;
        }
        // Select with constant condition.
        if (instr->op == Opcode::kSelect && instr->operands[0].is_const()) {
          replacements[instr] =
              instr->operands[0].imm != 0 ? instr->operands[1]
                                          : instr->operands[2];
          continue;
        }
        // Extensions of constants.
        if ((instr->op == Opcode::kSExt || instr->op == Opcode::kZExt ||
             instr->op == Opcode::kTrunc) &&
            instr->operands[0].is_const()) {
          const auto raw = static_cast<std::uint32_t>(instr->operands[0].imm);
          std::int32_t value = 0;
          if (instr->op == Opcode::kSExt) {
            value = SignExtend(raw, instr->ext_from);
          } else if (instr->op == Opcode::kZExt) {
            value = static_cast<std::int32_t>(raw & LowMask(instr->ext_from));
          } else {
            value = static_cast<std::int32_t>(raw & LowMask(instr->width));
          }
          replacements[instr] = Value::Const(value);
          continue;
        }
        // Algebraic identities.
        const Value identity = Identity(*instr);
        if (!identity.is_none()) {
          replacements[instr] = identity;
          continue;
        }
        // Canonicalize: constants on the right for commutative ops
        // (simplifies later pattern matchers).
        if (IsBinary(instr->op) && ir::IsCommutative(instr->op) &&
            instr->operands.size() == 2 && instr->operands[0].is_const() &&
            !instr->operands[1].is_const()) {
          std::swap(instr->operands[0], instr->operands[1]);
          changed = true;
        }
        // Reassociate (x + c1) + c2 -> x + (c1+c2): collapses the address
        // arithmetic chains lifting produces.
        if (instr->op == Opcode::kAdd && instr->operands[1].is_const() &&
            instr->operands[0].is_instr()) {
          ir::Instr* inner = instr->operands[0].def;
          if (inner->op == Opcode::kAdd && inner->operands[1].is_const() &&
              inner->parent != nullptr) {
            const std::int32_t merged = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(inner->operands[1].imm) +
                static_cast<std::uint32_t>(instr->operands[1].imm));
            instr->operands[0] = inner->operands[0];
            instr->operands[1] = Value::Const(merged);
            changed = true;
          }
        }
      }
    }

    // Fold one constant conditional branch per round; the cleanup below
    // drops the phi operands of the edge that goes away.
    for (const auto& block : function.blocks()) {
      if (!block->has_terminator()) continue;
      ir::Instr* term = block->terminator();
      if (term->op != Opcode::kCondBr || !term->operands[0].is_const()) {
        continue;
      }
      term->op = Opcode::kBr;
      term->target0 = term->operands[0].imm != 0 ? term->target0
                                                 : term->target1;
      term->target1 = nullptr;
      term->operands.clear();
      term->width = 0;
      changed = true;
      break;
    }

    if (!replacements.empty()) {
      function.ReplaceAllUses(replacements);
      simplified += replacements.size();
      changed = true;
    }
    if (!changed) return simplified;
    function.Cleanup();
  }
}

}  // namespace b2h::decomp
