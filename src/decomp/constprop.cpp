// Constant propagation / folding / algebraic simplification.
//
// Paper §2: "One such overhead is the use of arithmetic instructions with an
// immediate value of zero in order to move a value between two registers ...
// If the arithmetic operator is synthesized, then large amounts of area will
// be wasted.  We remove this overhead using constant propagation."
#include <cstdint>
#include <optional>
#include <utility>

#include "decomp/passes.hpp"
#include "ir/eval.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

/// The value of `instr` when all its operands are constants and its
/// operator's result depends on them alone (ir::Evaluate).
std::optional<std::int32_t> FoldConstants(const ir::Instr& instr) {
  std::int32_t imm[3] = {};
  for (std::size_t i = 0; i < instr.operands.size(); ++i) {
    if (i >= 3 || !instr.operands[i].is_const()) return std::nullopt;
    imm[i] = instr.operands[i].imm;
  }
  return ir::Evaluate(instr, imm[0], imm[1], imm[2]);
}

/// Algebraic identities returning a replacement value, or None.
Value Identity(const ir::Instr& instr) {
  if (instr.operands.size() != 2) return Value::None();
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
    ir::Replacements replacements;

    for (const auto& block : function.blocks()) {
      for (ir::Instr* instr : block->instrs) {
        // Fold operators over constants; kConst instructions become
        // immediate operands this way too.
        if (const auto value = FoldConstants(*instr)) {
          replacements.emplace_back(instr, Value::Const(*value));
          continue;
        }
        // Select with constant condition.
        if (instr->op == Opcode::kSelect && instr->operands[0].is_const()) {
          replacements.emplace_back(instr, instr->operands[0].imm != 0
                                               ? instr->operands[1]
                                               : instr->operands[2]);
          continue;
        }
        // Algebraic identities.
        const Value identity = Identity(*instr);
        if (!identity.is_none()) {
          replacements.emplace_back(instr, identity);
          continue;
        }
        // Canonicalize: constants on the right for commutative ops
        // (simplifies later pattern matchers).
        if (ir::IsCommutative(instr->op) && instr->operands[0].is_const() &&
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
