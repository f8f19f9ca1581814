// Strength reduction and strength promotion (paper §2).
//
// Reduction (instruction-set overhead removal, aimed at synthesis):
// multiplications/divisions by powers of two become shifts and masks —
// constant shifts are free wiring in hardware while dividers are the most
// expensive datapath operator by far.  Signed division is reduced only when
// the dividend is provably non-negative (arithmetic shift rounds toward
// negative infinity, division toward zero).
//
// Promotion (undoing a software-compiler optimization): compilers decompose
// `x * c` into shift/add/sub chains because microprocessor multipliers are
// slow; in hardware that chain occupies several adders and shifters.  The
// pass recognizes such chains and collapses them back into a single
// multiplication so the synthesis tool can decide the implementation
// ("to give the synthesis tool this added flexibility, we perform strength
// promotion").
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "decomp/passes.hpp"
#include "support/bits.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

/// Structural non-negativity: enough to justify DivS/RemS -> shift/mask.
bool ProvablyNonNegative(const Value& value, int depth = 0) {
  if (value.is_const()) return value.imm >= 0;
  if (!value.is_instr() || depth > 8) return false;
  const ir::Instr* def = value.def;
  switch (def->op) {
    case Opcode::kLoad:
      return def->mem_bytes < 4 && !def->mem_signed;
    case Opcode::kZExt:
      return def->ext_from < 32;
    case Opcode::kAnd:
      return ProvablyNonNegative(def->operands[0], depth + 1) ||
             ProvablyNonNegative(def->operands[1], depth + 1);
    case Opcode::kShrL:
      return def->operands[1].is_const() && (def->operands[1].imm & 31) > 0;
    case Opcode::kRemU:
    case Opcode::kDivU:
      return ProvablyNonNegative(def->operands[0], depth + 1) &&
             ProvablyNonNegative(def->operands[1], depth + 1);
    case Opcode::kAdd:
    case Opcode::kMul:
      // Conservative: non-negative inputs could still overflow; only accept
      // narrow results proven by a prior size-reduction run.
      return def->width <= 31 && !def->is_signed;
    default:
      if (ir::IsComparison(def->op)) return true;
      return def->width <= 31 && !def->is_signed;
  }
}

}  // namespace

StrengthReductionStats ReduceStrength(ir::Function& function) {
  StrengthReductionStats stats;
  for (const auto& block : function.blocks()) {
    for (ir::Instr* instr : block->instrs) {
      if (instr->operands.size() != 2 || !instr->operands[1].is_const()) {
        continue;
      }
      const std::int32_t c = instr->operands[1].imm;
      if (c <= 0 || !IsPowerOfTwo(static_cast<std::uint32_t>(c))) continue;
      const auto k = static_cast<std::int32_t>(
          Log2(static_cast<std::uint32_t>(c)));
      switch (instr->op) {
        case Opcode::kMul:
          instr->op = Opcode::kShl;
          instr->operands[1] = Value::Const(k);
          ++stats.muls_to_shifts;
          break;
        case Opcode::kDivU:
          instr->op = Opcode::kShrL;
          instr->operands[1] = Value::Const(k);
          ++stats.divs_to_shifts;
          break;
        case Opcode::kRemU:
          instr->op = Opcode::kAnd;
          instr->operands[1] = Value::Const(c - 1);
          ++stats.rems_to_masks;
          break;
        case Opcode::kDivS:
          if (ProvablyNonNegative(instr->operands[0])) {
            instr->op = Opcode::kShrL;
            instr->operands[1] = Value::Const(k);
            ++stats.divs_to_shifts;
          }
          break;
        case Opcode::kRemS:
          if (ProvablyNonNegative(instr->operands[0])) {
            instr->op = Opcode::kAnd;
            instr->operands[1] = Value::Const(c - 1);
            ++stats.rems_to_masks;
          }
          break;
        default:
          break;
      }
    }
  }
  return stats;
}

namespace {

/// A matched linear term: tree computes coeff * base.
struct LinearTerm {
  Value base;
  std::int64_t coeff = 0;
  std::vector<ir::Instr*> internal;  // tree-internal instructions
};

std::optional<LinearTerm> MatchLinear(const Value& value, int depth) {
  if (depth > 12) return std::nullopt;
  if (value.is_const()) return std::nullopt;  // constants fold elsewhere
  if (value.is_instr()) {
    ir::Instr* def = value.def;
    if (def->op == Opcode::kShl && def->operands[1].is_const()) {
      const unsigned sh = static_cast<unsigned>(def->operands[1].imm) & 31u;
      if (auto inner = MatchLinear(def->operands[0], depth + 1)) {
        inner->coeff <<= sh;
        inner->internal.push_back(def);
        return inner;
      }
      // Fall through: treat the whole shift as an opaque leaf.
    } else if (def->op == Opcode::kAdd || def->op == Opcode::kSub) {
      auto lhs = MatchLinear(def->operands[0], depth + 1);
      auto rhs = MatchLinear(def->operands[1], depth + 1);
      if (lhs && rhs && lhs->base == rhs->base) {
        LinearTerm term;
        term.base = lhs->base;
        term.coeff = def->op == Opcode::kAdd ? lhs->coeff + rhs->coeff
                                             : lhs->coeff - rhs->coeff;
        term.internal = std::move(lhs->internal);
        term.internal.insert(term.internal.end(), rhs->internal.begin(),
                             rhs->internal.end());
        term.internal.push_back(def);
        return term;
      }
      // Fall through: bases differ (or a side is constant) — opaque leaf.
    }
  }
  // Leaf: any non-constant value is 1 * itself.
  LinearTerm term;
  term.base = value;
  term.coeff = 1;
  return term;
}

}  // namespace

StrengthPromotionStats PromoteStrength(ir::Function& function) {
  StrengthPromotionStats stats;

  // Use counts by Instr::id, so we only collapse single-use chains
  // (otherwise the chain stays alive and the new multiplier is pure area
  // overhead).  Collapsing moves no instruction, so the ids hold.
  const std::vector<ir::Instr*> by_id = function.Renumber();
  std::vector<int> use_count(by_id.size(), 0);
  for (const ir::Instr* instr : by_id) {
    for (const Value& operand : instr->operands) {
      if (operand.is_instr()) ++use_count[ir::IdIn(by_id, operand.def)];
    }
  }

  // Uses inside the current tree by id; -1 outside it.
  std::vector<int> in_tree_uses(by_id.size(), -1);
  for (const auto& block : function.blocks()) {
    for (ir::Instr* instr : block->instrs) {
      if (instr->op != Opcode::kAdd && instr->op != Opcode::kSub) continue;
      auto term = MatchLinear(Value::Of(instr), 0);
      if (!term) continue;
      // The root is part of the tree; internal nodes other than the root
      // must have exactly one use (inside the tree).
      if (term->internal.size() < 2) continue;  // need a real chain
      const std::int64_t c = term->coeff;
      if (c < INT32_MIN || c > INT32_MAX) continue;
      // Single shifts / trivial coefficients are better left alone.
      if (c == 0 || c == 1 ||
          (c > 0 && IsPowerOfTwo(static_cast<std::uint32_t>(c)))) {
        continue;
      }
      // Every non-root tree node must be used only inside the tree.  The
      // tree may be a DAG: a subterm like t = 5x in 25x = (t<<2)+t is used
      // twice within it, which is fine, and is listed twice in `internal`,
      // so count each node's operands once.
      std::vector<ir::Instr*>& tree = term->internal;
      std::sort(tree.begin(), tree.end(),
                [](const ir::Instr* a, const ir::Instr* b) {
                  return a->id < b->id;
                });
      tree.erase(std::unique(tree.begin(), tree.end()), tree.end());
      for (const ir::Instr* node : tree) in_tree_uses[node->id] = 0;
      for (const ir::Instr* node : tree) {
        for (const Value& operand : node->operands) {
          if (!operand.is_instr()) continue;
          int& uses = in_tree_uses[ir::IdIn(by_id, operand.def)];
          if (uses >= 0) ++uses;
        }
      }
      bool sharable = false;
      for (const ir::Instr* node : tree) {
        if (node != instr && use_count[node->id] != in_tree_uses[node->id]) {
          sharable = true;
        }
        in_tree_uses[node->id] = -1;
      }
      if (sharable) continue;
      // All tree nodes must live in the same block as the root so the
      // collapse cannot lengthen any other path.
      bool same_block = true;
      for (const ir::Instr* node : term->internal) {
        if (node->parent != instr->parent) {
          same_block = false;
          break;
        }
      }
      if (!same_block) continue;

      instr->op = Opcode::kMul;
      instr->operands = {term->base,
                         Value::Const(static_cast<std::int32_t>(c))};
      ++stats.muls_recovered;
    }
  }
  if (stats.muls_recovered > 0) function.Cleanup();
  return stats;
}

}  // namespace b2h::decomp
