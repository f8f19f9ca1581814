// Loop rerolling (paper §2).
//
// "Loop unrolling can obscure high-level information such as memory access
//  patterns and resource requirements ... We use loop rerolling to identify
//  unrolled loops and then roll the loops back into a representation
//  similar to their original representation in high-level code."
//
// The pass targets single-block self-loops (header == latch) whose body
// consists of U isomorphic sections followed by a small tail (induction
// update + bound compare).  Matching is strict and position-wise — the pass
// runs immediately after lifting, before constant folding, so compiler
// unrolled sections are still textually isomorphic:
//   - opcodes and side data must match position-by-position;
//   - constant operands may differ across sections in arithmetic
//     progression (c0, c0+d, c0+2d, ...), but a non-zero progression is
//     accepted only where the instruction provably depends affinely on the
//     induction variable with coefficient a and d == a * (S/U) — this is
//     the signature of substituting i -> i + j*(S/U), and rejects bodies
//     whose constants merely happen to form a progression;
//   - a use of a loop phi in section 0 must correspond in section j to the
//     "j-th version" of that phi (the value section j-1 produced at the
//     same position where the phi's final latch value is produced).
//
// On a match, sections 1..U-1 are deleted, the induction step S becomes
// S/U, phi latch operands are rewired into section 0, and profile counts
// are rescaled (the rerolled loop iterates U times more often).
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "decomp/passes.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

struct LoopShape {
  ir::Block* block = nullptr;
  std::vector<ir::Instr*> phis;
  std::vector<ir::Instr*> body;     // non-phi, non-terminator, in order
  ir::Instr* terminator = nullptr;
  ir::Instr* compare = nullptr;     // bound comparison feeding the branch
  ir::Instr* induction_add = nullptr;  // i_next = add(i_phi, S)
  ir::Instr* induction_phi = nullptr;
  std::int32_t step = 0;            // S
  std::size_t latch_index = 0;      // index of the back edge in preds
  std::size_t tail_len = 2;         // instructions after the last section
};

/// Extract the canonical rotated-loop shape, or nullopt.
std::optional<LoopShape> MatchShape(ir::Block* block) {
  LoopShape shape;
  shape.block = block;
  if (!block->has_terminator()) return std::nullopt;
  shape.terminator = block->terminator();
  if (shape.terminator->op != Opcode::kCondBr) return std::nullopt;
  if (shape.terminator->target0 != block &&
      shape.terminator->target1 != block) {
    return std::nullopt;  // not a self loop
  }
  if (block->preds.size() != 2) return std::nullopt;
  shape.latch_index = block->PredIndex(block);
  shape.phis = block->Phis();
  for (ir::Instr* instr : block->instrs) {
    if (instr->op == Opcode::kPhi || instr == shape.terminator) continue;
    shape.body.push_back(instr);
  }
  if (shape.body.size() < 4) return std::nullopt;

  // Tail: [induction add, compare] or [induction add, compare, ne(cmp,0)]
  // — the latter is the lifted form of MIPS `slt $at, ...; bne $at, $zero`.
  const Value cond = shape.terminator->operands[0];
  if (!cond.is_instr() || cond.def != shape.body.back()) return std::nullopt;
  shape.compare = cond.def;
  shape.tail_len = 2;
  if ((shape.compare->op == Opcode::kNe ||
       shape.compare->op == Opcode::kEq) &&
      shape.compare->operands[1].is_const_value(0) &&
      shape.compare->operands[0].is_instr()) {
    ir::Instr* inner = shape.compare->operands[0].def;
    if (shape.body.size() >= 3 &&
        inner == shape.body[shape.body.size() - 2] &&
        ir::IsComparison(inner->op)) {
      shape.compare = inner;
      shape.tail_len = 3;
    }
  }
  if (shape.body.size() < shape.tail_len + 1) return std::nullopt;
  ir::Instr* add = shape.body[shape.body.size() - shape.tail_len];
  if (add->op != Opcode::kAdd || !add->operands[1].is_const()) {
    return std::nullopt;
  }
  const Value base = add->operands[0];
  if (!base.is_instr() || base.def->op != Opcode::kPhi ||
      base.def->parent != block) {
    return std::nullopt;
  }
  // The add must be the phi's latch value (i_next).
  ir::Instr* phi = base.def;
  if (!(phi->operands[shape.latch_index] == Value::Of(add))) {
    return std::nullopt;
  }
  // The compare must use i_next (rotated do-while bound check).
  const bool compare_uses_next =
      (shape.compare->operands[0] == Value::Of(add)) ||
      (shape.compare->operands.size() > 1 &&
       shape.compare->operands[1] == Value::Of(add));
  if (!ir::IsComparison(shape.compare->op) || !compare_uses_next) {
    return std::nullopt;
  }
  shape.induction_add = add;
  shape.induction_phi = phi;
  shape.step = add->operands[1].imm;
  return shape;
}

/// Affine coefficient of `value` with respect to the induction phi, looking
/// only through in-block definitions.  nullopt = not provably affine.
std::optional<std::int64_t> AffineCoeff(
    const Value& value, const ir::Instr* induction_phi,
    const ir::Block* block, int depth) {
  if (depth > 16) return std::nullopt;
  if (value.is_const()) return 0;
  const ir::Instr* def = value.def;
  if (def == induction_phi) return 1;
  if (def->parent != block || def->op == Opcode::kPhi) {
    // Loop-invariant values (defined outside) have coefficient 0; other
    // loop phis (accumulators) are not affine in i.
    return def->parent != block ? std::optional<std::int64_t>(0)
                                : std::nullopt;
  }
  switch (def->op) {
    case Opcode::kAdd: {
      const auto a = AffineCoeff(def->operands[0], induction_phi, block,
                                 depth + 1);
      const auto b = AffineCoeff(def->operands[1], induction_phi, block,
                                 depth + 1);
      if (a && b) return *a + *b;
      return std::nullopt;
    }
    case Opcode::kSub: {
      const auto a = AffineCoeff(def->operands[0], induction_phi, block,
                                 depth + 1);
      const auto b = AffineCoeff(def->operands[1], induction_phi, block,
                                 depth + 1);
      if (a && b) return *a - *b;
      return std::nullopt;
    }
    case Opcode::kShl:
      if (def->operands[1].is_const()) {
        const auto a = AffineCoeff(def->operands[0], induction_phi, block,
                                   depth + 1);
        if (a) return *a << (def->operands[1].imm & 31);
      }
      return std::nullopt;
    case Opcode::kMul:
      if (def->operands[1].is_const()) {
        const auto a = AffineCoeff(def->operands[0], induction_phi, block,
                                   depth + 1);
        if (a) return *a * def->operands[1].imm;
      }
      return std::nullopt;
    case Opcode::kLoad:
      return 0;  // a loaded value is never a function of i (delta must be 0)
    default:
      return std::nullopt;
  }
}

/// One candidate factoring attempt for a given U.
class RerollAttempt {
 public:
  RerollAttempt(const LoopShape& shape, std::size_t factor)
      : shape_(shape), factor_(factor) {}

  bool Match() {
    const std::size_t body_ops = shape_.body.size() - shape_.tail_len;
    if (factor_ < 2 || body_ops % factor_ != 0) return false;
    if (shape_.step % static_cast<std::int32_t>(factor_) != 0 ||
        shape_.step == 0) {
      return false;
    }
    section_len_ = body_ops / factor_;
    if (section_len_ == 0) return false;
    new_step_ = shape_.step / static_cast<std::int32_t>(factor_);

    // Index instructions by section.
    const auto at = [&](std::size_t section, std::size_t k) {
      return shape_.body[section * section_len_ + k];
    };

    // First find, for every loop phi, the position of its latch value in
    // the final section (the "version position").  The induction phi is
    // handled separately via the tail add.
    version_pos_.assign(shape_.phis.size(), std::nullopt);
    for (std::size_t p = 0; p < shape_.phis.size(); ++p) {
      ir::Instr* phi = shape_.phis[p];
      if (phi == shape_.induction_phi) continue;
      const Value latch = phi->operands[shape_.latch_index];
      if (latch == Value::Of(phi)) continue;  // loop-invariant phi
      if (!latch.is_instr()) return false;
      // Locate in last section.
      for (std::size_t k = 0; k < section_len_; ++k) {
        if (at(factor_ - 1, k) == latch.def) {
          version_pos_[p] = k;
          break;
        }
      }
      if (!version_pos_[p]) return false;
    }

    // Position-wise isomorphism with constant progressions.
    deltas_.assign(section_len_, {});
    for (std::size_t j = 1; j < factor_; ++j) {
      for (std::size_t k = 0; k < section_len_; ++k) {
        if (!MatchInstr(at(0, k), at(j, k), j, k)) return false;
      }
    }

    // Verify non-zero deltas are justified: d == affine_coeff * new_step.
    for (std::size_t k = 0; k < section_len_; ++k) {
      for (const auto& [idx, d] : deltas_[k]) {
        if (d == 0) continue;
        ir::Instr* instr = at(0, k);
        // Affine coefficient of the instruction's non-constant operand.
        std::optional<std::int64_t> coeff;
        for (std::size_t oi = 0; oi < instr->operands.size(); ++oi) {
          if (oi == idx) continue;
          coeff = AffineCoeff(instr->operands[oi], shape_.induction_phi,
                              shape_.block, 0);
          break;
        }
        if (!coeff || *coeff * new_step_ != d) return false;
        // Only additive positions can carry induction offsets.
        if (instr->op != Opcode::kAdd && instr->op != Opcode::kSub) {
          return false;
        }
      }
    }
    return true;
  }

  /// Apply the rewrite (call only after Match() returned true).
  void Apply(ir::Function& function) {
    const auto at = [&](std::size_t section, std::size_t k) {
      return shape_.body[section * section_len_ + k];
    };
    // Rewire phi latch operands into section 0.
    for (std::size_t p = 0; p < shape_.phis.size(); ++p) {
      if (!version_pos_[p]) continue;
      shape_.phis[p]->operands[shape_.latch_index] =
          Value::Of(at(0, *version_pos_[p]));
    }
    // Induction step S -> S/U.
    shape_.induction_add->operands[1] = Value::Const(new_step_);

    // Values that escape the loop (exit-block phis reading the final
    // iteration's state) reference instructions in later sections; after
    // rerolling, the final iteration's value at position k is produced by
    // section 0's instruction at position k.
    ir::Replacements escapes;
    for (std::size_t j = 1; j < factor_; ++j) {
      for (std::size_t k = 0; k < section_len_; ++k) {
        escapes.emplace_back(at(j, k), Value::Of(at(0, k)));
      }
    }
    // Replacing them deletes sections 1..U-1.
    function.ReplaceAllUses(escapes);

    // Rescale profile annotations: the rerolled loop runs U iterations for
    // every original iteration, with the same number of loop entries/exits.
    ir::Block* block = shape_.block;
    if (block->exec_count > 0) {
      const std::uint64_t back_is_taken =
          shape_.terminator->target0 == block ? 1 : 0;
      const std::uint64_t old_back =
          back_is_taken != 0 ? block->taken_count : block->not_taken_count;
      const std::uint64_t entries = block->exec_count > old_back
                                        ? block->exec_count - old_back
                                        : 1;
      block->exec_count *= factor_;
      const std::uint64_t new_back = block->exec_count - entries;
      if (back_is_taken != 0) {
        block->taken_count = new_back;
      } else {
        block->not_taken_count = new_back;
      }
    }
  }

  [[nodiscard]] std::size_t removed_ops() const {
    return (factor_ - 1) * section_len_;
  }

 private:
  /// Match instruction `b` (section j, position k) against `a` (section 0).
  bool MatchInstr(ir::Instr* a, ir::Instr* b, std::size_t j, std::size_t k) {
    if (a->op != b->op || a->mem_bytes != b->mem_bytes ||
        a->mem_signed != b->mem_signed || a->call_target != b->call_target ||
        a->operands.size() != b->operands.size()) {
      return false;
    }
    if (a->op == Opcode::kPhi || a->op == Opcode::kCall) return false;
    for (std::size_t oi = 0; oi < a->operands.size(); ++oi) {
      const Value& x = a->operands[oi];
      const Value& y = b->operands[oi];
      if (x.is_const()) {
        if (!y.is_const()) return false;
        const std::int64_t diff =
            static_cast<std::int64_t>(y.imm) - static_cast<std::int64_t>(x.imm);
        auto& slot = deltas_[k];
        const auto it = slot.find(oi);
        if (it == slot.end()) {
          if (j != 1) {
            // First time we see this position must be section 1.
            if (diff != 0) return false;
            slot[oi] = 0;
          } else {
            if (diff % static_cast<std::int64_t>(j) != 0) return false;
            slot[oi] = diff;
          }
        } else if (diff != it->second * static_cast<std::int64_t>(j)) {
          return false;
        }
        continue;
      }
      if (!x.is_instr() || !y.is_instr()) return false;
      // In-section structural correspondence.
      const auto pos_x = PositionInSection(x.def, 0);
      if (pos_x) {
        const auto pos_y = PositionInSection(y.def, j);
        if (!pos_y || *pos_y != *pos_x) return false;
        continue;
      }
      // Loop-phi version chains: section j uses the value section j-1
      // produced at the phi's version position.
      if (x.def->op == Opcode::kPhi && x.def->parent == shape_.block &&
          x.def != shape_.induction_phi) {
        const auto phi = std::find(shape_.phis.begin(), shape_.phis.end(),
                                   x.def);
        if (phi == shape_.phis.end()) return false;
        const std::optional<std::size_t> version =
            version_pos_[static_cast<std::size_t>(phi - shape_.phis.begin())];
        if (!version) return false;
        const ir::Instr* expected =
            shape_.body[(j - 1) * section_len_ + *version];
        if (y.def != expected) return false;
        continue;
      }
      // Everything else must be loop-invariant and identical.
      if (!(x == y)) return false;
    }
    return true;
  }

  std::optional<std::size_t> PositionInSection(const ir::Instr* instr,
                                               std::size_t section) const {
    for (std::size_t k = 0; k < section_len_; ++k) {
      if (shape_.body[section * section_len_ + k] == instr) return k;
    }
    return std::nullopt;
  }

  const LoopShape& shape_;
  std::size_t factor_;
  std::size_t section_len_ = 0;
  std::int32_t new_step_ = 0;
  // Per position k: operand index -> per-section constant delta.
  std::vector<std::map<std::size_t, std::int64_t>> deltas_;
  // Per phi of shape_.phis: its version position, if any.
  std::vector<std::optional<std::size_t>> version_pos_;
};

}  // namespace

namespace {

/// Fold register-move idioms (`or rd, rs, $zero` lifts to kOr(x, 0)) so the
/// loop shape matcher sees through them.  Deliberately does NOT fold
/// kAdd(x, 0): those are the section-0 induction offsets unrolled code
/// carries, and the matcher keys on them.
std::size_t FoldRegisterMoves(ir::Function& function) {
  ir::Replacements replacements;
  for (const auto& block : function.blocks()) {
    for (ir::Instr* instr : block->instrs) {
      if (instr->op == Opcode::kOr) {
        if (instr->operands[0].is_const() && instr->operands[1].is_const()) {
          // `li` via lui+ori.
          replacements.emplace_back(
              instr, ir::Value::Const(instr->operands[0].imm |
                                      instr->operands[1].imm));
        } else if (instr->operands[1].is_const_value(0)) {
          replacements.emplace_back(instr, instr->operands[0]);
        } else if (instr->operands[0].is_const_value(0)) {
          replacements.emplace_back(instr, instr->operands[1]);
        }
      } else if (instr->op == Opcode::kAdd &&
                 instr->operands[0].is_const() &&
                 instr->operands[1].is_const()) {
        // `li` via addiu $rd, $zero, imm.
        replacements.emplace_back(
            instr, ir::Value::Const(static_cast<std::int32_t>(
                       static_cast<std::uint32_t>(instr->operands[0].imm) +
                       static_cast<std::uint32_t>(instr->operands[1].imm))));
      }
    }
  }
  function.ReplaceAllUses(replacements);
  return replacements.size();
}

}  // namespace

RerollStats RerollLoops(ir::Function& function) {
  RerollStats stats;
  FoldRegisterMoves(function);
  function.RecomputeCfg();

  // Collect candidate self-loop blocks first (rewrites invalidate analyses).
  std::vector<ir::Block*> candidates;
  for (const auto& block : function.blocks()) {
    for (const ir::Block* succ : block->succs()) {
      if (succ == block.get()) {
        candidates.push_back(block.get());
        break;
      }
    }
  }

  for (ir::Block* block : candidates) {
    const auto shape = MatchShape(block);
    if (!shape) continue;
    for (std::size_t factor : {8u, 4u, 2u}) {
      RerollAttempt attempt(*shape, factor);
      if (attempt.Match()) {
        attempt.Apply(function);
        ++stats.loops_rerolled;
        stats.unroll_factor = factor;
        stats.ops_removed += attempt.removed_ops();
        break;
      }
    }
  }
  if (stats.loops_rerolled > 0) function.Cleanup();
  return stats;
}

}  // namespace b2h::decomp
