// Operator size reduction (paper §2).
//
// Software instruction sets force every operation to the register width
// (32 bits), but most embedded kernels manipulate far narrower data.  This
// pass computes, per instruction, the number of significant result bits via
// two cooperating analyses:
//   forward  — value-range widths (what the producer can generate), and
//   backward — demanded bits (what consumers actually observe; the classic
//              example is an accumulation feeding a byte store).
// The final width is min(forward, demanded).  Widths are semantic claims:
// the IR interpreter masks every result to its width, so an unsound
// narrowing shows up as a co-simulation mismatch.  The synthesis library
// prices functional units by operand width, which is where the paper's area
// saving comes from.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "decomp/passes.hpp"
#include "support/bits.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

/// Forward fact: value fits in `width` bits, zero-extended when !is_signed
/// (i.e. 0 <= v < 2^width), sign-extended otherwise.
struct Fact {
  unsigned width = 32;
  bool is_signed = true;
};

Fact ConstFact(std::int32_t value) {
  if (value >= 0) return {UnsignedWidth(static_cast<std::uint32_t>(value)),
                          false};
  return {SignedWidth(value), true};
}

/// Width when reinterpreted as a signed (two's complement) quantity.
unsigned AsSignedWidth(const Fact& fact) {
  return fact.is_signed ? fact.width : std::min(32u, fact.width + 1);
}

Fact Join(const Fact& a, const Fact& b) {
  if (!a.is_signed && !b.is_signed) {
    return {std::max(a.width, b.width), false};
  }
  return {std::min(32u, std::max(AsSignedWidth(a), AsSignedWidth(b))), true};
}

/// Both analyses keep one entry per instruction, indexed by Instr::id in
/// the numbering `by_id` (Function::Renumber).
class ForwardWidths {
 public:
  explicit ForwardWidths(const std::vector<ir::Instr*>& by_id)
      : by_id_(by_id), facts_(by_id.size()) {
    Run();
  }

  [[nodiscard]] Fact Of(const Value& value) const {
    if (value.is_const()) return ConstFact(value.imm);
    return facts_[ir::IdIn(by_id_, value.def)];
  }

 private:
  void Run() {
    // Optimistic initialization; widths only grow, so iteration converges.
    // Instructions without a result keep the full-width default.
    for (std::size_t id = 0; id < by_id_.size(); ++id) {
      if (by_id_[id]->width != 0) facts_[id] = Fact{1, false};
    }
    bool changed = true;
    int guard = 0;
    while (changed) {
      Check(++guard < 200, "size reduction: forward analysis diverged");
      changed = false;
      for (std::size_t id = 0; id < by_id_.size(); ++id) {
        const ir::Instr& instr = *by_id_[id];
        if (instr.width == 0) continue;
        const Fact next = Transfer(instr);
        Fact& current = facts_[id];
        // Monotone join with the current fact.
        const Fact merged = Join(current, next);
        if (merged.width != current.width ||
            merged.is_signed != current.is_signed) {
          current = merged;
          changed = true;
        }
      }
    }
  }

  Fact Transfer(const ir::Instr& instr) const {
    const auto op_fact = [&](std::size_t i) { return Of(instr.operands[i]); };
    switch (instr.op) {
      case Opcode::kInput:
      case Opcode::kUndef:
      case Opcode::kCall:
      case Opcode::kMulHiS:
        return {32, true};
      case Opcode::kMulHiU:
        return {32, true};
      case Opcode::kConst:
        return ConstFact(instr.imm);
      case Opcode::kLoad:
        if (instr.mem_bytes == 4) return {32, true};
        return {static_cast<unsigned>(instr.mem_bytes) * 8u,
                instr.mem_signed};
      case Opcode::kAdd: {
        const Fact a = op_fact(0), b = op_fact(1);
        if (!a.is_signed && !b.is_signed) {
          const unsigned w = std::max(a.width, b.width) + 1;
          if (w <= 32) return {w, false};
          return {32, true};
        }
        const unsigned w = std::max(AsSignedWidth(a), AsSignedWidth(b)) + 1;
        return {std::min(32u, w), true};
      }
      case Opcode::kSub: {
        const unsigned w =
            std::max(AsSignedWidth(op_fact(0)), AsSignedWidth(op_fact(1))) + 1;
        return {std::min(32u, w), true};
      }
      case Opcode::kMul: {
        const Fact a = op_fact(0), b = op_fact(1);
        if (!a.is_signed && !b.is_signed) {
          const unsigned w = a.width + b.width;
          if (w <= 32) return {w, false};
          return {32, true};
        }
        const unsigned w = AsSignedWidth(a) + AsSignedWidth(b);
        return {std::min(32u, w), true};
      }
      case Opcode::kAnd: {
        const Fact a = op_fact(0), b = op_fact(1);
        unsigned w = 32;
        if (!a.is_signed) w = std::min(w, a.width);
        if (!b.is_signed) w = std::min(w, b.width);
        if (w < 32) return {w, false};
        return {std::max(AsSignedWidth(a), AsSignedWidth(b)), true};
      }
      case Opcode::kOr:
      case Opcode::kXor: {
        const Fact a = op_fact(0), b = op_fact(1);
        if (!a.is_signed && !b.is_signed) {
          return {std::max(a.width, b.width), false};
        }
        return {std::min(32u, std::max(AsSignedWidth(a), AsSignedWidth(b))),
                true};
      }
      case Opcode::kNor:
        return {32, true};
      case Opcode::kShl: {
        if (instr.operands[1].is_const()) {
          const unsigned sh =
              static_cast<unsigned>(instr.operands[1].imm) & 31u;
          const Fact a = op_fact(0);
          const unsigned w = a.width + sh;
          if (w <= 32) return {w, a.is_signed};
        }
        return {32, true};
      }
      case Opcode::kShrL: {
        if (instr.operands[1].is_const()) {
          const unsigned sh =
              static_cast<unsigned>(instr.operands[1].imm) & 31u;
          const Fact a = op_fact(0);
          if (!a.is_signed) return {std::max(1u, a.width - std::min(a.width - 1, sh)), false};
          if (sh > 0) return {32 - sh, false};
        }
        return {32, true};
      }
      case Opcode::kShrA: {
        if (instr.operands[1].is_const()) {
          const unsigned sh =
              static_cast<unsigned>(instr.operands[1].imm) & 31u;
          Fact a = op_fact(0);
          // An unsigned 32-bit value may have bit 31 set, and sra copies
          // that bit down: shift it as the signed value it is.
          if (!a.is_signed && a.width >= 32) a = {32, true};
          const unsigned w = a.width > sh ? a.width - sh : 1;
          return {std::max(1u, w), a.is_signed};
        }
        return {32, true};
      }
      case Opcode::kDivU: {
        const Fact a = op_fact(0);
        if (!a.is_signed) return {a.width, false};
        return {32, true};
      }
      case Opcode::kRemU: {
        // x % y < y, but x % 0 = x: only a divisor that cannot be zero
        // bounds the result.
        const Fact a = op_fact(0), b = op_fact(1);
        const Value& divisor = instr.operands[1];
        if (!b.is_signed && divisor.is_const() && divisor.imm != 0) {
          return {b.width, false};
        }
        if (!a.is_signed) return {a.width, false};
        return {32, true};
      }
      case Opcode::kDivS:
      case Opcode::kRemS:
        return {32, true};
      case Opcode::kSelect:
        return Join(op_fact(1), op_fact(2));
      case Opcode::kSExt:
        return {instr.ext_from, true};
      case Opcode::kZExt:
        return {instr.ext_from, false};
      case Opcode::kTrunc:
        return {instr.width, instr.is_signed};
      case Opcode::kPhi: {
        Fact joined{1, false};
        for (std::size_t i = 0; i < instr.operands.size(); ++i) {
          joined = Join(joined, Of(instr.operands[i]));
        }
        return joined;
      }
      default:
        if (ir::IsComparison(instr.op)) return {1, false};
        return {32, true};
    }
  }

  const std::vector<ir::Instr*>& by_id_;
  std::vector<Fact> facts_;
};

/// Backward demanded-bits: how many low result bits any consumer observes.
class DemandedBits {
 public:
  explicit DemandedBits(const std::vector<ir::Instr*>& by_id)
      : by_id_(by_id), demanded_(by_id.size(), 0) {
    Run();
  }

  [[nodiscard]] unsigned Of(const ir::Instr* instr) const {
    return demanded_[ir::IdIn(by_id_, instr)];
  }

 private:
  void Run() {
    bool changed = true;
    int guard = 0;
    while (changed) {
      Check(++guard < 200, "size reduction: demanded analysis diverged");
      changed = false;
      for (const ir::Instr* user : by_id_) {
        for (std::size_t i = 0; i < user->operands.size(); ++i) {
          const Value& operand = user->operands[i];
          if (!operand.is_instr()) continue;
          const unsigned demand = DemandOn(*user, i);
          unsigned& current = demanded_[ir::IdIn(by_id_, operand.def)];
          if (demand > current) {
            current = demand;
            changed = true;
          }
        }
      }
    }
  }

  /// Bits `user` demands of its operand `index`.
  unsigned DemandOn(const ir::Instr& user, std::size_t index) const {
    const unsigned d = std::max(1u, Of(&user));
    switch (user.op) {
      case Opcode::kStore:
        return index == 1 ? static_cast<unsigned>(user.mem_bytes) * 8u : 32u;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
        // Low d bits of the result depend only on low d bits of operands.
        return d;
      case Opcode::kAnd: {
        const Value& other = user.operands[1 - index];
        if (other.is_const()) {
          return std::min(
              d, UnsignedWidth(static_cast<std::uint32_t>(other.imm)));
        }
        return d;
      }
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kNor:
        return d;
      case Opcode::kShl:
        if (index == 1) return 5;
        if (user.operands[1].is_const()) {
          const unsigned sh = static_cast<unsigned>(user.operands[1].imm) & 31u;
          return d > sh ? d - sh : 1;
        }
        return 32;
      case Opcode::kShrL:
      case Opcode::kShrA:
        if (index == 1) return 5;
        if (user.operands[1].is_const()) {
          const unsigned sh = static_cast<unsigned>(user.operands[1].imm) & 31u;
          return std::min(32u, d + sh);
        }
        return 32;
      case Opcode::kSExt:
      case Opcode::kZExt:
        return std::min(static_cast<unsigned>(user.ext_from), d);
      case Opcode::kTrunc:
        return std::min(static_cast<unsigned>(user.width), d);
      case Opcode::kSelect:
        return index == 0 ? 1u : d;
      case Opcode::kPhi:
        return d;
      case Opcode::kCondBr:
        return 1;
      default:
        return 32;  // comparisons, division, addresses, calls, ret
    }
  }

  const std::vector<ir::Instr*>& by_id_;
  std::vector<unsigned> demanded_;
};

}  // namespace

SizeReductionStats ReduceOperatorSizes(ir::Function& function) {
  SizeReductionStats stats;
  const std::vector<ir::Instr*> by_id = function.Renumber();
  const ForwardWidths forward(by_id);
  const DemandedBits demanded(by_id);

  for (ir::Instr* instr : by_id) {
    if (instr->width == 0 || ir::IsComparison(instr->op)) continue;
    const Fact fact = forward.Of(Value::Of(instr));
    const unsigned demand = std::max(1u, demanded.Of(instr));
    const unsigned width = std::min(fact.width, demand);
    if (width < instr->width) {
      stats.total_bits_saved += instr->width - width;
      instr->width = static_cast<std::uint8_t>(width);
      instr->is_signed = fact.is_signed;
      ++stats.narrowed;
    } else if (fact.width <= instr->width) {
      instr->is_signed = fact.is_signed;
    }
  }
  return stats;
}

}  // namespace b2h::decomp
