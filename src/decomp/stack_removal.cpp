// Stack operation removal (paper §2).
//
// Compilers spill locals and temporaries to sp-relative stack slots (every
// local at -O0; saved registers and spills at higher levels).  Synthesizing
// those loads/stores would serialize the datapath through memory ports, so
// this pass promotes stack slots to SSA values.
//
// Safety argument (documented platform conventions, DESIGN.md):
//  - Addresses are classified by a forward dataflow over SSA into
//    sp+constant (slot), provably-not-stack (derived from data-segment
//    constants or non-address arithmetic), or unknown.
//  - Promotion runs only if no access has an unknown address and no
//    sp-derived value escapes (stored to memory, passed as a data argument,
//    or used in non-affine arithmetic).  Callees cannot touch the caller
//    frame: arguments are register-passed and callee frames sit strictly
//    below the caller's sp.
//  - Slots with mixed access sizes or overlapping extents are left in
//    memory.
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "decomp/passes.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

constexpr std::uint16_t kRegSp = 29;

/// Address classification lattice value.
struct AddrClass {
  enum class Kind : std::uint8_t { kTop, kSp, kNotStack, kUnknown };
  Kind kind = Kind::kTop;
  std::int32_t offset = 0;  // valid for kSp

  static AddrClass Top() { return {}; }
  static AddrClass Sp(std::int32_t offset) {
    return {Kind::kSp, offset};
  }
  static AddrClass NotStack() { return {Kind::kNotStack, 0}; }
  static AddrClass Unknown() { return {Kind::kUnknown, 0}; }

  [[nodiscard]] bool operator==(const AddrClass&) const = default;
};

AddrClass Join(const AddrClass& a, const AddrClass& b) {
  if (a.kind == AddrClass::Kind::kTop) return b;
  if (b.kind == AddrClass::Kind::kTop) return a;
  if (a == b) return a;
  if (a.kind == AddrClass::Kind::kNotStack &&
      b.kind == AddrClass::Kind::kNotStack) {
    return AddrClass::NotStack();
  }
  return AddrClass::Unknown();
}

class StackAnalysis {
 public:
  explicit StackAnalysis(ir::Function& function) : function_(function) {}

  /// Run the classification to a fixpoint; returns false if promotion is
  /// unsafe (unknown addresses or escaping sp-derived values).
  bool Classify() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& block : function_.blocks()) {
        for (ir::Instr* instr : block->instrs) {
          const AddrClass next = Transfer(*instr);
          AddrClass& current = class_[instr];
          const AddrClass joined = Join(current, next);
          if (!(joined == current)) {
            current = joined;
            changed = true;
          }
        }
      }
    }
    return CheckSafety();
  }

  [[nodiscard]] AddrClass ClassOf(const Value& value) const {
    if (value.is_const()) return AddrClass::NotStack();
    const auto it = class_.find(value.def);
    return it == class_.end() ? AddrClass::Top() : it->second;
  }

 private:
  AddrClass Transfer(const ir::Instr& instr) {
    switch (instr.op) {
      case Opcode::kInput:
        return instr.input_index == kRegSp ? AddrClass::Sp(0)
                                           : AddrClass::NotStack();
      case Opcode::kConst:
        return AddrClass::NotStack();
      case Opcode::kUndef:
      case Opcode::kLoad:
      case Opcode::kCall:
        return AddrClass::NotStack();
      case Opcode::kAdd: {
        const AddrClass a = ClassOf(instr.operands[0]);
        if (a.kind == AddrClass::Kind::kSp && instr.operands[1].is_const()) {
          return AddrClass::Sp(a.offset + instr.operands[1].imm);
        }
        const AddrClass b = ClassOf(instr.operands[1]);
        if (a.kind == AddrClass::Kind::kNotStack &&
            b.kind == AddrClass::Kind::kNotStack) {
          return AddrClass::NotStack();
        }
        if (a.kind == AddrClass::Kind::kTop || b.kind == AddrClass::Kind::kTop) {
          return AddrClass::Top();
        }
        return AddrClass::Unknown();
      }
      case Opcode::kSub: {
        const AddrClass a = ClassOf(instr.operands[0]);
        if (a.kind == AddrClass::Kind::kSp && instr.operands[1].is_const()) {
          return AddrClass::Sp(a.offset - instr.operands[1].imm);
        }
        const AddrClass b = ClassOf(instr.operands[1]);
        if (a.kind == AddrClass::Kind::kNotStack &&
            b.kind == AddrClass::Kind::kNotStack) {
          return AddrClass::NotStack();
        }
        if (a.kind == AddrClass::Kind::kTop || b.kind == AddrClass::Kind::kTop) {
          return AddrClass::Top();
        }
        return AddrClass::Unknown();
      }
      case Opcode::kPhi: {
        AddrClass joined = AddrClass::Top();
        for (const Value& operand : instr.operands) {
          joined = Join(joined, ClassOf(operand));
        }
        return joined;
      }
      case Opcode::kStore: case Opcode::kBr: case Opcode::kCondBr:
      case Opcode::kRet:
        return AddrClass::NotStack();  // no result; value unused
      default: {
        // Any other operation over not-stack operands stays not-stack.
        for (const Value& operand : instr.operands) {
          const AddrClass c = ClassOf(operand);
          if (c.kind == AddrClass::Kind::kTop) return AddrClass::Top();
          if (c.kind != AddrClass::Kind::kNotStack) return AddrClass::Unknown();
        }
        return AddrClass::NotStack();
      }
    }
  }

  /// No unknown-address memory access; no sp-derived value escaping.
  bool CheckSafety() {
    for (const auto& block : function_.blocks()) {
      for (const ir::Instr* instr : block->instrs) {
        if (instr->op == Opcode::kLoad || instr->op == Opcode::kStore) {
          const AddrClass addr = ClassOf(instr->operands[0]);
          if (addr.kind == AddrClass::Kind::kUnknown ||
              addr.kind == AddrClass::Kind::kTop) {
            return false;
          }
        }
        // Escape checks on sp-derived values.
        for (std::size_t i = 0; i < instr->operands.size(); ++i) {
          const AddrClass c = ClassOf(instr->operands[i]);
          if (c.kind != AddrClass::Kind::kSp) continue;
          const bool allowed =
              // Address position of a memory access.
              ((instr->op == Opcode::kLoad || instr->op == Opcode::kStore) &&
               i == 0) ||
              // Affine arithmetic keeps the classification.
              instr->op == Opcode::kAdd || instr->op == Opcode::kSub ||
              instr->op == Opcode::kPhi ||
              // Operand 4 of a call is the callee's sp (frames are disjoint).
              (instr->op == Opcode::kCall && i == 4);
          if (!allowed) return false;
        }
      }
    }
    return true;
  }

  ir::Function& function_;
  std::unordered_map<const ir::Instr*, AddrClass> class_;
};

}  // namespace

StackRemovalStats RemoveStackOperations(ir::Function& function) {
  StackRemovalStats stats;
  StackAnalysis analysis(function);
  if (!analysis.Classify()) {
    stats.aborted_unsafe = true;
    return stats;
  }

  // Identify slots: offset -> access size; reject mixed sizes / overlaps.
  struct SlotUse {
    std::uint8_t size = 0;
    bool mixed = false;
  };
  std::map<std::int32_t, SlotUse> slots;
  for (const auto& block : function.blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op != Opcode::kLoad && instr->op != Opcode::kStore) continue;
      const AddrClass addr = analysis.ClassOf(instr->operands[0]);
      if (addr.kind != AddrClass::Kind::kSp) continue;
      SlotUse& slot = slots[addr.offset];
      if (slot.size == 0) {
        slot.size = instr->mem_bytes;
      } else if (slot.size != instr->mem_bytes) {
        slot.mixed = true;
      }
    }
  }
  // Overlap rejection: [o, o+size) intervals must be disjoint.
  std::set<std::int32_t> rejected;
  for (auto it = slots.begin(); it != slots.end(); ++it) {
    auto next = std::next(it);
    if (next != slots.end() &&
        it->first + static_cast<std::int32_t>(it->second.size) > next->first) {
      rejected.insert(it->first);
      rejected.insert(next->first);
    }
    if (it->second.mixed) rejected.insert(it->first);
  }

  // mem2reg over the surviving slots, with the same placeholder-phi approach
  // as the lifter.
  function.RecomputeCfg();
  std::map<std::pair<const ir::Block*, std::int32_t>, Value> entry_values;
  std::vector<std::tuple<ir::Instr*, const ir::Block*, std::int32_t>>
      pending_phis;
  // Per-block sequential state and exit values.
  std::map<const ir::Block*, std::map<std::int32_t, Value>> exit_values;
  std::unordered_map<const ir::Instr*, Value> load_replacements;
  std::vector<ir::Instr*> dead_stores;
  ir::Instr* undef = nullptr;

  const auto get_undef = [&]() -> Value {
    if (undef == nullptr) {
      undef = function.Create(Opcode::kUndef);
      ir::Block* entry = function.entry();
      entry->instrs.insert(entry->instrs.begin(), undef);
      undef->parent = entry;
    }
    return Value::Of(undef);
  };

  std::function<Value(const ir::Block*, std::int32_t)> entry_value =
      [&](const ir::Block* block, std::int32_t offset) -> Value {
    const auto key = std::make_pair(block, offset);
    if (const auto it = entry_values.find(key); it != entry_values.end()) {
      return it->second;
    }
    if (block->preds.empty()) {
      const Value value = get_undef();
      entry_values[key] = value;
      return value;
    }
    ir::Instr* phi = function.Create(Opcode::kPhi);
    const_cast<ir::Block*>(block)->PrependPhi(phi);
    entry_values[key] = Value::Of(phi);
    pending_phis.emplace_back(phi, block, offset);
    return Value::Of(phi);
  };

  for (const auto& block : function.blocks()) {
    std::map<std::int32_t, Value> state;
    // Iterate over a snapshot: entry_value() may prepend phis to
    // block->instrs (for this or other blocks) while we walk.
    const std::vector<ir::Instr*> snapshot = block->instrs;
    for (ir::Instr* instr : snapshot) {
      if (instr->op != Opcode::kLoad && instr->op != Opcode::kStore) continue;
      const AddrClass addr = analysis.ClassOf(instr->operands[0]);
      if (addr.kind != AddrClass::Kind::kSp ||
          rejected.count(addr.offset) != 0) {
        continue;
      }
      if (instr->op == Opcode::kStore) {
        state[addr.offset] = instr->operands[1];
        dead_stores.push_back(instr);
        ++stats.stores_removed;
      } else {
        Value value;
        if (const auto it = state.find(addr.offset); it != state.end()) {
          value = it->second;
        } else {
          value = entry_value(block.get(), addr.offset);
        }
        if (instr->mem_bytes < 4) {
          // Narrow load: only the stored value's low bytes are observed.
          // Mutate the load into the matching extension in place.
          instr->ext_from = static_cast<std::uint8_t>(instr->mem_bytes * 8);
          instr->op = instr->mem_signed ? Opcode::kSExt : Opcode::kZExt;
          instr->operands = {value};
        } else {
          load_replacements[instr] = value;
        }
        ++stats.loads_removed;
      }
    }
    exit_values[block.get()] = std::move(state);
  }

  // Fill phi operands (may create more placeholder phis; index loop).
  const auto exit_value = [&](const ir::Block* block,
                              std::int32_t offset) -> Value {
    const auto& state = exit_values[block];
    if (const auto it = state.find(offset); it != state.end()) {
      return it->second;
    }
    return entry_value(block, offset);
  };
  for (std::size_t i = 0; i < pending_phis.size(); ++i) {
    const auto [phi, block, offset] = pending_phis[i];
    std::vector<Value> operands;
    operands.reserve(block->preds.size());
    for (const ir::Block* pred : block->preds) {
      operands.push_back(exit_value(pred, offset));
    }
    phi->operands = std::move(operands);
  }

  for (const auto& [offset, slot] : slots) {
    if (rejected.count(offset) == 0) ++stats.slots_promoted;
  }

  function.ReplaceAllUses(load_replacements);
  for (ir::Instr* store : dead_stores) store->parent->Remove(store);
  function.Cleanup();
  return stats;
}

}  // namespace b2h::decomp
