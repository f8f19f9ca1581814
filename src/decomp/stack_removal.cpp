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
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "decomp/passes.hpp"
#include "ir/ssa.hpp"

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

/// Classes are kept by the Instr::id taken at construction; the pass's
/// RecomputeCfg renumbers alike, and its kUndef is never classified.
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
          AddrClass& current = class_[ir::IdIn(by_id_, instr)];
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
    return class_[ir::IdIn(by_id_, value.def)];
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
  std::vector<ir::Instr*> by_id_ = function_.Renumber();
  std::vector<AddrClass> class_ = std::vector<AddrClass>(by_id_.size());
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

  // mem2reg over the surviving slots, numbered densely.  On function entry
  // every slot holds one undefined value.
  std::map<std::int32_t, std::size_t> variables;
  for (const auto& [offset, slot] : slots) {
    if (rejected.count(offset) == 0) {
      variables.emplace(offset, variables.size());
    }
  }
  stats.slots_promoted = variables.size();
  function.RecomputeCfg();
  ir::Instr* undef = function.Create(Opcode::kUndef);
  ir::Block* entry = function.entry();
  entry->instrs.insert(entry->instrs.begin(), undef);
  undef->parent = entry;
  ir::SsaBuilder ssa(function, variables.size(),
                     [undef](std::size_t) { return Value::Of(undef); });
  ir::Replacements load_replacements;
  std::vector<ir::Instr*> dead_stores;
  for (const auto& block : function.blocks()) {
    for (ir::Instr* instr : block->instrs) {
      if (instr->op != Opcode::kLoad && instr->op != Opcode::kStore) continue;
      const AddrClass addr = analysis.ClassOf(instr->operands[0]);
      if (addr.kind != AddrClass::Kind::kSp) continue;
      const auto variable = variables.find(addr.offset);
      if (variable == variables.end()) continue;
      if (instr->op == Opcode::kStore) {
        ssa.Write(block.get(), variable->second, instr->operands[1]);
        dead_stores.push_back(instr);
        ++stats.stores_removed;
        continue;
      }
      const Value value = ssa.Read(block.get(), variable->second);
      if (instr->mem_bytes < 4) {
        // Narrow load: only the stored value's low bytes are observed.
        // Mutate the load into the matching extension in place.
        instr->ext_from = static_cast<std::uint8_t>(instr->mem_bytes * 8);
        instr->op = instr->mem_signed ? Opcode::kSExt : Opcode::kZExt;
        instr->operands = {value};
      } else {
        load_replacements.emplace_back(instr, value);
      }
      ++stats.loads_removed;
    }
  }
  ssa.Seal();

  function.ReplaceAllUses(load_replacements);
  for (ir::Instr* store : dead_stores) store->parent->Remove(store);
  function.Cleanup();
  return stats;
}

}  // namespace b2h::decomp
