// If-conversion: small, side-effect-free branch diamonds become selects.
//
// Hardware has no branch penalty but a large FSM-state penalty: a loop body
// split across blocks cannot be pipelined by the scheduler (it pipelines
// single-block self-loops).  Converting
//
//        B: condbr c, T, F            B: t...; f...; m_i = select(c, ...)
//        T: t...; br M        ==>     (T, F gone; B falls through to M)
//        F: f...; br M
//        M: m_i = phi(t_i, f_i)
//
// executes both arms speculatively — legal only when the arms are pure ALU
// code (no loads/stores/calls/divides), and worthwhile only when they are
// short.  ADPCM-style clamping kernels collapse to single-block loops and
// pipeline at II=1 after this pass.
#include <unordered_map>
#include <vector>

#include "decomp/passes.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

constexpr std::size_t kMaxArmOps = 8;

/// An arm is convertible when every op can be executed speculatively and
/// cheaply: pure ALU only, no memory, no calls, no multi-cycle units.
bool ArmConvertible(const ir::Block* arm) {
  if (arm->BodySize() > kMaxArmOps) return false;
  if (!arm->Phis().empty()) return false;
  for (const ir::Instr* instr : arm->instrs) {
    if (instr->is_terminator()) {
      if (instr->op != Opcode::kBr) return false;
      continue;
    }
    switch (instr->op) {
      case Opcode::kLoad: case Opcode::kStore: case Opcode::kCall:
      case Opcode::kDivS: case Opcode::kDivU: case Opcode::kRemS:
      case Opcode::kRemU: case Opcode::kPhi:
        return false;
      default:
        break;
    }
  }
  return true;
}

/// True when `arm` is a pure forwarding arm of the diamond:
/// single pred `head`, single succ `merge`.
bool IsArmOf(const ir::Block* arm, const ir::Block* head,
             const ir::Block* merge) {
  if (arm->preds.size() != 1 || arm->preds[0] != head) return false;
  const auto succs = arm->succs();
  return succs.size() == 1 && succs[0] == merge;
}

struct Candidate {
  ir::Block* head = nullptr;
  ir::Block* taken = nullptr;      // may be null (triangle, taken==merge)
  ir::Block* fallthrough = nullptr;  // may be null (triangle)
  ir::Block* merge = nullptr;
};

/// Straighten the CFG: splice single-pred blocks into their unconditional
/// single predecessor.  Converted diamonds then collapse into one block —
/// which is what makes the enclosing loop body pipelinable.  Needs
/// up-to-date preds and no single-pred phis (a clean function has none).
/// Merging is confluent, so one walk in block order merges every chain
/// into its head.  The emptied blocks stay for the caller's cleanup.
std::size_t MergeStraightLineBlocks(ir::Function& function) {
  std::size_t merged = 0;
  for (const auto& block : function.blocks()) {
    while (block->has_terminator() && block->terminator()->is(Opcode::kBr)) {
      ir::Block* next = block->terminator()->target0;
      if (next == block.get() || next == function.entry()) break;
      if (next->preds.size() != 1 || !next->Phis().empty()) break;
      // Splice: drop our Br, adopt the successor's instructions and edges;
      // `next` is left empty and unreachable.
      block->Remove(block->terminator());
      function.MoveTail(next, 0, block.get());
      ++merged;
    }
  }
  return merged;
}

}  // namespace

IfConversionStats ConvertIfs(ir::Function& function) {
  IfConversionStats stats;
  while (true) {
    Candidate found;
    for (const auto& block : function.blocks()) {
      if (!block->has_terminator()) continue;
      ir::Instr* term = block->terminator();
      if (term->op != Opcode::kCondBr) continue;
      ir::Block* t = term->target0;
      ir::Block* f = term->target1;
      if (t == f) continue;
      const auto t_succs = t->succs();
      const auto f_succs = f->succs();
      // Full diamond: both arms forward to the same merge.
      if (t_succs.size() == 1 && f_succs.size() == 1 &&
          t_succs[0] == f_succs[0] && IsArmOf(t, block.get(), t_succs[0]) &&
          IsArmOf(f, block.get(), f_succs[0]) && ArmConvertible(t) &&
          ArmConvertible(f) && t_succs[0]->preds.size() == 2) {
        found = {block.get(), t, f, t_succs[0]};
        break;
      }
      // Triangle: one arm forwards to the other target (the merge).
      if (t_succs.size() == 1 && t_succs[0] == f &&
          IsArmOf(t, block.get(), f) && ArmConvertible(t) &&
          f->preds.size() == 2) {
        found = {block.get(), t, nullptr, f};
        break;
      }
      if (f_succs.size() == 1 && f_succs[0] == t &&
          IsArmOf(f, block.get(), t) && ArmConvertible(f) &&
          t->preds.size() == 2) {
        found = {block.get(), nullptr, f, t};
        break;
      }
    }
    if (found.head == nullptr) break;

    ir::Instr* term = found.head->terminator();
    const Value cond = term->operands[0];
    // Hoist arm bodies into the head (speculative execution).  The arms
    // are left empty, without their branches to the merge.
    const auto hoist = [&](ir::Block* arm) {
      if (arm == nullptr) return;
      for (ir::Instr* instr : arm->instrs) {
        if (!instr->is_terminator()) found.head->Append(instr);
      }
      arm->instrs.clear();
    };
    hoist(found.taken);
    hoist(found.fallthrough);

    // Rewrite merge phis as selects in the head.
    const ir::Block* taken_pred =
        found.taken != nullptr ? found.taken : found.head;
    const std::size_t taken_index = found.merge->PredIndex(taken_pred);
    std::vector<ir::Instr*> phis = found.merge->Phis();
    std::unordered_map<const ir::Instr*, Value> replacements;
    for (ir::Instr* phi : phis) {
      Check(phi->operands.size() == 2, "if-convert: merge phi arity");
      const Value on_taken = phi->operands[taken_index];
      const Value on_fall = phi->operands[1 - taken_index];
      ir::Instr* select = function.Create(Opcode::kSelect);
      select->operands = {cond, on_taken, on_fall};
      select->width = phi->width;
      select->is_signed = phi->is_signed;
      select->src_pc = phi->src_pc;
      found.head->Append(select);
      replacements[phi] = Value::Of(select);
      ++stats.selects_created;
    }
    function.ReplaceAllUses(replacements);

    // Head now branches straight to the merge.
    term->op = Opcode::kBr;
    term->operands.clear();
    term->width = 0;
    term->target0 = found.merge;
    term->target1 = nullptr;

    // Profile: the head's counts flow through unchanged.  The head now
    // feeds the merge alone, so the two collapse into one block.
    function.RecomputeCfg();
    MergeStraightLineBlocks(function);
    function.Cleanup();
    ++stats.diamonds_converted;
  }
  if (MergeStraightLineBlocks(function) > 0) function.Cleanup();
  return stats;
}

}  // namespace b2h::decomp
