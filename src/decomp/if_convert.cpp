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
#include <optional>
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

/// The block `block` always branches to, or null when it does not end in
/// an unconditional branch.
ir::Block* JumpTarget(const ir::Block* block) {
  const ir::Successors succs = block->succs();
  return succs.size() == 1 ? succs[0] : nullptr;
}

/// True when `arm` is a pure forwarding arm of the diamond:
/// single pred `head`, single succ `merge`.
bool IsArmOf(const ir::Block* arm, const ir::Block* head,
             const ir::Block* merge) {
  if (arm->preds.size() != 1 || arm->preds[0] != head) return false;
  return JumpTarget(arm) == merge;
}

struct Candidate {
  ir::Block* head = nullptr;
  ir::Block* taken = nullptr;      // may be null (triangle, taken==merge)
  ir::Block* fallthrough = nullptr;  // may be null (triangle)
  ir::Block* merge = nullptr;
};

/// The diamond or triangle `head` branches into, if it is convertible.
std::optional<Candidate> FindCandidate(ir::Block* head) {
  if (!head->has_terminator()) return std::nullopt;
  const ir::Instr* term = head->terminator();
  if (term->op != Opcode::kCondBr) return std::nullopt;
  ir::Block* t = term->target0;
  ir::Block* f = term->target1;
  if (t == f) return std::nullopt;
  ir::Block* t_next = JumpTarget(t);
  ir::Block* f_next = JumpTarget(f);
  // Full diamond: both arms forward to the same merge.
  if (t_next != nullptr && t_next == f_next && IsArmOf(t, head, t_next) &&
      IsArmOf(f, head, f_next) && ArmConvertible(t) && ArmConvertible(f) &&
      t_next->preds.size() == 2) {
    return Candidate{head, t, f, t_next};
  }
  // Triangle: one arm forwards to the other target (the merge).
  if (t_next == f && IsArmOf(t, head, f) && ArmConvertible(t) &&
      f->preds.size() == 2) {
    return Candidate{head, t, nullptr, f};
  }
  if (f_next == t && IsArmOf(f, head, t) && ArmConvertible(f) &&
      t->preds.size() == 2) {
    return Candidate{head, nullptr, f, t};
  }
  return std::nullopt;
}

/// Hoist the arms into the head (speculative execution), leaving them
/// empty; append one select per merge phi, to replace it; and make the
/// head branch straight to the merge.  The profile counts of the head flow
/// through unchanged.
void Convert(ir::Function& function, const Candidate& found,
             ir::Replacements& replacements, IfConversionStats& stats) {
  ir::Instr* term = found.head->terminator();
  const Value cond = term->operands[0];
  const auto hoist = [&](ir::Block* arm) {
    if (arm == nullptr) return;
    for (ir::Instr* instr : arm->instrs) {
      if (!instr->is_terminator()) found.head->Append(instr);
    }
    arm->instrs.clear();
  };
  hoist(found.taken);
  hoist(found.fallthrough);

  const ir::Block* taken_pred =
      found.taken != nullptr ? found.taken : found.head;
  const std::size_t taken_index = found.merge->PredIndex(taken_pred);
  for (ir::Instr* phi : found.merge->Phis()) {
    Check(phi->operands.size() == 2, "if-convert: merge phi arity");
    ir::Instr* select = function.Create(Opcode::kSelect);
    select->operands = {cond, phi->operands[taken_index],
                        phi->operands[1 - taken_index]};
    select->width = phi->width;
    select->is_signed = phi->is_signed;
    select->src_pc = phi->src_pc;
    found.head->Append(select);
    replacements.emplace_back(phi, Value::Of(select));
    ++stats.selects_created;
  }

  term->op = Opcode::kBr;
  term->operands.clear();
  term->width = 0;
  term->target0 = found.merge;
  term->target1 = nullptr;
  ++stats.diamonds_converted;
}

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
  // Rounds: one scan in block order takes every candidate that shares no
  // block with one taken before it; converting candidates that share no
  // block commutes, so this ends where converting one at a time in block
  // order does.  A candidate left out, or exposed when the merge collapses
  // a converted diamond into its head, waits for the next round.
  while (true) {
    std::vector<char> in_round(function.blocks().size(), 0);  // by Block::id
    const auto claim = [&in_round](const Candidate& candidate) {
      const ir::Block* blocks[] = {candidate.head, candidate.taken,
                                   candidate.fallthrough, candidate.merge};
      for (const ir::Block* block : blocks) {
        if (block != nullptr && in_round[static_cast<std::size_t>(block->id)]) {
          return false;
        }
      }
      for (const ir::Block* block : blocks) {
        if (block != nullptr) in_round[static_cast<std::size_t>(block->id)] = 1;
      }
      return true;
    };
    std::vector<Candidate> round;
    for (const auto& block : function.blocks()) {
      const std::optional<Candidate> found = FindCandidate(block.get());
      if (found && claim(*found)) round.push_back(*found);
    }
    if (round.empty()) break;

    ir::Replacements replacements;
    for (const Candidate& candidate : round) {
      Convert(function, candidate, replacements, stats);
    }
    function.ReplaceAllUses(replacements);
    // Each head now feeds its merge alone, so the two collapse into one
    // block.
    function.RecomputeCfg();
    MergeStraightLineBlocks(function);
    function.Cleanup();
  }
  if (MergeStraightLineBlocks(function) > 0) function.Cleanup();
  return stats;
}

}  // namespace b2h::decomp
