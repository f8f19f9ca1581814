// Dominator tree (Cooper-Harvey-Kennedy "A Simple, Fast Dominance
// Algorithm").  Used by the verifier (every definition dominates its uses)
// and by LoopForest (back edges), which the candidate scan and the dynamic
// partitioner build per function.  SSA construction does not use it:
// ir::SsaBuilder places phis block by block.
#pragma once

#include <vector>

#include "ir/ir.hpp"

namespace b2h::ir {

class DominatorTree {
 public:
  /// Function must have an up-to-date CFG (RecomputeCfg) with entry first.
  explicit DominatorTree(const Function& function);

  [[nodiscard]] const Block* Idom(const Block* block) const;
  [[nodiscard]] bool Dominates(const Block* a, const Block* b) const;
  /// Strict domination: Dominates(a, b) && a != b.
  [[nodiscard]] bool StrictlyDominates(const Block* a, const Block* b) const;
  /// Blocks in reverse post order.
  [[nodiscard]] const std::vector<const Block*>& ReversePostOrder() const {
    return rpo_;
  }
  /// Position of a reachable block in ReversePostOrder() (deterministic
  /// ordering key: never depends on heap addresses).
  [[nodiscard]] int RpoIndex(const Block* block) const;

 private:
  const Function& function_;
  std::vector<const Block*> rpo_;
  std::vector<int> rpo_index_;       // block id -> rpo position (-1 if dead)
  std::vector<int> idom_;            // rpo position -> rpo position of idom
};

}  // namespace b2h::ir
