// Natural-loop discovery and loop-nesting forest.
//
// Control structure recovery (paper §2: "determines high-level control
// structures, such as loops and if statements") starts here: back edges of
// the dominator tree identify natural loops, which are the partitioning
// granules of the three-step algorithm in paper §3.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "ir/dominators.hpp"
#include "ir/ir.hpp"

namespace b2h::ir {

struct Loop {
  const Block* header = nullptr;
  std::vector<const Block*> latches;      ///< sources of back edges
  std::unordered_set<const Block*> blocks;
  std::vector<const Block*> exit_blocks;  ///< blocks outside with pred inside
  Loop* parent = nullptr;                 ///< enclosing loop (nullptr = top)
  std::vector<Loop*> children;
  int depth = 1;

  [[nodiscard]] bool Contains(const Block* block) const {
    return blocks.count(block) != 0;
  }
  [[nodiscard]] bool IsInnermost() const { return children.empty(); }

  /// Profile-derived estimates (filled by AnnotateProfile).
  std::uint64_t header_count = 0;  ///< times the header executed
  std::uint64_t entry_count = 0;   ///< times the loop was entered
  [[nodiscard]] double AverageTripCount() const {
    return entry_count == 0 ? 0.0
                            : static_cast<double>(header_count) /
                                  static_cast<double>(entry_count);
  }
};

class LoopForest {
 public:
  LoopForest(const Function& function, const DominatorTree& dom);

  [[nodiscard]] const std::vector<std::unique_ptr<Loop>>& loops() const {
    return loops_;
  }
  /// Innermost loop containing `block`, or nullptr.
  [[nodiscard]] Loop* LoopFor(const Block* block) const;
  /// Fill header/entry counts from Block::exec_count annotations.
  void AnnotateProfile();

 private:
  std::vector<std::unique_ptr<Loop>> loops_;
};

}  // namespace b2h::ir
