#include "ir/dominators.hpp"

#include <utility>

namespace b2h::ir {

DominatorTree::DominatorTree(const Function& function) : function_(function) {
  // Block ids are positions in function.blocks().  rpo_index_ doubles as
  // the walk's visited mark: -1 until a block is entered, 0 while the walk
  // is under way, and the block's RPO position afterwards.
  rpo_index_.assign(function.blocks().size(), -1);

  // Reverse post order over reachable blocks.  The depth-first walk keeps
  // its own stack of (block, next successor), so a long chain of blocks
  // cannot overflow the call stack.
  std::vector<const Block*> post;
  std::vector<std::pair<const Block*, std::size_t>> stack;
  const auto enter = [this, &stack](const Block* block) {
    rpo_index_[static_cast<std::size_t>(block->id)] = 0;
    stack.emplace_back(block, 0);
  };
  enter(function.entry());
  while (!stack.empty()) {
    auto& [block, next] = stack.back();
    const Successors succs = block->succs();
    if (next < succs.size()) {
      const Block* succ = succs[next++];  // before enter() reallocates
      if (rpo_index_[static_cast<std::size_t>(succ->id)] < 0) enter(succ);
      continue;
    }
    post.push_back(block);
    stack.pop_back();
  }
  rpo_.assign(post.rbegin(), post.rend());
  for (std::size_t i = 0; i < rpo_.size(); ++i) {
    rpo_index_[static_cast<std::size_t>(rpo_[i]->id)] = static_cast<int>(i);
  }

  // Cooper-Harvey-Kennedy iteration.  idom in rpo positions; entry = 0.
  const int n = static_cast<int>(rpo_.size());
  idom_.assign(static_cast<std::size_t>(n), -1);
  idom_[0] = 0;
  const auto intersect = [this](int a, int b) {
    while (a != b) {
      while (a > b) a = idom_[static_cast<std::size_t>(a)];
      while (b > a) b = idom_[static_cast<std::size_t>(b)];
    }
    return a;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 1; i < n; ++i) {
      int new_idom = -1;
      for (const Block* pred : rpo_[static_cast<std::size_t>(i)]->preds) {
        const int p = rpo_index_[static_cast<std::size_t>(pred->id)];
        if (p < 0 || idom_[static_cast<std::size_t>(p)] < 0) continue;
        new_idom = new_idom < 0 ? p : intersect(p, new_idom);
      }
      Check(new_idom >= 0, "DominatorTree: unreachable block in RPO");
      if (idom_[static_cast<std::size_t>(i)] != new_idom) {
        idom_[static_cast<std::size_t>(i)] = new_idom;
        changed = true;
      }
    }
  }
}

int DominatorTree::RpoIndex(const Block* block) const {
  Check(block != nullptr, "DominatorTree: null block");
  const auto id = static_cast<std::size_t>(block->id);
  Check(id < rpo_index_.size() && rpo_index_[id] >= 0,
        "DominatorTree: block not in RPO (unreachable or stale CFG)");
  return rpo_index_[id];
}

const Block* DominatorTree::Idom(const Block* block) const {
  const int i = RpoIndex(block);
  if (i == 0) return nullptr;  // entry has no idom
  return rpo_[static_cast<std::size_t>(idom_[static_cast<std::size_t>(i)])];
}

bool DominatorTree::Dominates(const Block* a, const Block* b) const {
  int i = RpoIndex(b);
  const int target = RpoIndex(a);
  while (i > target) i = idom_[static_cast<std::size_t>(i)];
  return i == target;
}

bool DominatorTree::StrictlyDominates(const Block* a, const Block* b) const {
  return a != b && Dominates(a, b);
}

}  // namespace b2h::ir
