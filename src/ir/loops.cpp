#include "ir/loops.hpp"

#include <algorithm>
#include <deque>

namespace b2h::ir {

LoopForest::LoopForest(const Function& function, const DominatorTree& dom) {
  (void)function;  // identification works purely off the dominator tree
  // Collect back edges (a -> h where h dominates a) grouped by the header's
  // reverse-post-order position, latches in RPO order.  loops() therefore
  // comes out in header RPO order, never in heap-address order: candidate
  // scans stable-sort loops by cycles, so this order breaks their ties and
  // reaches the reports.
  const std::vector<const Block*>& rpo = dom.ReversePostOrder();
  std::vector<std::vector<const Block*>> latches_of(rpo.size());
  for (const Block* block : rpo) {
    for (const Block* succ : block->succs()) {
      if (dom.Dominates(succ, block)) {
        latches_of[static_cast<std::size_t>(dom.RpoIndex(succ))].push_back(
            block);
      }
    }
  }

  // One natural loop per header: union of all blocks that can reach a latch
  // without passing through the header.
  for (std::size_t position = 0; position < rpo.size(); ++position) {
    const std::vector<const Block*>& latches = latches_of[position];
    if (latches.empty()) continue;
    const Block* header = rpo[position];
    auto loop = std::make_unique<Loop>();
    loop->header = header;
    loop->latches = latches;
    loop->blocks.insert(header);
    std::deque<const Block*> work(latches.begin(), latches.end());
    for (const Block* latch : latches) loop->blocks.insert(latch);
    while (!work.empty()) {
      const Block* block = work.front();
      work.pop_front();
      if (block == header) continue;
      for (const Block* pred : block->preds) {
        if (loop->blocks.insert(pred).second) work.push_back(pred);
      }
    }
    for (const Block* block : loop->blocks) {
      for (const Block* succ : block->succs()) {
        if (loop->blocks.count(succ) == 0 &&
            std::find(loop->exit_blocks.begin(), loop->exit_blocks.end(),
                      succ) == loop->exit_blocks.end()) {
          loop->exit_blocks.push_back(succ);
        }
      }
    }
    loops_.push_back(std::move(loop));
  }

  // Nesting: the parent of L is the smallest loop strictly containing L's
  // header among the other loops.
  for (auto& loop : loops_) {
    Loop* best = nullptr;
    for (auto& candidate : loops_) {
      if (candidate.get() == loop.get()) continue;
      if (candidate->Contains(loop->header) &&
          candidate->header != loop->header) {
        if (best == nullptr || best->blocks.size() > candidate->blocks.size()) {
          best = candidate.get();
        }
      }
    }
    loop->parent = best;
    if (best != nullptr) best->children.push_back(loop.get());
  }
  for (auto& loop : loops_) {
    int depth = 1;
    for (Loop* up = loop->parent; up != nullptr; up = up->parent) ++depth;
    loop->depth = depth;
  }
}

Loop* LoopForest::LoopFor(const Block* block) const {
  Loop* best = nullptr;
  for (const auto& loop : loops_) {
    if (loop->Contains(block)) {
      if (best == nullptr || loop->blocks.size() < best->blocks.size()) {
        best = loop.get();
      }
    }
  }
  return best;
}

void LoopForest::AnnotateProfile() {
  for (auto& loop : loops_) {
    loop->header_count = loop->header->exec_count;
    std::uint64_t back = 0;
    for (const Block* latch : loop->latches) {
      if (!latch->has_terminator()) continue;
      const Instr* term = latch->terminator();
      if (term->op == Opcode::kBr) {
        back += latch->exec_count;
      } else if (term->op == Opcode::kCondBr) {
        if (term->target0 == loop->header) back += latch->taken_count;
        if (term->target1 == loop->header) back += latch->not_taken_count;
      }
    }
    loop->entry_count = loop->header_count > back
                            ? loop->header_count - back
                            : 1;
  }
}

}  // namespace b2h::ir
