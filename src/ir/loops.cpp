#include "ir/loops.hpp"

#include <algorithm>

namespace b2h::ir {

bool Loop::Contains(const Block* block) const {
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), block->id,
      [](const Block* member, int id) { return member->id < id; });
  return it != blocks.end() && *it == block;
}

LoopForest::LoopForest(const Function& function, const DominatorTree& dom) {
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
  // without passing through the header.  Marks are by Block::id; the blocks
  // found so far are the work list, the header first (not followed).
  std::vector<char> in_loop(function.blocks().size(), 0);
  for (std::size_t position = 0; position < rpo.size(); ++position) {
    const std::vector<const Block*>& latches = latches_of[position];
    if (latches.empty()) continue;
    auto loop = std::make_unique<Loop>();
    loop->header = rpo[position];
    loop->latches = latches;
    std::vector<const Block*>& blocks = loop->blocks;
    const auto add = [&in_loop, &blocks](const Block* block) {
      char& mark = in_loop[static_cast<std::size_t>(block->id)];
      if (mark == 0) blocks.push_back(block);
      mark = 1;
    };
    add(loop->header);
    for (const Block* latch : latches) add(latch);
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      for (const Block* pred : blocks[i]->preds) add(pred);
    }
    for (const Block* block : blocks) {
      in_loop[static_cast<std::size_t>(block->id)] = 0;
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const Block* a, const Block* b) { return a->id < b->id; });
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
  }
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
