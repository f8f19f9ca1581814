// Hardware region extraction: the unit of partitioning and synthesis.
//
// A region is a loop nest (the common case — paper §3 moves the most
// frequent loops to hardware) or an entire function (the paper's third
// partitioning step "allows an entire application to be synthesized if
// space allows").  The extractor computes the live-in values (become input
// ports), live-out values (output ports), and checks synthesizability
// (no remaining calls).
#pragma once

#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "ir/loops.hpp"

namespace b2h::synth {

struct HwRegion {
  const ir::Function* function = nullptr;
  /// Loop being synthesized; null for whole-function regions.  Valid only
  /// while the extracting LoopForest is alive — the partitioner nulls it on
  /// results it stores (use blocks.front()->start_pc for the header).
  const ir::Loop* loop = nullptr;
  std::vector<const ir::Block*> blocks;  ///< region blocks, entry first
  std::vector<const ir::Instr*> live_ins;
  std::vector<const ir::Instr*> live_outs;
  bool synthesizable = true;
  std::string reject_reason;
  std::string name;

  [[nodiscard]] bool Contains(const ir::Block* block) const {
    for (const ir::Block* b : blocks) {
      if (b == block) return true;
    }
    return false;
  }
};

/// Extract the region for one loop (header + body blocks).
[[nodiscard]] HwRegion ExtractLoopRegion(const ir::Function& function,
                                         const ir::Loop& loop);

/// Extract the entire function as a region.
[[nodiscard]] HwRegion ExtractFunctionRegion(const ir::Function& function);

}  // namespace b2h::synth
