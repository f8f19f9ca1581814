#include "synth/hw_region.hpp"

#include <sstream>

namespace b2h::synth {
namespace {

void ComputeLiveSets(HwRegion& region) {
  const ir::Function& function = *region.function;
  std::vector<char> inside(function.blocks().size(), 0);  // by Block::id
  for (const ir::Block* block : region.blocks) inside[block->id] = 1;
  // Live-in: operand defined outside; live-out: defined inside, used
  // outside.  Flags by Instr::id.
  constexpr char kLiveIn = 1;
  constexpr char kLiveOut = 2;
  std::vector<char> live(function.NumInstrs(), 0);
  int next_id = 0;
  for (const auto& block : function.blocks()) {
    const bool use_inside = inside[block->id] != 0;
    for (const ir::Instr* instr : block->instrs) {
      Check(instr->id == next_id++,
            "region extraction needs the function's block-order numbering");
      for (const ir::Value& operand : instr->operands) {
        if (!operand.is_instr()) continue;
        const bool def_inside = inside[operand.def->parent->id] != 0;
        if (use_inside && !def_inside) live[operand.def->id] |= kLiveIn;
        if (!use_inside && def_inside) live[operand.def->id] |= kLiveOut;
      }
    }
  }
  // Ports (VHDL, RTL simulation) follow these vectors; listing them in
  // block order lists them by ascending id.
  for (const auto& block : function.blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (live[instr->id] & kLiveIn) region.live_ins.push_back(instr);
      if (live[instr->id] & kLiveOut) region.live_outs.push_back(instr);
    }
  }
}

void CheckSynthesizable(HwRegion& region) {
  for (const ir::Block* block : region.blocks) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kCall) {
        region.synthesizable = false;
        region.reject_reason = "region contains a non-inlinable call";
        return;
      }
    }
  }
}

}  // namespace

HwRegion ExtractLoopRegion(const ir::Function& function,
                           const ir::Loop& loop) {
  HwRegion region;
  region.function = &function;
  region.loop = &loop;
  // Header first, body blocks in function order after it.
  region.blocks.push_back(loop.header);
  for (const ir::Block* block : loop.blocks) {
    if (block != loop.header) region.blocks.push_back(block);
  }
  std::ostringstream name;
  name << function.name() << ":" << loop.header->name;
  region.name = name.str();
  ComputeLiveSets(region);
  CheckSynthesizable(region);
  return region;
}

HwRegion ExtractFunctionRegion(const ir::Function& function) {
  HwRegion region;
  region.function = &function;
  for (const auto& block : function.blocks()) {
    region.blocks.push_back(block.get());
  }
  region.name = function.name();
  ComputeLiveSets(region);
  CheckSynthesizable(region);
  return region;
}

}  // namespace b2h::synth
