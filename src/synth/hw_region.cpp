#include "synth/hw_region.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace b2h::synth {
namespace {

void ComputeLiveSets(HwRegion& region) {
  std::set<const ir::Block*> inside(region.blocks.begin(),
                                    region.blocks.end());
  std::set<const ir::Instr*> live_in;
  std::set<const ir::Instr*> defined;
  for (const ir::Block* block : region.blocks) {
    for (const ir::Instr* instr : block->instrs) defined.insert(instr);
  }
  // Live-in: operand defined outside; live-out: defined inside, used outside.
  std::set<const ir::Instr*> live_out;
  for (const auto& block : region.function->blocks()) {
    const bool is_inside = inside.count(block.get()) != 0;
    for (const ir::Instr* instr : block->instrs) {
      for (const ir::Value& operand : instr->operands) {
        if (!operand.is_instr()) continue;
        const bool def_inside = defined.count(operand.def) != 0;
        if (is_inside && !def_inside) live_in.insert(operand.def);
        if (!is_inside && def_inside) live_out.insert(operand.def);
      }
    }
  }
  // The sets order by heap address; ports (VHDL, RTL simulation) follow
  // these vectors, so order them by the function's dense instruction ids.
  const auto by_id = [](const ir::Instr* a, const ir::Instr* b) {
    return a->id < b->id;
  };
  region.live_ins.assign(live_in.begin(), live_in.end());
  region.live_outs.assign(live_out.begin(), live_out.end());
  std::sort(region.live_ins.begin(), region.live_ins.end(), by_id);
  std::sort(region.live_outs.begin(), region.live_outs.end(), by_id);
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
  for (const auto& block : function.blocks()) {
    if (block.get() != loop.header && loop.Contains(block.get())) {
      region.blocks.push_back(block.get());
    }
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
