#include "synth/area.hpp"

#include <algorithm>
#include <sstream>

namespace b2h::synth {

using ir::Opcode;

AreaReport EstimateArea(const HwRegion& region,
                        const RegionSchedule& schedule,
                        const ResourceLibrary& lib) {
  AreaReport report;

  // ---- functional unit allocation: max concurrency per class ------------
  // Track, per class, the per-step usage and the maximum operand width.
  struct ClassInfo {
    unsigned max_concurrent = 0;
    unsigned total_ops = 0;
    unsigned max_width = 1;
  };
  std::map<FuClass, ClassInfo> classes;
  for (const auto& bs : schedule.blocks) {
    std::map<std::pair<FuClass, int>, unsigned> per_step;
    for (const ir::Instr* instr : bs.block->instrs) {
      if (!IsBodyOp(instr)) continue;
      const FuClass cls = ClassifyOp(*instr);
      if (cls == FuClass::kNone) continue;
      const int step = schedule.StepOf(instr);
      ClassInfo& info = classes[cls];
      ++info.total_ops;
      unsigned width = instr->width;
      for (const ir::Value& operand : instr->operands) {
        if (operand.is_instr()) {
          width = std::max<unsigned>(width, operand.def->width);
        }
      }
      info.max_width = std::max(info.max_width, std::min(width, 32u));
      const unsigned used = ++per_step[{cls, step}];
      info.max_concurrent = std::max(info.max_concurrent, used);
    }
  }

  for (const auto& [cls, info] : classes) {
    for (unsigned i = 0; i < info.max_concurrent; ++i) {
      FuInstance unit;
      unit.cls = cls;
      unit.width = info.max_width;
      // Distribute mapped ops evenly over instances for mux sizing.
      unit.ops_mapped =
          (info.total_ops + info.max_concurrent - 1) / info.max_concurrent;
      unit.gates = lib.FuGates(cls, info.max_width);
      report.fu_gates += unit.gates;
      // Sharing muxes: one per operand port (2) when >1 op mapped.
      report.mux_gates += 2 * lib.MuxGates(unit.ops_mapped, unit.width);
      if (cls == FuClass::kMul) {
        report.mult_blocks += info.max_width <= 18 ? 1 : 4;
      }
      report.units.push_back(unit);
    }
  }

  // ---- register allocation (left-edge over step lifetimes) --------------
  // A value needs a register if it lives past the step it is produced in
  // (consumed in a later step, is a phi, or is live-out of the region).
  struct Lifetime {
    int start = 0;
    int end = 0;
    unsigned width = 32;
  };
  // Per Instr::id: the last step an op of its own block reads the value in
  // (-1: none), and whether it is held to its block's end: it is live-out,
  // or read by a phi, a terminator or another block.
  std::vector<int> last_use(schedule.steps.size(), -1);
  std::vector<char> held(schedule.steps.size(), 0);
  for (const ir::Instr* out : region.live_outs) held[out->id] = 1;
  for (const ir::Block* block : region.blocks) {
    for (const ir::Instr* user : block->instrs) {
      const int step = schedule.StepOf(user);  // -1: phi or terminator
      for (const ir::Value& operand : user->operands) {
        if (!operand.is_instr()) continue;
        const ir::Instr* def = operand.def;
        if (def->parent != block || step < 0) {
          held[def->id] = 1;
        } else {
          last_use[def->id] = std::max(last_use[def->id], step);
        }
      }
    }
  }
  std::vector<Lifetime> lifetimes;
  for (const auto& bs : schedule.blocks) {
    for (const ir::Instr* instr : bs.block->instrs) {
      if (instr->op == Opcode::kPhi) {
        // Phis are registers live across the whole block.
        lifetimes.push_back({0, bs.num_steps, instr->width});
        continue;
      }
      if (!IsBodyOp(instr) || instr->width == 0) continue;
      const int def_step = schedule.StepOf(instr);
      int end = last_use[instr->id] >= 0 ? last_use[instr->id] : def_step;
      if (held[instr->id] != 0) end = bs.num_steps;
      if (end > def_step) {
        lifetimes.push_back({def_step + 1, end, instr->width});
      }
    }
  }
  // Left-edge: sort by start, greedily pack into registers.
  std::sort(lifetimes.begin(), lifetimes.end(),
            [](const Lifetime& a, const Lifetime& b) {
              return a.start < b.start;
            });
  std::vector<std::pair<int, unsigned>> registers;  // (free_at, width)
  for (const Lifetime& lt : lifetimes) {
    bool placed = false;
    for (auto& [free_at, width] : registers) {
      if (free_at <= lt.start) {
        free_at = lt.end;
        width = std::max(width, lt.width);
        placed = true;
        break;
      }
    }
    if (!placed) registers.emplace_back(lt.end, lt.width);
  }
  report.registers = static_cast<unsigned>(registers.size());
  for (const auto& [free_at, width] : registers) {
    report.register_bits += width;
    report.register_gates += lib.RegisterGates(width);
  }

  // ---- control -----------------------------------------------------------
  report.fsm_states = static_cast<unsigned>(
      std::max(1, schedule.total_states));
  report.fsm_gates = lib.FsmGates(report.fsm_states);

  const double subtotal = report.fu_gates + report.register_gates +
                          report.mux_gates + report.fsm_gates;
  report.total_gates = subtotal * (1.0 + lib.control_overhead);
  return report;
}

std::string AreaReport::Summary() const {
  std::ostringstream out;
  out << "Design Summary (ISE-style)\n";
  out << "  Functional units:\n";
  for (const auto& unit : units) {
    out << "    " << ToString(unit.cls) << " x1, width " << unit.width
        << ", ops mapped " << unit.ops_mapped << ", gates "
        << static_cast<long>(unit.gates) << "\n";
  }
  out << "  Registers: " << registers << " (" << register_bits << " bits)\n";
  out << "  MULT18X18s: " << mult_blocks << "\n";
  out << "  FSM states: " << fsm_states << "\n";
  out << "  Equivalent gate count:\n";
  out << "    datapath FUs: " << static_cast<long>(fu_gates) << "\n";
  out << "    registers:    " << static_cast<long>(register_gates) << "\n";
  out << "    muxes:        " << static_cast<long>(mux_gates) << "\n";
  out << "    control/FSM:  " << static_cast<long>(fsm_gates) << "\n";
  out << "    TOTAL:        " << static_cast<long>(total_gates) << "\n";
  return out.str();
}

}  // namespace b2h::synth
