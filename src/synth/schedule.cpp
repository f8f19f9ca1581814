#include "synth/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace b2h::synth {
namespace {

using ir::Opcode;

constexpr unsigned kMaxMults = 4;  ///< MULT18x18 budget per step
constexpr unsigned kMaxDivs = 1;   ///< divider budget per step

bool IsMemOp(const ir::Instr* instr) {
  return instr->op == Opcode::kLoad || instr->op == Opcode::kStore;
}

struct StepUsage {
  unsigned mem = 0;
  unsigned mul = 0;
  unsigned div = 0;
};

}  // namespace

RegionSchedule ScheduleRegion(const HwRegion& region,
                              const decomp::AliasAnalysis* alias,
                              const ResourceLibrary& lib,
                              const ScheduleOptions& options) {
  RegionSchedule schedule;
  schedule.steps.assign(region.function->NumInstrs(), -1);
  // Each op's chained delay within its step, indexed by Instr::id.
  std::vector<double> out_ns(schedule.steps.size(), 0.0);

  for (const ir::Block* block : region.blocks) {
    BlockSchedule bs;
    bs.block = block;
    std::vector<StepUsage> usage;
    std::vector<const ir::Instr*> mem_ops;  // earlier loads and stores

    for (const ir::Instr* instr : block->instrs) {
      if (!IsBodyOp(instr)) continue;
      const FuClass cls = ClassifyOp(*instr);
      const double delay = lib.OpDelayNs(*instr);

      // Earliest step from dependences, with chaining.
      int step = 0;
      double chain_in = 0.0;  // accumulated delay feeding this op
      const auto wait_for = [&](const ir::Instr* producer) {
        const int p_step = schedule.steps[producer->id];
        const unsigned p_latency = lib.OpLatencyCycles(*producer);
        int earliest;
        double producer_out = 0.0;
        if (p_latency > 0) {
          earliest = p_step + static_cast<int>(p_latency);
        } else if (options.enable_chaining) {
          earliest = p_step;  // may chain in the same step
          producer_out = out_ns[producer->id];
        } else {
          earliest = p_step + 1;
        }
        if (earliest > step) {
          step = earliest;
          chain_in = producer_out;
        } else if (earliest == step) {
          chain_in = std::max(chain_in, producer_out);
        }
      };
      // Data edges: operands defined earlier in the block.
      for (const ir::Value& operand : instr->operands) {
        if (operand.is_instr() && operand.def->parent == block &&
            IsBodyOp(operand.def)) {
          wait_for(operand.def);
        }
      }
      // Memory edges: program order against earlier accesses that may
      // touch the same location, unless both are loads.
      if (IsMemOp(instr)) {
        const bool is_store = instr->op == Opcode::kStore;
        for (const ir::Instr* prior : mem_ops) {
          if (!is_store && prior->op != Opcode::kStore) continue;
          if (alias == nullptr || alias->MayAlias(instr, prior)) {
            wait_for(prior);
          }
        }
        mem_ops.push_back(instr);
      }
      // Chaining feasibility: total delay must fit the clock period.
      while (true) {
        if (options.enable_chaining && chain_in > 0.0 &&
            chain_in + delay > options.clock_ns) {
          // Start a fresh step instead of chaining.
          ++step;
          chain_in = 0.0;
          continue;
        }
        // Memory/mult/div resource limits per step.
        if (static_cast<std::size_t>(step) >= usage.size()) {
          usage.resize(static_cast<std::size_t>(step) + 1);
        }
        StepUsage& u = usage[static_cast<std::size_t>(step)];
        if (cls == FuClass::kMemPort && u.mem >= options.mem_ports) {
          ++step;
          chain_in = 0.0;
          continue;
        }
        if (cls == FuClass::kMul && u.mul >= kMaxMults) {
          ++step;
          chain_in = 0.0;
          continue;
        }
        if (cls == FuClass::kDiv && u.div >= kMaxDivs) {
          ++step;
          chain_in = 0.0;
          continue;
        }
        if (cls == FuClass::kMemPort) ++u.mem;
        if (cls == FuClass::kMul) ++u.mul;
        if (cls == FuClass::kDiv) ++u.div;
        break;
      }

      schedule.steps[instr->id] = step;
      out_ns[instr->id] = chain_in + delay;
      schedule.critical_path_ns =
          std::max(schedule.critical_path_ns, out_ns[instr->id]);
      if (bs.num_steps <= step) bs.num_steps = step + 1;
    }

    // Account for load latency: a load issued in the last step still needs
    // its data cycle before the block can exit (the value is registered at
    // the end of that cycle).
    for (const ir::Instr* instr : block->instrs) {
      const int step = schedule.StepOf(instr);
      const int latency = static_cast<int>(lib.OpLatencyCycles(*instr));
      if (step >= 0 && latency > 0) {
        bs.num_steps = std::max(bs.num_steps, step + latency);
      }
    }
    schedule.total_states += bs.num_steps;
    schedule.blocks.push_back(bs);
  }

  // Loop pipelining for a single-block self-loop region, whose one block is
  // the header.
  if (region.loop != nullptr && region.loop->blocks.size() == 1) {
    const ir::Block* body = region.loop->header;
    // Resource-constrained II.
    unsigned mem_ops = 0;
    unsigned muls = 0;
    unsigned divs = 0;
    for (const ir::Instr* instr : body->instrs) {
      if (!IsBodyOp(instr)) continue;
      switch (ClassifyOp(*instr)) {
        case FuClass::kMemPort: ++mem_ops; break;
        case FuClass::kMul: ++muls; break;
        case FuClass::kDiv: ++divs; break;
        default: break;
      }
    }
    unsigned ii = 1;
    ii = std::max(ii, (mem_ops + options.mem_ports - 1) / options.mem_ports);
    ii = std::max(ii, (muls + kMaxMults - 1) / kMaxMults);
    if (divs > 0) ii = std::max(ii, lib.div_latency_cycles);

    // Recurrence II: longest latency cycle phi -> ... -> latch operand.
    const std::size_t latch_index = body->PredIndex(body);
    // Longest path (in ns + whole-cycle latencies) from one phi over
    // in-block dependences, indexed by Instr::id; -1: not reached.
    std::vector<double> dist;
    for (const ir::Instr* phi : body->Phis()) {
      dist.assign(schedule.steps.size(), -1.0);
      dist[phi->id] = 0.0;
      for (const ir::Instr* instr : body->instrs) {
        if (!IsBodyOp(instr)) continue;
        double best = -1.0;
        for (const ir::Value& operand : instr->operands) {
          if (operand.is_instr()) best = std::max(best, dist[operand.def->id]);
        }
        if (best < 0.0) continue;  // not reachable from phi
        const double op_cost =
            lib.OpLatencyCycles(*instr) > 0
                ? lib.OpLatencyCycles(*instr) * options.clock_ns
                : lib.OpDelayNs(*instr);
        dist[instr->id] = best + op_cost;
      }
      const ir::Value latch = phi->operands.size() > latch_index
                                  ? phi->operands[latch_index]
                                  : ir::Value::None();
      const double worst_ns =
          latch.is_instr() ? std::max(0.0, dist[latch.def->id]) : 0.0;
      const unsigned rec_ii = std::max(
          1u, static_cast<unsigned>(std::ceil(worst_ns / options.clock_ns)));
      ii = std::max(ii, rec_ii);
    }
    schedule.pipeline_ii = static_cast<int>(ii);
    schedule.pipeline_depth = schedule.blocks.front().num_steps;
  }
  return schedule;
}

std::uint64_t EstimateCycles(const HwRegion& region,
                             const RegionSchedule& schedule) {
  std::uint64_t cycles = 0;
  for (const auto& bs : schedule.blocks) {
    const std::uint64_t count = bs.block->exec_count;
    if (schedule.pipeline_ii > 0 && region.loop != nullptr &&
        bs.block == region.loop->header &&
        region.loop->blocks.size() == 1) {
      // Pipelined: entries pay the full depth once; steady-state
      // iterations issue every II cycles.
      const std::uint64_t entries = std::max<std::uint64_t>(
          1, region.loop->entry_count);
      const std::uint64_t iters = std::max<std::uint64_t>(count, entries);
      cycles += iters * static_cast<std::uint64_t>(schedule.pipeline_ii) +
                entries * static_cast<std::uint64_t>(
                              std::max(0, schedule.pipeline_depth -
                                              schedule.pipeline_ii));
    } else {
      cycles += count * static_cast<std::uint64_t>(bs.num_steps);
    }
  }
  return cycles;
}

double AchievableClockMhz(const RegionSchedule& schedule,
                          const ScheduleOptions& options) {
  const double period =
      std::max(schedule.critical_path_ns, options.clock_ns);
  return 1000.0 / period;
}

Status VerifySchedule(const HwRegion& region, const RegionSchedule& schedule,
                      const ResourceLibrary& lib,
                      const ScheduleOptions& options) {
  for (const auto& bs : schedule.blocks) {
    std::map<int, StepUsage> usage;
    for (const ir::Instr* instr : bs.block->instrs) {
      if (!IsBodyOp(instr)) continue;
      const int step = schedule.StepOf(instr);
      if (step < 0) {
        return Status::Error(ErrorKind::kUnsupported,
                             "unscheduled instruction in " + region.name);
      }
      const FuClass cls = ClassifyOp(*instr);
      if (cls == FuClass::kMemPort) ++usage[step].mem;
      if (cls == FuClass::kMul) ++usage[step].mul;
      if (cls == FuClass::kDiv) ++usage[step].div;
      // Dependence legality.
      for (const ir::Value& operand : instr->operands) {
        if (!operand.is_instr()) continue;
        const ir::Instr* producer = operand.def;
        if (producer->parent != bs.block ||
            producer->op == Opcode::kPhi) {
          continue;  // register/port input
        }
        const int p_step = schedule.StepOf(producer);
        if (p_step < 0) continue;
        const unsigned p_latency = lib.OpLatencyCycles(*producer);
        if (p_latency > 0) {
          if (step < p_step + static_cast<int>(p_latency)) {
            return Status::Error(ErrorKind::kUnsupported,
                                 "latency violation in " + region.name);
          }
        } else if (step < p_step) {
          return Status::Error(ErrorKind::kUnsupported,
                               "dependence violation in " + region.name);
        } else if (step == p_step && producer->id >= instr->id) {
          return Status::Error(ErrorKind::kUnsupported,
                               "chain order violation in " + region.name);
        }
      }
    }
    for (const auto& [step, u] : usage) {
      if (u.mem > options.mem_ports || u.mul > kMaxMults ||
          u.div > kMaxDivs) {
        return Status::Error(ErrorKind::kResource,
                             "resource overuse in " + region.name);
      }
    }
  }
  return Status::Ok();
}

}  // namespace b2h::synth
