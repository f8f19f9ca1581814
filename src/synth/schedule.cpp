#include "synth/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace b2h::synth {
namespace {

using ir::Opcode;

constexpr unsigned kMaxMults = 4;  ///< MULT18x18 budget per step
constexpr unsigned kMaxDivs = 1;   ///< divider budget per step

bool IsMemOp(const ir::Instr* instr) {
  return instr->op == Opcode::kLoad || instr->op == Opcode::kStore;
}

/// Dependence edges within a block: data (SSA operands defined in the same
/// block) and memory program-order edges, relaxed by alias information.
struct BlockDeps {
  // For each instr: list of (producer, is_data) it must wait for.
  std::unordered_map<const ir::Instr*, std::vector<const ir::Instr*>> preds;
};

BlockDeps ComputeDeps(const ir::Block* block,
                      const decomp::AliasAnalysis* alias) {
  BlockDeps deps;
  std::vector<const ir::Instr*> mem_ops;
  for (const ir::Instr* instr : block->instrs) {
    if (!IsBodyOp(instr)) continue;
    auto& list = deps.preds[instr];
    for (const ir::Value& operand : instr->operands) {
      if (operand.is_instr() && operand.def->parent == block &&
          IsBodyOp(operand.def)) {
        list.push_back(operand.def);
      }
    }
    if (IsMemOp(instr)) {
      const bool is_store = instr->op == Opcode::kStore;
      for (const ir::Instr* prior : mem_ops) {
        const bool prior_store = prior->op == Opcode::kStore;
        if (!is_store && !prior_store) continue;  // load-load: no edge
        const bool may_alias =
            alias == nullptr ||
            alias->MayAlias(instr, prior);
        if (may_alias) list.push_back(prior);
      }
      mem_ops.push_back(instr);
    }
  }
  return deps;
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

  for (const ir::Block* block : region.blocks) {
    BlockSchedule bs;
    bs.block = block;
    const BlockDeps deps = ComputeDeps(block, alias);
    std::vector<StepUsage> usage;
    // Per-instr chained delay within its step, and per-step chain position.
    std::unordered_map<const ir::Instr*, double> slack_delay;
    std::map<int, int> chain_next;

    for (const ir::Instr* instr : block->instrs) {
      if (!IsBodyOp(instr)) continue;
      const FuClass cls = ClassifyOp(*instr);
      const double delay = lib.OpDelayNs(*instr);

      // Earliest step from dependences, with chaining.
      int step = 0;
      double chain_in = 0.0;  // accumulated delay feeding this op
      for (const ir::Instr* producer : deps.preds.at(instr)) {
        const int p_step = bs.step_of.at(producer);
        const unsigned p_latency = lib.OpLatencyCycles(*producer);
        int earliest;
        double producer_out = 0.0;
        if (p_latency > 0) {
          earliest = p_step + static_cast<int>(p_latency);
        } else if (options.enable_chaining) {
          earliest = p_step;  // may chain in the same step
          producer_out = slack_delay.at(producer);
        } else {
          earliest = p_step + 1;
        }
        if (earliest > step) {
          step = earliest;
          chain_in = producer_out;
        } else if (earliest == step) {
          chain_in = std::max(chain_in, producer_out);
        }
      }
      // Memory ordering edges force at least the next step after a store
      // (stores commit at end of step) — handled via latency 0 + chaining
      // rule below: memory ops never chain with each other.
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

      bs.step_of[instr] = step;
      bs.chain_pos[instr] = chain_next[step]++;
      const double total_delay = chain_in + delay;
      slack_delay[instr] = total_delay;
      bs.max_step_delay_ns = std::max(bs.max_step_delay_ns, total_delay);
      if (static_cast<int>(bs.num_steps) <= step) bs.num_steps = step + 1;
    }

    // Account for load latency: a load issued in the last step still needs
    // its data cycle before the block can exit.
    for (const auto& [instr, step] : bs.step_of) {
      const unsigned latency = lib.OpLatencyCycles(*instr);
      if (latency > 0 &&
          step + static_cast<int>(latency) >= bs.num_steps) {
        bs.num_steps = step + static_cast<int>(latency);
        // The value is consumed by a later block; it is registered at the
        // end of its data cycle, which the +latency above covers.
      }
    }
    schedule.critical_path_ns =
        std::max(schedule.critical_path_ns, bs.max_step_delay_ns);
    schedule.total_states += bs.num_steps;
    schedule.blocks.push_back(std::move(bs));
  }

  // Loop pipelining for a single-block self-loop region.
  if (region.loop != nullptr && region.loop->blocks.size() == 1) {
    const ir::Block* body = region.loop->header;
    const BlockSchedule* bs = schedule.ForBlock(body);
    if (bs != nullptr) {
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
      const std::size_t latch_index = [&]() -> std::size_t {
        for (std::size_t i = 0; i < body->preds.size(); ++i) {
          if (body->preds[i] == body) return i;
        }
        return 0;
      }();
      for (const ir::Instr* phi : body->Phis()) {
        // Longest path (in ns + whole-cycle latencies) from this phi to the
        // latch operand over in-block dependences.
        std::unordered_map<const ir::Instr*, double> dist;  // in ns
        dist[phi] = 0.0;
        double worst_ns = 0.0;
        for (const ir::Instr* instr : body->instrs) {
          if (!IsBodyOp(instr)) continue;
          double best = -1.0;
          for (const ir::Value& operand : instr->operands) {
            if (!operand.is_instr()) continue;
            const auto it = dist.find(operand.def);
            if (it != dist.end()) best = std::max(best, it->second);
          }
          if (best < 0.0) continue;  // not reachable from phi
          const double op_cost =
              lib.OpLatencyCycles(*instr) > 0
                  ? lib.OpLatencyCycles(*instr) * options.clock_ns
                  : lib.OpDelayNs(*instr);
          dist[instr] = best + op_cost;
        }
        const ir::Value latch = phi->operands.size() > latch_index
                                    ? phi->operands[latch_index]
                                    : ir::Value::None();
        if (latch.is_instr()) {
          const auto it = dist.find(latch.def);
          if (it != dist.end()) worst_ns = std::max(worst_ns, it->second);
        }
        const unsigned rec_ii = std::max(
            1u, static_cast<unsigned>(std::ceil(worst_ns / options.clock_ns)));
        ii = std::max(ii, rec_ii);
      }
      schedule.pipeline_ii = static_cast<int>(ii);
      schedule.pipeline_depth = bs->num_steps;
    }
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
      const auto it = bs.step_of.find(instr);
      if (it == bs.step_of.end()) {
        return Status::Error(ErrorKind::kUnsupported,
                             "unscheduled instruction in " + region.name);
      }
      const int step = it->second;
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
        const auto p = bs.step_of.find(producer);
        if (p == bs.step_of.end()) continue;
        const unsigned p_latency = lib.OpLatencyCycles(*producer);
        if (p_latency > 0) {
          if (step < p->second + static_cast<int>(p_latency)) {
            return Status::Error(ErrorKind::kUnsupported,
                                 "latency violation in " + region.name);
          }
        } else if (step < p->second) {
          return Status::Error(ErrorKind::kUnsupported,
                               "dependence violation in " + region.name);
        } else if (step == p->second &&
                   bs.chain_pos.at(producer) >= bs.chain_pos.at(instr)) {
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
