// Behavioral synthesis scheduler.
//
// Resource-constrained list scheduling per basic block with operator
// chaining (several dependent combinational ops share a control step while
// their summed delay fits the clock period), plus loop pipelining for
// single-block self-loops: the initiation interval II is the maximum of the
// memory-port pressure, multiplier pressure, and the loop-carried
// recurrence delay.  Pipelining is what gives hardware kernels their large
// speedups over the in-order MIPS (paper: average kernel speedup 44.8x).
#pragma once

#include <map>
#include <vector>

#include "decomp/alias.hpp"
#include "synth/hw_region.hpp"
#include "synth/resource.hpp"

namespace b2h::synth {

/// The ops the scheduler places in control steps: every instruction but
/// phis (registers loaded on the entry transition) and the terminator (the
/// FSM's next-state logic).  Area, VHDL and RTL simulation walk the same
/// ops.  Unlike Block::BodySize(), it does not count the terminator.
[[nodiscard]] inline bool IsBodyOp(const ir::Instr* instr) {
  return instr->op != ir::Opcode::kPhi && !instr->is_terminator();
}

/// Per step the scheduler also issues at most four multiplies (the
/// MULT18x18 budget) and one divide.
struct ScheduleOptions {
  double clock_ns = 10.0;   ///< target period (100 MHz)
  unsigned mem_ports = 2;   ///< dual-port BRAM
  bool enable_chaining = true;
};

struct BlockSchedule {
  const ir::Block* block = nullptr;
  int num_steps = 1;
  std::map<const ir::Instr*, int> step_of;   ///< body ops only (no phis)
  std::map<const ir::Instr*, int> chain_pos; ///< order within a step
  double max_step_delay_ns = 0.0;
};

struct RegionSchedule {
  std::vector<BlockSchedule> blocks;
  /// >0: the region's primary loop is a pipelined single-block loop with
  /// this initiation interval.
  int pipeline_ii = 0;
  int pipeline_depth = 0;      ///< schedule length of the pipelined block
  double critical_path_ns = 0; ///< max chained delay in any step
  int total_states = 0;        ///< FSM states

  [[nodiscard]] const BlockSchedule* ForBlock(const ir::Block* block) const {
    for (const auto& bs : blocks) {
      if (bs.block == block) return &bs;
    }
    return nullptr;
  }
};

/// Schedule a region.  `alias` (optional) relaxes memory dependence edges
/// between accesses to provably different arrays.
[[nodiscard]] RegionSchedule ScheduleRegion(const HwRegion& region,
                                            const decomp::AliasAnalysis* alias,
                                            const ResourceLibrary& lib,
                                            const ScheduleOptions& options = {});

/// Estimated execution cycles for the region using block profile counts.
[[nodiscard]] std::uint64_t EstimateCycles(const HwRegion& region,
                                           const RegionSchedule& schedule);

/// Achievable clock (MHz) given the critical path; capped by the target.
[[nodiscard]] double AchievableClockMhz(const RegionSchedule& schedule,
                                        const ScheduleOptions& options);

/// Scheduler legality check, run by Synthesize on every schedule: every
/// operand is produced in an earlier step, or in the same step at an
/// earlier chain position with a combinational producer; per-step resource
/// limits hold.
[[nodiscard]] Status VerifySchedule(const HwRegion& region,
                                    const RegionSchedule& schedule,
                                    const ResourceLibrary& lib,
                                    const ScheduleOptions& options);

}  // namespace b2h::synth
