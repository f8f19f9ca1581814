// Executable RTL model of the synthesized FSM+datapath.
//
// The paper's flow hands RT-level VHDL to Xilinx ISE; ours additionally
// emits an executable model so the synthesized design can be *run* against
// the decompiled CDFG and the original binary (co-simulation, DESIGN.md
// §5).  The simulator executes each block's ops step by step, a step's ops
// in issue (block) order, and refuses to read values the schedule has not
// produced yet, so scheduler bugs surface as simulation failures rather
// than as silently-correct software semantics.
//
// The model has no input ports: it runs regions without live-ins, which
// whole-function regions are (kInput registers come from Run's `inputs`).
//
// Shared with the IR interpreter: each operator's value (ir::Evaluate),
// register widths (ir::FitToWidth) and memory accesses
// (mips::Memory::Load/Store).  This model's own part is the schedule
// order, the FSM's phi loads and transitions, and the region's ports.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "mips/memory.hpp"
#include "synth/schedule.hpp"

namespace b2h::synth {

struct RtlResult {
  bool ok = false;
  std::string error;
  std::int32_t return_value = 0;       ///< function regions: kRet value
  std::uint64_t fsm_cycles = 0;        ///< sequential FSM cycle count
};

/// Runs over the MIPS platform's memory (mips/memory.hpp), with
/// `initial_data` as the binary's .data image.
class RtlSimulator {
 public:
  RtlSimulator(const HwRegion& region, const RegionSchedule& schedule,
               std::span<const std::uint8_t> initial_data);

  /// Runs the region from its entry block until it returns or leaves.
  /// `inputs` provides kInput registers (index = machine register number).
  /// A region with live-ins fails without running.
  [[nodiscard]] RtlResult Run(
      const std::map<unsigned, std::int32_t>& inputs = {});

 private:
  const HwRegion& region_;
  const RegionSchedule& schedule_;
  mips::Memory memory_;
};

}  // namespace b2h::synth
