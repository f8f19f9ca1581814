// Executable RTL model of the synthesized FSM+datapath.
//
// The paper's flow hands RT-level VHDL to Xilinx ISE; ours additionally
// emits an executable model so the synthesized design can be *run* against
// the decompiled CDFG and the original binary (co-simulation, DESIGN.md
// §5).  The simulator executes ops strictly in (step, chain position) order
// and refuses to read values the schedule has not produced yet, so
// scheduler bugs surface as simulation failures rather than as
// silently-correct software semantics.
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
  std::map<const ir::Instr*, std::int32_t> live_out_values;
};

/// Runs over the MIPS platform's memory (mips/memory.hpp), with
/// `initial_data` as the binary's .data image.
class RtlSimulator {
 public:
  RtlSimulator(const HwRegion& region, const RegionSchedule& schedule,
               std::span<const std::uint8_t> initial_data);

  /// `live_in_values`: value for every live-in instruction (input ports);
  /// `inputs` additionally provides kInput registers for function regions
  /// (index = machine register number).
  [[nodiscard]] RtlResult Run(
      const std::map<const ir::Instr*, std::int32_t>& live_in_values = {},
      const std::map<unsigned, std::int32_t>& inputs = {});

 private:
  const HwRegion& region_;
  const RegionSchedule& schedule_;
  mips::Memory memory_;
};

}  // namespace b2h::synth
