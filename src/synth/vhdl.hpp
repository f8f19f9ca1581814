// RT-level VHDL emission (paper §3: "The output of the tool is register
// transfer-level VHDL").
//
// One entity per hardware region: start/done handshake, one input port per
// live-in value, one output port per live-out value, and a dual-port memory
// interface to the FPGA-local BRAM.  The architecture is an FSMD: a state
// per (block, control step) pair, each state's ops written in issue order
// as signal assignments inside the clocked process.  A chained op therefore
// reads its producer's value from the previous cycle, not the one computed
// in its own state: a known defect of the emitted text, which the RTL model
// (rtl_sim.hpp) does not share.
#pragma once

#include <string>

#include "synth/schedule.hpp"

namespace b2h::synth {

/// Emit VHDL for a scheduled region.
[[nodiscard]] std::string EmitVhdl(const HwRegion& region,
                                   const RegionSchedule& schedule);

}  // namespace b2h::synth
