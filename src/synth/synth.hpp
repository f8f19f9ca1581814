// Top-level behavioral synthesis entry point: region in, netlist-level
// results out (paper §3: "Our approach utilizes a behavioral synthesis
// tool that we implemented ourselves ... The output of the tool is register
// transfer-level VHDL.  We use Xilinx ISE to synthesize the VHDL to a
// netlist" — here the ISE step is replaced by the calibrated area/timing
// model, and an executable RTL model is produced for verification).
#pragma once

#include <string>

#include "decomp/alias.hpp"
#include "synth/area.hpp"
#include "synth/hw_region.hpp"
#include "synth/schedule.hpp"
#include "synth/vhdl.hpp"

namespace b2h::synth {

struct SynthOptions {
  ScheduleOptions schedule;
  ResourceLibrary library;
};

struct SynthesizedRegion {
  HwRegion region;
  RegionSchedule schedule;
  AreaReport area;
  double clock_mhz = 0.0;       ///< achievable clock (capped at target)
  std::uint64_t hw_cycles = 0;  ///< profile-weighted execution cycles
  std::string vhdl;
};

/// Synthesize one region.  Fails when the region is not synthesizable
/// (calls that could not be inlined).
[[nodiscard]] Result<SynthesizedRegion> Synthesize(
    const HwRegion& region, const decomp::AliasAnalysis* alias,
    const SynthOptions& options = {});

}  // namespace b2h::synth
