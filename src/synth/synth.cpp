#include "synth/synth.hpp"

namespace b2h::synth {

Result<SynthesizedRegion> Synthesize(const HwRegion& region,
                                     const decomp::AliasAnalysis* alias,
                                     const SynthOptions& options) {
  if (!region.synthesizable) {
    return Status::Error(ErrorKind::kUnsupported,
                         region.name + ": " + region.reject_reason);
  }
  SynthesizedRegion out;
  out.region = region;
  out.schedule =
      ScheduleRegion(region, alias, options.library, options.schedule);
  if (Status status = VerifySchedule(region, out.schedule, options.library,
                                     options.schedule);
      !status.ok()) {
    return status;
  }
  out.area = EstimateArea(region, out.schedule, options.library);
  out.clock_mhz = AchievableClockMhz(out.schedule, options.schedule);
  out.hw_cycles = EstimateCycles(region, out.schedule);
  out.vhdl = EmitVhdl(region, out.schedule);
  return out;
}

}  // namespace b2h::synth
