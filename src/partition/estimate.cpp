#include "partition/estimate.hpp"

#include <algorithm>
#include <set>

namespace b2h::partition {

std::uint64_t RegionSwCycles(const mips::ExecProfile& profile,
                             const std::vector<std::uint32_t>& all_leaders,
                             const std::vector<std::uint32_t>& region_leaders) {
  std::vector<std::uint32_t> sorted = all_leaders;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const std::set<std::uint32_t> region(region_leaders.begin(),
                                       region_leaders.end());
  std::uint64_t cycles = 0;
  for (std::size_t index = 0; index < profile.cycle_count.size(); ++index) {
    if (profile.cycle_count[index] == 0) continue;
    const std::uint32_t pc =
        mips::kTextBase + static_cast<std::uint32_t>(index) * 4u;
    // Leader of this pc = greatest leader <= pc.
    auto it = std::upper_bound(sorted.begin(), sorted.end(), pc);
    if (it == sorted.begin()) continue;
    --it;
    if (region.count(*it) != 0) cycles += profile.cycle_count[index];
  }
  return cycles;
}

std::uint64_t ArrayFootprintWords(const decomp::AliasAnalysis& alias,
                                  const std::set<int>& regions,
                                  const mips::SoftBinary& binary) {
  // Sorted data symbol addresses to derive extents.
  std::vector<std::uint32_t> addresses;
  for (const auto& [name, addr] : binary.symbols) {
    if (addr >= mips::kDataBase) addresses.push_back(addr);
  }
  std::sort(addresses.begin(), addresses.end());
  const std::uint32_t data_end =
      mips::kDataBase + static_cast<std::uint32_t>(binary.data.size());

  std::uint64_t words = 0;
  for (int id : regions) {
    if (id < 0 || static_cast<std::size_t>(id) >= alias.regions().size()) {
      words += 64;  // unknown region: charge a default block
      continue;
    }
    const decomp::MemRegion& region = alias.regions()[id];
    if (region.kind != decomp::MemRegion::Kind::kGlobal) continue;
    const auto base = static_cast<std::uint32_t>(region.key);
    auto it = std::upper_bound(addresses.begin(), addresses.end(), base);
    const std::uint32_t end = it != addresses.end() ? *it : data_end;
    words += std::max<std::uint32_t>(1, (end - base) / 4u);
  }
  return words;
}

AppEstimate CombineEstimates(const Platform& platform,
                             std::uint64_t total_sw_cycles,
                             std::vector<KernelEstimate> kernels) {
  AppEstimate app;
  CombineEstimates(platform, total_sw_cycles, kernels, &app);
  app.kernels = std::move(kernels);
  return app;
}

void CombineEstimates(const Platform& platform, std::uint64_t total_sw_cycles,
                      std::span<KernelEstimate> kernels, AppEstimate* app) {
  const double cpu_hz = platform.cpu.clock_mhz * 1e6;
  app->sw_time = static_cast<double>(total_sw_cycles) / cpu_hz;
  app->area_gates = 0.0;

  std::uint64_t moved_cycles = 0;
  double hw_time_total = 0.0;
  double kernel_speedup_sum = 0.0;
  double hw_power = platform.fpga.static_watts;
  for (KernelEstimate& kernel : kernels) {
    const double fpga_hz = kernel.hw_clock_mhz * 1e6;
    kernel.sw_time = static_cast<double>(kernel.sw_cycles) / cpu_hz;
    // Start/stop handshakes per invocation.  Resident arrays pay a single
    // up-front DMA; non-resident arrays pay a bus penalty on every access.
    const double comm_cycles =
        static_cast<double>(kernel.invocations) *
            platform.comm.setup_cycles +
        (kernel.arrays_resident
             ? static_cast<double>(kernel.comm_words) *
                   platform.comm.cycles_per_word
             : static_cast<double>(kernel.mem_accesses) *
                   platform.comm.bus_penalty_cycles);
    kernel.hw_time =
        (static_cast<double>(kernel.hw_cycles) + comm_cycles) / fpga_hz;
    kernel.kernel_speedup =
        kernel.hw_time > 0.0 ? kernel.sw_time / kernel.hw_time : 1.0;
    moved_cycles += kernel.sw_cycles;
    hw_time_total += kernel.hw_time;
    kernel_speedup_sum += kernel.kernel_speedup;
    app->area_gates += kernel.area_gates;
    hw_power += platform.fpga.dynamic_watts(kernel.area_gates,
                                            kernel.hw_clock_mhz);
  }
  moved_cycles = std::min(moved_cycles, total_sw_cycles);
  const double remaining_time =
      static_cast<double>(total_sw_cycles - moved_cycles) / cpu_hz;
  app->partitioned_time = remaining_time + hw_time_total;
  app->speedup = app->partitioned_time > 0.0
                     ? app->sw_time / app->partitioned_time
                     : 1.0;
  app->avg_kernel_speedup =
      kernels.empty() ? 0.0 : kernel_speedup_sum / kernels.size();

  // Energy.  Baseline = MIPS-only platform (the paper compares "to a MIPS
  // processor running at 200 MHz").  Partitioned platform: CPU active while
  // it computes, idle (clock-gated fraction) while the FPGA runs; FPGA
  // draws static power whenever configured plus dynamic while active.
  const double cpu_active = platform.cpu.active_watts();
  app->sw_energy = cpu_active * app->sw_time;
  if (kernels.empty()) {
    // Nothing mapped to hardware: the FPGA is left unconfigured.
    app->partitioned_energy = app->sw_energy;
  } else {
    app->partitioned_energy =
        cpu_active * remaining_time +
        platform.cpu.idle_watts() * hw_time_total +
        hw_power * hw_time_total +
        platform.fpga.static_watts * remaining_time;
  }
  app->energy_savings =
      app->sw_energy > 0.0
          ? 1.0 - app->partitioned_energy / app->sw_energy
          : 0.0;
}

}  // namespace b2h::partition
