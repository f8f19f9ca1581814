#include "partition/dynamic_policy.hpp"

#include <algorithm>
#include <cmath>

namespace b2h::partition {

namespace {

/// DMA cycles per invocation when staging the footprint in and out.
double DmaCyclesPerEntry(const Platform& platform,
                         const DynamicKernelModel& model) {
  return 2.0 * static_cast<double>(model.array_footprint_words) *
         platform.comm.cycles_per_word;
}

/// Bus-penalty cycles per invocation when accesses stay on the system bus.
double BusCyclesPerEntry(const Platform& platform,
                         const DynamicKernelModel& model) {
  return model.mem_accesses_per_iteration *
         std::max(1.0, model.iterations_per_entry) *
         platform.comm.bus_penalty_cycles;
}

}  // namespace

bool PrefersDmaStaging(const Platform& platform,
                       const DynamicKernelModel& model) {
  return model.array_footprint_words > 0 &&
         DmaCyclesPerEntry(platform, model) <
             BusCyclesPerEntry(platform, model);
}

double DynamicHwSeconds(const Platform& platform,
                        const DynamicKernelModel& model, double iterations,
                        double invocations, double mem_accesses) {
  const double fpga_hz =
      std::min(model.kernel_clock_mhz, platform.fpga.clock_mhz_cap) * 1e6;
  if (fpga_hz <= 0.0) return 0.0;
  const double comm_per_entry = PrefersDmaStaging(platform, model)
                                    ? DmaCyclesPerEntry(platform, model)
                                    : 0.0;
  const double bus_cycles = PrefersDmaStaging(platform, model)
                                ? 0.0
                                : mem_accesses *
                                      platform.comm.bus_penalty_cycles;
  const double cycles =
      model.hw_cycles_per_iteration * iterations +
      invocations * (platform.comm.setup_cycles + comm_per_entry) +
      bus_cycles;
  return cycles / fpga_hz;
}

double ProjectedIterationSpeedup(const Platform& platform,
                                 double sw_cycles_per_iter,
                                 const DynamicKernelModel& model) {
  const double cpu_hz = platform.cpu.clock_mhz * 1e6;
  if (cpu_hz <= 0.0 || sw_cycles_per_iter <= 0.0) return 0.0;
  const double invocations = 1.0 / std::max(1.0, model.iterations_per_entry);
  const double hw_seconds =
      DynamicHwSeconds(platform, model, 1.0, invocations,
                       model.mem_accesses_per_iteration);
  const double sw_seconds = sw_cycles_per_iter / cpu_hz;
  return hw_seconds > 0.0 ? sw_seconds / hw_seconds : 0.0;
}

KernelEstimate PriceDynamicKernel(std::string name, const Platform& platform,
                                  const DynamicKernelModel& model,
                                  std::uint64_t sw_cycles,
                                  std::uint64_t iterations,
                                  std::uint64_t invocations,
                                  std::uint64_t mem_accesses,
                                  double area_gates) {
  KernelEstimate kernel;
  kernel.name = std::move(name);
  kernel.sw_cycles = sw_cycles;
  kernel.hw_cycles = static_cast<std::uint64_t>(std::ceil(
      model.hw_cycles_per_iteration * static_cast<double>(iterations)));
  // A swap mid-invocation observes zero post-swap entries while iterations
  // still run in hardware; that in-flight invocation must pay its setup and
  // staging once.  Only a kernel that never executed costs nothing.
  kernel.invocations =
      iterations > 0 ? std::max<std::uint64_t>(1, invocations) : invocations;
  if (PrefersDmaStaging(platform, model)) {
    // Per-invocation staging: comm_words carries the TOTAL staged traffic,
    // which CombineEstimates prices once (the resident branch).
    kernel.arrays_resident = true;
    kernel.comm_words =
        2u * model.array_footprint_words * kernel.invocations;
    kernel.mem_accesses = 0;
  } else {
    kernel.arrays_resident = false;
    kernel.comm_words = 0;
    kernel.mem_accesses = mem_accesses;
  }
  kernel.hw_clock_mhz =
      std::min(model.kernel_clock_mhz, platform.fpga.clock_mhz_cap);
  kernel.area_gates = area_gates;
  return kernel;
}

std::optional<std::vector<std::size_t>> PlanEviction(
    std::vector<ActiveKernel> active, double area_budget_gates,
    double area_used_gates, double candidate_gates,
    double candidate_value_density) {
  if (candidate_gates > area_budget_gates) return std::nullopt;
  if (area_used_gates + candidate_gates <= area_budget_gates) {
    return std::vector<std::size_t>{};
  }

  std::sort(active.begin(), active.end(),
            [](const ActiveKernel& a, const ActiveKernel& b) {
              return a.value_density < b.value_density;
            });
  std::vector<std::size_t> evict;
  double freed = 0.0;
  for (const ActiveKernel& kernel : active) {
    if (area_used_gates - freed + candidate_gates <= area_budget_gates) break;
    if (kernel.value_density >= candidate_value_density) return std::nullopt;
    evict.push_back(kernel.id);
    freed += kernel.area_gates;
  }
  if (area_used_gates - freed + candidate_gates > area_budget_gates) {
    return std::nullopt;
  }
  return evict;
}

}  // namespace b2h::partition
