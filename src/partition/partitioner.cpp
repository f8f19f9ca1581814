#include "partition/partitioner.hpp"

#include <algorithm>

namespace b2h::partition {

AppEstimate EstimatePartition(const PartitionResult& partition,
                              const Platform& platform) {
  std::vector<KernelEstimate> kernels;
  kernels.reserve(partition.hw.size());
  for (const SelectedRegion& selected : partition.hw) {
    KernelEstimate kernel;
    kernel.name = selected.synthesized.region.name;
    kernel.sw_cycles = selected.sw_cycles;
    kernel.hw_cycles = selected.synthesized.hw_cycles;
    kernel.invocations = selected.invocations;
    kernel.comm_words = selected.comm_words;
    kernel.mem_accesses = selected.mem_accesses;
    kernel.arrays_resident = selected.arrays_resident;
    kernel.hw_clock_mhz =
        std::min(selected.synthesized.clock_mhz, platform.fpga.clock_mhz_cap);
    kernel.area_gates = selected.synthesized.area.total_gates;
    kernels.push_back(std::move(kernel));
  }
  return CombineEstimates(platform, partition.total_sw_cycles,
                          std::move(kernels));
}

std::vector<std::string> UniqueRejections(
    const std::vector<std::string>& rejected) {
  std::vector<std::string> unique;
  for (const std::string& reason : rejected) {
    if (std::find(unique.begin(), unique.end(), reason) == unique.end()) {
      unique.push_back(reason);
    }
  }
  return unique;
}

}  // namespace b2h::partition
