// Performance and energy estimation for a partitioned application.
//
// Software time comes from the profiled cycle counts; each hardware kernel
// replaces its software cycles with synthesized cycles at the FPGA clock
// plus communication (kernel start/stop handshakes, and DMA of any arrays
// that the alias step could not make FPGA-resident).  Energy follows the
// platform power model.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "decomp/alias.hpp"
#include "mips/binary.hpp"
#include "mips/simulator.hpp"
#include "partition/platform.hpp"
#include "synth/synth.hpp"

namespace b2h::partition {

struct KernelEstimate {
  std::string name;
  std::uint64_t sw_cycles = 0;    ///< CPU cycles the region took in software
  std::uint64_t hw_cycles = 0;    ///< FPGA cycles (profile-weighted)
  std::uint64_t invocations = 1;
  std::uint64_t comm_words = 0;     ///< array words DMAed once if resident
  std::uint64_t mem_accesses = 0;   ///< profile-weighted loads+stores
  bool arrays_resident = false;   ///< alias step moved arrays into the FPGA
  double hw_clock_mhz = 100.0;
  double area_gates = 0.0;

  double sw_time = 0.0;       ///< seconds
  double hw_time = 0.0;       ///< seconds incl. communication
  double kernel_speedup = 0.0;
};

struct AppEstimate {
  double sw_time = 0.0;          ///< all-software execution time
  double partitioned_time = 0.0;
  double speedup = 1.0;
  double avg_kernel_speedup = 0.0;
  double sw_energy = 0.0;
  double partitioned_energy = 0.0;
  double energy_savings = 0.0;   ///< fraction in [0,1)
  double area_gates = 0.0;
  std::vector<KernelEstimate> kernels;
};

/// Map profiled per-PC cycles onto a set of region leader addresses.
/// `region_leaders` holds the start_pc of every block in the region;
/// `all_leaders` the start_pc of every block in the module (to bucket PCs).
[[nodiscard]] std::uint64_t RegionSwCycles(
    const mips::ExecProfile& profile,
    const std::vector<std::uint32_t>& all_leaders,
    const std::vector<std::uint32_t>& region_leaders);

/// Estimate the word footprint of the arrays in `regions`, using data
/// symbols to derive extents when the binary carries them (assembler output
/// does).  Shared by the static alias step and the dynamic DMA-staging
/// model.
[[nodiscard]] std::uint64_t ArrayFootprintWords(
    const decomp::AliasAnalysis& alias, const std::set<int>& regions,
    const mips::SoftBinary& binary);

/// Combine kernel estimates into the application-level numbers.
[[nodiscard]] AppEstimate CombineEstimates(
    const Platform& platform, std::uint64_t total_sw_cycles,
    std::vector<KernelEstimate> kernels);

/// The same formula over a kernel buffer the caller owns, for search loops
/// that price many subsets: fills each kernel's time and speedup fields in
/// place and writes the application-level numbers to `*app`, leaving
/// `app->kernels` untouched.  Allocates nothing.
void CombineEstimates(const Platform& platform, std::uint64_t total_sw_cycles,
                      std::span<KernelEstimate> kernels, AppEstimate* app);

}  // namespace b2h::partition
