// Dynamic hardware/software partitioning: partition *while the program
// runs*.
//
// The source paper's whole argument for decompilation-based partitioning is
// that it is fast and source-free enough to run dynamically, on-chip, while
// the application executes (paper §1, §6).  This subsystem closes that loop
// as a cosimulation:
//
//   1. The MIPS simulator executes the binary with the instrumentation
//      hooks enabled (mips::RunObserver).
//   2. An online detector (HotRegionCache) watches taken backward branches;
//      when a loop header crosses the hotness threshold, the partitioner
//   3. incrementally decompiles just the enclosing function
//      (PassManager::RunAt), synthesizes the loop, checks area and
//      profitability (partition::DynamicPolicy), and
//   4. swaps the kernel in: the simulator keeps executing the loop
//      functionally (semantics never change), but its instructions are
//      accounted into a hardware range whose CPU cycles are later re-priced
//      at FPGA cycles + communication cost.
//
// The resulting DynamicRun reports the same AppEstimate shape as the static
// flow, so the dynamic outcome can be compared directly against the static
// oracle (Toolchain::RunDynamicOn runs both on the same binary).  Dynamic
// speedups are expected to trail static ones: pre-detection iterations run
// in software, and without the global alias view arrays cannot be made
// FPGA-resident.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mips/binary.hpp"
#include "mips/simulator.hpp"
#include "partition/dynamic_policy.hpp"
#include "partition/estimate.hpp"
#include "partition/platform.hpp"
#include "support/error.hpp"

namespace b2h::dynamic {

/// Region lifts run the `pipeline` spec with IR verification on, and
/// regions synthesize with the default SynthOptions, as in the static flow.
struct DynamicOptions {
  partition::DynamicPolicy policy;
  std::string pipeline = "default";   ///< PassManager spec for region lifts
  std::uint64_t max_instructions = 200'000'000;
};

/// One kernel swap-in, time-stamped in *simulated* time.  The host
/// wall-clock CAD costs are kept for benchmarking but excluded from
/// Report() so reports stay deterministic.
struct SwapEvent {
  std::uint32_t header_pc = 0;
  std::uint32_t range_lo = 0;
  std::uint32_t range_hi = 0;
  std::uint64_t at_instruction = 0;  ///< simulated instructions at swap
  std::uint64_t at_cycle = 0;        ///< simulated CPU cycles at swap
  std::uint64_t detect_count = 0;    ///< detector count at the trigger
  double area_gates = 0.0;
  double clock_mhz = 0.0;
  double hw_cycles_per_iteration = 0.0;
  bool dma_staged = false;  ///< arrays staged into BRAM per invocation
  double projected_speedup = 0.0;    ///< per-iteration gate that admitted it
  std::vector<std::uint32_t> evicted_headers;
  double decompile_ms = 0.0;  ///< host wall clock (not in Report())
  double synth_ms = 0.0;      ///< host wall clock (not in Report())
};

/// Post-swap accounting for one mapped region [lo, hi), derived from
/// profile deltas between the swap-in snapshot and the end of the region's
/// mapped window (eviction or end of run): what the loop *would have cost*
/// on the CPU while its kernel was configured, re-priced at FPGA speed by
/// the estimator.
struct RegionWindowStats {
  std::uint32_t lo = 0;            ///< first pc of the mapped region
  std::uint32_t hi = 0;            ///< one past the last mapped pc
  std::uint32_t header_pc = 0;     ///< loop header (kernel entry point)
  std::uint64_t instructions = 0;  ///< simulated instructions inside
  std::uint64_t cycles = 0;        ///< CPU cycles accrued inside
  std::uint64_t entries = 0;       ///< entries from outside via the header
  std::uint64_t header_hits = 0;   ///< header executions (= loop iterations)
  std::uint64_t mem_accesses = 0;  ///< loads + stores executed inside
};

/// A kernel that was mapped at some point during the run.
struct DynamicKernel {
  std::string name;
  std::uint32_t header_pc = 0;
  bool evicted = false;
  RegionWindowStats observed;           ///< post-swap in-range accounting
  partition::KernelEstimate estimate;   ///< re-priced at FPGA speed
};

struct DynamicRun {
  std::string binary_name;
  std::string platform_name;
  mips::RunResult run;                 ///< the full instrumented run
  std::vector<SwapEvent> swaps;
  std::vector<DynamicKernel> kernels;
  std::vector<std::string> rejected;   ///< declined candidates, with reasons
  partition::AppEstimate estimate;     ///< dynamic application estimate
  std::uint64_t detector_events = 0;   ///< taken backward branches observed
  double time_to_first_kernel_ms = 0;  ///< host wall clock (0 = no kernel)
  double online_cad_ms = 0;            ///< total decompile+synth wall time
  /// Total online CAD cost converted into simulated CPU cycles via
  /// DynamicPolicy::cad_cycles_per_ms (ROADMAP: report CAD latency in
  /// *simulated* time, not just host wall clock).
  std::uint64_t cad_simulated_cycles = 0;
  /// Simulated cycle at which the first kernel is live: the swap's
  /// simulated-time position plus every preceding CAD attempt's converted
  /// cost (0 = no kernel).  With cad_cycles_per_ms = 0 this is exactly
  /// swaps.front().at_cycle.
  std::uint64_t time_to_first_kernel_cycles = 0;

  /// Deterministic report: same binary + config => identical text (host
  /// wall-clock fields are deliberately omitted).
  [[nodiscard]] std::string Report() const;
};

class DynamicPartitioner {
 public:
  explicit DynamicPartitioner(partition::Platform platform,
                              DynamicOptions options = {},
                              std::string platform_name = "custom");

  /// Execute `binary` under the online partitioner.  Fails when the run
  /// does not complete (fault / budget) or the pipeline spec is invalid;
  /// per-candidate decompilation/synthesis failures are recorded in
  /// DynamicRun::rejected, never fatal.
  [[nodiscard]] Result<DynamicRun> Run(
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

 private:
  partition::Platform platform_;
  DynamicOptions options_;
  std::string platform_name_;
};

}  // namespace b2h::dynamic
