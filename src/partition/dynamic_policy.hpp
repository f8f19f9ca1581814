// Online selection policy for dynamic hardware/software partitioning.
//
// The static three-step partitioner (partitioner.hpp) sees the whole profile
// at once; a *dynamic* partitioner (paper §6, and Lysecky/Vahid's warp
// processing studies) must decide kernel by kernel as loops cross a hotness
// threshold, with only the execution observed so far.  This header holds the
// pieces of that decision that are pure policy — threshold configuration,
// the per-iteration profitability gate, kernel pricing, and the eviction
// plan — so they can be unit-tested without a simulator and reused by any
// runtime (the src/dynamic/ subsystem is the in-repo client).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "partition/estimate.hpp"
#include "partition/platform.hpp"

namespace b2h::partition {

/// Tunables of the online detector + swap-in decision.  The rest of the
/// policy is fixed, as in an on-chip partitioner: a 64-entry detector, a
/// candidate is swapped in only when its projected per-iteration speedup
/// is at least 1.0, lower-value kernels are evicted to make room for a
/// higher-value newcomer (PlanEviction), and a mapped kernel is replaced
/// when a loop strictly containing it becomes hot and profitable, which
/// converges toward the static outer-nest choice.
struct DynamicPolicy {
  /// Taken backward branches observed on one header before it is hot.
  /// Warp-style runtimes use thousands; the default suits this repo's
  /// miniature benchmark runs (tens of thousands of instructions) so that
  /// outer loops — the profitable nests — still cross it mid-run.
  std::uint64_t hot_threshold = 100;
  /// Simulated-time model of the online CAD work (incremental decompile +
  /// synthesis): how many *simulated CPU cycles* one host wall-clock
  /// millisecond of CAD corresponds to.  The default models CAD running
  /// inline on the paper's 200 MHz CPU (1 ms = 200k cycles); 0 disables the
  /// conversion (CAD is free in simulated time, as before this knob).
  double cad_cycles_per_ms = 200'000.0;
};

/// Cost model of one dynamically synthesized kernel, fixed at swap-in time.
/// Memory traffic is the dynamic flow's structural handicap: lacking the
/// static flow's global alias view, the runtime cannot prove arrays are
/// touched by hardware only, so it either stages the array footprint into
/// BRAM *per invocation* (DMA in + out) or leaves accesses on the system
/// bus — whichever is cheaper for the observed access pattern.
struct DynamicKernelModel {
  double hw_cycles_per_iteration = 0.0;
  double kernel_clock_mhz = 100.0;
  double iterations_per_entry = 1.0;       ///< observed average trip count
  double mem_accesses_per_iteration = 0.0;
  std::uint64_t array_footprint_words = 0; ///< staged per invocation if DMA
};

/// True when staging the footprint per invocation beats per-access bus
/// traffic for this model.
[[nodiscard]] bool PrefersDmaStaging(const Platform& platform,
                                     const DynamicKernelModel& model);

/// Hardware seconds (execution + setup + the cheaper memory strategy) for a
/// given amount of observed work under `model`.
[[nodiscard]] double DynamicHwSeconds(const Platform& platform,
                                      const DynamicKernelModel& model,
                                      double iterations, double invocations,
                                      double mem_accesses);

/// Projected speedup of moving one loop iteration to hardware, mirroring the
/// static greedy step's profitability test: per-invocation costs are
/// amortized over the observed iterations per entry.
[[nodiscard]] double ProjectedIterationSpeedup(const Platform& platform,
                                               double sw_cycles_per_iter,
                                               const DynamicKernelModel& model);

/// Price a dynamically mapped kernel from its observed post-swap statistics,
/// producing the same KernelEstimate the static estimator consumes
/// (CombineEstimates fills the derived time/speedup fields).  When DMA
/// staging wins, `comm_words` carries the *total* staged traffic
/// (2 x footprint x invocations) and arrays_resident is set, so
/// CombineEstimates prices exactly the per-invocation staging model.
[[nodiscard]] KernelEstimate PriceDynamicKernel(
    std::string name, const Platform& platform,
    const DynamicKernelModel& model, std::uint64_t sw_cycles,
    std::uint64_t iterations, std::uint64_t invocations,
    std::uint64_t mem_accesses, double area_gates);

/// One mapped kernel's standing, input to the eviction plan.
struct ActiveKernel {
  std::size_t id = 0;          ///< caller's handle (e.g. hardware-range id)
  double area_gates = 0.0;
  double value_density = 0.0;  ///< saved seconds per gate, observed so far
};

/// Plan evictions to fit a candidate needing `candidate_gates`: evict active
/// kernels in ascending value density until the candidate fits, but only if
/// every evicted kernel is strictly less valuable per gate than the
/// candidate.  Returns the ids to evict (possibly empty when the candidate
/// already fits), or nullopt when the candidate should be rejected.
[[nodiscard]] std::optional<std::vector<std::size_t>> PlanEviction(
    std::vector<ActiveKernel> active, double area_budget_gates,
    double area_used_gates, double candidate_gates,
    double candidate_value_density);

}  // namespace b2h::partition
