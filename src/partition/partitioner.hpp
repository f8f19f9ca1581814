// The paper's three-step hardware/software partitioner (§3).
//
//   "Our partitioning algorithm proceeds in three steps.  In the first
//    step, we use profiling results to identify the most frequent few
//    loops, which generally correspond to 90 percent of execution ...
//    In the second step, we use alias information to find regions of code
//    that access the same memory locations as the loops in the hardware
//    partition.  If space allows, we include these regions ... so that the
//    required memory locations can be moved to memory within the FPGA ...
//    In the third step, we continue to add regions to the hardware
//    partition based on profiling results and hardware suitability until
//    the area constraint is violated."
//
// Deliberately simple and fast (the paper targets eventual use in *dynamic*
// partitioning), in contrast to the cited global optimization approaches
// (Henkel; Kalavade/Lee).  The algorithm is the "paper-greedy" entry of
// the partition::StrategyRegistry (strategy.hpp); this header holds the
// result types every strategy shares and the estimate fold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decomp/pipeline.hpp"
#include "partition/estimate.hpp"
#include "partition/platform.hpp"
#include "synth/synth.hpp"

namespace b2h::partition {

/// Synthesis setup every strategy hands to the CandidateSet memo.  The
/// three steps and the 90-10 coverage target are fixed (strategy_greedy.cpp).
struct PartitionOptions {
  synth::SynthOptions synth;
};

enum class SelectedBy : std::uint8_t {
  kFrequency,  ///< paper step 1: most frequent loops
  kAlias,      ///< paper step 2: alias-connected regions
  kGreedy,     ///< paper step 3: greedy fill under the area budget
  kOptimal,    ///< chosen by the knapsack-optimal strategy
  kAnnealing,  ///< chosen by the annealing strategy
};

struct SelectedRegion {
  synth::SynthesizedRegion synthesized;
  SelectedBy selected_by = SelectedBy::kFrequency;
  std::uint64_t sw_cycles = 0;
  std::uint64_t invocations = 1;
  std::uint64_t comm_words = 0;
  std::uint64_t mem_accesses = 0;
  bool arrays_resident = false;
  std::vector<int> alias_regions;  ///< region ids the kernel touches
};

struct PartitionResult {
  std::vector<SelectedRegion> hw;
  std::vector<std::string> rejected;  ///< regions skipped and why
  double area_used_gates = 0.0;
  double area_budget_gates = 0.0;
  std::uint64_t total_sw_cycles = 0;
  double loop_coverage = 0.0;  ///< fraction of cycles in candidate loops
};

/// Fold a partition into the application-level performance/energy numbers.
[[nodiscard]] AppEstimate EstimatePartition(const PartitionResult& partition,
                                            const Platform& platform);

/// Rejection reasons deduplicated in first-seen order, for display: the
/// greedy strategy may attempt — and reject — the same candidate in more
/// than one step.
[[nodiscard]] std::vector<std::string> UniqueRejections(
    const std::vector<std::string>& rejected);

}  // namespace b2h::partition
