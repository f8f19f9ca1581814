// The paper's three-step heuristic as a pluggable Strategy.
//
// This is a faithful transplant of the original single-policy partitioner
// onto the shared CandidateSet/SelectionState machinery: same candidate
// order, same attempt order, same rejection wording, so its results are
// bit-identical to the pre-strategy implementation.
#include <cstdint>
#include <span>
#include <vector>

#include "partition/candidates.hpp"
#include "partition/strategy.hpp"

namespace b2h::partition {
namespace {

/// Step 1 stops once the selected loops cover this share of the loop
/// cycles: the paper's 90-10 rule.
constexpr double kCoverageTarget = 0.90;

}  // namespace

void PaperGreedySelect(const CandidateSet& set, SelectionState& state) {
  const std::vector<Candidate>& candidates = set.candidates();

  // ---- Step 1: most frequent loops up to the coverage target -------------
  std::uint64_t covered = 0;
  for (std::size_t id = 0; id < candidates.size(); ++id) {
    if (set.loop_cycles_total() == 0) break;
    if (static_cast<double>(covered) >=
        kCoverageTarget * static_cast<double>(set.loop_cycles_total())) {
      break;
    }
    if (candidates[id].sw_cycles == 0) break;
    if (state.TrySelect(id, SelectedBy::kFrequency)) {
      covered += candidates[id].sw_cycles;
    }
  }

  // ---- Step 2: alias-connected regions -----------------------------------
  // The current hardware partition, a bitset row over candidate ids.
  std::vector<std::uint64_t> hw_row(set.row_words(), 0);
  for (std::size_t id : state.chosen()) {
    hw_row[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  for (std::size_t id = 0; id < candidates.size(); ++id) {
    if (state.selected(id)) continue;
    const std::span<const std::uint64_t> arrays = set.array_row(id);
    for (std::size_t w = 0; w < arrays.size(); ++w) {
      if ((arrays[w] & hw_row[w]) != 0) {
        (void)state.TrySelect(id, SelectedBy::kAlias);
        break;
      }
    }
  }
  state.ComputeResidency();

  // ---- Step 3: greedy fill until the area constraint ---------------------
  for (std::size_t id = 0; id < candidates.size(); ++id) {
    if (state.selected(id) || candidates[id].sw_cycles == 0) continue;
    (void)state.TrySelect(id, SelectedBy::kGreedy);
  }
}

namespace {

class PaperGreedyStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "paper-greedy";
  }
  // The paper heuristic always chases frequency/coverage; the objective
  // knob does not change its answer.
  [[nodiscard]] bool objective_sensitive() const override { return false; }

  [[nodiscard]] Result<PartitionResult> Partition(
      const decomp::DecompiledProgram& program,
      const mips::ExecProfile& profile, const Platform& platform,
      const PartitionOptions& options,
      const StrategyOptions& strategy_options) const override {
    const std::shared_ptr<const CandidateSet> shared =
        ObtainCandidates(program, profile, strategy_options.candidates);
    const CandidateSet& set = *shared;
    SelectionState state(set, platform, options);
    PaperGreedySelect(set, state);
    return state.Take();
  }
};

}  // namespace

std::unique_ptr<Strategy> MakePaperGreedyStrategy() {
  return std::make_unique<PaperGreedyStrategy>();
}

}  // namespace b2h::partition
