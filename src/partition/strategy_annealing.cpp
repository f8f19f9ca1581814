// Randomized refinement of the greedy selection: simulated annealing over
// candidate subsets with a seeded RNG.
//
// Starts from the paper-greedy subset, proposes single-candidate toggles,
// and accepts worse moves with a temperature that cools linearly to zero.
// The best subset ever visited wins (which includes the start, so the
// result never falls below the greedy baseline under its own scoring).
// Deterministic for a fixed StrategyOptions::seed: the RNG is the only
// source of randomness and the proposal/acceptance sequence is replayed
// identically.
#include <algorithm>
#include <cmath>
#include <random>

#include "partition/candidates.hpp"
#include "partition/strategy.hpp"
#include "support/error.hpp"

namespace b2h::partition {
namespace {

class AnnealingStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "annealing"; }

  [[nodiscard]] Result<PartitionResult> Partition(
      const decomp::DecompiledProgram& program,
      const mips::ExecProfile& profile, const Platform& platform,
      const PartitionOptions& options,
      const StrategyOptions& strategy_options) const override {
    const std::shared_ptr<const CandidateSet> shared =
        ObtainCandidates(program, profile, strategy_options.candidates);
    const CandidateSet& set = *shared;
    const ViableCandidates viable_set =
        FilterViableCandidates(set, platform, options);
    const std::vector<std::size_t>& viable = viable_set.ids;

    // Start (and incumbent): the greedy subset.
    std::vector<std::size_t> current =
        GreedyChosenSubset(set, platform, options);
    SubsetScorer scorer(set, platform, options, viable, current);
    const AppEstimate* start = scorer.Score(current);
    Check(start != nullptr, "annealing: greedy start infeasible");
    double current_score = ObjectiveScore(*start, strategy_options.objective);
    // Each subset buffer can hold the whole set, so the loop below only
    // copies and swaps them: no proposal allocates.
    std::vector<std::size_t> best;
    std::vector<std::size_t> proposal;
    current.reserve(set.size());
    best.reserve(set.size());
    proposal.reserve(set.size());
    best = current;
    double best_score = current_score;

    std::mt19937_64 rng(strategy_options.seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const unsigned iterations =
        viable.empty() ? 0 : strategy_options.annealing_iterations;
    for (unsigned iter = 0; iter < iterations; ++iter) {
      const std::size_t pick = static_cast<std::size_t>(
          rng() % static_cast<std::uint64_t>(viable.size()));
      const std::size_t id = viable[pick];

      proposal = current;
      const auto it = std::find(proposal.begin(), proposal.end(), id);
      if (it != proposal.end()) {
        proposal.erase(it);
      } else {
        proposal.insert(
            std::lower_bound(proposal.begin(), proposal.end(), id), id);
      }
      const AppEstimate* estimate = scorer.Score(proposal);
      if (estimate == nullptr) continue;  // infeasible move
      const double score =
          ObjectiveScore(*estimate, strategy_options.objective);

      // Linear cooling; the acceptance scale is relative so the schedule
      // works for speedups (~1..10) and energies (~1e-4 J) alike.
      const double temperature =
          0.1 * (1.0 - static_cast<double>(iter) /
                           static_cast<double>(iterations));
      const double scale =
          std::max(std::abs(current_score), 1e-12) * temperature;
      const bool accept =
          score > current_score ||
          (scale > 0.0 &&
           std::exp((score - current_score) / scale) > unit(rng));
      if (!accept) continue;
      current.swap(proposal);
      current_score = score;
      if (current_score > best_score) {
        best_score = current_score;
        best = current;
      }
    }

    std::sort(best.begin(), best.end());
    return CommitSubset(set, platform, options, best, SelectedBy::kAnnealing,
                        viable_set, "excluded by annealed selection");
  }

  [[nodiscard]] std::string OptionsFingerprint(
      const StrategyOptions& options) const override {
    return "seed=" + std::to_string(options.seed) +
           ",iters=" + std::to_string(options.annealing_iterations);
  }
};

}  // namespace

std::unique_ptr<Strategy> MakeAnnealingStrategy() {
  return std::make_unique<AnnealingStrategy>();
}

}  // namespace b2h::partition
