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
//
// Each subset is scored once.  Toggles only ever touch the n viable
// candidates, so the walk visits at most 2^n subsets.  When n <= 16 and
// 2^n <= annealing_iterations, every one of them is scored up front into a
// table (never more subsets than the walk would score) and the walk reads
// its proposals from it.  The table also holds the best score any subset
// reaches.  `best` moves only on a strict improvement, so once it equals
// that maximum nothing can replace it, and the walk stops there: the
// result is the one the full walk of annealing_iterations proposals
// returns.  Above those sizes every proposal is scored as it is drawn.
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <span>

#include "obs/obs.hpp"
#include "partition/candidates.hpp"
#include "partition/strategy.hpp"
#include "support/error.hpp"

namespace b2h::partition {
namespace {

/// Largest viable-candidate count that gets a score table (2^16 entries).
constexpr std::size_t kMaxTableCandidates = 16;

/// Proposals the walk made, summed over calls: a deterministic work count
/// for a fixed request mix (a rise means the exact stop fires less).
obs::Counter& ProposalsCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().counter("partition.annealing.proposals");
  return counter;
}

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
    const std::size_t n = viable.size();

    // Start (and incumbent): the greedy subset.  The walk state is a bitset
    // over positions in `viable` (ascending ids); start members that are
    // not viable (alias-step picks without profile weight) never toggle.
    const std::vector<std::size_t> start =
        GreedyChosenSubset(set, platform, options);
    SubsetScorer scorer(set, platform, options, viable, start);
    std::vector<std::size_t> fixed;
    std::vector<std::uint64_t> current((n + 63) / 64, 0);
    for (std::size_t id : start) {
      const auto it = std::lower_bound(viable.begin(), viable.end(), id);
      if (it != viable.end() && *it == id) {
        const auto v = static_cast<std::size_t>(it - viable.begin());
        current[v / 64] ^= std::uint64_t{1} << (v % 64);
      } else {
        fixed.push_back(id);
      }
    }

    // The subset a state stands for: the fixed members merged with the
    // set positions' ids, ascending.  That is the sorted id list a walk
    // over id lists holds, so the scorer sums areas in the same order.
    std::vector<std::size_t> subset;
    subset.reserve(set.size());
    const auto subset_of = [&](std::span<const std::uint64_t> state) {
      subset.clear();
      auto next_fixed = fixed.begin();
      for (std::size_t v = 0; v < n; ++v) {
        if (((state[v / 64] >> (v % 64)) & 1u) == 0) continue;
        while (next_fixed != fixed.end() && *next_fixed < viable[v]) {
          subset.push_back(*next_fixed++);
        }
        subset.push_back(viable[v]);
      }
      subset.insert(subset.end(), next_fixed, fixed.end());
    };
    const auto score_now =
        [&](std::span<const std::uint64_t> state) -> std::optional<double> {
      subset_of(state);
      const AppEstimate* estimate = scorer.Score(subset);
      if (estimate == nullptr) return std::nullopt;
      return ObjectiveScore(*estimate, strategy_options.objective);
    };

    const unsigned iterations =
        n == 0 ? 0 : strategy_options.annealing_iterations;
    std::vector<std::optional<double>> table;
    double max_score = -std::numeric_limits<double>::infinity();
    if (n <= kMaxTableCandidates && (std::size_t{1} << n) <= iterations) {
      table.resize(std::size_t{1} << n);
      for (std::uint64_t mask = 0; mask < table.size(); ++mask) {
        table[mask] = score_now({&mask, 1});
        if (table[mask].has_value() && *table[mask] > max_score) {
          max_score = *table[mask];
        }
      }
    }
    const auto score_of = [&](std::span<const std::uint64_t> state) {
      return table.empty() ? score_now(state) : table[state[0]];
    };

    const std::optional<double> start_score = score_of(current);
    Check(start_score.has_value(), "annealing: greedy start infeasible");
    double current_score = *start_score;
    std::vector<std::uint64_t> best = current;
    std::vector<std::uint64_t> proposal = current;
    double best_score = current_score;

    std::mt19937_64 rng(strategy_options.seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    unsigned proposals = 0;
    for (unsigned iter = 0; iter < iterations; ++iter) {
      // No subset beats the table's maximum (a NaN best never equals it).
      if (!table.empty() && best_score == max_score) break;
      ++proposals;
      const std::size_t pick = static_cast<std::size_t>(
          rng() % static_cast<std::uint64_t>(n));
      proposal = current;
      proposal[pick / 64] ^= std::uint64_t{1} << (pick % 64);
      const std::optional<double> score = score_of(proposal);
      if (!score.has_value()) continue;  // infeasible move

      // Linear cooling; the acceptance scale is relative so the schedule
      // works for speedups (~1..10) and energies (~1e-4 J) alike.
      const double temperature =
          0.1 * (1.0 - static_cast<double>(iter) /
                           static_cast<double>(iterations));
      const double scale =
          std::max(std::abs(current_score), 1e-12) * temperature;
      const bool accept =
          *score > current_score ||
          (scale > 0.0 &&
           std::exp((*score - current_score) / scale) > unit(rng));
      if (!accept) continue;
      current.swap(proposal);
      current_score = *score;
      if (current_score > best_score) {
        best_score = current_score;
        best = current;
      }
    }
    ProposalsCounter().Add(proposals);

    subset_of(best);
    return CommitSubset(set, platform, options, subset,
                        SelectedBy::kAnnealing, viable_set,
                        "excluded by annealed selection");
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
