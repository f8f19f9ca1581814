// Exact region selection under the gate budget: branch-and-bound over the
// candidate regions.
//
// The paper deliberately avoids global optimization ("simple and fast", in
// contrast to Henkel and Kalavade/Lee); this strategy is the quantified
// other side of that trade: it searches overlap-free candidate subsets that
// fit the FPGA area budget and keeps the subset with the best objective
// score.  Exactness comes cheap on this suite — candidate counts are the
// handful of loops per benchmark — and two safeguards keep it robust:
//
//   * the paper-greedy solution seeds the incumbent, so the result is never
//     worse than the heuristic it is being compared against;
//   * inputs with more than kExactCandidateCap viable candidates are
//     truncated to the highest-cycle ones (recorded in `rejected`) instead
//     of exploding the search.
//
// For the speedup objective the search prunes with an admissible bound
// (best-case saved seconds ignore all communication costs); energy-style
// objectives are not monotone in saved time, so they fall back to the
// feasibility-pruned exhaustive walk.
#include <algorithm>
#include <cmath>

#include "partition/candidates.hpp"
#include "partition/strategy.hpp"
#include "support/error.hpp"

namespace b2h::partition {
namespace {

/// Candidate-count ceiling of the exact search with the speedup bound; the
/// unbounded exhaustive walk of the other objectives stops at 16.
constexpr std::size_t kExactCandidateCap = 20;

class KnapsackStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "knapsack-optimal";
  }

  [[nodiscard]] Result<PartitionResult> Partition(
      const decomp::DecompiledProgram& program,
      const mips::ExecProfile& profile, const Platform& platform,
      const PartitionOptions& options,
      const StrategyOptions& strategy_options) const override {
    const std::shared_ptr<const CandidateSet> shared =
        ObtainCandidates(program, profile, strategy_options.candidates);
    const CandidateSet& set = *shared;
    const std::vector<Candidate>& candidates = set.candidates();
    const double budget = platform.fpga.budget_gates();

    ViableCandidates viable_set =
        FilterViableCandidates(set, platform, options);
    std::vector<std::size_t>& viable = viable_set.ids;

    // The admissible saved-seconds bound only exists for the speedup
    // objective (energy is not monotone in saved time); the unbounded
    // exhaustive fallback gets a tighter candidate cap so a pathological
    // input cannot explode the walk to 2^20 subset evaluations.
    const bool use_bound =
        strategy_options.objective == Objective::kSpeedup;
    const std::size_t cap = use_bound ? kExactCandidateCap : 16;
    std::vector<std::size_t> capped;
    if (viable.size() > cap) {
      capped.assign(viable.begin() + cap, viable.end());
      viable.resize(cap);
    }

    // Incumbent: the paper-greedy subset, scored under this strategy's
    // whole-subset residency rules.  Guarantees result >= greedy.
    std::vector<std::size_t> best = GreedyChosenSubset(set, platform, options);
    SubsetScorer scorer(set, platform, options, viable, best);
    const AppEstimate* incumbent = scorer.Score(best);
    Check(incumbent != nullptr, "knapsack: incumbent subset infeasible");
    double best_score = ObjectiveScore(*incumbent, strategy_options.objective);
    double best_saved = incumbent->sw_time - incumbent->partitioned_time;

    // Per-candidate best case (for the admissible speedup bound): saved
    // seconds with zero communication cost.
    const double cpu_hz = platform.cpu.clock_mhz * 1e6;
    std::vector<double> best_case(viable.size(), 0.0);
    for (std::size_t v = 0; v < viable.size(); ++v) {
      const KernelEstimate& metrics = scorer.metrics(viable[v]);
      const double fpga_hz = metrics.hw_clock_mhz * 1e6;
      best_case[v] = static_cast<double>(metrics.sw_cycles) / cpu_hz -
                     static_cast<double>(metrics.hw_cycles) / fpga_hz;
    }
    // suffix_best[v]: most saved seconds any subset of viable[v..] can add.
    std::vector<double> suffix_best(viable.size() + 1, 0.0);
    for (std::size_t v = viable.size(); v-- > 0;) {
      suffix_best[v] = suffix_best[v + 1] + std::max(0.0, best_case[v]);
    }

    // Subset buffers sized for the whole set: the search never allocates.
    std::vector<std::size_t> taken;
    taken.reserve(set.size());
    best.reserve(set.size());
    double taken_best_case = 0.0;
    double taken_area = 0.0;

    const std::function<void(std::size_t)> search = [&](std::size_t v) {
      if (use_bound && taken_best_case + suffix_best[v] <= best_saved) {
        return;  // even a communication-free extension cannot win
      }
      if (v == viable.size()) {
        const AppEstimate* estimate = scorer.Score(taken);
        if (estimate == nullptr) return;  // unreachable: kept feasible
        const double score =
            ObjectiveScore(*estimate, strategy_options.objective);
        if (score > best_score) {
          best_score = score;
          best_saved = estimate->sw_time - estimate->partitioned_time;
          best = taken;
        }
        return;
      }
      const std::size_t id = viable[v];
      const double gates = scorer.metrics(id).area_gates;
      bool feasible = taken_area + gates <= budget;
      for (std::size_t other : taken) {
        if (!feasible) break;
        if (set.Overlaps(id, other)) feasible = false;
      }
      if (feasible) {
        taken.push_back(id);
        taken_area += gates;
        taken_best_case += best_case[v];
        search(v + 1);
        taken.pop_back();
        taken_area -= gates;
        taken_best_case -= best_case[v];
      }
      search(v + 1);
    };
    search(0);

    // Commit the winning subset (descending software cycles keeps report
    // order aligned with the other strategies).
    std::sort(best.begin(), best.end());
    std::vector<std::string> cap_rejections;
    for (std::size_t id : capped) {
      // The greedy-seeded incumbent may commit a beyond-cap candidate; a
      // selected region must not also appear in the rejection log.
      if (std::find(best.begin(), best.end(), id) != best.end()) continue;
      cap_rejections.push_back(candidates[id].region.name +
                               ": beyond exact-search candidate cap");
    }
    return CommitSubset(set, platform, options, best, SelectedBy::kOptimal,
                        viable_set, "excluded by optimal selection",
                        std::move(cap_rejections));
  }
};

}  // namespace

std::unique_ptr<Strategy> MakeKnapsackStrategy() {
  return std::make_unique<KnapsackStrategy>();
}

}  // namespace b2h::partition
