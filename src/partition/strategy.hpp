// Pluggable region-selection strategies.
//
// The paper's partitioner is "deliberately simple and fast", explicitly
// contrasted with global optimization approaches (Henkel; Kalavade/Lee)
// that it never quantifies against.  Extracting the selection policy behind
// this interface lets the exploration engine answer "how much speedup does
// the simple heuristic leave on the table?" — the registry ships three
// backends:
//
//   "paper-greedy"     — the paper's three-step heuristic (partitioner.hpp);
//                        the strategy behind Toolchain::RunOn/RunMany.
//   "knapsack-optimal" — branch-and-bound over the candidate regions under
//                        the gate budget; exact on the suite's candidate
//                        counts (falls back to the top 20 candidates on
//                        pathological inputs, and never returns a selection
//                        worse than paper-greedy: the greedy solution seeds
//                        the incumbent).
//   "annealing"        — randomized refinement of the greedy solution with
//                        a seeded RNG; deterministic under a fixed seed.
//
// The registry is the second process-wide extension point next to the
// platform registry (partition::PlatformRegistry); decompiler passes are a
// fixed table (decomp::AllPasses).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "partition/partitioner.hpp"

namespace b2h::partition {

class CandidateSet;  // candidates.hpp

/// What an objective-driven strategy maximizes.  Every strategy still
/// reports all metrics (the estimate carries time, energy, and area); the
/// objective only steers the search.
enum class Objective : std::uint8_t {
  kSpeedup,      ///< application speedup over software-only
  kEnergy,       ///< minimize partitioned energy
  kEnergyDelay,  ///< minimize energy x delay product
};

[[nodiscard]] std::string_view ObjectiveName(Objective objective);
/// Parse "speedup" / "energy" / "edp" (nullopt on anything else).
[[nodiscard]] std::optional<Objective> ParseObjective(std::string_view name);

/// Scalar score of an application estimate under an objective.
/// Higher is always better (energy-style objectives are negated).
[[nodiscard]] double ObjectiveScore(const AppEstimate& estimate,
                                    Objective objective);

struct StrategyOptions {
  Objective objective = Objective::kSpeedup;
  std::uint64_t seed = 1;                ///< annealing determinism
  /// Proposal budget of the annealing walk.  The walk stops short of it
  /// once its best subset provably cannot improve, with the result the
  /// whole budget gives.
  unsigned annealing_iterations = 2000;
  /// Pre-scanned candidate machinery for the (program, profile) pair this
  /// call partitions, normally served from a CandidateSetPool keyed on the
  /// decompile artifact.  Strategies sharing one
  /// set share its synthesis memo, so e.g. an annealing seed sweep
  /// synthesizes each candidate once total.  Null = scan fresh.  NOT part
  /// of any artifact key or OptionsFingerprint: it changes where work
  /// happens, never results.
  std::shared_ptr<const CandidateSet> candidates;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// False when the strategy ignores StrategyOptions::objective (the paper
  /// heuristic).  The artifact cache uses this to collapse per-objective
  /// sweep points onto one artifact.
  [[nodiscard]] virtual bool objective_sensitive() const { return true; }

  /// Fingerprint of the StrategyOptions fields this strategy consumes
  /// *beyond* the objective (seed, iteration counts, ...).
  /// Cached sweep artifacts are keyed on it, so knobs a strategy ignores —
  /// e.g. changing the annealing seed — never invalidate its entries.
  [[nodiscard]] virtual std::string OptionsFingerprint(
      const StrategyOptions& /*options*/) const {
    return "";
  }

  [[nodiscard]] virtual Result<PartitionResult> Partition(
      const decomp::DecompiledProgram& program,
      const mips::ExecProfile& profile, const Platform& platform,
      const PartitionOptions& options,
      const StrategyOptions& strategy_options) const = 0;
};

/// Process-wide strategy registry (an extension point, alongside the
/// platform registry).  Built-ins are registered on first use.
class StrategyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Strategy>()>;

  static StrategyRegistry& Global();

  /// Register or replace a named strategy factory.
  void Register(std::string name, Factory factory);

  /// Instantiate a strategy (nullptr when the name is unknown).
  [[nodiscard]] std::unique_ptr<Strategy> Create(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  struct Entry {
    std::string name;
    Factory factory;
  };
  std::vector<Entry> entries_;
};

// Built-in strategy factories (also reachable through the registry).
[[nodiscard]] std::unique_ptr<Strategy> MakePaperGreedyStrategy();
[[nodiscard]] std::unique_ptr<Strategy> MakeKnapsackStrategy();
[[nodiscard]] std::unique_ptr<Strategy> MakeAnnealingStrategy();

}  // namespace b2h::partition
