// Design-space exploration engine: sweep {binaries} x {platforms} x
// {strategies} x {objectives}, reusing one partition per distinct artifact
// key and one profile+decompilation per (binary, cycle model), and emit
// every point plus the multi-objective Pareto frontier (speedup vs. energy
// vs. FPGA area).  Lookups go partition first: every point's partition key
// is probed before anything runs, and only the decompiles behind missed
// partition keys are looked up or computed.
//
// Layering: the Explorer is built from the pass manager, the platform and
// strategy registries, a thread-pool fan-out and the content-addressed
// ArtifactCache.  It is the one flow path: the Toolchain facade exposes it
// as Toolchain::Explore(ExploreSpec), and Toolchain::RunOn/RunMany are
// paper-greedy views of it (toolchain/toolchain.hpp).
//
// Determinism contract (asserted by tests): Report() is bit-identical
// across thread counts and across cache-cold vs. cache-warm runs; work and
// cache counters live in StatsReport() so the determinism contract and the
// "second sweep does zero decompilations" contract can coexist.  With a
// disk-backed cache (Toolchain::WithCacheDir / B2H_CACHE_DIR) the same
// contract holds ACROSS PROCESSES: a sweep re-run from a fresh process
// against the same cache dir performs zero simulations/decompilations/
// partitions and reports bit-identically (asserted in test_explore and by
// the CI cache-warm gate).  The disk tier keeps partition artifacts only:
// after a restart, a partition key that misses profiles and decompiles its
// binary again.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "explore/artifact_cache.hpp"
#include "partition/platform_registry.hpp"
#include "partition/strategy.hpp"
#include "support/error.hpp"

namespace b2h {

/// A named binary handed to the batch APIs (Toolchain::RunMany and the
/// exploration engine).
struct NamedBinary {
  std::string name;
  std::shared_ptr<const mips::SoftBinary> binary;
};

}  // namespace b2h

namespace b2h::explore {

/// Point-in-time progress of a running sweep, for long-explore streaming
/// (the serve daemon forwards these as progress frames / a polled HTTP
/// resource).  `stage` is a static string: "decompile", "partition", or
/// "done".
struct ExploreProgress {
  const char* stage = "";
  std::uint64_t stage_done = 0;   ///< jobs finished in this stage
  std::uint64_t stage_total = 0;  ///< jobs this stage will run
  std::uint64_t points_total = 0; ///< grid points in the sweep
  std::uint64_t cache_hits = 0;   ///< unique-artifact hits observed so far
  bool done = false;              ///< the sweep has finished
};

struct ExploreSpec {
  std::vector<NamedBinary> binaries;
  /// Registered platform names (partition::PlatformRegistry).
  std::vector<std::string> platforms = {"mips40", "mips200-xc2v1000",
                                        "mips400"};
  /// Registered strategy names (partition::StrategyRegistry).
  std::vector<std::string> strategies = {"paper-greedy", "knapsack-optimal",
                                         "annealing"};
  std::vector<partition::Objective> objectives = {
      partition::Objective::kSpeedup};
  /// Seed / iteration knobs shared by every point (the objective field is
  /// overridden per point).
  partition::StrategyOptions strategy_options;
  /// Optional progress sink, invoked at stage boundaries and per finished
  /// stage job — possibly concurrently from worker threads, so it must be
  /// thread-safe.  Unset = zero cost (no call sites fire).  Purely
  /// observational: the report surfaces stay byte-identical either way.
  std::function<void(const ExploreProgress&)> progress;
};

/// One (binary, platform, strategy, objective) outcome.
struct ExplorePoint {
  std::string binary_name;
  std::string platform_name;
  std::string strategy_name;
  partition::Objective objective = partition::Objective::kSpeedup;
  Status status;  ///< per-point failure (CDFG recovery, unknown names, ...)

  double speedup = 1.0;
  double partitioned_time = 0.0;   ///< seconds
  double energy = 0.0;             ///< partitioned energy, joules
  double energy_savings = 0.0;
  double edp = 0.0;                ///< energy x delay, joule-seconds
  double area_gates = 0.0;
  std::size_t hw_regions = 0;
  std::vector<std::string> hw_names;  ///< selected region names, report order
  std::vector<std::string> rejected;  ///< why regions were skipped

  bool on_frontier = false;   ///< Pareto-optimal within its binary
  bool from_cache = false;    ///< partition artifact predates this sweep

  /// The artifact this point was read from (null on failed points).  It
  /// carries the full PartitionResult the Toolchain views hand out; never
  /// rendered by Report()/Json().  Artifacts served from the disk tier have
  /// no program, profile or schedule (see artifact_cache.hpp).
  std::shared_ptr<const PartitionArtifact> artifact;
};

/// Metrics the Pareto frontier is computed over: maximize speedup,
/// minimize energy, minimize area.
struct ParetoMetrics {
  double speedup = 1.0;
  double energy = 0.0;
  double area_gates = 0.0;
};

/// True when `a` dominates `b`: no worse on every axis, strictly better on
/// at least one.
[[nodiscard]] bool Dominates(const ParetoMetrics& a, const ParetoMetrics& b);

/// Indices of the non-dominated points, in input order.
[[nodiscard]] std::vector<std::size_t> ParetoFrontier(
    const std::vector<ParetoMetrics>& points);

struct ExploreResult {
  /// Row-major: binary-major, then platform, strategy, objective.
  std::vector<ExplorePoint> points;
  std::size_t num_binaries = 0;
  std::size_t num_platforms = 0;
  std::size_t num_strategies = 0;
  std::size_t num_objectives = 0;

  // Work actually executed this sweep (cache-warm sweeps report zeros).
  std::size_t simulations_run = 0;
  std::size_t decompilations_run = 0;
  std::size_t partitions_run = 0;
  // Unique-artifact cache traffic this sweep, split by serving tier
  // (cache_hits == cache_memory_hits + cache_disk_hits).  Partition keys
  // are probed for every point; a decompile key only behind a missed
  // partition key, so a fully-warm sweep counts one hit per distinct
  // partition key.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_memory_hits = 0;
  std::size_t cache_disk_hits = 0;
  double wall_ms = 0.0;  ///< host wall clock for the sweep
  // Summed host time of the stage jobs this sweep actually ran (cache-warm
  // sweeps report zeros).  Job time, not point time: shared jobs count once.
  double decompile_stage_ms = 0.0;
  double synth_stage_ms = 0.0;
  double partition_stage_ms = 0.0;

  [[nodiscard]] const ExplorePoint& At(std::size_t binary,
                                       std::size_t platform,
                                       std::size_t strategy,
                                       std::size_t objective) const;

  /// Deterministic sweep report: every point plus the per-binary Pareto
  /// frontier.  Identical across thread counts and cache states.
  [[nodiscard]] std::string Report() const;
  /// Work counters, cache traffic by tier, summed stage times and wall
  /// time (varies between runs by design).  Its first line, which the CI
  /// cache-warm gate greps for zeros, reads
  /// "work: N simulations, N decompilations, N partitions".
  [[nodiscard]] std::string StatsReport() const;
  /// Deterministic JSON report, stamped with kReportSchemaVersion: every
  /// point (metrics, hw region names, rejections, frontier flag) plus the
  /// grid shape.  Deliberately excludes from_cache and all work counters so
  /// warm/cold and serial/concurrent runs serialize bit-identically — the
  /// serve daemon's `explore` responses embed this object.
  [[nodiscard]] std::string Json() const;
};

struct ExplorerConfig {
  std::string pipeline = "default";
  std::uint64_t max_sim_instructions = 200'000'000;
  unsigned threads = 0;  ///< 0 = hardware concurrency, 1 = serial
};

class Explorer {
 public:
  /// A null cache means a private, sweep-local cache (no reuse).
  explicit Explorer(ExplorerConfig config,
                    std::shared_ptr<ArtifactCache> cache = nullptr);

  [[nodiscard]] ExploreResult Run(const ExploreSpec& spec) const;

 private:
  ExplorerConfig config_;
  std::shared_ptr<ArtifactCache> cache_;
};

}  // namespace b2h::explore
