// Exploration-engine tests: strategy registry completeness,
// knapsack-optimal dominance over the paper heuristic on every
// decompilable benchmark, Pareto-frontier invariants, artifact-cache
// determinism (a warm identical sweep performs zero decompilations and
// reports identically), parallel == serial reports, and annealing
// determinism under a fixed seed.
#include "explore/explorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "explore/disk_store.hpp"
#include "mips/assembler.hpp"
#include "partition/candidates.hpp"
#include "partition/platform_registry.hpp"
#include "partition/strategy.hpp"
#include "support/fs.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

using explore::ExploreResult;
using explore::ExploreSpec;
using explore::ParetoFrontier;
using explore::ParetoMetrics;
using partition::Objective;

std::shared_ptr<const mips::SoftBinary> BuildBench(const std::string& name) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr) << name;
  auto binary = suite::BuildBinary(*bench, 1);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  return std::make_shared<const mips::SoftBinary>(std::move(binary).take());
}

std::vector<NamedBinary> AllWorkingBinaries() {
  std::vector<NamedBinary> binaries;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    binaries.push_back({bench->name, BuildBench(bench->name)});
  }
  return binaries;
}

const std::vector<std::string> kPaperPlatforms = {"mips40", "mips200-xc2v1000",
                                                  "mips400"};
const std::vector<std::string> kAllStrategies = {"paper-greedy",
                                                 "knapsack-optimal",
                                                 "annealing"};

using testing_support::ScopedEnv;
using TempCacheDir = testing_support::TempDir;

// Hermetic for the whole binary: Toolchain's default constructor reads
// B2H_CACHE_DIR, so a developer's exported cache dir would make every
// "cold" sweep disk-warm and flip the work-counter assertions below.  The
// env-override test re-sets the variable within its own scope.
const ScopedEnv kPinnedCacheDirEnv("B2H_CACHE_DIR", nullptr);

TEST(StrategyRegistry, BuiltinsRegistered) {
  const auto names = partition::StrategyRegistry::Global().Names();
  for (const char* expected :
       {"paper-greedy", "knapsack-optimal", "annealing"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_NE(partition::StrategyRegistry::Global().Create(expected), nullptr)
        << expected;
  }
  EXPECT_EQ(partition::StrategyRegistry::Global().Create("no-such-strategy"),
            nullptr);
}

TEST(StrategyRegistry, PaperGreedyIsObjectiveInsensitive) {
  const auto greedy = partition::MakePaperGreedyStrategy();
  EXPECT_FALSE(greedy->objective_sensitive());
  EXPECT_TRUE(partition::MakeKnapsackStrategy()->objective_sensitive());
  EXPECT_TRUE(partition::MakeAnnealingStrategy()->objective_sensitive());
}

// Acceptance criterion: a full {18 benchmarks} x {3 platforms} x
// {3 strategies} sweep where knapsack-optimal beats or matches paper-greedy
// on every (benchmark, platform) point, the cache-warm repeat performs zero
// simulations/decompilations/partitions and reports identically, and
// annealing never falls below greedy either (it refines the greedy start).
TEST(Explore, FullSweepKnapsackDominatesGreedyAndCacheWarmRepeatIsFree) {
  ExploreSpec spec;
  spec.binaries = AllWorkingBinaries();
  spec.platforms = kPaperPlatforms;
  spec.strategies = kAllStrategies;
  spec.objectives = {Objective::kSpeedup};

  Toolchain toolchain;
  const ExploreResult cold = toolchain.Explore(spec);
  ASSERT_EQ(cold.points.size(), spec.binaries.size() * 3 * 3);
  EXPECT_EQ(cold.decompilations_run, spec.binaries.size());
  EXPECT_EQ(cold.simulations_run, spec.binaries.size());

  for (std::size_t b = 0; b < spec.binaries.size(); ++b) {
    for (std::size_t p = 0; p < kPaperPlatforms.size(); ++p) {
      const auto& greedy = cold.At(b, p, 0, 0);
      const auto& optimal = cold.At(b, p, 1, 0);
      const auto& annealed = cold.At(b, p, 2, 0);
      ASSERT_TRUE(greedy.status.ok())
          << spec.binaries[b].name << ": " << greedy.status.message();
      ASSERT_TRUE(optimal.status.ok())
          << spec.binaries[b].name << ": " << optimal.status.message();
      ASSERT_TRUE(annealed.status.ok())
          << spec.binaries[b].name << ": " << annealed.status.message();
      EXPECT_GE(optimal.speedup, greedy.speedup - 1e-12)
          << spec.binaries[b].name << " on " << kPaperPlatforms[p];
      EXPECT_GE(annealed.speedup, greedy.speedup - 1e-12)
          << spec.binaries[b].name << " on " << kPaperPlatforms[p];
    }
  }

  // Cache-warm repeat: all artifacts served from the cache, report
  // bit-identical.
  const ExploreResult warm = toolchain.Explore(spec);
  EXPECT_EQ(warm.simulations_run, 0u);
  EXPECT_EQ(warm.decompilations_run, 0u);
  EXPECT_EQ(warm.partitions_run, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  // Partition keys are probed first and a warm sweep stops there: one hit
  // per distinct partition key (one per point here: a single objective on
  // three distinct platforms), never a decompile key.
  EXPECT_EQ(cold.partitions_run, cold.points.size());
  EXPECT_EQ(warm.cache_hits, cold.partitions_run);
  EXPECT_EQ(cold.Report(), warm.Report());
  for (const auto& point : warm.points) {
    ASSERT_TRUE(point.status.ok());
    EXPECT_TRUE(point.from_cache);
  }
}

TEST(Explore, ParallelEqualsSerial) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")},
                   {"crc", BuildBench("crc")},
                   {"brev", BuildBench("brev")}};
  spec.strategies = kAllStrategies;
  spec.objectives = {Objective::kSpeedup, Objective::kEnergy};

  Toolchain serial;
  serial.WithThreads(1);
  Toolchain parallel;
  parallel.WithThreads(8);
  const ExploreResult a = serial.Explore(spec);
  const ExploreResult b = parallel.Explore(spec);
  EXPECT_EQ(a.Report(), b.Report());
  EXPECT_EQ(a.simulations_run, b.simulations_run);
  EXPECT_EQ(a.decompilations_run, b.decompilations_run);
  EXPECT_EQ(a.partitions_run, b.partitions_run);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

// Many pool threads on ONE binary: every point of the sweep shares one
// CandidateSet, which ParallelEqualsSerial (three binaries, two objectives)
// never crowds.  autcor00 is the binary where knapsack-optimal beats the
// greedy heuristic, so the exact search does real work on the shared set.
TEST(Explore, OneBinaryGridSweepIsThreadCountInvariant) {
  ExploreSpec spec;
  spec.binaries = {{"autcor00", BuildBench("autcor00")}};
  spec.platforms.clear();
  // The design-space grid of examples/platform_explorer.cpp.
  for (double mhz : {40.0, 100.0, 200.0, 400.0}) {
    for (double kgates : {15.0, 50.0, 300.0}) {
      partition::Platform platform = partition::Platform::WithCpuMhz(mhz);
      platform.fpga.capacity_gates = kgates * 1000.0;
      platform.fpga.usable_fraction = 1.0;
      std::string name = "mips" + std::to_string(static_cast<int>(mhz)) +
                         "-" + std::to_string(static_cast<int>(kgates)) +
                         "kg";
      partition::PlatformRegistry::Global().Register(name, platform);
      spec.platforms.push_back(std::move(name));
    }
  }
  spec.strategies = kAllStrategies;
  spec.objectives = {Objective::kSpeedup, Objective::kEnergy,
                     Objective::kEnergyDelay};

  Toolchain serial;
  serial.WithThreads(1);
  Toolchain parallel;
  parallel.WithThreads(8);
  const ExploreResult a = serial.Explore(spec);
  const ExploreResult b = parallel.Explore(spec);
  ASSERT_EQ(a.points.size(), 12u * 3u * 3u);
  EXPECT_EQ(a.Report(), b.Report());
  const auto synthesis_runs = [](const Toolchain& toolchain) {
    return toolchain.artifact_cache()->candidate_pool()->stats()
        .synthesis_runs;
  };
  EXPECT_EQ(synthesis_runs(serial), synthesis_runs(parallel));
  // Single-flight scans: the 8 threads' pool lookups, one per partition
  // key, share one scan.
  EXPECT_EQ(parallel.artifact_cache()->candidate_pool()->stats().scans, 1u);
  bool knapsack_wins = false;
  for (std::size_t p = 0; p < spec.platforms.size(); ++p) {
    const auto& greedy = a.At(0, p, 0, 0);
    const auto& optimal = a.At(0, p, 1, 0);
    if (optimal.speedup > greedy.speedup + 1e-9) knapsack_wins = true;
  }
  EXPECT_TRUE(knapsack_wins);
}

TEST(Explore, AnnealingIsDeterministicUnderAFixedSeed) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}, {"crc", BuildBench("crc")}};
  spec.strategies = {"annealing"};
  spec.strategy_options.seed = 42;

  // Fresh toolchains (fresh caches) so the second sweep recomputes from
  // scratch rather than replaying cached artifacts.
  const ExploreResult first = Toolchain().Explore(spec);
  const ExploreResult second = Toolchain().Explore(spec);
  EXPECT_GT(second.partitions_run, 0u);
  EXPECT_EQ(first.Report(), second.Report());
}

TEST(Explore, SeedSweepSharesSynthesisThroughTheCandidatePool) {
  // The repeated-request shape the serve daemon sees: the same benchmark
  // partitioned under the annealing strategy with different seeds.  Each
  // seed is a distinct partition artifact, but the candidate scan and every
  // synthesis result are shared through the toolchain cache's
  // CandidateSetPool — synthesis work stays flat across the sweep.
  Toolchain toolchain;
  toolchain.WithThreads(1);
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"annealing"};

  spec.strategy_options.seed = 1;
  const ExploreResult first = toolchain.Explore(spec);
  EXPECT_EQ(first.partitions_run, 1u);
  const auto& pool = *toolchain.artifact_cache()->candidate_pool();
  const auto after_first = pool.stats();
  EXPECT_EQ(after_first.scans, 1u);
  EXPECT_GT(after_first.synthesis_runs, 0u);

  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    spec.strategy_options.seed = seed;
    const ExploreResult next = toolchain.Explore(spec);
    EXPECT_EQ(next.partitions_run, 1u) << seed;  // new artifact per seed
  }
  const auto after_sweep = pool.stats();
  EXPECT_EQ(after_sweep.scans, 1u);
  EXPECT_EQ(after_sweep.hits, 3u);
  // The sharing contract: later seeds synthesized NOTHING new.
  EXPECT_EQ(after_sweep.synthesis_runs, after_first.synthesis_runs);
}

TEST(Explore, ObjectiveInsensitiveStrategySharesArtifacts) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy"};
  spec.objectives = {Objective::kSpeedup, Objective::kEnergy,
                     Objective::kEnergyDelay};

  const ExploreResult result = Toolchain().Explore(spec);
  // One partition serves all three objective points.
  EXPECT_EQ(result.partitions_run, 1u);
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.At(0, 0, 0, 0).speedup, result.At(0, 0, 0, 1).speedup);
  EXPECT_EQ(result.At(0, 0, 0, 0).speedup, result.At(0, 0, 0, 2).speedup);
}

TEST(Explore, ParetoFrontierInvariants) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = kPaperPlatforms;
  spec.strategies = kAllStrategies;

  const ExploreResult result = Toolchain().Explore(spec);
  std::vector<const explore::ExplorePoint*> ok_points;
  for (const auto& point : result.points) {
    ASSERT_TRUE(point.status.ok());
    ok_points.push_back(&point);
  }
  const auto metrics_of = [](const explore::ExplorePoint& point) {
    return ParetoMetrics{point.speedup, point.energy, point.area_gates};
  };
  std::size_t frontier_count = 0;
  for (const auto* point : ok_points) {
    if (point->on_frontier) {
      ++frontier_count;
      // No frontier point is dominated by any other point.
      for (const auto* other : ok_points) {
        EXPECT_FALSE(
            explore::Dominates(metrics_of(*other), metrics_of(*point)));
      }
    } else {
      // Every dominated point is dominated by some frontier point.
      bool dominated_by_frontier = false;
      for (const auto* other : ok_points) {
        if (other->on_frontier &&
            explore::Dominates(metrics_of(*other), metrics_of(*point))) {
          dominated_by_frontier = true;
          break;
        }
      }
      EXPECT_TRUE(dominated_by_frontier);
    }
  }
  EXPECT_GT(frontier_count, 0u);
}

TEST(Explore, ParetoFrontierUnitCases) {
  // a dominates b; c trades speedup for energy; d duplicates a.
  const std::vector<ParetoMetrics> points = {
      {4.0, 1.0, 100.0},   // a
      {3.0, 2.0, 100.0},   // b: dominated by a
      {2.0, 0.5, 50.0},    // c: non-dominated trade-off
      {4.0, 1.0, 100.0}};  // d: tie with a — both survive
  const auto frontier = ParetoFrontier(points);
  EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_TRUE(explore::Dominates(points[0], points[1]));
  EXPECT_FALSE(explore::Dominates(points[0], points[2]));
  EXPECT_FALSE(explore::Dominates(points[0], points[3]));
}

TEST(Explore, PerPointFailuresDoNotAbortTheSweep) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")},
                   {"null", nullptr},
                   {"switch01", BuildBench("switch01")}};  // CDFG failure
  spec.platforms = {"mips200-xc2v1000", "no-such-platform"};
  spec.strategies = {"paper-greedy", "no-such-strategy"};

  Toolchain toolchain;
  const ExploreResult result = toolchain.Explore(spec);
  ASSERT_EQ(result.points.size(), 3u * 2u * 2u);
  EXPECT_TRUE(result.At(0, 0, 0, 0).status.ok());
  EXPECT_FALSE(result.At(0, 1, 0, 0).status.ok());  // unknown platform
  EXPECT_FALSE(result.At(0, 0, 1, 0).status.ok());  // unknown strategy
  EXPECT_FALSE(result.At(1, 0, 0, 0).status.ok());  // null binary
  EXPECT_FALSE(result.At(2, 0, 0, 0).status.ok());  // CDFG recovery failure
  EXPECT_EQ(result.At(2, 0, 0, 0).status.kind(), ErrorKind::kIndirectJump);
  EXPECT_NE(result.Report().find("FAILED"), std::string::npos);

  // Failures are cached artifacts too: the warm repeat performs zero work
  // (the CDFG-failing binary is NOT re-simulated or re-decompiled) and
  // reports identically.
  const ExploreResult warm = toolchain.Explore(spec);
  EXPECT_EQ(warm.simulations_run, 0u);
  EXPECT_EQ(warm.decompilations_run, 0u);
  EXPECT_EQ(warm.partitions_run, 0u);
  EXPECT_EQ(result.Report(), warm.Report());
}

TEST(Explore, SeedChangesOnlyInvalidateSeedSensitiveStrategies) {
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy", "knapsack-optimal", "annealing"};
  spec.strategy_options.seed = 1;

  Toolchain toolchain;
  const ExploreResult cold = toolchain.Explore(spec);
  EXPECT_EQ(cold.partitions_run, 3u);

  // A new seed only affects the annealing strategy's artifact key: the
  // deterministic strategies replay from the cache.
  spec.strategy_options.seed = 2;
  const ExploreResult reseeded = toolchain.Explore(spec);
  EXPECT_EQ(reseeded.decompilations_run, 0u);
  EXPECT_EQ(reseeded.partitions_run, 1u);  // annealing only
  EXPECT_TRUE(reseeded.At(0, 0, 0, 0).from_cache);
  EXPECT_TRUE(reseeded.At(0, 0, 1, 0).from_cache);
  EXPECT_FALSE(reseeded.At(0, 0, 2, 0).from_cache);
}

// Satellite: rejection reasons must be surfaced through the printed report
// and the JSON output so strategy comparisons can explain skipped regions.
TEST(Toolchain, ReportAndJsonSurfaceRejectedRegions) {
  partition::Platform tiny = partition::Platform::WithCpuMhz(200.0);
  tiny.fpga.capacity_gates = 30'000.0;
  tiny.fpga.usable_fraction = 1.0;
  PlatformRegistry::Global().Register("test-explore-tiny", tiny);

  Toolchain toolchain;
  auto run = toolchain.RunOn("test-explore-tiny", BuildBench("fir"), "fir");
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_FALSE(run.value().partition.rejected.empty());
  EXPECT_NE(run.value().Report().find("rejected"), std::string::npos);
  const std::string json = run.value().Json();
  EXPECT_NE(json.find("\"rejected\":["), std::string::npos);
  EXPECT_NE(json.find("area constraint violated"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\":"), std::string::npos);

  // The explore report surfaces the same reasons per point.
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"test-explore-tiny"};
  spec.strategies = {"paper-greedy"};
  const ExploreResult result = toolchain.Explore(spec);
  ASSERT_TRUE(result.At(0, 0, 0, 0).status.ok());
  EXPECT_FALSE(result.At(0, 0, 0, 0).rejected.empty());
  EXPECT_NE(result.Report().find("rejected ["), std::string::npos);
}

// Acceptance criterion (PR 4): the same sweep run twice from two separate
// "processes" — emulated by two Toolchains with fresh memory tiers sharing
// one cache dir — performs 0 simulations/decompilations/partitions on the
// second run and produces a bit-identical Report().  Failures (the
// CDFG-failing switch01) replay from disk too.  The CI cache-warm step
// enforces the same invariant across real processes.
TEST(Explore, DiskCacheMakesProcessRestartedSweepsFree) {
  TempCacheDir dir;
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")},
                   {"crc", BuildBench("crc")},
                   {"switch01", BuildBench("switch01")}};  // CDFG failure
  spec.platforms = kPaperPlatforms;
  spec.strategies = kAllStrategies;

  Toolchain cold;
  cold.WithCacheDir(dir.path);
  ASSERT_NE(cold.artifact_cache()->disk(), nullptr);
  const ExploreResult first = cold.Explore(spec);
  EXPECT_EQ(first.simulations_run, 3u);
  EXPECT_GT(first.decompilations_run, 0u);
  EXPECT_GT(first.partitions_run, 0u);
  EXPECT_GT(cold.CacheStats().disk_stores, 0u);

  // Fresh Toolchain = fresh memory tier: every artifact must come off disk.
  Toolchain warm;
  warm.WithCacheDir(dir.path);
  const ExploreResult second = warm.Explore(spec);
  EXPECT_EQ(second.simulations_run, 0u);
  EXPECT_EQ(second.decompilations_run, 0u);
  EXPECT_EQ(second.partitions_run, 0u);
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(second.cache_memory_hits, 0u);
  EXPECT_GT(second.cache_disk_hits, 0u);
  EXPECT_EQ(first.Report(), second.Report());
  for (const auto& point : second.points) {
    if (point.status.ok()) EXPECT_TRUE(point.from_cache);
  }
}

// Partial warmth across a restart: adding a strategy to a disk-warm sweep
// re-runs only the new partition.  The disk tier keeps partition artifacts
// only, so the binary behind it is profiled and decompiled once more; the
// cached partition is served from disk untouched.
TEST(Explore, DiskCacheReRunsOnlyWhatNewWorkNeeds) {
  TempCacheDir dir;
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy"};

  Toolchain first;
  first.WithCacheDir(dir.path);
  (void)first.Explore(spec);

  spec.strategies = {"paper-greedy", "knapsack-optimal"};
  Toolchain second;
  second.WithCacheDir(dir.path);
  const ExploreResult partial = second.Explore(spec);
  EXPECT_EQ(partial.simulations_run, 1u);
  EXPECT_EQ(partial.decompilations_run, 1u);
  EXPECT_EQ(partial.partitions_run, 1u);  // knapsack only
  EXPECT_EQ(partial.cache_disk_hits, 1u);  // paper-greedy
  ASSERT_TRUE(partial.At(0, 0, 0, 0).status.ok());
  ASSERT_TRUE(partial.At(0, 0, 1, 0).status.ok());
  EXPECT_TRUE(partial.At(0, 0, 0, 0).from_cache);
  EXPECT_FALSE(partial.At(0, 0, 1, 0).from_cache);
  EXPECT_GE(partial.At(0, 0, 1, 0).speedup, partial.At(0, 0, 0, 0).speedup);

  // And a third restart replays the widened sweep entirely from disk,
  // identically.
  Toolchain third;
  third.WithCacheDir(dir.path);
  const ExploreResult replay = third.Explore(spec);
  EXPECT_EQ(replay.simulations_run + replay.decompilations_run +
                replay.partitions_run,
            0u);
  EXPECT_EQ(partial.Report(), replay.Report());
}

// The names a sweep gives its disk entries.  A drift anywhere in key
// derivation (the FNV-1a hasher, HashBinary, HashPlatform, the decompile
// or the partition key) turns every persisted cache cold without failing
// anything else: a cold sweep computes the same reports, and the two-run
// cache-warm check in CI warms its own cache with the new keys.  Change
// these literals only with a key change that is meant, and say why.
TEST(Explore, DiskEntryNamesArePinned) {
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, 0
      li $v0, 0
    loop:
      addu $v0, $v0, $t0
      sll $t1, $t0, 1
      xor $v0, $v0, $t1
      addiu $t0, $t0, 1
      slti $t2, $t0, 40
      bne $t2, $zero, loop
      jr $ra
  )");
  ASSERT_TRUE(assembled.ok()) << assembled.status().message();
  const auto binary =
      std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
  const auto platform =
      partition::PlatformRegistry::Global().Find("mips200-xc2v1000");
  ASSERT_TRUE(platform.has_value());
  EXPECT_EQ(explore::HashBinary(*binary), "774fca56fb54f2d1");
  EXPECT_EQ(explore::HashPlatform(*platform), "e1ff6e222d3f3fcc");

  TempCacheDir dir;
  ExploreSpec spec;
  spec.binaries = {{"pinned", binary}};
  spec.platforms = {"mips40", "mips200-xc2v1000"};
  spec.strategies = {"paper-greedy", "annealing"};
  Toolchain toolchain;
  toolchain.WithCacheDir(dir.path);
  const ExploreResult result = toolchain.Explore(spec);
  EXPECT_EQ(result.partitions_run, 4u);

  const std::string tree = "v" + std::to_string(explore::kCacheSchemaVersion);
  std::vector<std::string> names;
  for (const auto& file : support::ListFilesRecursive(dir.path)) {
    names.push_back(
        std::filesystem::relative(file.path, dir.path).generic_string());
  }
  std::sort(names.begin(), names.end());
  const std::vector<std::string> expected = {
      tree + "/1e9129133378191c.bin",
      tree + "/4a175e241e83bf0a.bin",
      tree + "/7592c1a3fbe44b65.bin",
      tree + "/81743571636f73e7.bin",
  };
  EXPECT_EQ(names, expected);
}

// B2H_CACHE_DIR plumbing: the environment variable gives every Toolchain a
// disk-backed cache and overrides WithCacheDir's configured directory.
TEST(Explore, CacheDirEnvironmentOverride) {
  TempCacheDir env_dir;
  TempCacheDir other_dir;
  ExploreSpec spec;
  spec.binaries = {{"fir", BuildBench("fir")}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy"};

  ExploreResult cold;
  ExploreResult replay;
  {
    ScopedEnv env("B2H_CACHE_DIR", env_dir.path.c_str());

    Toolchain from_env;  // constructor picks the env dir up
    ASSERT_NE(from_env.artifact_cache()->disk(), nullptr);
    EXPECT_EQ(from_env.artifact_cache()->disk()->directory(), env_dir.path);

    Toolchain overridden;  // env wins over the configured directory
    overridden.WithCacheDir(other_dir.path);
    EXPECT_EQ(overridden.artifact_cache()->disk()->directory(), env_dir.path);

    cold = from_env.Explore(spec);
    EXPECT_EQ(cold.decompilations_run, 1u);

    Toolchain warm;  // fresh process stand-in, also via env
    replay = warm.Explore(spec);
  }
  EXPECT_EQ(replay.simulations_run + replay.decompilations_run +
                replay.partitions_run,
            0u);
  EXPECT_EQ(cold.Report(), replay.Report());

  Toolchain memory_only;  // env gone: back to the memory-only default
  EXPECT_EQ(memory_only.artifact_cache()->disk(), nullptr);
}

// The knapsack strategy must agree with an exhaustive check on a small
// program: its reported estimate equals the best EvaluateSubset score over
// every feasible subset.
TEST(Strategy, KnapsackMatchesExhaustiveSearchOnFir) {
  auto run = Toolchain().RunOn("mips200-xc2v1000", BuildBench("fir"), "fir");
  ASSERT_TRUE(run.ok());
  const auto& program = *run.value().program;
  const auto& profile = run.value().software_run->profile;
  const partition::Platform platform;
  const partition::PartitionOptions options;

  const auto set = partition::CandidateSet::Scan(program, profile);
  std::vector<std::size_t> viable;
  for (std::size_t id = 0; id < set.size(); ++id) {
    if (set.candidates()[id].sw_cycles == 0) continue;
    if (set.Synthesize(id, options.synth).ok()) viable.push_back(id);
  }
  ASSERT_LT(viable.size(), 16u);  // fir is small; exhaustive is cheap
  double best = 1.0;
  for (std::size_t mask = 0; mask < (1u << viable.size()); ++mask) {
    std::vector<std::size_t> subset;
    for (std::size_t v = 0; v < viable.size(); ++v) {
      if (mask & (1u << v)) subset.push_back(viable[v]);
    }
    const auto estimate =
        testing_support::EvaluateSubset(set, subset, platform, options);
    if (estimate.has_value()) best = std::max(best, estimate->speedup);
  }

  const auto strategy =
      partition::StrategyRegistry::Global().Create("knapsack-optimal");
  auto result = strategy->Partition(program, profile, platform, options, {});
  ASSERT_TRUE(result.ok());
  const auto estimate =
      partition::EstimatePartition(result.value(), platform);
  EXPECT_NEAR(estimate.speedup, best, 1e-9);
}

}  // namespace
}  // namespace b2h
