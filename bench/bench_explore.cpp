// Experiment E6 (beyond the paper's tables): design-space exploration.
//
// Three measurements back the exploration engine's claims:
//   1. Greedy-vs-optimal gap — how much speedup the paper's "deliberately
//      simple and fast" heuristic leaves on the table against the exact
//      knapsack selection, per benchmark on the default platform.  The
//      bench FAILS (non-zero exit) if optimal ever falls below greedy:
//      that would be a search regression, caught here and in CI.
//   2. Artifact-cache effectiveness — hit rate and work counters of a warm
//      repeat of the full sweep (expected: zero decompilations).
//   3. Sweep scalability — wall time of the full {18 benchmarks} x
//      {3 platforms} x {3 strategies} sweep, serial vs. thread pool, and
//      grid_pool_scaling: serial over pool wall time of cold one-binary
//      {12-platform grid} x {3 strategies} x {3 objectives} sweeps, summed
//      over the benchmarks.  Every point of a one-binary sweep shares one
//      CandidateSet, so contention on it shows here; CI holds the ratio at
//      or above 1.0 (the pool is never slower than one thread).  The same
//      sweeps record annealing_proposals, the proposals the annealing
//      walks made (the registry counter partition.annealing.proposals), and
//      cfg_recomputes, the CFG rebuilds their decompilations made (the
//      registry counter decomp.cfg_recomputes): deterministic work counts
//      that CI holds from rising.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/obs.hpp"
#include "partition/platform_registry.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "toolchain/toolchain.hpp"

using namespace b2h;

int main() {
  // Hermetic measurement: Toolchain's default constructor reads
  // B2H_CACHE_DIR, so an exported cache dir would make the "cold" sweeps
  // below disk-warm (and deposit bench artifacts into the user's cache).
  unsetenv("B2H_CACHE_DIR");
  bench::JsonWriter json("explore");

  std::vector<NamedBinary> binaries;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    auto binary = suite::BuildBinary(*bench, 1);
    if (!binary.ok()) continue;
    binaries.push_back(
        {bench->name,
         std::make_shared<const mips::SoftBinary>(std::move(binary).take())});
  }

  explore::ExploreSpec spec;
  spec.binaries = binaries;
  spec.platforms = {"mips40", "mips200-xc2v1000", "mips400"};
  spec.strategies = {"paper-greedy", "knapsack-optimal", "annealing"};
  spec.objectives = {partition::Objective::kSpeedup};

  // ---- 3. Sweep wall time, serial vs. parallel (both cache-cold). --------
  Toolchain serial;
  serial.WithThreads(1);
  const explore::ExploreResult serial_sweep = serial.Explore(spec);
  Toolchain parallel;  // threads = hardware concurrency
  const explore::ExploreResult cold = parallel.Explore(spec);
  printf("=== E6: design-space exploration (%zu benchmarks x %zu platforms "
         "x %zu strategies) ===\n\n",
         spec.binaries.size(), spec.platforms.size(), spec.strategies.size());
  printf("sweep wall time: serial %.1f ms, parallel %.1f ms (%.1fx)\n\n",
         serial_sweep.wall_ms, cold.wall_ms,
         cold.wall_ms > 0.0 ? serial_sweep.wall_ms / cold.wall_ms : 0.0);
  json.Record("sweep_wall_serial", serial_sweep.wall_ms, "ms");
  json.Record("sweep_wall_parallel", cold.wall_ms, "ms");

  // ---- 3b. One binary at a time over the design-space grid. --------------
  // The grid of examples/platform_explorer.cpp.
  explore::ExploreSpec grid;
  grid.platforms.clear();
  for (double mhz : {40.0, 100.0, 200.0, 400.0}) {
    for (double kgates : {15.0, 50.0, 300.0}) {
      partition::Platform platform = partition::Platform::WithCpuMhz(mhz);
      platform.fpga.capacity_gates = kgates * 1000.0;
      platform.fpga.usable_fraction = 1.0;
      std::string name = "mips" + std::to_string(static_cast<int>(mhz)) +
                         "-" + std::to_string(static_cast<int>(kgates)) +
                         "kg";
      partition::PlatformRegistry::Global().Register(name, platform);
      grid.platforms.push_back(std::move(name));
    }
  }
  grid.strategies = spec.strategies;
  grid.objectives = {partition::Objective::kSpeedup,
                     partition::Objective::kEnergy,
                     partition::Objective::kEnergyDelay};
  double grid_serial_ms = 0.0;
  double grid_pool_ms = 0.0;
  const obs::Counter& proposals =
      obs::Registry::Global().counter("partition.annealing.proposals");
  const obs::Counter& recomputes =
      obs::Registry::Global().counter("decomp.cfg_recomputes");
  const std::uint64_t proposals_before = proposals.Value();
  const std::uint64_t recomputes_before = recomputes.Value();
  for (const NamedBinary& binary : binaries) {
    grid.binaries = {binary};
    Toolchain one_thread;  // fresh toolchains: both sweeps cache-cold
    one_thread.WithThreads(1);
    grid_serial_ms += one_thread.Explore(grid).wall_ms;
    grid_pool_ms += Toolchain().Explore(grid).wall_ms;
  }
  const double grid_scaling =
      grid_pool_ms > 0.0 ? grid_serial_ms / grid_pool_ms : 0.0;
  printf("one-binary grid sweeps (%zu points each, summed over %zu "
         "benchmarks): serial %.1f ms, pool %.1f ms (%.2fx)\n",
         grid.platforms.size() * grid.strategies.size() *
             grid.objectives.size(),
         binaries.size(), grid_serial_ms, grid_pool_ms, grid_scaling);
  json.Record("grid_sweep_wall_serial", grid_serial_ms, "ms");
  json.Record("grid_sweep_wall_pool", grid_pool_ms, "ms");
  json.Record("grid_pool_scaling", grid_scaling, "x");
  const std::uint64_t grid_proposals = proposals.Value() - proposals_before;
  const std::uint64_t grid_recomputes = recomputes.Value() - recomputes_before;
  printf("annealing proposals over those sweeps: %llu\n",
         static_cast<unsigned long long>(grid_proposals));
  printf("CFG recomputes over those sweeps: %llu\n\n",
         static_cast<unsigned long long>(grid_recomputes));
  json.Record("annealing_proposals", static_cast<double>(grid_proposals),
              "count");
  json.Record("cfg_recomputes", static_cast<double>(grid_recomputes),
              "count");

  // ---- 1. Greedy-vs-optimal gap per benchmark (default platform). --------
  printf("%-11s %9s %9s %9s %8s\n", "benchmark", "greedy-x", "optimal-x",
         "anneal-x", "gap");
  bool regression = false;
  double sum_gap = 0.0;
  int counted = 0;
  const std::size_t default_platform = 1;  // mips200-xc2v1000
  for (std::size_t b = 0; b < spec.binaries.size(); ++b) {
    const auto& greedy = cold.At(b, default_platform, 0, 0);
    const auto& optimal = cold.At(b, default_platform, 1, 0);
    const auto& annealed = cold.At(b, default_platform, 2, 0);
    if (!greedy.status.ok() || !optimal.status.ok()) continue;
    const double gap =
        greedy.speedup > 0.0 ? optimal.speedup / greedy.speedup - 1.0 : 0.0;
    if (optimal.speedup < greedy.speedup - 1e-9) regression = true;
    printf("%-11s %9.2f %9.2f %9.2f %7.1f%%\n", spec.binaries[b].name.c_str(),
           greedy.speedup, optimal.speedup,
           annealed.status.ok() ? annealed.speedup : 0.0, gap * 100.0);
    json.Record("greedy_speedup", greedy.speedup, "x", spec.binaries[b].name);
    json.Record("optimal_speedup", optimal.speedup, "x",
                spec.binaries[b].name);
    json.Record("greedy_vs_optimal_gap", gap * 100.0, "%",
                spec.binaries[b].name);
    sum_gap += gap;
    ++counted;
  }
  const double avg_gap = counted > 0 ? sum_gap / counted : 0.0;
  printf("\naverage greedy-vs-optimal gap: %.1f%% over %d benchmarks\n\n",
         avg_gap * 100.0, counted);
  json.Record("avg_greedy_vs_optimal_gap", avg_gap * 100.0, "%");

  // ---- 2. Cache effectiveness: warm repeat of the identical sweep. -------
  const explore::ExploreResult warm = parallel.Explore(spec);
  const std::size_t probes = warm.cache_hits + warm.cache_misses;
  const double hit_rate =
      probes > 0 ? static_cast<double>(warm.cache_hits) /
                       static_cast<double>(probes)
                 : 0.0;
  printf("cache-warm repeat: %zu simulations, %zu decompilations, "
         "%zu partitions, hit rate %.0f%%\n",
         warm.simulations_run, warm.decompilations_run, warm.partitions_run,
         hit_rate * 100.0);
  printf("%s", warm.StatsReport().c_str());
  json.Record("warm_decompilations", (double)warm.decompilations_run, "runs");
  json.Record("warm_partitions", (double)warm.partitions_run, "runs");
  json.Record("cache_hit_rate", hit_rate * 100.0, "%");
  json.Record("sweep_wall_warm", warm.wall_ms, "ms");

  // ---- 2b. Disk tier: warm repeat from a FRESH toolchain. ----------------
  // A fresh Toolchain has a fresh memory tier, so every artifact must come
  // off disk — the in-process stand-in for a process restart (the CI
  // cache-warm step checks the real cross-process case).
  // The cache is attached explicitly (not via WithCacheDir) so an exported
  // B2H_CACHE_DIR cannot redirect the measurement into — or the Clear()
  // into — the user's persistent cache.
  const std::string cache_dir = "b2h-bench-cache";
  explore::DiskStore(explore::DiskStore::Options{cache_dir, 0}).Clear();
  Toolchain disk_cold;
  disk_cold.WithArtifactCache(std::make_shared<explore::ArtifactCache>(
      explore::DiskStore::Options{cache_dir, 0}));
  const explore::ExploreResult disk_cold_sweep = disk_cold.Explore(spec);
  Toolchain disk_warm;
  disk_warm.WithArtifactCache(std::make_shared<explore::ArtifactCache>(
      explore::DiskStore::Options{cache_dir, 0}));
  const explore::ExploreResult disk_warm_sweep = disk_warm.Explore(spec);
  const bool disk_identical =
      disk_cold_sweep.Report() == disk_warm_sweep.Report();
  printf("disk-warm repeat (fresh toolchain): %zu simulations, "
         "%zu decompilations, %zu partitions, %zu disk hits, "
         "report %s\n",
         disk_warm_sweep.simulations_run, disk_warm_sweep.decompilations_run,
         disk_warm_sweep.partitions_run, disk_warm_sweep.cache_disk_hits,
         disk_identical ? "bit-identical" : "DIVERGED");
  json.Record("disk_warm_decompilations",
              (double)disk_warm_sweep.decompilations_run, "runs");
  json.Record("disk_warm_partitions", (double)disk_warm_sweep.partitions_run,
              "runs");
  json.Record("disk_warm_report_identical", disk_identical ? 1.0 : 0.0,
              "bool");
  json.Record("sweep_wall_disk_warm", disk_warm_sweep.wall_ms, "ms");
  explore::DiskStore(explore::DiskStore::Options{cache_dir, 0}).Clear();

  if (regression) {
    printf("\nREGRESSION: knapsack-optimal fell below paper-greedy on at "
           "least one benchmark\n");
    return 1;
  }
  if (warm.decompilations_run != 0) {
    printf("\nREGRESSION: cache-warm sweep re-ran %zu decompilation(s)\n",
           warm.decompilations_run);
    return 1;
  }
  if (disk_warm_sweep.simulations_run != 0 ||
      disk_warm_sweep.decompilations_run != 0 ||
      disk_warm_sweep.partitions_run != 0 || !disk_identical) {
    printf("\nREGRESSION: disk-warm sweep was not free and identical "
           "(%zu sims, %zu decompiles, %zu partitions, report %s)\n",
           disk_warm_sweep.simulations_run,
           disk_warm_sweep.decompilations_run,
           disk_warm_sweep.partitions_run,
           disk_identical ? "identical" : "diverged");
    return 1;
  }
  printf("\nReading: the exact selection confirms how little the paper's\n"
         "heuristic leaves on the table on this suite, and the artifact\n"
         "cache makes repeated sweeps free.\n");
  return 0;
}
