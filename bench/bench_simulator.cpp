// Simulator throughput bench: instructions/second of the trace run loop
// (kBlock, the production engine) and of the retained per-instruction
// reference interpreter, per suite benchmark and suite-aggregated.
//
// Writes BENCH_simulator.json (see bench_json.hpp):
//   instr_per_sec               kBlock, plain Run            [per bench + suite_avg]
//   instr_per_sec_instrumented  kBlock + detection observer
//   ref_instr_per_sec           reference engine, plain Run
//   block_speedup               kBlock vs reference — the gate
//   trace_len_mean              mean multi-exit trace length (static)
//   trace_len_single_exit_mean  mean length if traces still ended at the
//                               first conditional branch (the pre-multi-exit
//                               engine's block shape, for the E9 comparison)
//   blockcache_*                shared pre-decode cache counters for a warm
//                               RunMany-shaped sweep over the whole suite
//
// The speedup is a ratio of two measurements taken on the same host
// seconds apart, so unlike the raw rates it is comparable across CI
// runners; the perf-trajectory gate (ci/perf_trajectory.py) tracks it with
// a direction rule and enforces the release floor below.
//
// Measurement discipline: one warm Simulator per engine, repeated Run()s
// sized to a few million instructions per sample, best-of-N rates (noise
// only ever slows a sample down), CPU time not wall time, and the
// per-round samples interleaved across engines so host frequency drift
// lands on both engines equally instead of skewing the reported ratio.
//
// In Release builds the bench itself enforces suite average block_speedup
// >= 4x (override/disable with B2H_SIM_SPEEDUP_GATE) — a throughput
// regression fails the bench run, not just the trajectory diff.  The
// warm-sweep self-gate is unconditional: a warm suite sweep performing any
// pre-decode at all means the shared cache broke, which no build type makes
// acceptable.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "dynamic/hot_region.hpp"
#include "mips/shared_cache.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/cpu_time.hpp"

namespace {

using namespace b2h;

constexpr int kSamples = 5;
constexpr std::uint64_t kTargetInstrsPerSample = 2'000'000;

struct Rates {
  double plain = 0.0;         ///< instr/sec, Run()
  double instrumented = 0.0;  ///< instr/sec, RunInstrumented + detector
};

/// Best-of-N instructions/second for repeated runs of `sim`.
template <typename RunOnce>
double BestRate(int reps, RunOnce&& run_once) {
  double best = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    std::uint64_t executed = 0;
    const double seconds = support::CpuSecondsOf([&] {
      for (int r = 0; r < reps; ++r) executed += run_once();
    });
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(executed) / seconds);
    }
  }
  return best;
}

struct TraceStats {
  double mean_len = 0.0;          ///< mean multi-exit trace length
  double single_exit_mean = 0.0;  ///< mean length truncated at first branch
};

/// Static trace-length statistics over every decodable entry: what the
/// multi-exit traces look like, and what the same text's blocks looked like
/// under the old first-branch-terminates rule (each trace truncated at its
/// first side exit) — the before/after pair the E9 study plots.
TraceStats MeasureTraces(const mips::BlockCache& cache) {
  TraceStats stats;
  const mips::BlockSpan* spans = cache.spans();
  const mips::SideExit* exits = cache.exits();
  std::uint64_t count = 0;
  std::uint64_t total_len = 0;
  std::uint64_t total_single = 0;
  for (std::size_t i = 0; i < cache.size(); ++i) {
    const mips::BlockSpan& span = spans[i];
    if (span.len == 0) continue;
    ++count;
    total_len += span.len;
    total_single += span.exit_count > 0
                        ? exits[span.exit_begin].offset + 1
                        : span.len;
  }
  if (count > 0) {
    stats.mean_len = static_cast<double>(total_len) / count;
    stats.single_exit_mean = static_cast<double>(total_single) / count;
  }
  return stats;
}

double SpeedupGate() {
  if (const char* env = std::getenv("B2H_SIM_SPEEDUP_GATE")) {
    return std::atof(env);  // "0" disables
  }
#ifdef B2H_BUILD_TYPE
  if (std::string_view(B2H_BUILD_TYPE) == "Release") return 4.0;
#endif
  return 0.0;  // informational outside Release unless explicitly requested
}

}  // namespace

int main() {
  bench::JsonWriter json("simulator");

  std::printf("Simulator throughput: block engine vs reference\n");
  std::printf("%-12s %12s %12s %9s\n", "benchmark", "block i/s", "ref i/s",
              "speedup");

  // Suite aggregation: harmonic weighting by each benchmark's per-run
  // instruction count, i.e. total instructions / total time — the rate a
  // profiling pass over the whole suite actually experiences.
  double total_weight = 0.0;
  double block_time = 0.0;
  double instrumented_time = 0.0;
  double reference_time = 0.0;

  // Binaries that produced a measurement, kept for the warm-sweep pass.
  std::vector<std::pair<std::string, mips::SoftBinary>> measured;

  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    auto built = suite::BuildBinary(bench, 1);
    if (!built.ok()) {
      std::printf("%-12s skipped (%s)\n", bench.name.c_str(),
                  built.status().message().c_str());
      continue;
    }
    const mips::SoftBinary binary = std::move(built).take();
    mips::Simulator probe(binary);
    const auto probe_run = probe.Run();
    if (probe_run.reason != mips::HaltReason::kReturned ||
        probe_run.instructions == 0) {
      std::printf("%-12s skipped (did not return)\n", bench.name.c_str());
      continue;
    }
    const int reps = std::max<int>(
        1, static_cast<int>(kTargetInstrsPerSample / probe_run.instructions));

    // One warm simulator per engine.
    mips::Simulator sim_block(binary, {}, mips::ExecEngine::kBlock);
    mips::Simulator sim_reference(binary, {}, mips::ExecEngine::kReference);

    // Interleaved sampling: every best-of round measures both engines
    // back-to-back, instead of taking all of one engine's samples before
    // the next engine's.  The reported numbers are ratios of two engines'
    // rates, and host frequency drift over the seconds a sequential sweep
    // takes lands entirely on whichever engine happened to be measured
    // then — interleaving gives each engine a sample in every drift
    // regime, so the best-of rates (noise only ever slows a sample down)
    // are taken from comparable conditions.
    const auto sample = [&](mips::Simulator& sim) {
      std::uint64_t executed = 0;
      mips::RunResult recycled;  // reuses profile storage run-to-run
      const double seconds = support::CpuSecondsOf([&] {
        for (int r = 0; r < reps; ++r) {
          recycled = sim.Run({}, 100'000'000, std::move(recycled));
          executed += recycled.instructions;
        }
      });
      return seconds > 0.0 ? static_cast<double>(executed) / seconds : 0.0;
    };
    Rates block;
    Rates reference;
    for (int s = 0; s < kSamples; ++s) {
      block.plain = std::max(block.plain, sample(sim_block));
      reference.plain = std::max(reference.plain, sample(sim_reference));
    }
    block.instrumented = BestRate(reps, [&] {
      dynamic::DetectionOnlyObserver detector;
      return sim_block.RunInstrumented({}, 100'000'000, &detector)
          .instructions;
    });
    if (block.plain <= 0.0 || block.instrumented <= 0.0 ||
        reference.plain <= 0.0) {
      std::printf("%-12s skipped (clock quantum too coarse)\n",
                  bench.name.c_str());
      continue;
    }
    const double speedup = block.plain / reference.plain;
    const TraceStats traces = MeasureTraces(probe.blocks());

    json.Record("instr_per_sec", block.plain, "instr/s", bench.name);
    json.Record("instr_per_sec_instrumented", block.instrumented, "instr/s",
                bench.name);
    json.Record("ref_instr_per_sec", reference.plain, "instr/s", bench.name);
    json.Record("block_speedup", speedup, "x", bench.name);
    json.Record("trace_len_mean", traces.mean_len, "instr", bench.name);
    json.Record("trace_len_single_exit_mean", traces.single_exit_mean,
                "instr", bench.name);
    std::printf("%-12s %12.3g %12.3g %8.2fx\n", bench.name.c_str(),
                block.plain, reference.plain, speedup);

    const auto weight = static_cast<double>(probe_run.instructions);
    total_weight += weight;
    block_time += weight / block.plain;
    instrumented_time += weight / block.instrumented;
    reference_time += weight / reference.plain;
    measured.emplace_back(bench.name, binary);
  }

  if (total_weight <= 0.0 || block_time <= 0.0) {
    std::fprintf(stderr, "bench_simulator: no benchmark produced a rate\n");
    return 1;
  }

  const double avg_block = total_weight / block_time;
  const double avg_instrumented = total_weight / instrumented_time;
  const double avg_reference = total_weight / reference_time;
  const double avg_speedup = reference_time / block_time;
  json.Record("instr_per_sec", avg_block, "instr/s", "suite_avg");
  json.Record("instr_per_sec_instrumented", avg_instrumented, "instr/s",
              "suite_avg");
  json.Record("ref_instr_per_sec", avg_reference, "instr/s", "suite_avg");
  json.Record("block_speedup", avg_speedup, "x", "suite_avg");
  std::printf("%-12s %12.3g %12.3g %8.2fx\n", "suite_avg", avg_block,
              avg_reference, avg_speedup);

  // Warm RunMany-shaped sweep: every measured binary's pre-decode is
  // resident by now, so constructing and running a fresh Simulator per
  // benchmark must hit the shared cache every time and never re-decode.
  const mips::SharedBlockCache::Stats warm_before =
      mips::SharedBlockCache::Global().stats();
  for (const auto& [name, binary] : measured) {
    mips::Simulator sim(binary);
    const auto run = sim.Run();
    if (run.reason != mips::HaltReason::kReturned) {
      std::fprintf(stderr, "bench_simulator: warm sweep run of %s failed\n",
                   name.c_str());
      return 1;
    }
  }
  const mips::SharedBlockCache::Stats warm_after =
      mips::SharedBlockCache::Global().stats();
  const auto warm_predecodes =
      static_cast<double>(warm_after.misses - warm_before.misses);
  const auto warm_hits =
      static_cast<double>(warm_after.hits - warm_before.hits);
  json.Record("blockcache_warm_predecodes", warm_predecodes, "count",
              "suite");
  json.Record("blockcache_warm_hits", warm_hits, "count", "suite");
  json.Record("blockcache_hits", static_cast<double>(warm_after.hits),
              "count", "suite");
  json.Record("blockcache_misses", static_cast<double>(warm_after.misses),
              "count", "suite");
  json.Record("blockcache_bytes", static_cast<double>(warm_after.bytes),
              "byte", "suite");
  const double lookups =
      static_cast<double>(warm_after.hits + warm_after.misses);
  json.Record("blockcache_hit_rate",
              lookups > 0.0 ? static_cast<double>(warm_after.hits) / lookups
                            : 0.0,
              "ratio", "suite");
  std::printf(
      "shared cache: warm sweep %zu binaries, %d pre-decodes, %d hits "
      "(process totals: %llu hits / %llu misses, %llu bytes resident)\n",
      measured.size(), static_cast<int>(warm_predecodes),
      static_cast<int>(warm_hits),
      static_cast<unsigned long long>(warm_after.hits),
      static_cast<unsigned long long>(warm_after.misses),
      static_cast<unsigned long long>(warm_after.bytes));
  if (warm_predecodes != 0.0) {
    std::fprintf(stderr,
                 "FAIL: warm suite sweep performed %d pre-decodes; the "
                 "shared block cache must make warm construction free\n",
                 static_cast<int>(warm_predecodes));
    return 1;
  }

  const double gate = SpeedupGate();
  if (gate > 0.0 && avg_speedup < gate) {
    std::fprintf(stderr,
                 "FAIL: suite-average block-engine speedup %.2fx is below "
                 "the %.2fx floor (B2H_SIM_SPEEDUP_GATE overrides)\n",
                 avg_speedup, gate);
    return 1;
  }
  if (gate > 0.0) {
    std::printf("block gate: %.2fx >= %.2fx floor OK\n", avg_speedup, gate);
  }
  return 0;
}
