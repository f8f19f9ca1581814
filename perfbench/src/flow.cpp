// cold_flow and design_sweep: one op takes one never-seen binary through
// Toolchain::Explore and renders the report.  The traced run also drives
// the same binary layer by layer through each layer's public functions,
// which is where every per-layer number comes from.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "drive.hpp"
#include "mips/shared_cache.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

using namespace b2h;

/// Set-up is repeated this many times; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// Length of the serve_mix closed loop that design_sweep's traced run
/// measures the serve layer with.  serve_mix's timings swing with the load
/// on a shared host too much to gate on, so it is not one of the gated
/// workloads, and its layer is measured here instead.
constexpr double kServeProbeSeconds = 5.0;

struct FlowShape {
  std::vector<std::string> platforms;
  std::vector<std::string> strategies;
  std::vector<partition::Objective> objectives;
  unsigned threads = 1;
  /// The traced run also measures the serve layer (see kServeProbeSeconds).
  bool serve_probe = false;
};

struct Setup {
  Pool pool;
  double setup_s = 0.0;
};

Setup RunSetup() {
  Setup setup;
  Samples seconds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const obs::Stopwatch watch;
    setup.pool = BuildPool();
    (void)RegisterGridPlatforms();
    (void)DefaultPipeline();
    seconds.Add(watch.Seconds());
  }
  setup.setup_s = seconds.Quantile(0.5);
  return setup;
}

void PrintDraw(const Draw& draw, const Pool& pool, std::size_t ops) {
  const std::size_t shown = std::min(ops, pool.binaries.size());
  std::printf("drawn binaries (%zu ops; the first seeded permutation):",
              ops);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf(" %s", pool.binaries[draw.order()[i]].name.c_str());
  }
  std::printf("\n");
}

Outcome RunFlow(const Args& args, const FlowShape& shape) {
  const Setup setup = RunSetup();
  const Pool& pool = setup.pool;
  std::printf("%zu distinct binaries; explore pool %u thread(s)\n",
              pool.binaries.size(), shape.threads);

  Outcome outcome;
  Draw draw(pool.binaries.size(), args.seed);
  // What each op measured; summarized per binary after the run.
  struct OpRecord {
    std::size_t binary = 0;
    double ms = 0.0;
    double log_speedup = 0.0;  ///< mean over the op's ok points
    std::size_t points = 0;
  };
  std::vector<OpRecord> records;
  double pass_rss_mb = 0.0;  ///< VmHWM after the first pass over the pool

  // Traced-run accumulators.
  SpanRecorder spans(false);
  Samples drive_on_ms, drive_off_ms, render_ms, find_ms, self_ms;
  double serial_ms = 0.0, parallel_ms = 0.0, attributed_ms = 0.0;
  LayerTally tally;
  std::size_t cache_hits = 0, cache_lookups = 0, pool_hits = 0,
              pool_lookups = 0;

  // The run lasts at least --seconds and covers every binary at least once,
  // so the per-binary summaries below always span the whole pool.
  const obs::Stopwatch window;
  std::uint32_t op = 0;
  while (window.Seconds() < args.seconds || op < pool.binaries.size()) {
    ++op;
    OpRecord& record = records.emplace_back();
    record.binary = draw.Next();
    const PoolBinary& entry = pool.binaries[record.binary];
    ++outcome.attempted;
    const explore::ExploreSpec spec =
        MakeSpec(entry.name, entry.binary, shape.platforms, shape.strategies,
                 shape.objectives);

    // The op: a never-seen binary through the Explore path, report out.
    mips::SharedBlockCache::Global().Clear();
    const auto toolchain = FreshToolchain(shape.threads);
    const ExploreOp first = RunExplore(*toolchain, spec);
    record.ms = first.ms;

    std::string error = CheckPoints(entry, first.result);
    if (error.empty() && RunExplore(*toolchain, spec).json != first.json) {
      error = entry.name + ": warm repeat is not byte-identical";
    }
    for (const explore::ExplorePoint& point : first.result.points) {
      if (!point.status.ok()) continue;
      record.log_speedup += std::log(point.speedup);
      ++record.points;
    }
    if (record.points != 0) {
      record.log_speedup /= static_cast<double>(record.points);
    }

    if (!args.trace) {
      // The profiling run's return value against the native oracle.
      mips::Simulator simulator(*entry.binary);
      if (error.empty()) {
        error = CheckReturn(entry, simulator.Run({}, kMaxSimInstructions));
      }
    } else {
      const explore::ArtifactCache::Stats stats = toolchain->CacheStats();
      cache_hits += stats.hits();
      cache_lookups += stats.hits() + stats.misses;
      const auto pool_stats =
          toolchain->artifact_cache()->candidate_pool()->stats();
      pool_hits += pool_stats.hits;
      pool_lookups += pool_stats.hits + pool_stats.scans;
      render_ms.Add(first.render_ms);

      double serial = first.ms;
      if (shape.threads > 1) {
        mips::SharedBlockCache::Global().Clear();
        serial = RunExplore(*FreshToolchain(1), spec).ms;
      }
      serial_ms += serial;
      parallel_ms += first.ms;

      // The same binary layer by layer, with spans off and on; the order
      // alternates so neither side always runs second.
      const Axes axes =
          ResolveAxes(shape.platforms, shape.strategies, shape.objectives);
      Drive traced;
      for (int side = 0; side < 2; ++side) {
        const bool recording = (side == 0) == (op % 2 == 0);
        mips::SharedBlockCache::Global().Clear();
        spans.set_enabled(recording);
        spans.set_op(op);
        Drive drive = RunDrive(entry, axes, spans);
        (recording ? drive_on_ms : drive_off_ms).Add(drive.op_ms);
        if (recording) {
          ProbeStrategies(drive, axes, spans);
          traced = std::move(drive);
        }
      }
      spans.set_enabled(false);
      attributed_ms += traced.layer_ms + first.render_ms;
      self_ms.Add(serial - traced.layer_ms - first.render_ms);
      tally.Count(traced);
      TimeCacheFinds(traced, entry.name, *toolchain->artifact_cache(),
                     find_ms);

      if (error.empty()) error = CheckReturn(entry, traced.run);
      if (error.empty()) {
        error = CompareWithExplore(entry, traced, axes, first.result);
      }
    }
    if (!error.empty()) outcome.Fail(error);
    // The peak after one pass over the pool covers the same work in every
    // run; later passes repeat binaries and would only make the peak a
    // maximum over more thread interleavings.
    if (op == pool.binaries.size()) pass_rss_mb = PeakRssMb();
  }
  const double measured_s = window.Seconds();
  PrintDraw(draw, pool, op);
  std::printf("measured %.2f s, %u ops\n", measured_s, op);

  if (!args.trace) {
    // Each distinct binary counts once, with the median of its ops: a
    // transient stall of the shared host slows a minority of a binary's
    // repeats, and the partial last permutation weighs nothing extra.
    std::vector<Samples> by_binary(pool.binaries.size());
    std::vector<double> log_speedups(pool.binaries.size(), 0.0);
    std::vector<bool> has_points(pool.binaries.size(), false);
    for (const OpRecord& record : records) {
      by_binary[record.binary].Add(record.ms);
      log_speedups[record.binary] = record.log_speedup;
      has_points[record.binary] = record.points != 0;
    }
    Samples latency, log_speedup;
    for (std::size_t b = 0; b < pool.binaries.size(); ++b) {
      latency.Add(by_binary[b].Quantile(0.5));
      if (has_points[b]) log_speedup.Add(log_speedups[b]);
    }
    outcome.Add("setup_s", setup.setup_s, "s", kSetupRepeats);
    outcome.Add("latency_ms.p50", latency.Quantile(0.5), "ms", records.size());
    outcome.Add("latency_ms.p90", latency.Quantile(0.9), "ms", records.size());
    outcome.Add("ops_per_s", 1000.0 / latency.Mean(), "1/s", records.size());
    outcome.Add("failed_ratio",
                static_cast<double>(outcome.failed) /
                    static_cast<double>(outcome.attempted),
                "ratio", outcome.attempted);
    outcome.Add("peak_rss_mb", pass_rss_mb, "MiB", pool.binaries.size());
    outcome.Add("app_speedup.geomean", std::exp(log_speedup.Mean()), "x",
                log_speedup.size());
    return outcome;
  }

  // ---- per-layer metrics from the traced drive ---------------------------
  PrintLedger(spans.spans());
  AddLayerMetrics(spans.spans(), tally, outcome);
  outcome.Add("explore.parallel_efficiency",
              serial_ms / (parallel_ms * shape.threads), "ratio", op);
  outcome.Add("explore.self_ms", self_ms.Mean(), "ms", self_ms.size());
  outcome.Add("explore.render_ms", render_ms.Mean(), "ms", render_ms.size());
  outcome.Add("explore.cache.find_ms", find_ms.Mean(), "ms", find_ms.size());
  outcome.Add("explore.cache.hit_ratio",
              static_cast<double>(cache_hits) /
                  static_cast<double>(std::max<std::size_t>(1, cache_lookups)),
              "ratio", cache_lookups);
  outcome.Add("explore.pool.hit_ratio",
              static_cast<double>(pool_hits) /
                  static_cast<double>(std::max<std::size_t>(1, pool_lookups)),
              "ratio", pool_lookups);
  if (shape.serve_probe) {
    // The serve layer: a short serve_mix (its own set-up, closed loop and
    // output checks) whose serve.* metrics this run reports.
    Args probe = args;
    probe.workload = "serve_mix";
    probe.seconds = kServeProbeSeconds;
    Outcome served = RunServeMix(probe);
    outcome.attempted += served.attempted;
    outcome.failed += served.failed;
    outcome.wrong += served.wrong;
    for (std::string& failure : served.failures) {
      outcome.failures.push_back(std::move(failure));
    }
    for (const Metric& metric : served.metrics) {
      if (metric.name.rfind("serve.", 0) == 0) outcome.metrics.push_back(metric);
    }
  } else {
    outcome.Add("serve.overhead_ms", 0.0, "ms", 0);
    outcome.Add("serve.coalesced_ratio", 0.0, "ratio", 0);
    outcome.Add("serve.errors", 0.0, "count", 0);
  }
  Samples compile;
  for (double ms : pool.compile_ms) compile.Add(ms);
  outcome.Add("minicc.compile_ms", compile.Mean(), "ms", compile.size());
  outcome.Add("ledger.attributed_pct", 100.0 * attributed_ms / serial_ms, "%",
              op);
  outcome.Add("obs.trace_overhead_pct",
              100.0 * (drive_on_ms.Quantile(0.5) / drive_off_ms.Quantile(0.5) -
                       1.0),
              "%", drive_on_ms.size());
  WriteSpans(spans.spans(), args);
  return outcome;
}

}  // namespace

Outcome RunColdFlow(const Args& args) {
  FlowShape shape;
  shape.platforms = {"mips40", "mips200-xc2v1000", "mips400"};
  shape.strategies = {"paper-greedy"};
  shape.objectives = {partition::Objective::kSpeedup};
  shape.threads = 1;
  return RunFlow(args, shape);
}

Outcome RunDesignSweep(const Args& args) {
  FlowShape shape;
  shape.platforms = RegisterGridPlatforms();
  shape.strategies = AllStrategies();
  shape.objectives = {partition::Objective::kSpeedup,
                      partition::Objective::kEnergy,
                      partition::Objective::kEnergyDelay};
  shape.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  shape.serve_probe = true;
  return RunFlow(args, shape);
}

}  // namespace perfbench
