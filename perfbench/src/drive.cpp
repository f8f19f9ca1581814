#include "drive.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "decomp/lifter.hpp"
#include "explore/artifact_cache.hpp"
#include "mips/shared_cache.hpp"
#include "obs/obs.hpp"
#include "partition/platform_registry.hpp"

namespace perfbench {

using namespace b2h;

const std::vector<std::string>& AllStrategies() {
  static const std::vector<std::string> names = {
      "paper-greedy", "knapsack-optimal", "annealing"};
  return names;
}

explore::ExploreSpec MakeSpec(std::string name,
                              std::shared_ptr<const mips::SoftBinary> binary,
                              std::vector<std::string> platforms,
                              std::vector<std::string> strategies,
                              std::vector<partition::Objective> objectives,
                              std::uint64_t seed) {
  explore::ExploreSpec spec;
  spec.binaries = {{std::move(name), std::move(binary)}};
  spec.platforms = std::move(platforms);
  spec.strategies = std::move(strategies);
  spec.objectives = std::move(objectives);
  spec.strategy_options.seed = seed;
  return spec;
}

std::unique_ptr<Toolchain> FreshToolchain(unsigned threads) {
  auto toolchain = std::make_unique<Toolchain>();
  toolchain->WithThreads(threads).WithArtifactCache(
      std::make_shared<explore::ArtifactCache>());
  return toolchain;
}

ExploreOp RunExplore(const Toolchain& toolchain,
                     const explore::ExploreSpec& spec) {
  ExploreOp op;
  const obs::Stopwatch watch;
  op.result = toolchain.Explore(spec);
  const obs::Stopwatch render;
  op.json = op.result.Json();
  op.render_ms = render.Millis();
  op.ms = watch.Millis();
  return op;
}

std::string CheckPoints(const PoolBinary& entry,
                        const explore::ExploreResult& result) {
  for (const explore::ExplorePoint& point : result.points) {
    const std::string where = entry.name + " on " + point.platform_name +
                              " / " + point.strategy_name;
    if (entry.bench->expect_cdfg_failure) {
      if (point.status.kind() != ErrorKind::kIndirectJump) {
        return where + " should fail CDFG recovery (indirect jump)";
      }
    } else if (!point.status.ok()) {
      return where + " failed: " + point.status.message();
    }
  }
  return "";
}

std::string CheckReturn(const PoolBinary& entry, const mips::RunResult& run) {
  if (run.reason == mips::HaltReason::kReturned &&
      run.return_value == entry.reference) {
    return "";
  }
  return entry.name + ": profiling run returned " +
         std::to_string(run.return_value) + ", native reference " +
         std::to_string(entry.reference);
}

Axes ResolveAxes(const std::vector<std::string>& platforms,
                 const std::vector<std::string>& strategies,
                 std::vector<partition::Objective> objectives,
                 std::uint64_t seed) {
  Axes axes;
  for (const std::string& name : platforms) {
    auto platform = partition::PlatformRegistry::Global().Find(name);
    if (!platform.has_value()) {
      throw std::runtime_error("unregistered platform " + name);
    }
    // One profile serves the whole drive, as one decompilation serves a
    // sweep whose platforms share a cycle model.
    if (!axes.platforms.empty() &&
        !(platform->cpu.cycle_model ==
          axes.platforms.front().cpu.cycle_model)) {
      throw std::runtime_error("the layer drive needs one cycle model");
    }
    axes.platforms.push_back(*platform);
  }
  for (const std::string& name : strategies) {
    auto strategy = partition::StrategyRegistry::Global().Create(name);
    if (strategy == nullptr) {
      throw std::runtime_error("unregistered strategy " + name);
    }
    axes.strategy_names.push_back(name);
    axes.strategies.push_back(std::move(strategy));
  }
  axes.objectives = std::move(objectives);
  axes.strategy_options.seed = seed;
  return axes;
}

const decomp::PassManager& DefaultPipeline() {
  static const decomp::PassManager pipeline =
      decomp::PassManager::FromSpec("default").take().SetVerify(true);
  return pipeline;
}

namespace {

/// The default pipeline as one-pass managers, in default order.
const std::vector<decomp::PassManager>& OnePassPipelines() {
  static const std::vector<decomp::PassManager> passes = [] {
    std::vector<decomp::PassManager> out;
    for (const decomp::Pass* pass : DefaultPipeline().pipeline()) {
      out.push_back(decomp::PassManager::FromNames({pass->name()}).take());
    }
    return out;
  }();
  return passes;
}

void ProbeDecompile(const PoolBinary& entry, const Drive& drive,
                    SpanRecorder& spans) {
  SpanRecorder::Scope probe(spans, "probe.decomp");
  decomp::LiftOptions lift_options;
  lift_options.profile = &drive.run.profile;
  Result<ir::Module> lifted = Status::Error(ErrorKind::kUnsupported, "");
  {
    SpanRecorder::Scope span(spans, "decomp.lift");
    lifted = decomp::Lift(*entry.binary, lift_options);
  }
  ir::Module module = std::move(lifted).take();
  decomp::DecompileStats stats;
  std::vector<decomp::PassRunStats> runs;
  for (const decomp::PassManager& pass : OnePassPipelines()) {
    SpanRecorder::Scope span(spans,
                             "decomp.pass." + pass.pipeline().front()->name());
    pass.RunOnModule(module, stats, runs);
  }
}

}  // namespace

Drive RunDrive(const PoolBinary& entry, const Axes& axes,
               SpanRecorder& spans) {
  Drive drive;
  const partition::PartitionOptions options;  // the toolchain default
  const mips::CycleModel& model = axes.platforms.front().cpu.cycle_model;
  const std::size_t first_span = spans.mark();
  const obs::Stopwatch watch;
  {
    SpanRecorder::Scope op(spans, "op");
    {
      SpanRecorder::Scope span(spans, "mips.predecode");
      (void)mips::SharedBlockCache::Global().Obtain(*entry.binary, model);
    }
    std::optional<mips::Simulator> simulator;
    {
      SpanRecorder::Scope span(spans, "mips.sim_setup");
      simulator.emplace(*entry.binary, model);
    }
    {
      SpanRecorder::Scope span(spans, "mips.sim_run");
      drive.run = simulator->Run({}, kMaxSimInstructions);
    }
    simulator.reset();
    if (drive.run.reason != mips::HaltReason::kReturned) {
      drive.status = Status::Error(ErrorKind::kMalformedBinary,
                                   "software run did not complete: " +
                                       drive.run.fault_message);
    } else {
      Result<decomp::DecompiledProgram> program =
          Status::Error(ErrorKind::kUnsupported, "not run");
      {
        SpanRecorder::Scope span(spans, "decomp.pipeline");
        program = DefaultPipeline().Run(entry.binary, &drive.run.profile);
      }
      if (program.ok()) {
        drive.program = std::make_shared<const decomp::DecompiledProgram>(
            std::move(program).take());
      } else {
        drive.status = program.status();
      }
    }
    if (drive.program != nullptr) {
      {
        SpanRecorder::Scope span(spans, "partition.scan");
        drive.set = std::make_shared<const partition::CandidateSet>(
            partition::CandidateSet::Scan(*drive.program, drive.run.profile));
      }
      const auto& candidates = drive.set->candidates();
      for (std::size_t id = 0; id < candidates.size(); ++id) {
        // Unprofiled loops are never synthesized by any strategy.
        if (candidates[id].sw_cycles == 0) continue;
        SpanRecorder::Scope span(spans, "synth.region");
        (void)drive.set->Synthesize(id, options.synth);
        ++drive.regions;
      }
      for (std::size_t p = 0; p < axes.platforms.size(); ++p) {
        for (std::size_t s = 0; s < axes.strategies.size(); ++s) {
          const partition::Strategy& strategy = *axes.strategies[s];
          const std::size_t objectives =
              strategy.objective_sensitive() ? axes.objectives.size() : 1;
          for (std::size_t o = 0; o < objectives; ++o) {
            DriveJob job;
            job.platform = p;
            job.strategy = s;
            job.objective = axes.objectives[o];
            partition::StrategyOptions strategy_options =
                axes.strategy_options;
            strategy_options.objective = job.objective;
            strategy_options.candidates = drive.set;
            {
              SpanRecorder::Scope span(
                  spans, "partition.strategy." + axes.strategy_names[s]);
              job.result = strategy.Partition(
                  *drive.program, drive.run.profile, axes.platforms[p],
                  options, strategy_options);
            }
            if (job.result.ok()) {
              SpanRecorder::Scope span(spans, "partition.estimate");
              job.estimate = partition::EstimatePartition(job.result.value(),
                                                          axes.platforms[p]);
            }
            drive.jobs.push_back(std::move(job));
          }
        }
      }
    }
  }
  drive.op_ms = watch.Millis();
  if (!spans.enabled()) return drive;

  const auto& recorded = spans.spans();
  const std::uint32_t op_id = recorded[first_span].id;
  for (std::size_t i = first_span + 1; i < recorded.size(); ++i) {
    if (recorded[i].parent == op_id) drive.layer_ms += recorded[i].Millis();
  }
  if (drive.program != nullptr) ProbeDecompile(entry, drive, spans);
  return drive;
}

void ProbeStrategies(const Drive& drive, const Axes& axes,
                     SpanRecorder& spans) {
  std::vector<std::string> missing;
  for (const std::string& name : AllStrategies()) {
    if (std::find(axes.strategy_names.begin(), axes.strategy_names.end(),
                  name) == axes.strategy_names.end()) {
      missing.push_back(name);
    }
  }
  if (drive.set == nullptr || missing.empty()) return;
  SpanRecorder::Scope probe(spans, "probe.strategies");
  const partition::PartitionOptions options;
  for (const std::string& name : missing) {
    const auto strategy = partition::StrategyRegistry::Global().Create(name);
    partition::StrategyOptions strategy_options = axes.strategy_options;
    strategy_options.candidates = drive.set;
    SpanRecorder::Scope span(spans, "partition.strategy." + name);
    (void)strategy->Partition(*drive.program, drive.run.profile,
                              axes.platforms.front(), options,
                              strategy_options);
  }
}

std::string CompareWithExplore(const PoolBinary& entry, const Drive& drive,
                               const Axes& axes,
                               const explore::ExploreResult& result) {
  for (std::size_t p = 0; p < result.num_platforms; ++p) {
    for (std::size_t s = 0; s < result.num_strategies; ++s) {
      for (std::size_t o = 0; o < result.num_objectives; ++o) {
        const explore::ExplorePoint& point = result.At(0, p, s, o);
        const std::string where = entry.name + " on " + point.platform_name +
                                  " / " + point.strategy_name;
        if (!drive.status.ok() || !point.status.ok()) {
          if (drive.status.kind() != point.status.kind()) {
            return where + ": layer drive and Explore disagree on failure";
          }
          continue;
        }
        const bool sensitive = axes.strategies[s]->objective_sensitive();
        const auto job = std::find_if(
            drive.jobs.begin(), drive.jobs.end(), [&](const DriveJob& j) {
              return j.platform == p && j.strategy == s &&
                     (!sensitive || j.objective == point.objective);
            });
        if (job == drive.jobs.end() || !job->result.ok()) {
          return where + ": layer drive has no partition";
        }
        const partition::AppEstimate& estimate = job->estimate;
        std::vector<std::string> names;
        for (const auto& region : job->result.value().hw) {
          names.push_back(region.synthesized.region.name);
        }
        if (estimate.speedup != point.speedup ||
            estimate.partitioned_time != point.partitioned_time ||
            estimate.partitioned_energy != point.energy ||
            estimate.energy_savings != point.energy_savings ||
            estimate.area_gates != point.area_gates ||
            names != point.hw_names ||
            job->result.value().rejected != point.rejected) {
          return where + ": layer drive estimate differs from Explore";
        }
      }
    }
  }
  return "";
}

std::string PartitionReport(const std::string& binary_name,
                            const std::string& platform_name,
                            const Drive& drive, const DriveJob& job) {
  if (!job.result.ok()) return "";
  ToolchainRun run;
  run.binary_name = binary_name;
  run.platform_name = platform_name;
  run.program = drive.program;
  run.partition = job.result.value();
  run.estimate = job.estimate;
  return run.Json();
}

void LayerTally::Count(const Drive& drive) {
  ++ops;
  instructions += static_cast<double>(drive.run.instructions);
  regions += static_cast<double>(drive.regions);
  if (drive.program == nullptr) return;
  lifted += static_cast<double>(drive.program->stats.lifted_instrs);
  final_instrs += static_cast<double>(drive.program->stats.final_instrs);
  candidates += static_cast<double>(drive.set->size());
}

void AddLayerMetrics(const std::vector<SpanRecorder::Span>& spans,
                     const LayerTally& tally, Outcome& outcome) {
  const double ops = static_cast<double>(std::max<std::size_t>(1, tally.ops));
  const std::map<std::string, LayerTotals> layers = SelfTimes(spans);
  const auto total = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTotals{} : it->second;
  };
  const auto per_op = [&](const std::string& name) {
    return total(name).total_ms / ops;
  };
  const auto add_per_call = [&](const std::string& metric,
                                const std::string& span) {
    const LayerTotals layer = total(span);
    outcome.Add(metric,
                layer.calls == 0
                    ? 0.0
                    : layer.total_ms / static_cast<double>(layer.calls),
                "ms", layer.calls);
  };
  outcome.Add("mips.predecode_ms", per_op("mips.predecode"), "ms", tally.ops);
  outcome.Add("mips.sim_setup_ms", per_op("mips.sim_setup"), "ms", tally.ops);
  outcome.Add("mips.sim_run_ms", per_op("mips.sim_run"), "ms", tally.ops);
  outcome.Add("mips.instructions", tally.instructions / ops, "count",
              tally.ops);
  const double run_ms = total("mips.sim_run").total_ms;
  outcome.Add("mips.minstr_per_s",
              run_ms > 0.0 ? tally.instructions / (run_ms * 1e3) : 0.0,
              "Minstr/s", tally.ops);
  outcome.Add("decomp.lift_ms", per_op("decomp.lift"), "ms", tally.ops);
  std::vector<std::string> passes;  // each pass once; repeats are summed
  for (const decomp::Pass* pass : DefaultPipeline().pipeline()) {
    if (std::find(passes.begin(), passes.end(), pass->name()) ==
        passes.end()) {
      passes.push_back(pass->name());
    }
  }
  for (const std::string& pass : passes) {
    outcome.Add("decomp.pass_ms." + pass, per_op("decomp.pass." + pass), "ms",
                tally.ops);
  }
  outcome.Add("decomp.pipeline_ms", per_op("decomp.pipeline"), "ms",
              tally.ops);
  outcome.Add("decomp.ir_instrs.lifted", tally.lifted / ops, "count",
              tally.ops);
  outcome.Add("decomp.ir_instrs.final", tally.final_instrs / ops, "count",
              tally.ops);
  add_per_call("synth.region_ms", "synth.region");
  outcome.Add("synth.regions", tally.regions / ops, "count", tally.ops);
  outcome.Add("partition.scan_ms", per_op("partition.scan"), "ms", tally.ops);
  outcome.Add("partition.candidates", tally.candidates / ops, "count",
              tally.ops);
  for (const std::string& name : AllStrategies()) {
    add_per_call("partition.strategy_ms." + name,
                 "partition.strategy." + name);
  }
  add_per_call("partition.estimate_ms", "partition.estimate");
}

void TimeCacheFinds(const Drive& drive, const std::string& tag,
                    explore::ArtifactCache& cache, Samples& find_ms) {
  std::vector<std::string> keys;
  for (std::size_t j = 0; j < drive.jobs.size(); ++j) {
    const DriveJob& job = drive.jobs[j];
    if (!job.result.ok()) continue;
    auto artifact = std::make_shared<explore::PartitionArtifact>();
    artifact->program = drive.program;
    artifact->partition = job.result.value();
    artifact->estimate = job.estimate;
    explore::ContentHasher hasher;
    hasher.Str("perfbench").Str(tag).U64(j);
    keys.push_back(hasher.Hex());
    cache.PutPartition(keys.back(), std::move(artifact));
  }
  for (const std::string& key : keys) {
    explore::HitTier tier = explore::HitTier::kMiss;
    const obs::Stopwatch watch;
    const auto found = cache.FindPartition(key, &tier);
    find_ms.Add(watch.Millis());
    if (found == nullptr || tier != explore::HitTier::kMemory) {
      throw std::runtime_error("memory-tier FindPartition missed " + key);
    }
  }
}

}  // namespace perfbench
