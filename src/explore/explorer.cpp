#include "explore/explorer.hpp"

#include <atomic>
#include <map>
#include <set>
#include <sstream>

#include "decomp/pass_manager.hpp"
#include "mips/simulator.hpp"
#include "obs/obs.hpp"
#include "support/json.hpp"
#include "support/parallel_for.hpp"
#include "support/schema.hpp"

namespace b2h::explore {

namespace {

std::string DecompKey(const std::string& binary_hash,
                      const std::string& pipeline,
                      const mips::CycleModel& model,
                      std::uint64_t max_instructions) {
  ContentHasher hasher;
  hasher.Str("decompile")
      .Str(binary_hash)
      .Str(pipeline)
      .U64(model.base)
      .U64(model.load_extra)
      .U64(model.mult_extra)
      .U64(model.div_extra)
      .U64(model.taken_extra)
      .U64(max_instructions);
  return hasher.Hex();
}

std::string PartitionKey(const std::string& decomp_key,
                         const std::string& platform_hash,
                         std::string_view strategy,
                         std::string_view objective,
                         std::string_view options_fingerprint) {
  ContentHasher hasher;
  hasher.Str("partition")
      .Str(decomp_key)
      .Str(platform_hash)
      .Str(strategy)
      .Str(objective)
      .Str(options_fingerprint);
  return hasher.Hex();
}

}  // namespace

bool Dominates(const ParetoMetrics& a, const ParetoMetrics& b) {
  const bool no_worse = a.speedup >= b.speedup && a.energy <= b.energy &&
                        a.area_gates <= b.area_gates;
  const bool better = a.speedup > b.speedup || a.energy < b.energy ||
                      a.area_gates < b.area_gates;
  return no_worse && better;
}

std::vector<std::size_t> ParetoFrontier(
    const std::vector<ParetoMetrics>& points) {
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (j != i && Dominates(points[j], points[i])) dominated = true;
    }
    if (!dominated) frontier.push_back(i);
  }
  return frontier;
}

const ExplorePoint& ExploreResult::At(std::size_t binary, std::size_t platform,
                                      std::size_t strategy,
                                      std::size_t objective) const {
  return points.at(
      ((binary * num_platforms + platform) * num_strategies + strategy) *
          num_objectives +
      objective);
}

Explorer::Explorer(ExplorerConfig config, std::shared_ptr<ArtifactCache> cache)
    : config_(std::move(config)),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<ArtifactCache>()) {}

ExploreResult Explorer::Run(const ExploreSpec& spec) const {
  const obs::Stopwatch wall;
  obs::ScopedSpan sweep_span("explore.sweep", "explore");
  ExploreResult out;
  out.num_binaries = spec.binaries.size();
  out.num_platforms = spec.platforms.size();
  out.num_strategies = spec.strategies.size();
  out.num_objectives = spec.objectives.size();
  const std::size_t num_points = out.num_binaries * out.num_platforms *
                                 out.num_strategies * out.num_objectives;
  out.points.resize(num_points);

  const auto point_index = [&](std::size_t b, std::size_t p, std::size_t s,
                               std::size_t o) {
    return ((b * out.num_platforms + p) * out.num_strategies + s) *
               out.num_objectives +
           o;
  };
  for (std::size_t b = 0; b < out.num_binaries; ++b) {
    for (std::size_t p = 0; p < out.num_platforms; ++p) {
      for (std::size_t s = 0; s < out.num_strategies; ++s) {
        for (std::size_t o = 0; o < out.num_objectives; ++o) {
          ExplorePoint& point = out.points[point_index(b, p, s, o)];
          point.binary_name = spec.binaries[b].name;
          point.platform_name = spec.platforms[p];
          point.strategy_name = spec.strategies[s];
          point.objective = spec.objectives[o];
        }
      }
    }
  }
  sweep_span.Arg("binaries", static_cast<std::uint64_t>(out.num_binaries))
      .Arg("platforms", static_cast<std::uint64_t>(out.num_platforms))
      .Arg("points", static_cast<std::uint64_t>(num_points));
  if (num_points == 0) {
    out.wall_ms = wall.Millis();
    return out;
  }

  auto manager = decomp::PassManager::FromSpec(config_.pipeline);
  if (!manager.ok()) {
    for (ExplorePoint& point : out.points) point.status = manager.status();
    return out;
  }
  const decomp::PassManager pipeline = std::move(manager).take();

  // Resolve every sweep axis up front.
  std::vector<std::optional<partition::Platform>> platforms;
  std::vector<std::string> platform_hashes(out.num_platforms);
  for (std::size_t p = 0; p < out.num_platforms; ++p) {
    platforms.push_back(
        partition::PlatformRegistry::Global().Find(spec.platforms[p]));
    if (platforms[p].has_value()) {
      platform_hashes[p] = HashPlatform(*platforms[p]);
    }
  }
  // One shared instance per strategy name: Strategy::Partition is const and
  // the built-ins are stateless, so instances are shared across workers.
  std::vector<std::unique_ptr<partition::Strategy>> strategies;
  for (const std::string& name : spec.strategies) {
    strategies.push_back(partition::StrategyRegistry::Global().Create(name));
  }
  std::vector<std::string> binary_hashes(out.num_binaries);
  for (std::size_t b = 0; b < out.num_binaries; ++b) {
    if (spec.binaries[b].binary != nullptr) {
      binary_hashes[b] = HashBinary(*spec.binaries[b].binary);
    }
  }
  // Strategies run with the default synthesis setup: the partition key
  // and the candidate pool key leave the options out.
  const partition::PartitionOptions partition_options;

  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_memory_hits = 0;
  std::size_t cache_disk_hits = 0;
  const auto count_hit = [&](HitTier tier) {
    ++cache_hits;
    if (tier == HitTier::kDisk) {
      ++cache_disk_hits;
    } else {
      ++cache_memory_hits;
    }
  };

  // Progress sink: fires at stage boundaries and per finished stage job.
  // cache_hits is only mutated in the serial phases, so reading it from a
  // worker-thread report is race-free.
  const auto report_progress = [&](const char* stage, std::uint64_t done,
                                   std::uint64_t total,
                                   bool finished = false) {
    if (!spec.progress) return;
    ExploreProgress progress;
    progress.stage = stage;
    progress.stage_done = done;
    progress.stage_total = total;
    progress.points_total = num_points;
    progress.cache_hits = cache_hits;
    progress.done = finished;
    spec.progress(progress);
  };

  // ---- Probe: one partition key per point, before any work runs ---------
  // The decompile key hashes inputs only (binary bytes, pipeline spec, CPU
  // cycle model, sim budget), so every partition key is known up front and
  // a warm sweep never touches a decompile key.  Clock frequency and FPGA
  // capacity do not affect cycle counts, so the paper's whole platform grid
  // shares one decompile key per binary; objective-insensitive strategies
  // (the paper heuristic) collapse all objectives onto one partition key.
  struct PartitionJob {
    std::string key;
    std::string decomp_key;
    std::size_t binary = 0;
    std::size_t platform = 0;
    std::size_t strategy = 0;
    partition::Objective objective = partition::Objective::kSpeedup;
  };
  std::vector<std::string> point_keys(num_points);
  std::vector<PartitionJob> partition_jobs;
  // Every key's artifact, failed ones included (null while queued).
  std::map<std::string, std::shared_ptr<const PartitionArtifact>> partitions;
  std::set<std::string> partition_cached_keys;  // hits at probe time
  for (std::size_t b = 0; b < out.num_binaries; ++b) {
    for (std::size_t p = 0; p < out.num_platforms; ++p) {
      const bool resolved =
          spec.binaries[b].binary != nullptr && platforms[p].has_value();
      const std::string decomp_key =
          resolved ? DecompKey(binary_hashes[b], config_.pipeline,
                               platforms[p]->cpu.cycle_model,
                               config_.max_sim_instructions)
                   : std::string();
      for (std::size_t s = 0; s < out.num_strategies; ++s) {
        for (std::size_t o = 0; o < out.num_objectives; ++o) {
          ExplorePoint& point = out.points[point_index(b, p, s, o)];
          if (spec.binaries[b].binary == nullptr) {
            point.status = Status::Error(
                ErrorKind::kMalformedBinary,
                "null binary: " + spec.binaries[b].name);
            continue;
          }
          if (!platforms[p].has_value()) {
            point.status = Status::Error(
                ErrorKind::kUnsupported,
                "unknown platform: " + spec.platforms[p]);
            continue;
          }
          if (strategies[s] == nullptr) {
            point.status = Status::Error(
                ErrorKind::kUnsupported,
                "unknown strategy: " + spec.strategies[s]);
            continue;
          }
          const std::string_view objective_key =
              strategies[s]->objective_sensitive()
                  ? partition::ObjectiveName(spec.objectives[o])
                  : "objective-insensitive";
          const std::string key = PartitionKey(
              decomp_key, platform_hashes[p], spec.strategies[s],
              objective_key,
              strategies[s]->OptionsFingerprint(spec.strategy_options));
          point_keys[point_index(b, p, s, o)] = key;
          const auto [slot, inserted] = partitions.try_emplace(key);
          if (!inserted) continue;
          HitTier tier = HitTier::kMiss;
          slot->second = cache_->FindPartition(key, &tier);
          if (slot->second != nullptr) {
            count_hit(tier);
            partition_cached_keys.insert(key);
          } else {
            ++cache_misses;
            partition_jobs.push_back(
                {key, decomp_key, b, p, s, spec.objectives[o]});
          }
        }
      }
    }
  }

  // ---- Stage A: profile + decompile what the missed partitions need -----
  // One job per decompile key behind a missed partition key, unless the
  // memory tier holds it (the disk tier keeps no decompiles).
  struct DecompJob {
    std::string key;
    std::size_t binary = 0;
    mips::CycleModel model;
  };
  std::vector<DecompJob> decomp_jobs;
  std::map<std::string, std::shared_ptr<const DecompileArtifact>> decomps;
  for (const PartitionJob& job : partition_jobs) {
    const auto [slot, inserted] = decomps.try_emplace(job.decomp_key);
    if (!inserted) continue;
    HitTier tier = HitTier::kMiss;
    slot->second = cache_->FindDecompile(job.decomp_key, &tier);
    if (slot->second != nullptr) {
      count_hit(tier);
    } else {
      ++cache_misses;
      decomp_jobs.push_back({job.decomp_key, job.binary,
                             platforms[job.platform]->cpu.cycle_model});
    }
  }

  std::vector<std::shared_ptr<const DecompileArtifact>> decomp_slots(
      decomp_jobs.size());
  std::vector<double> decomp_job_ms(decomp_jobs.size(), 0.0);
  std::atomic<std::size_t> simulations{0};
  std::atomic<std::size_t> decompilations{0};
  std::atomic<std::uint64_t> decomp_progress{0};
  // One job's profile+decompile; a failure becomes the artifact's status
  // and is cached like any other result.
  const auto profile_and_decompile = [&](const DecompJob& job) {
    auto artifact = std::make_shared<DecompileArtifact>();
    try {
      const auto& binary = spec.binaries[job.binary].binary;
      mips::Simulator simulator(*binary, job.model);
      auto run = std::make_shared<mips::RunResult>(
          simulator.Run({}, config_.max_sim_instructions));
      simulations.fetch_add(1);
      if (run->reason != mips::HaltReason::kReturned) {
        artifact->status = Status::Error(
            ErrorKind::kMalformedBinary,
            "software run did not complete: " + run->fault_message);
      } else {
        auto program = pipeline.Run(binary, &run->profile);
        decompilations.fetch_add(1);
        if (!program.ok()) {
          artifact->status = program.status();
        } else {
          artifact->software_run = std::move(run);
          artifact->program =
              std::make_shared<const decomp::DecompiledProgram>(
                  std::move(program).take());
        }
      }
    } catch (const std::exception& e) {
      artifact->status = Status::Error(
          ErrorKind::kUnsupported,
          std::string("internal error: ") + e.what());
    }
    return std::shared_ptr<const DecompileArtifact>(std::move(artifact));
  };
  report_progress("decompile", 0, decomp_jobs.size());
  support::ParallelFor(
      decomp_jobs.size(), config_.threads, [&](std::size_t index) {
        const DecompJob& job = decomp_jobs[index];
        obs::ScopedSpan span("explore.decompile", "explore");
        span.Arg("binary", spec.binaries[job.binary].name);
        const obs::Stopwatch watch;
        // Single-flight: when another explorer sharing this cache is
        // already running this key, wait HERE, inside a parallel job — two
        // explorers waiting on each other's keys from their serial
        // epilogues would deadlock — and run no work of our own.
        bool built = false;
        decomp_slots[index] = cache_->ObtainDecompile(job.key, [&] {
          built = true;
          return profile_and_decompile(job);
        });
        if (!built) span.Arg("single_flight", "wait");
        decomp_job_ms[index] = watch.Millis();
        report_progress(
            "decompile",
            decomp_progress.fetch_add(1, std::memory_order_relaxed) + 1,
            decomp_jobs.size());
      });
  for (std::size_t index = 0; index < decomp_jobs.size(); ++index) {
    out.decompile_stage_ms += decomp_job_ms[index];
    decomps[decomp_jobs[index].key] = std::move(decomp_slots[index]);
  }

  // A failed decompile fails every partition key that needed it.  Each
  // key caches the failure as a failed PartitionArtifact, so a warm sweep
  // — in this process or, through the disk tier, in the next — replays it
  // without profiling the binary again.
  {
    std::vector<PartitionJob> runnable;
    runnable.reserve(partition_jobs.size());
    for (PartitionJob& job : partition_jobs) {
      const Status& status = decomps.at(job.decomp_key)->status;
      if (status.ok()) {
        runnable.push_back(std::move(job));
        continue;
      }
      auto failed = std::make_shared<PartitionArtifact>();
      failed->status = status;
      cache_->PutPartition(job.key, failed);
      partitions[job.key] = std::move(failed);
    }
    partition_jobs = std::move(runnable);
  }

  // ---- Stage B: one partition per missed partition key -------------------
  std::vector<std::shared_ptr<PartitionArtifact>> partition_slots(
      partition_jobs.size());
  std::vector<double> partition_job_scan_ms(partition_jobs.size(), 0.0);
  std::vector<double> partition_job_ms(partition_jobs.size(), 0.0);
  std::atomic<std::size_t> partitions_run{0};
  std::atomic<std::uint64_t> partition_progress{0};
  report_progress("partition", 0, partition_jobs.size());
  support::ParallelFor(
      partition_jobs.size(), config_.threads, [&](std::size_t index) {
        const PartitionJob& job = partition_jobs[index];
        auto artifact = std::make_shared<PartitionArtifact>();
        partition_slots[index] = artifact;
        try {
          const auto& base = decomps.at(job.decomp_key);
          partition::StrategyOptions strategy_options = spec.strategy_options;
          strategy_options.objective = job.objective;
          // Every job on the same program shares one pooled CandidateSet,
          // so a strategy/objective/seed sweep scans once and synthesizes
          // each candidate once total.
          {
            obs::ScopedSpan scan_span("explore.scan", "partition");
            scan_span.Arg("binary", spec.binaries[job.binary].name);
            const obs::Stopwatch scan_watch;
            strategy_options.candidates = cache_->candidate_pool()->Obtain(
                job.decomp_key, base->program,
                base->software_run->profile);
            partition_job_scan_ms[index] = scan_watch.Millis();
          }
          obs::ScopedSpan span("explore.partition", "partition");
          span.Arg("strategy", spec.strategies[job.strategy])
              .Arg("platform", spec.platforms[job.platform]);
          const obs::Stopwatch watch;
          auto partitioned = strategies[job.strategy]->Partition(
              *base->program, base->software_run->profile,
              *platforms[job.platform], partition_options, strategy_options);
          partitions_run.fetch_add(1);
          partition_job_ms[index] = watch.Millis();
          if (!partitioned.ok()) {
            artifact->status = partitioned.status();
            return;
          }
          artifact->program = base->program;
          artifact->software_run = base->software_run;
          artifact->partition = std::move(partitioned).take();
          artifact->estimate = partition::EstimatePartition(
              artifact->partition, *platforms[job.platform]);
        } catch (const std::exception& e) {
          artifact->status = Status::Error(
              ErrorKind::kUnsupported,
              std::string("internal error: ") + e.what());
        }
        report_progress(
            "partition",
            partition_progress.fetch_add(1, std::memory_order_relaxed) + 1,
            partition_jobs.size());
      });
  for (std::size_t index = 0; index < partition_jobs.size(); ++index) {
    out.scan_stage_ms += partition_job_scan_ms[index];
    out.partition_stage_ms += partition_job_ms[index];
    cache_->PutPartition(partition_jobs[index].key, partition_slots[index]);
    partitions[partition_jobs[index].key] = std::move(partition_slots[index]);
  }

  // ---- Fill points and compute per-binary Pareto frontiers ---------------
  for (std::size_t i = 0; i < num_points; ++i) {
    ExplorePoint& point = out.points[i];
    if (!point.status.ok()) continue;
    const auto found = partitions.find(point_keys[i]);
    Check(found != partitions.end() && found->second != nullptr,
          "Explorer: missing artifact");
    const PartitionArtifact& artifact = *found->second;
    if (!artifact.status.ok()) {
      point.status = artifact.status;
      continue;
    }
    point.artifact = found->second;
    point.speedup = artifact.estimate.speedup;
    point.partitioned_time = artifact.estimate.partitioned_time;
    point.energy = artifact.estimate.partitioned_energy;
    point.energy_savings = artifact.estimate.energy_savings;
    point.edp =
        artifact.estimate.partitioned_energy * artifact.estimate.partitioned_time;
    point.area_gates = artifact.estimate.area_gates;
    point.hw_regions = artifact.partition.hw.size();
    point.hw_names.clear();
    point.hw_names.reserve(artifact.partition.hw.size());
    for (const auto& region : artifact.partition.hw) {
      point.hw_names.push_back(region.synthesized.region.name);
    }
    point.rejected = artifact.partition.rejected;
    point.from_cache = partition_cached_keys.count(point_keys[i]) != 0;
  }
  for (std::size_t b = 0; b < out.num_binaries; ++b) {
    std::vector<std::size_t> ok_points;
    std::vector<ParetoMetrics> metrics;
    for (std::size_t p = 0; p < out.num_platforms; ++p) {
      for (std::size_t s = 0; s < out.num_strategies; ++s) {
        for (std::size_t o = 0; o < out.num_objectives; ++o) {
          const std::size_t i = point_index(b, p, s, o);
          if (!out.points[i].status.ok()) continue;
          ok_points.push_back(i);
          metrics.push_back({out.points[i].speedup, out.points[i].energy,
                             out.points[i].area_gates});
        }
      }
    }
    for (std::size_t index : ParetoFrontier(metrics)) {
      out.points[ok_points[index]].on_frontier = true;
    }
  }

  out.simulations_run = simulations.load();
  out.decompilations_run = decompilations.load();
  out.partitions_run = partitions_run.load();
  out.cache_hits = cache_hits;
  out.cache_misses = cache_misses;
  out.cache_memory_hits = cache_memory_hits;
  out.cache_disk_hits = cache_disk_hits;
  out.wall_ms = wall.Millis();
  sweep_span.Arg("cache_hits", static_cast<std::uint64_t>(cache_hits))
      .Arg("cache_misses", static_cast<std::uint64_t>(cache_misses));
  report_progress("done", num_points, num_points, /*finished=*/true);
  return out;
}

std::string ExploreResult::Report() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line,
                "=== design-space exploration: %zu binaries x %zu platforms "
                "x %zu strategies x %zu objectives ===\n",
                num_binaries, num_platforms, num_strategies, num_objectives);
  out << line;
  for (std::size_t b = 0; b < num_binaries; ++b) {
    const std::size_t row = b * num_platforms * num_strategies * num_objectives;
    if (row >= points.size()) break;
    out << "--- " << points[row].binary_name << " ---\n";
    std::snprintf(line, sizeof line,
                  "  %-20s %-18s %-9s %9s %11s %12s %12s %3s %s\n", "platform",
                  "strategy", "objective", "speedup", "energy(uJ)",
                  "edp(uJ.ms)", "area(gates)", "hw", "pareto");
    out << line;
    std::size_t frontier_count = 0;
    std::size_t ok_count = 0;
    for (std::size_t p = 0; p < num_platforms; ++p) {
      for (std::size_t s = 0; s < num_strategies; ++s) {
        for (std::size_t o = 0; o < num_objectives; ++o) {
          const ExplorePoint& point = At(b, p, s, o);
          if (!point.status.ok()) {
            std::snprintf(line, sizeof line, "  %-20s %-18s %-9s FAILED: %s\n",
                          point.platform_name.c_str(),
                          point.strategy_name.c_str(),
                          std::string(partition::ObjectiveName(point.objective))
                              .c_str(),
                          point.status.message().c_str());
            out << line;
            continue;
          }
          ++ok_count;
          if (point.on_frontier) ++frontier_count;
          std::snprintf(
              line, sizeof line,
              "  %-20s %-18s %-9s %8.2fx %11.3f %12.4f %12.0f %3zu %s\n",
              point.platform_name.c_str(), point.strategy_name.c_str(),
              std::string(partition::ObjectiveName(point.objective)).c_str(),
              point.speedup, point.energy * 1e6, point.edp * 1e9,
              point.area_gates, point.hw_regions,
              point.on_frontier ? "*" : "");
          out << line;
        }
      }
    }
    std::snprintf(line, sizeof line,
                  "  pareto frontier: %zu of %zu points\n", frontier_count,
                  ok_count);
    out << line;
    // Why regions were skipped (deduplicated per point).
    for (std::size_t p = 0; p < num_platforms; ++p) {
      for (std::size_t s = 0; s < num_strategies; ++s) {
        for (std::size_t o = 0; o < num_objectives; ++o) {
          const ExplorePoint& point = At(b, p, s, o);
          if (!point.status.ok() || point.rejected.empty()) continue;
          const std::vector<std::string> unique =
              partition::UniqueRejections(point.rejected);
          out << "  rejected [" << point.platform_name << "/"
              << point.strategy_name << "/"
              << partition::ObjectiveName(point.objective) << "]: ";
          for (std::size_t r = 0; r < unique.size(); ++r) {
            if (r != 0) out << "; ";
            out << unique[r];
          }
          out << "\n";
        }
      }
    }
  }
  return out.str();
}

std::string ExploreResult::Json() const {
  std::ostringstream out;
  char number[64];
  const auto emit_double = [&](const char* name, double value) {
    std::snprintf(number, sizeof number, "%.9g", value);
    out << ",\"" << name << "\":" << number;
  };
  const auto emit_strings = [&](const char* name,
                                const std::vector<std::string>& values) {
    out << ",\"" << name << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out << ",";
      out << "\"" << support::JsonEscape(values[i]) << "\"";
    }
    out << "]";
  };
  out << "{\"schema\":" << kReportSchemaVersion << ",\"binaries\":"
      << num_binaries << ",\"platforms\":" << num_platforms
      << ",\"strategies\":" << num_strategies << ",\"objectives\":"
      << num_objectives << ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExplorePoint& point = points[i];
    if (i != 0) out << ",";
    out << "{\"binary\":\"" << support::JsonEscape(point.binary_name)
        << "\",\"platform\":\"" << support::JsonEscape(point.platform_name)
        << "\",\"strategy\":\"" << support::JsonEscape(point.strategy_name)
        << "\",\"objective\":\""
        << partition::ObjectiveName(point.objective) << "\"";
    if (!point.status.ok()) {
      out << ",\"error\":\"" << support::JsonEscape(point.status.message())
          << "\"}";
      continue;
    }
    emit_double("speedup", point.speedup);
    emit_double("energy", point.energy);
    emit_double("energy_savings", point.energy_savings);
    emit_double("edp", point.edp);
    emit_double("area_gates", point.area_gates);
    emit_strings("hw_regions", point.hw_names);
    emit_strings("rejected", point.rejected);
    out << ",\"pareto\":" << (point.on_frontier ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

std::string ExploreResult::StatsReport() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line,
                "work: %zu simulations, %zu decompilations, %zu partitions\n",
                simulations_run, decompilations_run, partitions_run);
  out << line;
  std::snprintf(line, sizeof line,
                "cache: %zu hits (%zu memory + %zu disk), %zu misses "
                "(hit rate %.0f%%)\n",
                cache_hits, cache_memory_hits, cache_disk_hits, cache_misses,
                cache_hits + cache_misses > 0
                    ? 100.0 * static_cast<double>(cache_hits) /
                          static_cast<double>(cache_hits + cache_misses)
                    : 0.0);
  out << line;
  std::snprintf(line, sizeof line,
                "stages: %.1f ms decompile, %.1f ms scan, "
                "%.1f ms partition\n",
                decompile_stage_ms, scan_stage_ms, partition_stage_ms);
  out << line;
  std::snprintf(line, sizeof line, "wall: %.1f ms\n", wall_ms);
  out << line;
  return out.str();
}

}  // namespace b2h::explore
