#include "explore/explorer.hpp"

#include <algorithm>
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

  // ---- Stage A: one profile + decompilation per unique artifact key ------
  // The key covers binary bytes, pipeline spec, and CPU cycle model: clock
  // frequency and FPGA capacity do not affect cycle counts, so the paper's
  // whole platform grid shares one decompilation per binary.
  struct DecompJob {
    std::string key;
    std::size_t binary = 0;
    mips::CycleModel model;
    /// Single-flight outcome (ArtifactCache::LeadDecompile): leaders run
    /// the profile+decompile and publish; non-leaders wait on the cache's
    /// in-flight future instead of duplicating the work.
    bool lead = true;
  };
  std::vector<DecompJob> decomp_jobs;
  std::map<std::string, std::shared_ptr<const DecompileArtifact>> decomp_done;
  std::map<std::string, Status> decomp_failed;
  // decomp key per (binary, platform); empty when unresolvable.
  std::vector<std::string> pair_decomp_key(out.num_binaries *
                                           out.num_platforms);
  // First binary observed per decomp key, for program rehydration of
  // summary-only disk hits (any binary with the key works — the key covers
  // the binary hash).
  std::map<std::string, std::size_t> decomp_key_binary;
  for (std::size_t b = 0; b < out.num_binaries; ++b) {
    for (std::size_t p = 0; p < out.num_platforms; ++p) {
      if (spec.binaries[b].binary == nullptr || !platforms[p].has_value()) {
        continue;
      }
      const std::string key =
          DecompKey(binary_hashes[b], config_.pipeline,
                    platforms[p]->cpu.cycle_model,
                    config_.max_sim_instructions);
      pair_decomp_key[b * out.num_platforms + p] = key;
      decomp_key_binary.emplace(key, b);
      if (decomp_done.count(key) != 0 || decomp_failed.count(key) != 0) {
        continue;
      }
      if (std::any_of(decomp_jobs.begin(), decomp_jobs.end(),
                      [&](const DecompJob& job) { return job.key == key; })) {
        continue;
      }
      HitTier tier = HitTier::kMiss;
      auto cached = cache_->FindDecompile(key, &tier);
      if (cached != nullptr) {
        count_hit(tier);
        if (cached->status.ok()) {
          decomp_done.emplace(key, std::move(cached));
        } else {
          decomp_failed.emplace(key, cached->status);
        }
      } else {
        ++cache_misses;
        decomp_jobs.push_back({key, b, platforms[p]->cpu.cycle_model,
                               cache_->LeadDecompile(key)});
      }
    }
  }

  std::vector<std::shared_ptr<const DecompileArtifact>> decomp_slots(
      decomp_jobs.size());
  std::vector<double> decomp_job_ms(decomp_jobs.size(), 0.0);
  std::atomic<std::size_t> simulations{0};
  std::atomic<std::size_t> decompilations{0};
  // Shared decompile tail of Stage A (fresh simulation) and Stage A'
  // (profile served from the disk cache): run the pass pipeline over the
  // profiled binary and finish the artifact.
  const auto decompile_into =
      [&](DecompileArtifact& artifact,
          const std::shared_ptr<const mips::SoftBinary>& binary,
          std::shared_ptr<const mips::RunResult> run) {
        auto program = pipeline.Run(binary, &run->profile);
        decompilations.fetch_add(1);
        if (!program.ok()) {
          artifact.status = program.status();
          return;
        }
        artifact.software_run = std::move(run);
        artifact.program = std::make_shared<const decomp::DecompiledProgram>(
            std::move(program).take());
      };
  std::atomic<std::uint64_t> decomp_progress{0};
  report_progress("decompile", 0, decomp_jobs.size());
  support::ParallelFor(
      decomp_jobs.size(), config_.threads, [&](std::size_t index) {
        const DecompJob& job = decomp_jobs[index];
        obs::ScopedSpan span("explore.decompile", "explore");
        span.Arg("binary", spec.binaries[job.binary].name);
        const obs::Stopwatch watch;
        const auto finish = [&] {
          decomp_job_ms[index] = watch.Millis();
          report_progress(
              "decompile",
              decomp_progress.fetch_add(1, std::memory_order_relaxed) + 1,
              decomp_jobs.size());
        };
        if (!job.lead) {
          // Another explorer sharing this cache is already running this
          // key (single-flight): block HERE, inside a parallel job — two
          // explorers waiting on each other's keys from their serial
          // epilogues would deadlock — and run no work of our own.
          span.Arg("single_flight", "wait");
          if (auto shared = cache_->WaitDecompile(job.key)) {
            decomp_slots[index] = std::move(shared);
            finish();
            return;
          }
          // The in-flight entry vanished (a Clear() raced the leader's
          // publish): recompute locally like a leader after all.
        }
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
            decompile_into(*artifact, binary, std::move(run));
          }
        } catch (const std::exception& e) {
          artifact->status = Status::Error(
              ErrorKind::kUnsupported,
              std::string("internal error: ") + e.what());
        }
        // Publish from inside the job, unconditionally: waiters in other
        // explorers unblock the moment the artifact exists, and a failed
        // decompile releases them too (the failure is cached like any
        // other result).
        cache_->PutDecompile(job.key, artifact);
        decomp_slots[index] = std::move(artifact);
        finish();
      });
  // Decompile stage time per key, for point attribution; rehydrations
  // (Stage A') add theirs below.
  std::map<std::string, double> decomp_ms_by_key;
  for (std::size_t index = 0; index < decomp_jobs.size(); ++index) {
    // No PutDecompile here: the jobs published (leaders) or consumed a
    // publication (single-flight waiters) already.
    std::shared_ptr<const DecompileArtifact> artifact =
        std::move(decomp_slots[index]);
    decomp_ms_by_key[decomp_jobs[index].key] = decomp_job_ms[index];
    out.decompile_stage_ms += decomp_job_ms[index];
    if (artifact->status.ok()) {
      decomp_done.emplace(decomp_jobs[index].key, std::move(artifact));
    } else {
      decomp_failed.emplace(decomp_jobs[index].key, artifact->status);
    }
  }

  // ---- Stage B: one partition per unique artifact key --------------------
  // Objective-insensitive strategies (the paper heuristic) collapse all
  // objectives onto one key, so those sweep points are served by a single
  // partition.
  struct PartitionJob {
    std::string key;
    std::size_t binary = 0;
    std::size_t platform = 0;
    std::size_t strategy = 0;
    partition::Objective objective = partition::Objective::kSpeedup;
  };
  std::vector<std::string> point_keys(num_points);
  std::vector<PartitionJob> partition_jobs;
  std::map<std::string, std::shared_ptr<const PartitionArtifact>>
      partition_done;
  std::map<std::string, Status> partition_failed;
  std::set<std::string> partition_cached_keys;  // hits at probe time
  std::set<std::string> partition_queued;
  for (std::size_t b = 0; b < out.num_binaries; ++b) {
    for (std::size_t p = 0; p < out.num_platforms; ++p) {
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
          const std::string& decomp_key =
              pair_decomp_key[b * out.num_platforms + p];
          const auto failed = decomp_failed.find(decomp_key);
          if (failed != decomp_failed.end()) {
            point.status = failed->second;
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
          if (partition_queued.count(key) != 0 ||
              partition_cached_keys.count(key) != 0) {
            continue;
          }
          HitTier tier = HitTier::kMiss;
          auto cached = cache_->FindPartition(key, &tier);
          if (cached != nullptr) {
            count_hit(tier);
            partition_cached_keys.insert(key);
            if (cached->status.ok()) {
              partition_done.emplace(key, std::move(cached));
            } else {
              partition_failed.emplace(key, cached->status);
            }
          } else {
            ++cache_misses;
            partition_queued.insert(key);
            partition_jobs.push_back(
                {key, b, p, s, spec.objectives[o]});
          }
        }
      }
    }
  }

  // ---- Stage A': rehydrate summary-only decompile artifacts --------------
  // A disk-hydrated DecompileArtifact carries the profile but not the IR
  // (see artifact_cache.hpp).  That is enough for every fully-warm point;
  // only when a partition key actually missed does its program get rebuilt
  // here — from the cached profile, skipping the simulation.
  struct RehydrateJob {
    std::string key;
    std::size_t binary = 0;
  };
  std::vector<RehydrateJob> rehydrate_jobs;
  {
    std::set<std::string> queued;
    for (const PartitionJob& job : partition_jobs) {
      const std::string& key =
          pair_decomp_key[job.binary * out.num_platforms + job.platform];
      const auto it = decomp_done.find(key);
      if (it != decomp_done.end() && it->second->program == nullptr &&
          queued.insert(key).second) {
        rehydrate_jobs.push_back({key, decomp_key_binary.at(key)});
      }
    }
  }
  std::vector<std::shared_ptr<DecompileArtifact>> rehydrate_slots(
      rehydrate_jobs.size());
  std::vector<double> rehydrate_job_ms(rehydrate_jobs.size(), 0.0);
  std::atomic<std::size_t> rehydrations{0};
  std::atomic<std::uint64_t> rehydrate_progress{0};
  if (!rehydrate_jobs.empty()) {
    report_progress("rehydrate", 0, rehydrate_jobs.size());
  }
  support::ParallelFor(
      rehydrate_jobs.size(), config_.threads, [&](std::size_t index) {
        const RehydrateJob& job = rehydrate_jobs[index];
        obs::ScopedSpan span("explore.rehydrate", "explore");
        span.Arg("binary", spec.binaries[job.binary].name);
        const obs::Stopwatch watch;
        auto artifact = std::make_shared<DecompileArtifact>();
        rehydrate_slots[index] = artifact;
        try {
          const auto& summary = decomp_done.at(job.key);
          decompile_into(*artifact, spec.binaries[job.binary].binary,
                         summary->software_run);
          // Counted after the decompile so rehydrations can never exceed
          // decompilations_run (the documented "of decompilations_run"
          // relationship), even on an exception path.
          rehydrations.fetch_add(1);
        } catch (const std::exception& e) {
          artifact->status = Status::Error(
              ErrorKind::kUnsupported,
              std::string("internal error: ") + e.what());
        }
        rehydrate_job_ms[index] = watch.Millis();
        report_progress(
            "rehydrate",
            rehydrate_progress.fetch_add(1, std::memory_order_relaxed) + 1,
            rehydrate_jobs.size());
      });
  for (std::size_t index = 0; index < rehydrate_jobs.size(); ++index) {
    const std::string& key = rehydrate_jobs[index].key;
    decomp_ms_by_key[key] += rehydrate_job_ms[index];
    out.decompile_stage_ms += rehydrate_job_ms[index];
    std::shared_ptr<const DecompileArtifact> artifact =
        std::move(rehydrate_slots[index]);
    if (artifact->status.ok()) {
      decomp_done[key] = artifact;
      cache_->PutDecompile(key, artifact);  // refresh the memory tier
    } else {
      // A deterministic recompute of a previously-ok artifact cannot
      // normally fail; degrade gracefully anyway: the dependent partition
      // jobs are dropped and their points report the failure.
      decomp_done.erase(key);
      decomp_failed.emplace(key, artifact->status);
    }
  }
  if (!rehydrate_jobs.empty()) {
    std::vector<PartitionJob> keep;
    keep.reserve(partition_jobs.size());
    for (PartitionJob& job : partition_jobs) {
      const std::string& key =
          pair_decomp_key[job.binary * out.num_platforms + job.platform];
      const auto failed = decomp_failed.find(key);
      if (failed != decomp_failed.end()) {
        partition_failed.emplace(job.key, failed->second);
      } else {
        keep.push_back(std::move(job));
      }
    }
    partition_jobs = std::move(keep);
  }

  std::vector<std::shared_ptr<PartitionArtifact>> partition_slots(
      partition_jobs.size());
  std::vector<double> partition_job_synth_ms(partition_jobs.size(), 0.0);
  std::vector<double> partition_job_ms(partition_jobs.size(), 0.0);
  std::atomic<std::size_t> partitions{0};
  std::atomic<std::uint64_t> partition_progress{0};
  report_progress("partition", 0, partition_jobs.size());
  support::ParallelFor(
      partition_jobs.size(), config_.threads, [&](std::size_t index) {
        const PartitionJob& job = partition_jobs[index];
        auto artifact = std::make_shared<PartitionArtifact>();
        partition_slots[index] = artifact;
        try {
          const std::string& decomp_key =
              pair_decomp_key[job.binary * out.num_platforms + job.platform];
          const auto& base = decomp_done.at(decomp_key);
          partition::StrategyOptions strategy_options = spec.strategy_options;
          strategy_options.objective = job.objective;
          // Every job on the same program shares one pooled CandidateSet,
          // so a strategy/objective/seed sweep scans once and synthesizes
          // each candidate once total.
          {
            obs::ScopedSpan synth_span("explore.synth", "partition");
            synth_span.Arg("binary", spec.binaries[job.binary].name);
            const obs::Stopwatch synth_watch;
            strategy_options.candidates = cache_->candidate_pool()->Obtain(
                decomp_key, base->program,
                base->software_run->profile);
            partition_job_synth_ms[index] = synth_watch.Millis();
          }
          obs::ScopedSpan span("explore.partition", "partition");
          span.Arg("strategy", spec.strategies[job.strategy])
              .Arg("platform", spec.platforms[job.platform]);
          const obs::Stopwatch watch;
          auto partitioned = strategies[job.strategy]->Partition(
              *base->program, base->software_run->profile,
              *platforms[job.platform], partition_options, strategy_options);
          partitions.fetch_add(1);
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
  struct StageMs {
    double synth_ms = 0.0;
    double partition_ms = 0.0;
  };
  std::map<std::string, StageMs> partition_ms_by_key;
  for (std::size_t index = 0; index < partition_jobs.size(); ++index) {
    std::shared_ptr<const PartitionArtifact> artifact =
        std::move(partition_slots[index]);
    cache_->PutPartition(partition_jobs[index].key, artifact);
    partition_ms_by_key[partition_jobs[index].key] = {
        partition_job_synth_ms[index], partition_job_ms[index]};
    out.synth_stage_ms += partition_job_synth_ms[index];
    out.partition_stage_ms += partition_job_ms[index];
    if (artifact->status.ok()) {
      partition_done.emplace(partition_jobs[index].key, std::move(artifact));
    } else {
      partition_failed.emplace(partition_jobs[index].key, artifact->status);
    }
  }

  // ---- Fill points and compute per-binary Pareto frontiers ---------------
  for (std::size_t i = 0; i < num_points; ++i) {
    ExplorePoint& point = out.points[i];
    if (!point.status.ok() || point_keys[i].empty()) continue;
    const auto failed = partition_failed.find(point_keys[i]);
    if (failed != partition_failed.end()) {
      point.status = failed->second;
      continue;
    }
    const auto done = partition_done.find(point_keys[i]);
    Check(done != partition_done.end(), "Explorer: missing artifact");
    point.artifact = done->second;
    const PartitionArtifact& artifact = *done->second;
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
    // Stage cost attribution: the job(s) that produced this point's
    // artifacts this sweep (absent key = served from cache = 0 ms).
    const std::size_t b = i / (out.num_platforms * out.num_strategies *
                               out.num_objectives);
    const std::size_t p =
        (i / (out.num_strategies * out.num_objectives)) % out.num_platforms;
    if (const auto ms =
            decomp_ms_by_key.find(pair_decomp_key[b * out.num_platforms + p]);
        ms != decomp_ms_by_key.end()) {
      point.decompile_ms = ms->second;
    }
    if (const auto ms = partition_ms_by_key.find(point_keys[i]);
        ms != partition_ms_by_key.end()) {
      point.synth_ms = ms->second.synth_ms;
      point.partition_ms = ms->second.partition_ms;
    }
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
  out.partitions_run = partitions.load();
  out.decompile_rehydrations = rehydrations.load();
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

std::string ExploreResult::Json(bool include_stage_ms) const {
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
    if (include_stage_ms) {
      // Host-time data: only behind the opt-in flag, never on the
      // byte-compared default surface (see the header contract).
      emit_double("decompile_ms", point.decompile_ms);
      emit_double("synth_ms", point.synth_ms);
      emit_double("partition_ms", point.partition_ms);
    }
    out << ",\"pareto\":" << (point.on_frontier ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

std::string ExploreResult::StatsReport() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line,
                "work: %zu simulations, %zu decompilations "
                "(%zu rehydrated), %zu partitions\n",
                simulations_run, decompilations_run, decompile_rehydrations,
                partitions_run);
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
                "stages: %.1f ms decompile, %.1f ms synth, "
                "%.1f ms partition\n",
                decompile_stage_ms, synth_stage_ms, partition_stage_ms);
  out << line;
  std::snprintf(line, sizeof line, "wall: %.1f ms\n", wall_ms);
  out << line;
  return out.str();
}

}  // namespace b2h::explore
