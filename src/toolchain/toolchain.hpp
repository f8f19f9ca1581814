// b2h::Toolchain — the front door to the whole flow.
//
//   binary -> profile -> decompile (PassManager pipeline) -> partition ->
//   synthesize -> estimate
//
// There is one flow path: every entry point runs on the exploration engine
// (explore::Explorer).  Run, RunOn and RunMany are views of a sweep over
// the given binaries x platform names x {"paper-greedy"} x {kSpeedup};
// each ok point becomes a ToolchainRun.  Explore exposes the full grid.
// The Toolchain adds:
//
//   * a named platform registry ("mips200-xc2v1000", "mips40", "mips400",
//     plus custom registrations) so sweeps are spelled as name lists;
//   * builder-style configuration (pipeline spec, partition options,
//     simulation budget, thread count) shared across every run;
//   * the online (dynamic) partitioner next to its static oracle.
//
// Caching rationale: the decompiled, profile-annotated CDFG depends only on
// the binary bytes and the CPU cycle model — not on clocks or FPGA
// capacity — so one decompilation serves every platform whose cycle model
// matches.  The paper's three registered platforms share the default
// model, so a RunMany sweep over them decompiles each binary once.
//
// Run, RunOn and RunMany each use a private memory-only artifact cache.  A
// disk-served PartitionArtifact has no IR, profile or schedule, so it could
// not fill a ToolchainRun (Report() dereferences `program`).  Only Explore
// reads and fills the Toolchain's own (optionally disk-backed) cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "decomp/pass_manager.hpp"
#include "dynamic/dynamic_partitioner.hpp"
#include "explore/explorer.hpp"
#include "mips/shared_cache.hpp"
#include "partition/partitioner.hpp"
#include "partition/platform.hpp"
#include "partition/platform_registry.hpp"

namespace b2h {

/// Process-wide platform registry (now partition::PlatformRegistry, shared
/// with the exploration engine); the alias preserves the original spelling.
using PlatformRegistry = partition::PlatformRegistry;

/// One (binary, platform) flow outcome.  The profiling run and decompiled
/// program are shared: every platform in a RunMany sweep whose cycle model
/// matches points at the same objects for a given binary (asserted by the
/// tests).
struct ToolchainRun {
  std::string binary_name;
  std::string platform_name;
  std::shared_ptr<const mips::SoftBinary> binary;
  std::shared_ptr<const mips::RunResult> software_run;
  std::shared_ptr<const decomp::DecompiledProgram> program;
  partition::PartitionResult partition;
  partition::AppEstimate estimate;
  /// Filled by RunMany when WithDynamic(true): the online (runtime)
  /// partitioning outcome for the same (binary, platform) pair.
  std::shared_ptr<const dynamic::DynamicRun> dynamic_run;

  /// The view of one ok explore point: names, partition and estimate, plus
  /// the program and profiling run when the artifact carries them (not
  /// when it was served from the disk tier).  `binary` is left unset.
  [[nodiscard]] static ToolchainRun FromPoint(
      const explore::ExplorePoint& point);

  /// Header line, ReportBody(), then the per-pass wall times.  Needs
  /// `software_run` and `program`.
  [[nodiscard]] std::string Report() const;
  /// The deterministic part of Report(): profile, decompile statistics,
  /// selected regions, rejections and the estimate, with no header and no
  /// timings.
  [[nodiscard]] std::string ReportBody() const;
  /// One JSON object (no trailing newline) with the headline estimate AND
  /// the partitioner's rejection reasons, so machine consumers can explain
  /// why a region was skipped.
  [[nodiscard]] std::string Json() const;
};

/// Outcome of RunDynamic: the online run next to its static oracle.
struct DynamicToolchainRun {
  ToolchainRun static_run;          ///< ahead-of-time flow (the oracle)
  dynamic::DynamicRun dynamic_run;  ///< online flow on the same binary
  /// dynamic speedup / static speedup — how much of the static payoff the
  /// online partitioner captured (1.0 = full convergence).
  double convergence = 0.0;

  [[nodiscard]] std::string Report() const;
};

/// Batch outcome: one result per (binary, platform) pair in row-major
/// order (binary index major), plus work counters the caching tests key on.
/// The counters count distinct (binary bytes, cycle model) pairs: binaries
/// with identical bytes share one profile and one decompilation.
struct BatchResult {
  std::vector<Result<ToolchainRun>> runs;
  std::size_t num_platforms = 0;       ///< row stride of `runs`
  std::size_t simulations_run = 0;     ///< profiling runs executed
  std::size_t decompilations_run = 0;  ///< decompiler invocations

  [[nodiscard]] const Result<ToolchainRun>& At(
      std::size_t binary_index, std::size_t platform_index) const {
    return runs.at(binary_index * num_platforms + platform_index);
  }
};

/// Builder-configured facade over the complete flow.
class Toolchain {
 public:
  /// When the B2H_CACHE_DIR environment variable is set (and non-empty),
  /// every Toolchain starts with a disk-backed artifact cache rooted there
  /// — the CI cache-warm gate points whole processes at a persisted cache
  /// this way.  Otherwise the cache starts memory-only.  Only Explore uses
  /// this cache (see the header comment).
  Toolchain();
  /// Flushes the trace to the WithTrace path, if one was configured.
  ~Toolchain();

  // ------------------------------------------------- builder configuration
  /// Decompilation pipeline spec (see PassManager::FromSpec).  Invalid
  /// specs surface as an error from Run/RunMany, not here.
  Toolchain& WithPipeline(std::string spec);
  Toolchain& WithPartitionOptions(partition::PartitionOptions options);
  Toolchain& WithMaxSimInstructions(std::uint64_t max_instructions);
  /// Worker threads for RunMany and Explore (0 = hardware concurrency,
  /// 1 = serial).
  Toolchain& WithThreads(unsigned threads);
  Toolchain& WithVerifyIr(bool verify);
  /// Default platform for Run and RunDynamic, by registered name.  A
  /// custom platform is registered first (PlatformRegistry::Register).
  Toolchain& WithPlatform(std::string registered_name);
  /// Online-partitioning configuration for RunDynamic and for RunMany in
  /// dynamic mode.  Pipeline spec, verify flag, and simulation budget are
  /// inherited from the toolchain configuration.
  Toolchain& WithDynamicPolicy(partition::DynamicPolicy policy);
  /// When enabled, RunMany additionally executes the online partitioner for
  /// every (binary, platform) pair and attaches ToolchainRun::dynamic_run.
  Toolchain& WithDynamic(bool enabled);
  /// Share an artifact cache between toolchains' Explore calls (by default
  /// every Toolchain owns a private cache that persists across them).
  Toolchain& WithArtifactCache(std::shared_ptr<explore::ArtifactCache> cache);
  /// Persist the artifact cache under `directory` (two-tier: memory +
  /// disk), so warm sweeps survive process restarts.  The B2H_CACHE_DIR
  /// environment variable overrides the directory; `max_bytes` bounds the
  /// on-disk size with LRU-by-mtime eviction (0 = unbounded).  Replaces the
  /// current artifact cache.
  Toolchain& WithCacheDir(std::string directory, std::uint64_t max_bytes = 0);

  /// Enable the process-wide span tracer (obs::Tracer) and remember
  /// `trace_path`; FlushTrace() — called automatically by the Toolchain
  /// destructor when a path is set — writes the collected spans there as
  /// Chrome trace-event JSON (Perfetto-loadable).  Pass an empty path to
  /// record without auto-writing (embedders export via obs::Tracer::Global()
  /// themselves).  Tracing is process-global: spans from EVERY toolchain and
  /// subsystem land in the same ring.
  Toolchain& WithTrace(std::string trace_path,
                       std::size_t capacity = 0 /* 0 = default ring size */);
  /// Write the trace collected so far to the WithTrace path (no-op without
  /// one); returns false on I/O failure.
  bool FlushTrace() const;

  /// Hit/miss/store counters of the artifact cache, split by tier.
  [[nodiscard]] explore::ArtifactCache::Stats CacheStats() const {
    return artifact_cache_->stats();
  }
  /// Hit/miss counters of the process-wide simulator pre-decode cache
  /// (mips/shared_cache.hpp): every Simulator this toolchain constructs —
  /// Run, RunMany, explore sweeps — shares its superblock tables through it.
  [[nodiscard]] static mips::SharedBlockCache::Stats BlockCacheStats() {
    return mips::SharedBlockCache::Global().stats();
  }
  [[nodiscard]] const std::shared_ptr<explore::ArtifactCache>&
  artifact_cache() const {
    return artifact_cache_;
  }

  // --------------------------------------------------------------- running
  /// Single binary on the configured default platform.
  [[nodiscard]] Result<ToolchainRun> Run(
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Single binary on a named registered platform.
  [[nodiscard]] Result<ToolchainRun> RunOn(
      std::string_view platform_name,
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Batch: every binary against every platform name, as one explore sweep
  /// with the paper-greedy strategy.  Profiles and decompiles once per
  /// (binary bytes, cycle model); partitioning fans out on the thread pool.
  /// Per-run failures (null binaries, unknown platform names, faults, CDFG
  /// recovery) are reported in the corresponding slot, in that order of
  /// precedence, without aborting the batch.  With WithDynamic(true) every
  /// ok slot also gets its online run.
  [[nodiscard]] BatchResult RunMany(
      const std::vector<NamedBinary>& binaries,
      const std::vector<std::string>& platform_names) const;

  /// Dynamic front door: run the online partitioner on the configured
  /// default platform AND the static oracle on the same binary, reporting
  /// both plus their convergence.
  [[nodiscard]] Result<DynamicToolchainRun> RunDynamic(
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Dynamic front door against a named registered platform: RunOn (the
  /// static oracle), then the online partitioner on the same binary.
  [[nodiscard]] Result<DynamicToolchainRun> RunDynamicOn(
      std::string_view platform_name,
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Design-space exploration front door: sweep the spec's
  /// {binaries} x {platforms} x {strategies} x {objectives} grid through
  /// the exploration engine, using this toolchain's pipeline, partition
  /// options, simulation budget, thread count, and artifact cache.
  /// Repeated/overlapping sweeps on the same Toolchain reuse cached
  /// decompile and partition artifacts (a warm identical sweep performs
  /// zero decompilations).  Per-point failures are reported in the
  /// corresponding ExplorePoint without aborting the sweep.
  [[nodiscard]] explore::ExploreResult Explore(
      const explore::ExploreSpec& spec) const;

 private:
  [[nodiscard]] explore::ExplorerConfig Config() const;
  [[nodiscard]] dynamic::DynamicOptions DynamicConfig() const;
  /// The static view shared by Run, RunOn and RunMany: one paper-greedy
  /// sweep on a private memory-only cache.
  [[nodiscard]] BatchResult Sweep(
      std::vector<NamedBinary> binaries,
      std::vector<std::string> platform_names) const;
  /// The online partitioner on the binary and platform of `run`.
  [[nodiscard]] Result<dynamic::DynamicRun> RunOnline(
      const ToolchainRun& run) const;

  std::string pipeline_spec_ = "default";
  partition::PartitionOptions partition_options_;
  std::uint64_t max_sim_instructions_ = 200'000'000;
  unsigned threads_ = 0;
  bool verify_ir_ = true;
  std::string default_platform_name_ = "mips200-xc2v1000";
  partition::DynamicPolicy dynamic_policy_;
  bool dynamic_enabled_ = false;
  std::string trace_path_;  ///< WithTrace auto-flush target ("" = none)
  std::shared_ptr<explore::ArtifactCache> artifact_cache_;
};

}  // namespace b2h
