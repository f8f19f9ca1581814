// b2h::Toolchain — the front door to the whole flow.
//
//   binary -> profile -> decompile (PassManager pipeline) -> partition ->
//   synthesize -> estimate
//
// There is one flow path: every entry point runs on the exploration engine
// (explore::Explorer), and each flow has one call.  RunOn and RunMany are
// views of a sweep over the given binaries x platform names x
// {"paper-greedy"} x {kSpeedup}; each ok point becomes a ToolchainRun.
// RunDynamicOn runs the online partitioner next to its static oracle.
// Explore exposes the full grid.  The Toolchain adds:
//
//   * a named platform registry ("mips200-xc2v1000", "mips40", "mips400",
//     plus custom registrations) so every call names its platforms;
//   * builder-style configuration (pipeline spec, simulation budget, thread
//     count, online-partitioner policy, artifact cache, tracing) shared
//     across every run.  Partitioning itself has no knobs: the paper's
//     three steps, its 90-10 rule and one synthesis setup.
//
// Caching rationale: the decompiled, profile-annotated CDFG depends only on
// the binary bytes and the CPU cycle model — not on clocks or FPGA
// capacity — so one decompilation serves every platform whose cycle model
// matches.  The paper's three registered platforms share the default
// model, so a RunMany sweep over them decompiles each binary once.
//
// RunOn, RunMany and RunDynamicOn each use a private memory-only artifact
// cache.  A disk-served PartitionArtifact has no IR, profile or schedule,
// so it could not fill a ToolchainRun (Report() dereferences `program`).
// Only Explore reads and fills the Toolchain's own (optionally disk-backed)
// cache.
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

/// Outcome of RunDynamicOn: the online run next to its static oracle.
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
  /// specs surface as an error from RunOn/RunMany, not here.
  Toolchain& WithPipeline(std::string spec);
  Toolchain& WithMaxSimInstructions(std::uint64_t max_instructions);
  /// Worker threads for RunMany and Explore (0 = hardware concurrency,
  /// 1 = serial).
  Toolchain& WithThreads(unsigned threads);
  /// Online-partitioning configuration for RunDynamicOn.  Pipeline spec
  /// and simulation budget are inherited from the toolchain configuration.
  Toolchain& WithDynamicPolicy(partition::DynamicPolicy policy);
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
  /// RunOn, RunMany, explore sweeps — shares its superblock tables through
  /// it.
  [[nodiscard]] static mips::SharedBlockCache::Stats BlockCacheStats() {
    return mips::SharedBlockCache::Global().stats();
  }
  [[nodiscard]] const std::shared_ptr<explore::ArtifactCache>&
  artifact_cache() const {
    return artifact_cache_;
  }

  // --------------------------------------------------------------- running
  /// Single binary on a named registered platform: RunMany with one slot.
  [[nodiscard]] Result<ToolchainRun> RunOn(
      std::string_view platform_name,
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Batch: every binary against every platform name, as one explore sweep
  /// with the paper-greedy strategy.  Profiles and decompiles once per
  /// (binary bytes, cycle model); partitioning fans out on the thread pool.
  /// Per-run failures (null binaries, unknown platform names, faults, CDFG
  /// recovery) are reported in the corresponding slot, in that order of
  /// precedence, without aborting the batch.
  [[nodiscard]] BatchResult RunMany(
      const std::vector<NamedBinary>& binaries,
      const std::vector<std::string>& platform_names) const;

  /// Dynamic front door against a named registered platform: RunOn (the
  /// static oracle), then the online partitioner on the same binary,
  /// reporting both plus their convergence.
  [[nodiscard]] Result<DynamicToolchainRun> RunDynamicOn(
      std::string_view platform_name,
      std::shared_ptr<const mips::SoftBinary> binary,
      std::string binary_name = "binary") const;

  /// Design-space exploration front door: sweep the spec's
  /// {binaries} x {platforms} x {strategies} x {objectives} grid through
  /// the exploration engine, using this toolchain's pipeline, simulation
  /// budget, thread count, and artifact cache.
  /// Repeated/overlapping sweeps on the same Toolchain reuse cached
  /// decompile and partition artifacts (a warm identical sweep performs
  /// zero decompilations).  Per-point failures are reported in the
  /// corresponding ExplorePoint without aborting the sweep.
  [[nodiscard]] explore::ExploreResult Explore(
      const explore::ExploreSpec& spec) const;

 private:
  [[nodiscard]] explore::ExplorerConfig Config() const;

  std::string pipeline_spec_ = "default";
  std::uint64_t max_sim_instructions_ = 200'000'000;
  unsigned threads_ = 0;
  partition::DynamicPolicy dynamic_policy_;
  std::string trace_path_;  ///< WithTrace auto-flush target ("" = none)
  std::shared_ptr<explore::ArtifactCache> artifact_cache_;
};

}  // namespace b2h
