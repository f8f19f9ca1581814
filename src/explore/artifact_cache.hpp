// Content-addressed artifact cache for design-space sweeps — two tiers.
//
// Both expensive stages of the flow are pure functions of their inputs:
//
//   decompile  = f(binary bytes, pipeline spec, CPU cycle model, sim budget)
//   partition  = f(decompile inputs, platform model, strategy, objective,
//                  seed, partition/synthesis options)
//
// so each artifact is stored under a hash of exactly those inputs (FNV-1a
// 64 over a canonical serialization).  Repeated or overlapping sweeps —
// re-running a sweep, widening a platform grid, adding a strategy — skip
// all work whose key already exists.  The decompile key hashes inputs
// only, so every partition key is known before any artifact exists: the
// Explorer probes partition keys first and looks up a decompile only for
// a partition that missed.
//
// Tier 1 (memory) stores shared_ptr-owned immutable artifacts of both
// kinds; a PartitionResult points into its decompiled program's IR, so the
// partition artifact keeps the program alive alongside it.  Its decompile
// side is a support::OnceCache: ObtainDecompile builds each key once, and
// concurrent callers wait for that build instead of repeating it.
//
// Tier 2 (disk, optional — explore::DiskStore) persists partition
// artifacts only, so warm sweeps survive process restarts: a sweep re-run
// from a fresh process against the same cache dir performs zero
// simulations/decompilations/partitions and produces a bit-identical
// Report().  A partition entry carries the status, the full AppEstimate,
// and the report-relevant PartitionResult fields (region names/metrics/
// VHDL, rejection log, totals).  Hydrated SelectedRegions have null IR
// pointers and an empty schedule, and the artifact has no program or
// profile; everything the Explorer and its reports consume is present and
// bit-exact (doubles round-trip by bit pattern).  Decompile artifacts live
// in the memory tier only: after a restart, a partition key that misses
// profiles and decompiles its binary again.
//
// Cached *failures* persist too — `status` carries the error and the
// payload pointers stay null — so a warm sweep never redoes known-bad
// work either.  A failed decompile (a faulting binary, CDFG recovery) is
// cached as a failed PartitionArtifact under each partition key that
// needed it.  Every Find/Put reports its tier through Stats (memory hits
// vs disk hits vs misses), which the Explorer splits out in StatsReport().
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "decomp/pipeline.hpp"
#include "explore/disk_store.hpp"
#include "mips/binary.hpp"
#include "mips/simulator.hpp"
#include "partition/candidates.hpp"
#include "partition/estimate.hpp"
#include "partition/partitioner.hpp"
#include "partition/platform.hpp"
#include "support/error.hpp"
#include "support/once_cache.hpp"
#include "support/serialize.hpp"

namespace b2h::explore {

/// FNV-1a 64 accumulator with fixed-width encodings, so keys are stable
/// across platforms and runs.
class ContentHasher {
 public:
  ContentHasher& Bytes(const void* data, std::size_t size);
  ContentHasher& U64(std::uint64_t value);
  ContentHasher& F64(double value);  ///< hashed by bit pattern
  ContentHasher& Str(std::string_view text);

  /// 16-hex-digit digest of everything hashed so far.
  [[nodiscard]] std::string Hex() const;

 private:
  std::uint64_t state_ = support::kFnv1a64Basis;
};

/// Content hash of a software binary (text, data, entry point, symbols).
[[nodiscard]] std::string HashBinary(const mips::SoftBinary& binary);
/// Content hash of every numeric field of a platform model.
[[nodiscard]] std::string HashPlatform(const partition::Platform& platform);

/// Profiling run + decompiled program for one (binary, cycle model,
/// pipeline) key; both are set exactly when `status` is ok.
struct DecompileArtifact {
  Status status;
  std::shared_ptr<const mips::RunResult> software_run;
  std::shared_ptr<const decomp::DecompiledProgram> program;
};

/// Partition + estimate for one (decompile key, platform, strategy,
/// objective) key.  `program` keeps the IR the partition points into
/// alive; on disk-hydrated artifacts it is null and `partition.hw` carries
/// names/metrics/VHDL without live IR pointers.  As above, a failed
/// partition or decompile is cached with its `status`.
struct PartitionArtifact {
  Status status;
  std::shared_ptr<const decomp::DecompiledProgram> program;
  std::shared_ptr<const mips::RunResult> software_run;
  partition::PartitionResult partition;
  partition::AppEstimate estimate;
};

// Partition-artifact (de)serialization for the disk tier.  Decode returns
// nullptr on any malformed input (the store's checksum makes this rare; the
// decoder is still fully bounds-checked).  Exposed for the cache tests.
[[nodiscard]] std::string EncodePartitionArtifact(
    const PartitionArtifact& artifact);
[[nodiscard]] std::shared_ptr<const PartitionArtifact> DecodePartitionArtifact(
    std::string_view payload);

/// Which tier served a lookup.
enum class HitTier { kMiss, kMemory, kDisk };

class ArtifactCache {
 public:
  struct Stats {
    std::size_t memory_hits = 0;
    std::size_t disk_hits = 0;
    std::size_t misses = 0;
    std::size_t disk_stores = 0;       ///< entries written to disk
    std::size_t disk_bad_entries = 0;  ///< undecodable disk payloads seen
    std::size_t entries = 0;           ///< memory-tier entries

    [[nodiscard]] std::size_t hits() const { return memory_hits + disk_hits; }
  };

  /// Memory-only cache (the PR-3 behavior).
  ArtifactCache() = default;
  /// Two-tier cache persisting under `disk.directory` (empty = memory-only).
  explicit ArtifactCache(DiskStore::Options disk);

  /// nullptr on miss; every call counts toward the stats, and `tier` (when
  /// non-null) reports which tier served it.  FindDecompile reads the
  /// memory tier only; FindPartition falls back to the disk tier and
  /// promotes disk hits into memory.
  [[nodiscard]] std::shared_ptr<const DecompileArtifact> FindDecompile(
      const std::string& key, HitTier* tier = nullptr);
  [[nodiscard]] std::shared_ptr<const PartitionArtifact> FindPartition(
      const std::string& key, HitTier* tier = nullptr);

  /// The memory tier's decompile artifact for `key`, from `build` (a
  /// callable returning a non-null shared_ptr<const DecompileArtifact>) when
  /// the tier holds none.  Single-flight: concurrent explorers that miss
  /// one key run one profile+decompile and share it (the daemon's scheduler
  /// only coalesces identical *requests*; distinct strategies over one
  /// binary share the decompile key but not the request key).  Counts
  /// nothing toward the stats: the caller's FindDecompile probe did.
  template <class Build>
  [[nodiscard]] std::shared_ptr<const DecompileArtifact> ObtainDecompile(
      const std::string& key, Build&& build) {
    return decompiles_.Obtain(key, std::forward<Build>(build));
  }
  /// Memory tier, and the disk tier when enabled.
  void PutPartition(const std::string& key,
                    std::shared_ptr<const PartitionArtifact> artifact);

  [[nodiscard]] Stats stats() const;
  /// Drop the memory tier (and reset counters); disk entries survive.
  void Clear();

  /// Disk tier handle (null when memory-only).  Only tests read it, to see
  /// whether and where the disk tier was opened.
  [[nodiscard]] DiskStore* disk() { return disk_ ? disk_.get() : nullptr; }

  /// Pool of pre-scanned candidate sets keyed on the decompile key; lives
  /// beside the artifact tiers so every tenant of a shared cache — all
  /// points of a sweep, all requests of a serve daemon — also shares
  /// candidate scans and synthesis memos.  Never null.
  [[nodiscard]] const std::shared_ptr<partition::CandidateSetPool>&
  candidate_pool() const {
    return candidate_pool_;
  }

 private:
  mutable std::mutex mutex_;  ///< guards stats_ and partitions_
  mutable Stats stats_;
  support::OnceCache<std::string, DecompileArtifact> decompiles_;
  std::unordered_map<std::string, std::shared_ptr<const PartitionArtifact>>
      partitions_;
  std::unique_ptr<DiskStore> disk_;
  std::shared_ptr<partition::CandidateSetPool> candidate_pool_ =
      std::make_shared<partition::CandidateSetPool>();
};

}  // namespace b2h::explore
