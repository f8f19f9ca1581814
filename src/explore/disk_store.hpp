// Versioned, crash-safe, content-addressed entry store — the disk tier of
// the explore::ArtifactCache.
//
// Layout: one file per entry, and every entry is a partition artifact
// (decompiles stay in the memory tier, see artifact_cache.hpp):
//
//   <dir>/v<schema>/<key>.bin
//
// The schema version appears twice: in the directory prefix, so bumping
// kCacheSchemaVersion makes every stale-format entry an automatic miss
// without any migration code, and in each entry header, so a file dropped
// into the wrong tree is still rejected.  Entry format:
//
//   "B2HC" | u32 schema | u64 fnv1a64(payload) | str payload
//
// Durability/robustness contract (tested in test_artifact_cache):
//   * writes are temp-file + atomic-rename, so a crashed or concurrent
//     writer never leaves a half-written entry visible;
//   * Store() skips keys that already exist — entries are content-addressed,
//     so two processes racing on one key write identical bytes anyway;
//   * any read problem (missing, truncated, bad magic/version/checksum)
//     is a miss, never an error;
//   * when max_bytes > 0, writes trigger LRU-by-mtime eviction down to the
//     budget (loads touch mtime), and trees left by older schema versions
//     are garbage too.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace b2h::explore {

/// Cache generation: serialized layout AND result semantics.  Artifact
/// keys hash a stage's *inputs*; the stage implementations themselves are
/// an implicit input that only changes with the code.  Bump this whenever
/// either changes — the entry layout, or any result-affecting stage
/// (recovery passes, strategies, estimator, synthesis/area models) — so
/// every stale entry self-invalidates (it lives in a different v<N> tree
/// AND fails the header check) instead of replaying pre-change results.
/// The CI artifact-cache key embeds this number for the same reason
/// (ci.yml's B2H_CACHE_SCHEMA, which a build-and-test step checks against
/// it).
inline constexpr std::uint32_t kCacheSchemaVersion = 3;

/// Cache-dir resolution: the B2H_CACHE_DIR environment variable overrides
/// any configured directory (the CI cache-warm gate points whole processes
/// at a persisted cache this way).  Empty result = disk tier disabled.
[[nodiscard]] std::string ResolveCacheDir(std::string configured);

class DiskStore {
 public:
  struct Options {
    std::string directory;
    /// Size budget for auto-eviction; 0 = unbounded (gc only on demand).
    /// Writes that push the store over the budget evict down to a 90%
    /// low-water mark, so a full store doesn't rescan the tree per write.
    std::uint64_t max_bytes = 0;
  };

  struct Stats {
    std::size_t entries = 0;              ///< current-schema entries
    std::uint64_t entry_bytes = 0;
    std::size_t stale_files = 0;          ///< other-schema trees + temp junk
    std::uint64_t stale_bytes = 0;
    std::uint64_t total_bytes = 0;
  };

  explicit DiskStore(Options options);

  /// Only tests read it: which directory B2H_CACHE_DIR resolved to.
  [[nodiscard]] const std::string& directory() const {
    return options_.directory;
  }

  /// Entry payload, or nullopt on miss/corruption.  A hit refreshes the
  /// entry's mtime (LRU).
  [[nodiscard]] std::optional<std::string> Load(const std::string& key);

  /// Cheap existence probe (one stat) — lets callers skip serializing a
  /// payload that Store() would discard anyway.
  [[nodiscard]] bool Contains(const std::string& key) const;

  /// Remove one entry (corrupt-entry reclamation).  Quiet on absence.
  void Remove(const std::string& key);

  /// Write an entry; skips the write when the key already exists (entries
  /// are content-addressed, so a racing writer's bytes are identical).
  /// Returns true only when this call actually wrote the entry.
  bool Store(const std::string& key, std::string_view payload);

  [[nodiscard]] Stats ComputeStats() const;

  /// Evict least-recently-used entries until the store fits `max_bytes`
  /// (0 = only remove stale-schema trees and temp junk).  Returns the
  /// number of files removed.  Only the store's own v<N> trees are ever
  /// touched — foreign files in a shared directory are left alone.
  std::size_t Gc(std::uint64_t max_bytes);

  /// Remove every entry, including stale-schema trees (but never foreign
  /// files — see Gc).
  void Clear();

 private:
  [[nodiscard]] std::filesystem::path EntryPath(const std::string& key) const;
  void MaybeAutoGc();

  Options options_;
  std::filesystem::path root_;          ///< <dir>
  std::filesystem::path version_root_;  ///< <dir>/v<schema>
  std::mutex gc_mutex_;
  /// Running size estimate so per-store auto-gc doesn't rescan the tree;
  /// refreshed by every full Gc().
  std::uint64_t approx_bytes_ = 0;
  bool approx_valid_ = false;
};

}  // namespace b2h::explore
