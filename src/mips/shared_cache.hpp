// Process-wide superblock pre-decode cache.
//
// Pre-decoding a program (Decode() every text word, build the BlockCache
// trace/side-exit tables) depends only on the text bytes and the cycle
// model — never on the Simulator instance.  Before this cache, every
// Simulator construction redid it: a RunMany sweep over P platforms sharing
// one cycle model rebuilt the same tables P times, bench_simulator rebuilt
// them per engine, and every warm b2h-serve request paid it again.
//
// SharedBlockCache mirrors the explore ArtifactCache discipline:
//
//   * content-keyed: the key is (text bytes, cycle model), hashed FNV-1a
//     and verified by exact comparison on lookup — two binaries with
//     identical text share one entry regardless of provenance;
//   * single-flight: concurrent Obtain() calls for the same key block on
//     one construction (a promise/shared_future per in-flight entry), so N
//     threads constructing Simulators for the same binary observe exactly
//     one pre-decode;
//   * LRU-bounded: entries are evicted least-recently-used once the byte
//     budget is exceeded; holders keep their shared_ptr alive, eviction
//     only drops the cache's reference;
//   * observable: obs::Registry counters sim.blockcache.{hits,misses,
//     evictions}, gauge sim.blockcache.bytes, and a
//     sim.blockcache.find / sim.blockcache.store span per lookup / build
//     (category "cache", same scheme as the artifact cache's cache.find /
//     cache.store).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mips/block_cache.hpp"
#include "mips/isa.hpp"

namespace b2h::mips {

struct SoftBinary;

/// Everything a Simulator derives from (text, cycle model) at construction:
/// the decoded instruction array the reference engine walks, the decode-ok
/// bitmap, and the BlockCache traces the block engine executes.  Immutable
/// once published.
struct PredecodedProgram {
  std::vector<std::uint32_t> text;  ///< key material (exact-match verify)
  CycleModel model;
  std::vector<Instr> decoded;
  std::vector<bool> decode_ok;
  BlockCache blocks;

  /// Approximate heap footprint for the cache's byte accounting.
  [[nodiscard]] std::size_t bytes() const noexcept;
};

class SharedBlockCache {
 public:
  /// The process-wide instance every Simulator constructor consults.
  static SharedBlockCache& Global();

  /// Return the pre-decode for (binary.text, model), constructing it at
  /// most once per process per key.  Thread-safe; concurrent callers for
  /// an in-flight key wait for the builder instead of duplicating work.
  [[nodiscard]] std::shared_ptr<const PredecodedProgram> Obtain(
      const SoftBinary& binary, const CycleModel& model);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< constructions (one per cold key)
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;     ///< resident entry footprint
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// LRU byte budget; entries above it are evicted oldest-first.  0 means
  /// unbounded.  Applies on the next store.
  void set_max_bytes(std::size_t max_bytes);

  /// Drop every resident entry (tests).  In-flight builds still publish to
  /// their waiters; a build whose entry was cleared mid-flight is simply
  /// not re-registered.
  void Clear();

  static constexpr std::size_t kDefaultMaxBytes = 128u << 20;  // 128 MiB

 private:
  SharedBlockCache() = default;

  struct Impl;
  [[nodiscard]] Impl& impl() const;
};

}  // namespace b2h::mips
