// Process-wide superblock pre-decode cache.
//
// Pre-decoding a program (Decode() every text word, build the BlockCache
// trace/side-exit tables) depends only on the text bytes and the cycle
// model — never on the Simulator instance.  Before this cache, every
// Simulator construction redid it: a RunMany sweep over P platforms sharing
// one cycle model rebuilt the same tables P times, bench_simulator rebuilt
// them per engine, and every warm b2h-serve request paid it again.
//
// SharedBlockCache is a support::OnceCache over pre-decodes:
//
//   * content-keyed: the key is (text bytes, cycle model), hashed FNV-1a
//     and compared exactly — two binaries with identical text share one
//     entry regardless of provenance;
//   * single-flight: concurrent Obtain() calls for the same key share one
//     construction, so N threads constructing Simulators for the same
//     binary observe exactly one pre-decode;
//   * LRU-bounded at kMaxBytes of PredecodedProgram::bytes(); holders keep
//     their shared_ptr alive, eviction only drops the cache's reference;
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
#include "support/once_cache.hpp"

namespace b2h::mips {

struct SoftBinary;

/// Everything a Simulator derives from (text, cycle model) at construction:
/// the decoded instruction array the reference engine walks, the decode-ok
/// bitmap, and the BlockCache traces the block engine executes.  Immutable
/// once published.
struct PredecodedProgram {
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

  /// Drop every resident entry (tests, benchmarks).  In-flight builds still
  /// publish to their waiters and into the cache.
  void Clear();

  /// LRU byte budget; entries above it are evicted oldest-first.
  static constexpr std::size_t kMaxBytes = 128u << 20;  // 128 MiB

 private:
  SharedBlockCache();

  /// (text, cycle model) with its FNV-1a hash, computed once per lookup.
  struct Key {
    std::uint64_t hash = 0;
    std::vector<std::uint32_t> text;
    CycleModel model;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept { return key.hash; }
  };

  support::OnceCache<Key, PredecodedProgram, KeyHash> programs_;
};

}  // namespace b2h::mips
