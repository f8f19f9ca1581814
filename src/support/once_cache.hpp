// Build-once cache: each key's value is built by one caller and shared by
// every other.  The flow's costly intermediates go through it — the
// simulator's pre-decodes (mips::SharedBlockCache), the explorer's
// decompiles (explore::ArtifactCache), the candidate scans
// (partition::CandidateSetPool) and the daemon's compiled benchmarks.
//
//   * Obtain(key, build) runs build() at most once per live entry.  Callers
//     that arrive while it runs wait for it outside the lock and share its
//     value.  A build that throws rethrows in the builder and in every
//     waiter and leaves no entry, so the next Obtain builds again.
//   * Find(key) returns a ready value or null and never waits.
//   * Clear() drops ready entries.  A build in flight still publishes to its
//     waiters and into the cache.
//   * An optional cost budget, fixed at construction, evicts the least
//     recently used ready entries once their summed cost exceeds it.  It
//     never evicts an entry in flight or the one just built, and eviction
//     drops only the cache's reference: holders keep their shared_ptr.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace b2h::support {

template <class Key, class Value, class Hash = std::hash<Key>>
class OnceCache {
 public:
  using Ptr = std::shared_ptr<const Value>;
  /// A ready value's charge against the budget; unset charges 1 per entry.
  using CostFn = std::function<std::size_t(const Value&)>;
  /// Called for each entry the budget evicts, with the cost it was charged,
  /// by the Obtain whose build made room, after it released the lock.
  using EvictFn = std::function<void(const Value&, std::size_t cost)>;

  struct Stats {
    std::uint64_t hits = 0;       ///< Obtain calls served by an entry
    std::uint64_t builds = 0;     ///< Obtain calls that ran their build
    std::uint64_t evictions = 0;  ///< ready entries the budget dropped
    std::size_t cost = 0;         ///< summed cost of the ready entries
    std::size_t entries = 0;      ///< ready entries
  };

  /// Unbounded.
  OnceCache() = default;
  /// Evicts once the ready entries cost more than `budget` (0: unbounded).
  OnceCache(std::size_t budget, CostFn cost, EvictFn on_evict = {})
      : budget_(budget),
        cost_(std::move(cost)),
        on_evict_(std::move(on_evict)) {}

  OnceCache(const OnceCache&) = delete;
  OnceCache& operator=(const OnceCache&) = delete;

  /// The value for `key`, from `build` (a callable returning a non-null
  /// Ptr) when no entry holds it yet.
  template <class Build>
  [[nodiscard]] Ptr Obtain(const Key& key, Build&& build) {
    std::promise<Ptr> promise;
    std::shared_future<Ptr> pending;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto [it, inserted] = entries_.try_emplace(key);
      Entry& entry = it->second;
      entry.last_use = ++tick_;
      if (inserted) {
        ++stats_.builds;
        entry.future = promise.get_future().share();
      } else {
        ++stats_.hits;
        if (entry.ready) return entry.value;
        pending = entry.future;
      }
    }
    if (pending.valid()) return pending.get();  // rethrows a failed build

    Ptr value;
    try {
      value = std::forward<Build>(build)();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        entries_.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    const std::size_t cost = cost_ ? cost_(*value) : 1;
    std::vector<std::pair<Ptr, std::size_t>> evicted;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Neither Clear nor the budget removes an entry in flight, so the
      // builder's entry is still the one under `key`.
      Entry& entry = entries_.find(key)->second;
      entry.value = value;
      entry.cost = cost;
      entry.ready = true;
      stats_.cost += cost;
      ++stats_.entries;
      evicted = EvictLocked(entry);
    }
    promise.set_value(value);
    if (on_evict_) {
      for (const auto& [victim, victim_cost] : evicted) {
        on_evict_(*victim, victim_cost);
      }
    }
    return value;
  }

  [[nodiscard]] Ptr Find(const Key& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.ready) return nullptr;
    it->second.last_use = ++tick_;
    return it->second.value;
  }

  /// Drops every ready entry and returns their summed cost.  The counters
  /// keep counting.
  std::size_t Clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t dropped = stats_.cost;
    std::erase_if(entries_, [](const auto& item) { return item.second.ready; });
    stats_.cost = 0;
    stats_.entries = 0;
    return dropped;
  }

  /// The ready values, in no particular order.
  [[nodiscard]] std::vector<Ptr> Values() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Ptr> values;
    for (const auto& [key, entry] : entries_) {
      if (entry.ready) values.push_back(entry.value);
    }
    return values;
  }

  [[nodiscard]] Stats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  struct Entry {
    std::shared_future<Ptr> future;  ///< what waiters block on
    Ptr value;                       ///< set once ready
    std::size_t cost = 0;
    std::uint64_t last_use = 0;
    bool ready = false;
  };

  /// Evicts least-recently-used ready entries other than `kept` until the
  /// budget holds or nothing else is evictable; returns them with their
  /// costs, so the caller drops the last references outside the lock.
  std::vector<std::pair<Ptr, std::size_t>> EvictLocked(const Entry& kept) {
    std::vector<std::pair<Ptr, std::size_t>> evicted;
    while (budget_ != 0 && stats_.cost > budget_) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        const Entry& entry = it->second;
        if (!entry.ready || &entry == &kept) continue;
        if (victim == entries_.end() ||
            entry.last_use < victim->second.last_use) {
          victim = it;
        }
      }
      if (victim == entries_.end()) break;
      stats_.cost -= victim->second.cost;
      --stats_.entries;
      ++stats_.evictions;
      evicted.emplace_back(std::move(victim->second.value),
                           victim->second.cost);
      entries_.erase(victim);
    }
    return evicted;
  }

  const std::size_t budget_ = 0;
  const CostFn cost_;
  const EvictFn on_evict_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, Hash> entries_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace b2h::support
