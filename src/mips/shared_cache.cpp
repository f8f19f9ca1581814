#include "mips/shared_cache.hpp"

#include <future>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "mips/binary.hpp"
#include "obs/obs.hpp"
#include "support/serialize.hpp"

namespace b2h::mips {

namespace {

/// Registry-backed metrics, resolved once (same idiom as the artifact
/// cache's TierMetrics).  The gauge tracks resident bytes so evictions
/// show as decreases; hits/misses/evictions are monotonic counters.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& bytes;

  static CacheMetrics& Get() {
    auto& registry = obs::Registry::Global();
    static CacheMetrics metrics{
        registry.counter("sim.blockcache.hits"),
        registry.counter("sim.blockcache.misses"),
        registry.counter("sim.blockcache.evictions"),
        registry.gauge("sim.blockcache.bytes")};
    return metrics;
  }
};

std::uint64_t HashKey(const std::vector<std::uint32_t>& text,
                      const CycleModel& model) {
  std::uint64_t h = support::kFnv1a64Basis;
  const auto mix = [&h](std::uint64_t v) { h = support::Fnv1a64U64(v, h); };
  mix(text.size());
  for (std::uint32_t word : text) mix(word);
  mix(model.base);
  mix(model.load_extra);
  mix(model.mult_extra);
  mix(model.div_extra);
  mix(model.taken_extra);
  return h;
}

}  // namespace

std::size_t PredecodedProgram::bytes() const noexcept {
  return text.capacity() * sizeof(std::uint32_t) +
         decoded.capacity() * sizeof(Instr) + decode_ok.capacity() / 8 +
         blocks.bytes() + sizeof(*this);
}

struct SharedBlockCache::Impl {
  using Future = std::shared_future<std::shared_ptr<const PredecodedProgram>>;

  struct Entry {
    std::vector<std::uint32_t> text;  // exact key (hash-collision verify)
    CycleModel model;
    Future future;
    std::size_t bytes = 0;  // 0 until the build completes
    std::uint64_t last_use = 0;
  };

  mutable std::mutex mutex;
  std::unordered_map<std::uint64_t, std::vector<Entry>> map;
  std::uint64_t tick = 0;
  std::uint64_t evictions = 0;
  std::size_t resident_bytes = 0;
  std::size_t entries = 0;
  std::size_t max_bytes = kDefaultMaxBytes;

  /// Evict ready entries oldest-first until the budget holds.  In-flight
  /// entries (bytes == 0) are never evicted — their builder still needs to
  /// finalize them.  Callers hold `mutex`.
  void EvictLocked() {
    while (max_bytes != 0 && resident_bytes > max_bytes && entries > 1) {
      std::uint64_t oldest_key = 0;
      std::size_t oldest_pos = 0;
      std::uint64_t oldest_use = UINT64_MAX;
      bool found = false;
      for (auto& [key, chain] : map) {
        for (std::size_t p = 0; p < chain.size(); ++p) {
          const Entry& e = chain[p];
          if (e.bytes == 0) continue;  // in flight
          if (e.last_use < oldest_use) {
            oldest_use = e.last_use;
            oldest_key = key;
            oldest_pos = p;
            found = true;
          }
        }
      }
      if (!found) return;
      auto& chain = map[oldest_key];
      resident_bytes -= chain[oldest_pos].bytes;
      chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(oldest_pos));
      if (chain.empty()) map.erase(oldest_key);
      --entries;
      ++evictions;
      CacheMetrics::Get().evictions.Add();
      CacheMetrics::Get().bytes.Set(
          static_cast<std::int64_t>(resident_bytes));
    }
  }
};

SharedBlockCache& SharedBlockCache::Global() {
  static SharedBlockCache instance;
  return instance;
}

SharedBlockCache::Impl& SharedBlockCache::impl() const {
  static Impl impl;
  return impl;
}

std::shared_ptr<const PredecodedProgram> SharedBlockCache::Obtain(
    const SoftBinary& binary, const CycleModel& model) {
  CacheMetrics& metrics = CacheMetrics::Get();
  Impl& state = impl();
  const std::uint64_t key = HashKey(binary.text, model);

  std::promise<std::shared_ptr<const PredecodedProgram>> promise;
  Impl::Future future;
  bool build_here = false;
  {
    obs::ScopedSpan span("sim.blockcache.find", "cache");
    std::lock_guard<std::mutex> lock(state.mutex);
    auto& chain = state.map[key];
    for (Impl::Entry& entry : chain) {
      if (entry.model == model && entry.text == binary.text) {
        entry.last_use = ++state.tick;
        metrics.hits.Add();
        span.Arg("outcome", "hit");
        future = entry.future;
        break;
      }
    }
    if (!future.valid()) {
      metrics.misses.Add();
      span.Arg("outcome", "miss");
      future = promise.get_future().share();
      chain.push_back({binary.text, model, future, 0, ++state.tick});
      ++state.entries;
      build_here = true;
    }
  }

  if (!build_here) return future.get();  // may wait on an in-flight builder

  // Build outside the lock: one pre-decode per key process-wide, but
  // lookups for other programs proceed concurrently.
  obs::ScopedSpan span("sim.blockcache.store", "cache");
  auto pre = std::make_shared<PredecodedProgram>();
  pre->text = binary.text;
  pre->model = model;
  pre->decoded.resize(binary.text.size());
  pre->decode_ok.resize(binary.text.size(), false);
  for (std::size_t i = 0; i < binary.text.size(); ++i) {
    if (auto instr = Decode(binary.text[i])) {
      pre->decoded[i] = *instr;
      pre->decode_ok[i] = true;
    }
  }
  pre->blocks = BlockCache(pre->decoded, pre->decode_ok, model);
  const std::size_t bytes = pre->bytes();
  span.Arg("bytes", static_cast<std::uint64_t>(bytes))
      .Arg("text_words", static_cast<std::uint64_t>(binary.text.size()));
  promise.set_value(pre);

  {
    std::lock_guard<std::mutex> lock(state.mutex);
    auto it = state.map.find(key);
    if (it != state.map.end()) {
      for (Impl::Entry& entry : it->second) {
        if (entry.bytes == 0 && entry.model == model &&
            entry.text == binary.text) {
          entry.bytes = bytes;
          state.resident_bytes += bytes;
          metrics.bytes.Set(static_cast<std::int64_t>(state.resident_bytes));
          break;
        }
      }
    }
    state.EvictLocked();
  }
  return pre;
}

SharedBlockCache::Stats SharedBlockCache::stats() const {
  CacheMetrics& metrics = CacheMetrics::Get();
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  Stats s;
  s.hits = metrics.hits.Value();
  s.misses = metrics.misses.Value();
  s.evictions = state.evictions;
  s.bytes = state.resident_bytes;
  s.entries = state.entries;
  return s;
}

void SharedBlockCache::set_max_bytes(std::size_t max_bytes) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.max_bytes = max_bytes;
  state.EvictLocked();
}

void SharedBlockCache::Clear() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  // Keep in-flight entries: their builders must still find-and-finalize
  // them, and dropping the future would duplicate a build already running.
  for (auto it = state.map.begin(); it != state.map.end();) {
    auto& chain = it->second;
    for (auto entry = chain.begin(); entry != chain.end();) {
      if (entry->bytes != 0) {
        state.resident_bytes -= entry->bytes;
        entry = chain.erase(entry);
        --state.entries;
      } else {
        ++entry;
      }
    }
    it = chain.empty() ? state.map.erase(it) : ++it;
  }
  CacheMetrics::Get().bytes.Set(static_cast<std::int64_t>(state.resident_bytes));
}

}  // namespace b2h::mips
