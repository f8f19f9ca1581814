#include "mips/shared_cache.hpp"

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
  return decoded.capacity() * sizeof(Instr) + decode_ok.capacity() / 8 +
         blocks.bytes() + sizeof(*this);
}

SharedBlockCache::SharedBlockCache()
    : programs_(
          kMaxBytes,
          [](const PredecodedProgram& pre) { return pre.bytes(); },
          [](const PredecodedProgram&, std::size_t bytes) {
            CacheMetrics::Get().evictions.Add();
            CacheMetrics::Get().bytes.Add(-static_cast<std::int64_t>(bytes));
          }) {}

SharedBlockCache& SharedBlockCache::Global() {
  static SharedBlockCache instance;
  return instance;
}

std::shared_ptr<const PredecodedProgram> SharedBlockCache::Obtain(
    const SoftBinary& binary, const CycleModel& model) {
  CacheMetrics& metrics = CacheMetrics::Get();
  // The lookup span ends where a build starts; a hit's span includes any
  // wait for a build in flight.
  obs::ScopedSpan find("sim.blockcache.find", "cache");
  bool built = false;
  auto pre = programs_.Obtain(
      Key{HashKey(binary.text, model), binary.text, model}, [&] {
        built = true;
        metrics.misses.Add();
        find.Arg("outcome", "miss");
        find.Close();
        obs::ScopedSpan span("sim.blockcache.store", "cache");
        auto built_pre = std::make_shared<PredecodedProgram>();
        built_pre->decoded.resize(binary.text.size());
        built_pre->decode_ok.resize(binary.text.size(), false);
        for (std::size_t i = 0; i < binary.text.size(); ++i) {
          if (auto instr = Decode(binary.text[i])) {
            built_pre->decoded[i] = *instr;
            built_pre->decode_ok[i] = true;
          }
        }
        built_pre->blocks =
            BlockCache(built_pre->decoded, built_pre->decode_ok, model);
        const std::size_t bytes = built_pre->bytes();
        span.Arg("bytes", static_cast<std::uint64_t>(bytes))
            .Arg("text_words", static_cast<std::uint64_t>(binary.text.size()));
        metrics.bytes.Add(static_cast<std::int64_t>(bytes));
        return built_pre;
      });
  if (!built) {
    metrics.hits.Add();
    find.Arg("outcome", "hit");
  }
  return pre;
}

SharedBlockCache::Stats SharedBlockCache::stats() const {
  const auto cache = programs_.stats();
  return {cache.hits, cache.builds, cache.evictions, cache.cost,
          cache.entries};
}

void SharedBlockCache::Clear() {
  CacheMetrics::Get().bytes.Add(-static_cast<std::int64_t>(programs_.Clear()));
}

}  // namespace b2h::mips
