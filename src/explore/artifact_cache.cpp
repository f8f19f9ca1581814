#include "explore/artifact_cache.hpp"

#include <cstring>

#include "obs/obs.hpp"
#include "support/serialize.hpp"

namespace b2h::explore {

namespace {

/// Process-wide cache tier counters, resolved once (instruments are
/// never destroyed, see obs::Registry).  Mirrors the per-cache Stats so
/// the serve `metrics` endpoint and traced sweeps see tier traffic
/// without plumbing a cache handle around.
struct TierMetrics {
  obs::Counter& memory_hits;
  obs::Counter& disk_hits;
  obs::Counter& misses;
  obs::Counter& disk_stores;
  obs::Counter& disk_bad_entries;

  static TierMetrics& Get() {
    auto& registry = obs::Registry::Global();
    static TierMetrics metrics{registry.counter("cache.memory_hits"),
                               registry.counter("cache.disk_hits"),
                               registry.counter("cache.misses"),
                               registry.counter("cache.disk_stores"),
                               registry.counter("cache.disk_bad_entries")};
    return metrics;
  }
};

const char* TierName(HitTier tier) {
  switch (tier) {
    case HitTier::kMemory: return "memory";
    case HitTier::kDisk: return "disk";
    case HitTier::kMiss: break;
  }
  return "miss";
}

/// Records which tier served one lookup: in the cache's Stats (the caller
/// holds its mutex), the process-wide counters, the lookup's span and
/// `out` (when non-null).
void CountLookup(HitTier served, ArtifactCache::Stats& stats,
                 obs::ScopedSpan& span, HitTier* out) {
  TierMetrics& metrics = TierMetrics::Get();
  switch (served) {
    case HitTier::kMemory:
      ++stats.memory_hits;
      metrics.memory_hits.Add();
      break;
    case HitTier::kDisk:
      ++stats.disk_hits;
      metrics.disk_hits.Add();
      break;
    case HitTier::kMiss:
      ++stats.misses;
      metrics.misses.Add();
      break;
  }
  span.Arg("tier", TierName(served));
  if (out != nullptr) *out = served;
}

using support::BinaryReader;
using support::BinaryWriter;

// Defensive ceiling on decoded container sizes.  The store's checksum makes
// a lying length prefix effectively impossible; this keeps a hand-crafted
// payload from requesting a giant allocation anyway.
constexpr std::uint64_t kMaxItems = 1u << 20;

void EncodeStatus(BinaryWriter& out, const Status& status) {
  out.U32(static_cast<std::uint32_t>(status.kind()));
  out.Str(status.message());
}

bool DecodeStatus(BinaryReader& in, Status* status) {
  std::uint32_t kind = 0;
  std::string message;
  if (!in.U32(&kind) || kind > static_cast<std::uint32_t>(ErrorKind::kParse) ||
      !in.Str(&message)) {
    return false;
  }
  *status = kind == 0 ? Status::Ok()
                      : Status::Error(static_cast<ErrorKind>(kind),
                                      std::move(message));
  return true;
}

void EncodeEstimate(BinaryWriter& out, const partition::AppEstimate& est) {
  out.F64(est.sw_time);
  out.F64(est.partitioned_time);
  out.F64(est.speedup);
  out.F64(est.avg_kernel_speedup);
  out.F64(est.sw_energy);
  out.F64(est.partitioned_energy);
  out.F64(est.energy_savings);
  out.F64(est.area_gates);
  out.U64(est.kernels.size());
  for (const partition::KernelEstimate& k : est.kernels) {
    out.Str(k.name);
    out.U64(k.sw_cycles);
    out.U64(k.hw_cycles);
    out.U64(k.invocations);
    out.U64(k.comm_words);
    out.U64(k.mem_accesses);
    out.Bool(k.arrays_resident);
    out.F64(k.hw_clock_mhz);
    out.F64(k.area_gates);
    out.F64(k.sw_time);
    out.F64(k.hw_time);
    out.F64(k.kernel_speedup);
  }
}

bool DecodeEstimate(BinaryReader& in, partition::AppEstimate* est) {
  std::uint64_t num_kernels = 0;
  if (!in.F64(&est->sw_time) || !in.F64(&est->partitioned_time) ||
      !in.F64(&est->speedup) || !in.F64(&est->avg_kernel_speedup) ||
      !in.F64(&est->sw_energy) || !in.F64(&est->partitioned_energy) ||
      !in.F64(&est->energy_savings) || !in.F64(&est->area_gates) ||
      !in.U64(&num_kernels) || num_kernels > kMaxItems) {
    return false;
  }
  est->kernels.resize(static_cast<std::size_t>(num_kernels));
  for (partition::KernelEstimate& k : est->kernels) {
    if (!in.Str(&k.name) || !in.U64(&k.sw_cycles) || !in.U64(&k.hw_cycles) ||
        !in.U64(&k.invocations) || !in.U64(&k.comm_words) ||
        !in.U64(&k.mem_accesses) || !in.Bool(&k.arrays_resident) ||
        !in.F64(&k.hw_clock_mhz) || !in.F64(&k.area_gates) ||
        !in.F64(&k.sw_time) || !in.F64(&k.hw_time) ||
        !in.F64(&k.kernel_speedup)) {
      return false;
    }
  }
  return true;
}

void EncodeArea(BinaryWriter& out, const synth::AreaReport& area) {
  out.U64(area.units.size());
  for (const synth::FuInstance& unit : area.units) {
    out.U8(static_cast<std::uint8_t>(unit.cls));
    out.U32(unit.width);
    out.U32(unit.ops_mapped);
    out.F64(unit.gates);
  }
  out.U32(area.registers);
  out.U32(area.register_bits);
  out.U32(area.fsm_states);
  out.U32(area.mult_blocks);
  out.F64(area.fu_gates);
  out.F64(area.register_gates);
  out.F64(area.mux_gates);
  out.F64(area.fsm_gates);
  out.F64(area.total_gates);
}

bool DecodeArea(BinaryReader& in, synth::AreaReport* area) {
  std::uint64_t num_units = 0;
  if (!in.U64(&num_units) || num_units > kMaxItems) return false;
  area->units.resize(static_cast<std::size_t>(num_units));
  for (synth::FuInstance& unit : area->units) {
    std::uint8_t cls = 0;
    if (!in.U8(&cls) ||
        cls > static_cast<std::uint8_t>(synth::FuClass::kNone) ||
        !in.U32(&unit.width) || !in.U32(&unit.ops_mapped) ||
        !in.F64(&unit.gates)) {
      return false;
    }
    unit.cls = static_cast<synth::FuClass>(cls);
  }
  return in.U32(&area->registers) && in.U32(&area->register_bits) &&
         in.U32(&area->fsm_states) && in.U32(&area->mult_blocks) &&
         in.F64(&area->fu_gates) && in.F64(&area->register_gates) &&
         in.F64(&area->mux_gates) && in.F64(&area->fsm_gates) &&
         in.F64(&area->total_gates);
}

void EncodePartitionResult(BinaryWriter& out,
                           const partition::PartitionResult& result) {
  out.U64(result.hw.size());
  for (const partition::SelectedRegion& region : result.hw) {
    out.U8(static_cast<std::uint8_t>(region.selected_by));
    out.U64(region.sw_cycles);
    out.U64(region.invocations);
    out.U64(region.comm_words);
    out.U64(region.mem_accesses);
    out.Bool(region.arrays_resident);
    out.U64(region.alias_regions.size());
    for (const int id : region.alias_regions) out.I64(id);
    out.Str(region.synthesized.region.name);
    out.U64(region.synthesized.hw_cycles);
    out.F64(region.synthesized.clock_mhz);
    out.Str(region.synthesized.vhdl);
    EncodeArea(out, region.synthesized.area);
  }
  out.U64(result.rejected.size());
  for (const std::string& reason : result.rejected) out.Str(reason);
  out.F64(result.area_used_gates);
  out.F64(result.area_budget_gates);
  out.U64(result.total_sw_cycles);
  out.F64(result.loop_coverage);
}

bool DecodePartitionResult(BinaryReader& in,
                           partition::PartitionResult* result) {
  std::uint64_t num_regions = 0;
  if (!in.U64(&num_regions) || num_regions > kMaxItems) return false;
  result->hw.resize(static_cast<std::size_t>(num_regions));
  for (partition::SelectedRegion& region : result->hw) {
    std::uint8_t selected_by = 0;
    std::uint64_t num_alias = 0;
    if (!in.U8(&selected_by) ||
        selected_by >
            static_cast<std::uint8_t>(partition::SelectedBy::kAnnealing) ||
        !in.U64(&region.sw_cycles) || !in.U64(&region.invocations) ||
        !in.U64(&region.comm_words) || !in.U64(&region.mem_accesses) ||
        !in.Bool(&region.arrays_resident) || !in.U64(&num_alias) ||
        num_alias > kMaxItems) {
      return false;
    }
    region.selected_by = static_cast<partition::SelectedBy>(selected_by);
    region.alias_regions.resize(static_cast<std::size_t>(num_alias));
    for (int& id : region.alias_regions) {
      std::int64_t value = 0;
      if (!in.I64(&value)) return false;
      id = static_cast<int>(value);
    }
    // Hydrated regions carry no live IR: function/loop/block pointers stay
    // null, the schedule stays empty.  Name, metrics, area, and VHDL are
    // everything downstream reporting consumes.
    if (!in.Str(&region.synthesized.region.name) ||
        !in.U64(&region.synthesized.hw_cycles) ||
        !in.F64(&region.synthesized.clock_mhz) ||
        !in.Str(&region.synthesized.vhdl) ||
        !DecodeArea(in, &region.synthesized.area)) {
      return false;
    }
  }
  std::uint64_t num_rejected = 0;
  if (!in.U64(&num_rejected) || num_rejected > kMaxItems) return false;
  result->rejected.resize(static_cast<std::size_t>(num_rejected));
  for (std::string& reason : result->rejected) {
    if (!in.Str(&reason)) return false;
  }
  return in.F64(&result->area_used_gates) &&
         in.F64(&result->area_budget_gates) &&
         in.U64(&result->total_sw_cycles) && in.F64(&result->loop_coverage);
}

}  // namespace

ContentHasher& ContentHasher::Bytes(const void* data, std::size_t size) {
  state_ = support::Fnv1a64({static_cast<const char*>(data), size}, state_);
  return *this;
}

ContentHasher& ContentHasher::U64(std::uint64_t value) {
  state_ = support::Fnv1a64U64(value, state_);
  return *this;
}

ContentHasher& ContentHasher::F64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  return U64(bits);
}

ContentHasher& ContentHasher::Str(std::string_view text) {
  // Length prefix: "ab"+"c" must not collide with "a"+"bc".
  U64(text.size());
  return Bytes(text.data(), text.size());
}

std::string ContentHasher::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

std::string HashBinary(const mips::SoftBinary& binary) {
  ContentHasher hasher;
  hasher.U64(binary.entry);
  hasher.U64(binary.text.size());
  hasher.Bytes(binary.text.data(), binary.text.size() * sizeof(std::uint32_t));
  hasher.U64(binary.data.size());
  hasher.Bytes(binary.data.data(), binary.data.size());
  hasher.U64(binary.symbols.size());
  for (const auto& [name, address] : binary.symbols) {
    hasher.Str(name).U64(address);
  }
  return hasher.Hex();
}

std::string HashPlatform(const partition::Platform& platform) {
  ContentHasher hasher;
  const auto& cpu = platform.cpu;
  hasher.F64(cpu.clock_mhz)
      .F64(cpu.base_watts)
      .F64(cpu.watts_per_mhz)
      .F64(cpu.idle_fraction);
  const auto& model = cpu.cycle_model;
  hasher.U64(model.base)
      .U64(model.load_extra)
      .U64(model.mult_extra)
      .U64(model.div_extra)
      .U64(model.taken_extra);
  const auto& fpga = platform.fpga;
  hasher.F64(fpga.capacity_gates)
      .F64(fpga.usable_fraction)
      .F64(fpga.clock_mhz_cap)
      .F64(fpga.static_watts)
      .F64(fpga.watts_per_kgate_100mhz);
  const auto& comm = platform.comm;
  hasher.F64(comm.setup_cycles)
      .F64(comm.cycles_per_word)
      .F64(comm.bus_penalty_cycles);
  return hasher.Hex();
}

// ------------------------------------------------ artifact (de)serialization

std::string EncodePartitionArtifact(const PartitionArtifact& artifact) {
  BinaryWriter out;
  EncodeStatus(out, artifact.status);
  EncodeEstimate(out, artifact.estimate);
  EncodePartitionResult(out, artifact.partition);
  return out.Take();
}

std::shared_ptr<const PartitionArtifact> DecodePartitionArtifact(
    std::string_view payload) {
  BinaryReader in(payload);
  auto artifact = std::make_shared<PartitionArtifact>();
  if (!DecodeStatus(in, &artifact->status) ||
      !DecodeEstimate(in, &artifact->estimate) ||
      !DecodePartitionResult(in, &artifact->partition) || !in.AtEnd()) {
    return nullptr;
  }
  return artifact;
}

// --------------------------------------------------------- two-tier cache

ArtifactCache::ArtifactCache(DiskStore::Options disk) {
  if (!disk.directory.empty()) {
    disk_ = std::make_unique<DiskStore>(std::move(disk));
  }
}

// The disk tier is accessed OUTSIDE mutex_ throughout: DiskStore is
// internally thread-safe, artifacts are immutable, and holding the cache
// lock across file reads/writes (or a Store-triggered eviction scan) would
// stall every concurrent lookup on a shared cache.  The worst a race costs
// is decoding or encoding the same content twice.

std::shared_ptr<const DecompileArtifact> ArtifactCache::FindDecompile(
    const std::string& key, HitTier* tier) {
  obs::ScopedSpan span("cache.find", "cache");
  span.Arg("kind", "decompile");
  auto artifact = decompiles_.Find(key);
  const std::lock_guard<std::mutex> lock(mutex_);
  CountLookup(artifact != nullptr ? HitTier::kMemory : HitTier::kMiss, stats_,
              span, tier);
  return artifact;
}

std::shared_ptr<const PartitionArtifact> ArtifactCache::FindPartition(
    const std::string& key, HitTier* tier) {
  obs::ScopedSpan span("cache.find", "cache");
  span.Arg("kind", "partition");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = partitions_.find(key);
    if (it != partitions_.end()) {
      CountLookup(HitTier::kMemory, stats_, span, tier);
      return it->second;
    }
  }
  if (disk_ != nullptr) {
    if (auto payload = disk_->Load(key)) {
      if (auto artifact = DecodePartitionArtifact(*payload)) {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] = partitions_.emplace(key, artifact);
        if (!inserted) artifact = it->second;  // racing promotion won
        CountLookup(HitTier::kDisk, stats_, span, tier);
        return artifact;
      }
      // Valid envelope, undecodable payload: a plain miss — and reclaim
      // the file so the recomputed artifact can be persisted again.
      disk_->Remove(key);
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.disk_bad_entries;
      TierMetrics::Get().disk_bad_entries.Add();
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  CountLookup(HitTier::kMiss, stats_, span, tier);
  return nullptr;
}

void ArtifactCache::PutPartition(
    const std::string& key, std::shared_ptr<const PartitionArtifact> artifact) {
  // Existence probe before encoding: a key another process sharing the
  // directory has persisted already skips the serialization work, not
  // just the write.
  bool stored = false;
  if (disk_ != nullptr && artifact != nullptr && !disk_->Contains(key)) {
    obs::ScopedSpan span("cache.store", "cache");
    stored = disk_->Store(key, EncodePartitionArtifact(*artifact));
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stored) {
    ++stats_.disk_stores;
    TierMetrics::Get().disk_stores.Add();
  }
  partitions_[key] = std::move(artifact);
}

ArtifactCache::Stats ArtifactCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.entries = decompiles_.stats().entries + partitions_.size();
  return stats;
}

void ArtifactCache::Clear() {
  decompiles_.Clear();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    partitions_.clear();
    stats_ = Stats{};
  }
  // Pooled candidate sets point into programs owned by the memory tier;
  // dropping the tier must drop the pool too (its own mutex, so outside
  // ours).  Cumulative pool counters survive by design.
  candidate_pool_->Clear();
}

}  // namespace b2h::explore
