// Persistent artifact-cache robustness: partition-artifact round-trips
// through the disk tier, decompiles kept to the memory tier, schema-version
// self-invalidation, corruption/truncation tolerance (always a miss, never
// an error), concurrent writers sharing one directory, LRU eviction under a
// size budget, and stale-schema garbage collection.  The end-to-end
// "process-restarted sweep is free" contract lives in test_explore; this
// file stresses the storage layer underneath.
#include "explore/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "explore/disk_store.hpp"
#include "support/fs.hpp"
#include "testing_support.hpp"

namespace b2h::explore {
namespace {

namespace fs = std::filesystem;

using testing_support::TempDir;

std::shared_ptr<PartitionArtifact> MakePartitionArtifact() {
  auto artifact = std::make_shared<PartitionArtifact>();
  artifact->estimate.sw_time = 0.25;
  artifact->estimate.partitioned_time = 0.05;
  artifact->estimate.speedup = 5.0;
  artifact->estimate.area_gates = 12345.5;
  partition::KernelEstimate kernel;
  kernel.name = "loop_0x400";
  kernel.sw_cycles = 999;
  kernel.kernel_speedup = 7.5;
  artifact->estimate.kernels.push_back(kernel);

  partition::SelectedRegion region;
  region.selected_by = partition::SelectedBy::kOptimal;
  region.sw_cycles = 999;
  region.invocations = 3;
  region.arrays_resident = true;
  region.alias_regions = {1, 4};
  region.synthesized.region.name = "loop_0x400";
  region.synthesized.hw_cycles = 111;
  region.synthesized.clock_mhz = 87.5;
  region.synthesized.vhdl = "-- entity loop_0x400\n";
  region.synthesized.area.registers = 12;
  region.synthesized.area.total_gates = 4200.25;
  region.synthesized.area.units.push_back(
      {synth::FuClass::kMul, 18, 2, 800.0});
  artifact->partition.hw.push_back(std::move(region));
  artifact->partition.rejected = {"rejected r1: area constraint violated"};
  artifact->partition.area_used_gates = 4200.25;
  artifact->partition.area_budget_gates = 180000.0;
  artifact->partition.total_sw_cycles = 5555;
  artifact->partition.loop_coverage = 0.91;
  return artifact;
}

/// Path of the single on-disk entry.
fs::path OnlyEntry(const std::string& dir) {
  const auto files = support::ListFilesRecursive(
      fs::path(dir) / ("v" + std::to_string(kCacheSchemaVersion)));
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? fs::path() : files.front().path;
}

TEST(ArtifactCacheDisk, DecompilesStayInTheMemoryTier) {
  TempDir dir;
  const auto artifact = std::make_shared<const DecompileArtifact>();
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    EXPECT_EQ(writer.ObtainDecompile("k1", [&] { return artifact; }),
              artifact);
    EXPECT_EQ(writer.stats().disk_stores, 0u);
    HitTier tier = HitTier::kMiss;
    EXPECT_EQ(writer.FindDecompile("k1", &tier), artifact);
    EXPECT_EQ(tier, HitTier::kMemory);
  }
  EXPECT_EQ(DiskStore({dir.path, 0}).ComputeStats().entries, 0u);
  // A fresh cache (fresh memory tier) over the same directory misses.
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  HitTier tier = HitTier::kMemory;
  EXPECT_EQ(reader.FindDecompile("k1", &tier), nullptr);
  EXPECT_EQ(tier, HitTier::kMiss);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ArtifactCacheDisk, PartitionRoundTripPreservesReportFields) {
  TempDir dir;
  const auto original = MakePartitionArtifact();
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutPartition("p1", original);
  }
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  const auto found = reader.FindPartition("p1");
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->status.ok());
  EXPECT_EQ(found->program, nullptr);
  EXPECT_EQ(found->estimate.speedup, original->estimate.speedup);
  EXPECT_EQ(found->estimate.area_gates, original->estimate.area_gates);
  ASSERT_EQ(found->estimate.kernels.size(), 1u);
  EXPECT_EQ(found->estimate.kernels[0].name, "loop_0x400");
  EXPECT_EQ(found->estimate.kernels[0].kernel_speedup, 7.5);
  ASSERT_EQ(found->partition.hw.size(), 1u);
  const auto& region = found->partition.hw[0];
  EXPECT_EQ(region.selected_by, partition::SelectedBy::kOptimal);
  EXPECT_EQ(region.synthesized.region.name, "loop_0x400");
  EXPECT_EQ(region.synthesized.region.function, nullptr);  // no live IR
  EXPECT_EQ(region.synthesized.clock_mhz, 87.5);
  EXPECT_EQ(region.synthesized.vhdl, "-- entity loop_0x400\n");
  EXPECT_EQ(region.synthesized.area.total_gates, 4200.25);
  ASSERT_EQ(region.synthesized.area.units.size(), 1u);
  EXPECT_EQ(region.synthesized.area.units[0].cls, synth::FuClass::kMul);
  EXPECT_EQ(region.alias_regions, (std::vector<int>{1, 4}));
  EXPECT_EQ(found->partition.rejected, original->partition.rejected);
  EXPECT_EQ(found->partition.total_sw_cycles, 5555u);
}

TEST(ArtifactCacheDisk, FailureArtifactsPersist) {
  TempDir dir;
  {
    // The shape a failed decompile is cached in, under each partition key
    // that needed it.
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    auto failed = std::make_shared<PartitionArtifact>();
    failed->status = Status::Error(ErrorKind::kIndirectJump,
                                   "CDFG recovery failed at 0x400100");
    writer.PutPartition("bad", std::move(failed));
  }
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  const auto found = reader.FindPartition("bad");
  ASSERT_NE(found, nullptr);
  EXPECT_FALSE(found->status.ok());
  EXPECT_EQ(found->status.kind(), ErrorKind::kIndirectJump);
  EXPECT_EQ(found->status.message(), "CDFG recovery failed at 0x400100");
  EXPECT_EQ(found->program, nullptr);
  EXPECT_TRUE(found->partition.hw.empty());
}

TEST(ArtifactCacheDisk, VersionMismatchIsAMiss) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutPartition("p1", MakePartitionArtifact());
  }
  // Bump the version stamp inside the entry header (byte 4 = version LSB,
  // right after the 4-byte magic): the entry must self-invalidate.
  const fs::path entry = OnlyEntry(dir.path);
  auto bytes = support::ReadFile(entry);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[4] = static_cast<char>((*bytes)[4] + 1);
  ASSERT_TRUE(support::AtomicWriteFile(entry, *bytes));

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  HitTier tier = HitTier::kMemory;
  EXPECT_EQ(reader.FindPartition("p1", &tier), nullptr);
  EXPECT_EQ(tier, HitTier::kMiss);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ArtifactCacheDisk, TruncatedEntryIsAMissNeverAnError) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutPartition("p1", MakePartitionArtifact());
  }
  const fs::path entry = OnlyEntry(dir.path);
  auto bytes = support::ReadFile(entry);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() / 2);
  ASSERT_TRUE(support::AtomicWriteFile(entry, *bytes));

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  EXPECT_EQ(reader.FindPartition("p1"), nullptr);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(ArtifactCacheDisk, CorruptedPayloadFailsTheChecksum) {
  TempDir dir;
  {
    ArtifactCache writer{DiskStore::Options{dir.path, 0}};
    writer.PutPartition("p1", MakePartitionArtifact());
  }
  const fs::path entry = OnlyEntry(dir.path);
  auto bytes = support::ReadFile(entry);
  ASSERT_TRUE(bytes.has_value());
  bytes->back() = static_cast<char>(bytes->back() ^ 0x5a);  // flip payload bits
  ASSERT_TRUE(support::AtomicWriteFile(entry, *bytes));

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  EXPECT_EQ(reader.FindPartition("p1"), nullptr);
}

TEST(ArtifactCacheDisk, UndecodablePayloadCountsAsBadEntry) {
  TempDir dir;
  // A structurally valid store entry whose payload is not a serialized
  // artifact: the envelope (magic/version/checksum) passes, decoding fails,
  // and the cache reports a miss plus a bad-entry diagnostic.
  DiskStore store({dir.path, 0});
  EXPECT_TRUE(store.Store("junk", "not an artifact"));
  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  EXPECT_EQ(reader.FindPartition("junk"), nullptr);
  EXPECT_EQ(reader.stats().disk_bad_entries, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  // Bad entries are reclaimed, not permanent: the key is storable again
  // (Store skips existing paths, so leaving the file would pin the miss).
  EXPECT_FALSE(store.Contains("junk"));
  reader.PutPartition("junk", MakePartitionArtifact());
  ArtifactCache again{DiskStore::Options{dir.path, 0}};
  EXPECT_NE(again.FindPartition("junk"), nullptr);
}

TEST(ArtifactCacheDisk, ConcurrentWritersShareOneDirectory) {
  TempDir dir;
  // Two independent caches (the ISSUE's "two Toolchains, one dir") racing
  // on overlapping keys: atomic temp-file + rename writes mean every
  // resulting entry is complete and decodable.
  ArtifactCache a{DiskStore::Options{dir.path, 0}};
  ArtifactCache b{DiskStore::Options{dir.path, 0}};
  constexpr int kKeys = 80;
  const auto writer = [&](ArtifactCache& cache) {
    for (int i = 0; i < kKeys; ++i) {
      cache.PutPartition("p" + std::to_string(i), MakePartitionArtifact());
    }
  };
  std::thread ta(writer, std::ref(a));
  std::thread tb(writer, std::ref(b));
  ta.join();
  tb.join();

  ArtifactCache reader{DiskStore::Options{dir.path, 0}};
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_NE(reader.FindPartition("p" + std::to_string(i)), nullptr) << i;
  }
  EXPECT_EQ(reader.stats().disk_bad_entries, 0u);
  EXPECT_EQ(reader.stats().misses, 0u);
  // No temp-file litter once both writers finished.
  EXPECT_EQ(DiskStore({dir.path, 0}).ComputeStats().stale_files, 0u);
}

TEST(DiskStoreTest, EvictionKeepsTheStoreUnderItsBudget) {
  TempDir dir;
  const std::string payload(2048, 'x');
  // Budget fits ~3 entries; writes beyond that must evict the oldest.
  DiskStore store({dir.path, 3 * 4096});
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store.Store("k" + std::to_string(i), payload));
    // Distinct mtimes make the LRU order deterministic on coarse-timestamp
    // filesystems.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto stats = store.ComputeStats();
  EXPECT_LE(stats.total_bytes, 3u * 4096u);
  EXPECT_LT(stats.entries, 12u);
  EXPECT_GT(stats.entries, 0u);
  // LRU-by-mtime: the newest entry survives, the oldest is gone.
  EXPECT_TRUE(store.Load("k11").has_value());
  EXPECT_FALSE(store.Load("k0").has_value());
}

TEST(DiskStoreTest, GcReclaimsStaleSchemaTrees) {
  TempDir dir;
  DiskStore store({dir.path, 0});
  ASSERT_TRUE(store.Store("keep", "payload"));
  // Simulate a tree left by the older v1 format.
  const fs::path stale = fs::path(dir.path) / "v1" / "pa";
  ASSERT_TRUE(support::AtomicWriteFile(stale / "old.bin", "stale bytes"));
  EXPECT_EQ(store.ComputeStats().stale_files, 1u);

  EXPECT_EQ(store.Gc(0), 1u);
  const auto stats = store.ComputeStats();
  EXPECT_EQ(stats.stale_files, 0u);
  EXPECT_EQ(stats.entries, 1u);  // current entries survive
  EXPECT_TRUE(store.Load("keep").has_value());
}

TEST(DiskStoreTest, GcCountsStaleFilesNotDirectories) {
  TempDir dir;
  DiskStore store({dir.path, 0});
  // Two files in two subdirectories of a stale v1 tree: five filesystem
  // objects, two of them files.
  const fs::path stale = fs::path(dir.path) / "v1";
  ASSERT_TRUE(support::AtomicWriteFile(stale / "de" / "a.bin", "a"));
  ASSERT_TRUE(support::AtomicWriteFile(stale / "pa" / "b.bin", "b"));
  EXPECT_EQ(store.Gc(0), 2u);
  EXPECT_FALSE(fs::exists(stale));
}

TEST(DiskStoreTest, GcAndClearNeverTouchForeignFiles) {
  TempDir dir;
  // A cache dir pointed at a shared/existing directory (WithCacheDir("."),
  // a mistyped --dir): maintenance must only ever touch the store's own
  // v<N> trees.
  DiskStore store({dir.path, 0});
  ASSERT_TRUE(store.Store("k", "payload"));
  ASSERT_TRUE(support::AtomicWriteFile(fs::path(dir.path) / "notes.txt",
                                       "user data"));
  ASSERT_TRUE(support::AtomicWriteFile(
      fs::path(dir.path) / "project" / "main.cpp", "int main() {}\n"));
  (void)store.Gc(1);  // tiny budget: evicts every entry, not the user files
  store.Clear();
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "notes.txt"));
  EXPECT_TRUE(fs::exists(fs::path(dir.path) / "project" / "main.cpp"));
  EXPECT_FALSE(store.Load("k").has_value());
}

TEST(DiskStoreTest, ClearRemovesEverything) {
  TempDir dir;
  DiskStore store({dir.path, 0});
  ASSERT_TRUE(store.Store("k", "payload"));
  store.Clear();
  EXPECT_FALSE(store.Load("k").has_value());
  const auto stats = store.ComputeStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
}

TEST(DiskStoreTest, StoreSkipsExistingKeys) {
  TempDir dir;
  DiskStore store({dir.path, 0});
  EXPECT_TRUE(store.Store("k", "first"));
  EXPECT_FALSE(store.Store("k", "second"));  // already there
  EXPECT_EQ(*store.Load("k"), "first");
}

}  // namespace
}  // namespace b2h::explore
