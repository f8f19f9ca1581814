#include "explore/disk_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <system_error>
#include <vector>

#include "obs/obs.hpp"
#include "support/fs.hpp"
#include "support/serialize.hpp"

namespace b2h::explore {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'B', '2', 'H', 'C'};

std::string VersionDirName() {
  std::string name = "v";
  name += std::to_string(kCacheSchemaVersion);
  return name;
}

/// True for "v<digits>" — the only directory names this store ever
/// creates.  Gc/Clear must not touch anything else: a cache dir pointed at
/// an existing directory (WithCacheDir("."), a mistyped --dir) would
/// otherwise have its unrelated contents deleted.
bool IsVersionDirName(const std::string& name) {
  if (name.size() < 2 || name[0] != 'v') return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

}  // namespace

std::string ResolveCacheDir(std::string configured) {
  const char* env = std::getenv("B2H_CACHE_DIR");
  if (env != nullptr && *env != '\0') return env;
  return configured;
}

DiskStore::DiskStore(Options options)
    : options_(std::move(options)),
      root_(options_.directory),
      version_root_(root_ / VersionDirName()) {}

fs::path DiskStore::EntryPath(const std::string& key) const {
  return version_root_ / (key + ".bin");
}

std::optional<std::string> DiskStore::Load(const std::string& key) {
  const fs::path path = EntryPath(key);
  const auto file = support::ReadFile(path);
  if (!file.has_value()) return std::nullopt;
  support::BinaryReader reader(
      std::string_view(*file).substr(
          std::min<std::size_t>(file->size(), sizeof kMagic)));
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;
  std::string payload;
  if (file->size() < sizeof kMagic ||
      file->compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0 ||
      !reader.U32(&version) || version != kCacheSchemaVersion ||
      !reader.U64(&checksum) || !reader.Str(&payload) || !reader.AtEnd() ||
      support::Fnv1a64(payload) != checksum) {
    // An invalid entry is a miss — AND it must not be permanent: Store()
    // skips existing paths, so leaving the bad file in place would make
    // this key uncacheable forever.  Removing it lets the recomputed
    // artifact be persisted again.
    support::RemoveFileQuiet(path);
    return std::nullopt;
  }
  support::TouchNow(path);  // LRU: a hit makes the entry recently used
  return payload;
}

bool DiskStore::Contains(const std::string& key) const {
  std::error_code ec;
  return fs::exists(EntryPath(key), ec);
}

void DiskStore::Remove(const std::string& key) {
  support::RemoveFileQuiet(EntryPath(key));
}

bool DiskStore::Store(const std::string& key, std::string_view payload) {
  const fs::path path = EntryPath(key);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    // Content-addressed: an existing entry for this key holds these bytes
    // already (or a racing writer's identical ones).
    return false;
  }
  support::BinaryWriter writer;
  std::string entry(kMagic, sizeof kMagic);
  writer.U32(kCacheSchemaVersion);
  writer.U64(support::Fnv1a64(payload));
  writer.Str(payload);
  entry += writer.buffer();
  if (!support::AtomicWriteFile(path, entry)) return false;
  {
    const std::lock_guard<std::mutex> lock(gc_mutex_);
    if (approx_valid_) approx_bytes_ += entry.size();
  }
  MaybeAutoGc();
  return true;
}

DiskStore::Stats DiskStore::ComputeStats() const {
  Stats stats;
  for (const support::FileInfo& info : support::ListFilesRecursive(root_)) {
    stats.total_bytes += info.size;
    const std::string name = info.path.filename().string();
    const bool is_entry = name.size() > 4 &&
                          name.compare(name.size() - 4, 4, ".bin") == 0;
    if (is_entry && info.path.parent_path() == version_root_) {
      ++stats.entries;
      stats.entry_bytes += info.size;
    } else {
      ++stats.stale_files;  // other-schema trees, temp files, foreign junk
      stats.stale_bytes += info.size;
    }
  }
  return stats;
}

std::size_t DiskStore::Gc(std::uint64_t max_bytes) {
  const std::lock_guard<std::mutex> lock(gc_mutex_);
  std::size_t removed = 0;
  std::error_code ec;

  // 1. Stale-schema trees self-invalidated at lookup time; reclaim them.
  // Only the store's own v<N> directories are touched — anything else in
  // the root is foreign and left alone.  (Manual increment: the walk must
  // survive a concurrent process mutating the shared directory.)
  fs::directory_iterator it(
      root_, fs::directory_options::skip_permission_denied, ec);
  const fs::directory_iterator end;
  while (!ec && it != end) {
    const std::string name = it->path().filename().string();
    if (IsVersionDirName(name) && name != VersionDirName()) {
      // Count the tree's files, not its directories.
      for (const support::FileInfo& info :
           support::ListFilesRecursive(it->path())) {
        if (support::RemoveFileQuiet(info.path)) ++removed;
      }
      std::error_code remove_ec;
      fs::remove_all(it->path(), remove_ec);
    }
    it.increment(ec);
  }

  // 2. Temp junk from crashed writers, then LRU-by-mtime eviction of
  // current entries down to the budget.
  std::vector<support::FileInfo> files =
      support::ListFilesRecursive(version_root_);
  std::erase_if(files, [&](const support::FileInfo& info) {
    const std::string name = info.path.filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".bin") == 0) {
      return false;
    }
    if (support::RemoveFileQuiet(info.path)) ++removed;
    return true;
  });
  std::uint64_t total = 0;
  for (const support::FileInfo& info : files) total += info.size;
  if (max_bytes > 0 && total > max_bytes) {
    std::sort(files.begin(), files.end(),
              [](const support::FileInfo& a, const support::FileInfo& b) {
                if (a.mtime != b.mtime) return a.mtime < b.mtime;
                return a.path < b.path;  // deterministic tie-break
              });
    std::size_t evicted = 0;
    for (const support::FileInfo& info : files) {
      if (total <= max_bytes) break;
      if (support::RemoveFileQuiet(info.path)) {
        total -= info.size;
        ++removed;
        ++evicted;
      }
    }
    if (evicted > 0) {
      obs::Registry::Global().counter("cache.disk_evictions").Add(evicted);
    }
  }
  approx_bytes_ = total;
  approx_valid_ = true;
  return removed;
}

void DiskStore::Clear() {
  const std::lock_guard<std::mutex> lock(gc_mutex_);
  std::error_code ec;
  // Remove only the store's own v<N> trees (every schema version), never
  // foreign contents of a shared directory; then drop the root itself if
  // that left it empty.
  fs::directory_iterator it(
      root_, fs::directory_options::skip_permission_denied, ec);
  const fs::directory_iterator end;
  while (!ec && it != end) {
    if (IsVersionDirName(it->path().filename().string())) {
      std::error_code remove_ec;
      fs::remove_all(it->path(), remove_ec);
    }
    it.increment(ec);
  }
  std::error_code rmdir_ec;
  fs::remove(root_, rmdir_ec);  // non-recursive: only succeeds when empty
  approx_bytes_ = 0;
  approx_valid_ = true;
}

void DiskStore::MaybeAutoGc() {
  if (options_.max_bytes == 0) return;
  bool over_budget = false;
  {
    const std::lock_guard<std::mutex> lock(gc_mutex_);
    if (!approx_valid_) {
      approx_bytes_ = support::DirectoryBytes(version_root_);
      approx_valid_ = true;
    }
    over_budget = approx_bytes_ > options_.max_bytes;
  }
  // Evict to a low-water mark rather than exactly to the budget: stopping
  // at max_bytes would re-trigger a full directory scan + sort on every
  // subsequent Store once the store fills up.
  if (over_budget) Gc(options_.max_bytes - options_.max_bytes / 10);
}

}  // namespace b2h::explore
