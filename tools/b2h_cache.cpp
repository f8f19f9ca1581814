// b2h-cache — maintenance CLI for the persistent artifact cache.
//
//   b2h-cache [--dir DIR] stats [--socket PATH]  entry counts, bytes, schema
//   b2h-cache [--dir DIR] gc [--max-bytes N]     LRU eviction + stale trees
//   b2h-cache [--dir DIR] clear                  remove everything
//
// DIR defaults to $B2H_CACHE_DIR.  `stats --socket PATH` additionally asks
// the b2h-serve daemon listening on PATH for its live metrics snapshot and
// prints the hit/miss ratio and memory-vs-disk tier split of the cache
// traffic that daemon has actually served.  `gc` always reclaims trees left
// by older schema versions and temp junk; with --max-bytes it additionally
// evicts least-recently-used entries until the store fits the budget.  Exit
// code: 0 on success, 1 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "explore/disk_store.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: b2h-cache [--dir DIR] <stats|gc|clear> [--max-bytes N]\n"
      "                 [--socket PATH]\n"
      "  DIR defaults to $B2H_CACHE_DIR (an explicit --dir always wins)\n"
      "  stats [--socket PATH]\n"
      "                      entry counts, bytes, schema version; with a\n"
      "                      --socket, also the live hit/miss ratio and\n"
      "                      memory-vs-disk tier split of the b2h-serve\n"
      "                      daemon listening there\n"
      "  gc [--max-bytes N]  drop stale-schema trees and temp junk; with\n"
      "                      N > 0, also evict LRU entries until the store\n"
      "                      fits N bytes (to drop everything, use clear)\n"
      "  clear               remove every cache entry, all schema versions\n"
      "                      (foreign files in the directory are kept)\n");
  return 1;
}

/// Query a live b2h-serve daemon's `metrics` endpoint and print the cache
/// tier traffic it reports.  Returns false on connect/protocol trouble.
bool PrintLiveCacheMetrics(const std::string& socket_path) {
  auto client = b2h::serve::Client::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "b2h-cache: cannot connect to %s: %s\n",
                 socket_path.c_str(),
                 client.status().message().c_str());
    return false;
  }
  std::ostringstream request;
  request << "{\"schema\":" << b2h::kWireSchemaVersion
          << ",\"kind\":\"metrics\"}";
  std::string response;
  if (!client.value().Call(request.str(), &response, 10'000).ok()) {
    std::fprintf(stderr, "b2h-cache: metrics request to %s failed\n",
                 socket_path.c_str());
    return false;
  }
  const auto parsed = b2h::support::JsonValue::Parse(response);
  if (!parsed.has_value() || !parsed->GetBool("ok", false)) {
    std::fprintf(stderr, "b2h-cache: malformed metrics response\n");
    return false;
  }
  const b2h::support::JsonValue* served = parsed->Find("served");
  const b2h::support::JsonValue* counters =
      served != nullptr ? served->Find("counters") : nullptr;
  if (served == nullptr || counters == nullptr ||
      served->GetNumber("schema") !=
          static_cast<double>(b2h::obs::kMetricsSchemaVersion)) {
    std::fprintf(stderr, "b2h-cache: unexpected metrics snapshot schema\n");
    return false;
  }
  const double memory_hits = counters->GetNumber("cache.memory_hits");
  const double disk_hits = counters->GetNumber("cache.disk_hits");
  const double misses = counters->GetNumber("cache.misses");
  const double stores = counters->GetNumber("cache.disk_stores");
  const double evictions = counters->GetNumber("cache.disk_evictions");
  const double hits = memory_hits + disk_hits;
  const double lookups = hits + misses;
  std::printf("live cache traffic (b2h-serve at %s):\n",
              socket_path.c_str());
  std::printf("  lookups:      %.0f (hit ratio %.1f%%)\n", lookups,
              lookups > 0.0 ? 100.0 * hits / lookups : 0.0);
  std::printf("  memory hits:  %.0f (%.1f%% of hits)\n", memory_hits,
              hits > 0.0 ? 100.0 * memory_hits / hits : 0.0);
  std::printf("  disk hits:    %.0f (%.1f%% of hits)\n", disk_hits,
              hits > 0.0 ? 100.0 * disk_hits / hits : 0.0);
  std::printf("  misses:       %.0f\n", misses);
  std::printf("  disk stores:  %.0f, evictions: %.0f\n", stores, evictions);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string command;
  std::string socket_path;
  std::uint64_t max_bytes = 0;
  bool have_max_bytes = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--max-bytes" && i + 1 < argc) {
      max_bytes = std::strtoull(argv[++i], nullptr, 10);
      have_max_bytes = true;
    } else if (arg == "stats" || arg == "gc" || arg == "clear") {
      if (!command.empty()) return Usage();
      command = arg;
    } else {
      return Usage();
    }
  }
  if (command.empty()) return Usage();
  // An explicit --dir wins here, unlike Toolchain's env-first precedence:
  // gc/clear are destructive, and a maintenance command must operate on
  // exactly the directory the user named.  $B2H_CACHE_DIR is only the
  // fallback when no --dir is given.
  if (dir.empty()) dir = b2h::explore::ResolveCacheDir("");
  // `stats --socket` is meaningful without any local directory: the live
  // tier split comes from the daemon, not the disk.  Everything else
  // operates on a store and must know where it is.
  if (dir.empty() && !(command == "stats" && !socket_path.empty())) {
    std::fprintf(stderr,
                 "b2h-cache: no cache directory (pass --dir or set "
                 "B2H_CACHE_DIR)\n");
    return 1;
  }

  if (command == "stats") {
    if (!dir.empty()) {
      const auto stats = b2h::explore::DiskStore({dir, 0}).ComputeStats();
      std::printf("cache dir: %s (schema v%u)\n", dir.c_str(),
                  b2h::explore::kCacheSchemaVersion);
      std::printf("  entries:           %zu\n", stats.entries);
      std::printf("  entry bytes:       %llu\n",
                  static_cast<unsigned long long>(stats.entry_bytes));
      std::printf("  stale files:       %zu (%llu bytes)\n", stats.stale_files,
                  static_cast<unsigned long long>(stats.stale_bytes));
      std::printf("  total bytes:       %llu\n",
                  static_cast<unsigned long long>(stats.total_bytes));
    }
    if (!socket_path.empty() && !PrintLiveCacheMetrics(socket_path)) {
      return 1;
    }
    return 0;
  }

  b2h::explore::DiskStore store({dir, 0});
  if (command == "gc") {
    if (have_max_bytes && max_bytes == 0) {
      std::fprintf(stderr,
                   "b2h-cache: --max-bytes 0 would mean 'no eviction' — to "
                   "remove every entry, use `b2h-cache clear`\n");
      return 1;
    }
    const std::size_t removed = store.Gc(max_bytes);
    const auto stats = store.ComputeStats();
    std::printf("gc: removed %zu file(s); %zu entr%s, %llu bytes remain\n",
                removed, stats.entries, stats.entries == 1 ? "y" : "ies",
                static_cast<unsigned long long>(stats.total_bytes));
    return 0;
  }
  // clear
  store.Clear();
  std::printf("cleared %s\n", dir.c_str());
  return 0;
}
