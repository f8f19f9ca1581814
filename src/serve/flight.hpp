// Flight-recorder forensics for the serve daemon: a bounded request log
// (correlation id -> key/kind/status/latency, in-flight and recently
// completed), a progress board for long explores, and the crash-time dump
// writer that bundles all of it with the obs flight ring and a full metrics
// snapshot into one atomically-written JSON file.
//
// The dump path is deliberately best-effort: it runs from fault handlers
// (SIGSEGV/SIGABRT/std::terminate) where almost nothing is guaranteed, so
// it must never make things worse — allocation or I/O failure inside the
// dump simply loses the dump, not the crash's original cause.  That
// trade-off (useful forensics most of the time over async-signal-safety
// all of the time) matches what a black-box recorder is for.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "explore/explorer.hpp"

namespace b2h::serve {

// ------------------------------------------------------------- RequestLog

/// One request as the log remembers it.  `latency_ms` is elapsed-so-far
/// for in-flight records, final latency for completed ones.
struct RequestRecord {
  std::string corr;    // correlation id (server-stamped or client-supplied)
  std::string key;     // coalescing RequestKey ("" for non-work kinds)
  std::string kind;    // ping/partition/explore/...
  std::string status;  // "in-flight", "ok", or an error code
  double latency_ms = 0.0;
  std::uint64_t seq = 0;  // admission order, process-unique
};

/// Bounded, mutex-guarded log of requests by correlation id: everything
/// currently in flight plus the last kRecent completed.  This is the
/// last-N-requests section of a forensics dump and the corr -> key
/// indirection for progress polling.
class RequestLog {
 public:
  static constexpr std::size_t kRecent = 64;

  /// Admit a request.  Duplicate corr (two live requests reusing one id)
  /// overwrites the older record — ids are expected unique per live
  /// request, not enforced.
  void Begin(std::string_view corr, std::string_view key,
             std::string_view kind);
  /// Complete a request ("ok" or an error code).  Unknown corr is a no-op.
  void Finish(std::string_view corr, std::string_view status,
              double latency_ms);

  /// Coalescing key for a correlation id, searching in-flight first, then
  /// the completed ring newest-first.  nullopt when the id is unknown.
  [[nodiscard]] std::optional<std::string> KeyForCorr(
      std::string_view corr) const;

  /// In-flight records, admission order, with elapsed-so-far latencies.
  [[nodiscard]] std::vector<RequestRecord> InFlight() const;
  /// Completed records, oldest first (at most kRecent).
  [[nodiscard]] std::vector<RequestRecord> Recent() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 1;
  std::vector<RequestRecord> in_flight_;   // small: bounded by live conns
  std::vector<RequestRecord> recent_;      // ring, bounded at kRecent
  std::vector<std::uint64_t> start_ns_;    // parallel to in_flight_
};

// ----------------------------------------------------------- ProgressBoard

/// Bounded store of the latest explore::ExploreProgress of each in-flight
/// (or just-finished) work item, keyed by coalescing RequestKey — keyed by
/// KEY, not corr, so every waiter of a coalesced job (and an HTTP poller
/// with a different corr) reads the same entry via RequestLog::KeyForCorr.
class ProgressBoard {
 public:
  static constexpr std::size_t kMaxEntries = 128;

  void Update(std::string_view key, const explore::ExploreProgress& state);
  [[nodiscard]] std::optional<explore::ExploreProgress> Get(
      std::string_view key) const;

 private:
  struct Entry {
    std::string key;
    explore::ExploreProgress state;
    std::uint64_t seq = 0;  // for oldest-entry eviction
  };
  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 1;
  std::vector<Entry> entries_;
};

// --------------------------------------------------------------- Forensics

/// Everything the dump writer needs, owned by the Server.
struct Forensics {
  std::string dump_dir;                  // "" = forensics disabled
  const RequestLog* requests = nullptr;  // may be null (tools without a log)
};

/// Write a forensics bundle to `<dump_dir>/b2h-forensics-<pid>-<seq>.json`
/// via an atomic rename: reason, pid, build + schema stamps, in-flight and
/// recent requests (with correlation ids), the full metrics snapshot, and
/// the flight-recorder ring as Chrome trace JSON.  Returns the written
/// path, or "" when dumping is disabled or the write failed.
std::string WriteForensicsDump(const Forensics& forensics,
                               std::string_view reason);

/// Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers and a std::terminate
/// handler that write one forensics bundle for `forensics` (which must
/// outlive the process) and then re-raise with the default disposition, so
/// the exit status still reports the original fault.  Last call wins;
/// passing nullptr uninstalls dump-on-crash (dispositions stay).
void InstallCrashHandlers(const Forensics* forensics);

}  // namespace b2h::serve
