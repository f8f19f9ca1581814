#include "serve/flight.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>

#include <unistd.h>

#include "obs/obs.hpp"
#include "support/fs.hpp"
#include "support/json.hpp"
#include "support/schema.hpp"

#ifndef B2H_BUILD_TYPE
#define B2H_BUILD_TYPE "unknown"
#endif

namespace b2h::serve {

// ------------------------------------------------------------- RequestLog

void RequestLog::Begin(std::string_view corr, std::string_view key,
                       std::string_view kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Reusing a live corr overwrites the stale record instead of growing the
  // in-flight set forever.
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].corr == corr) {
      in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(i));
      start_ns_.erase(start_ns_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  RequestRecord record;
  record.corr = std::string(corr);
  record.key = std::string(key);
  record.kind = std::string(kind);
  record.status = "in-flight";
  record.seq = next_seq_++;
  in_flight_.push_back(std::move(record));
  start_ns_.push_back(obs::Stopwatch::Now());
}

void RequestLog::Finish(std::string_view corr, std::string_view status,
                        double latency_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].corr != corr) continue;
    RequestRecord record = std::move(in_flight_[i]);
    in_flight_.erase(in_flight_.begin() + static_cast<std::ptrdiff_t>(i));
    start_ns_.erase(start_ns_.begin() + static_cast<std::ptrdiff_t>(i));
    record.status = std::string(status);
    record.latency_ms = latency_ms;
    if (recent_.size() == kRecent) recent_.erase(recent_.begin());
    recent_.push_back(std::move(record));
    return;
  }
}

std::optional<std::string> RequestLog::KeyForCorr(
    std::string_view corr) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const RequestRecord& record : in_flight_) {
    if (record.corr == corr) return record.key;
  }
  for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
    if (it->corr == corr) return it->key;
  }
  return std::nullopt;
}

std::vector<RequestRecord> RequestLog::InFlight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RequestRecord> out = in_flight_;
  const std::uint64_t now = obs::Stopwatch::Now();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].latency_ms =
        static_cast<double>(now - start_ns_[i]) / 1e6;
  }
  return out;
}

std::vector<RequestRecord> RequestLog::Recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recent_;
}

// ----------------------------------------------------------- ProgressBoard

void ProgressBoard::Update(std::string_view key,
                           const explore::ExploreProgress& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      entry.state = state;
      entry.seq = next_seq_++;
      return;
    }
  }
  if (entries_.size() == kMaxEntries) {
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].seq < entries_[oldest].seq) oldest = i;
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(oldest));
  }
  entries_.push_back(Entry{std::string(key), state, next_seq_++});
}

std::optional<explore::ExploreProgress> ProgressBoard::Get(
    std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    if (entry.key == key) return entry.state;
  }
  return std::nullopt;
}

// --------------------------------------------------------------- Forensics

namespace {

void AppendRecord(std::ostringstream& out, const RequestRecord& record) {
  char latency[40];
  std::snprintf(latency, sizeof latency, "%.9g", record.latency_ms);
  out << "{\"corr\":\"" << support::JsonEscape(record.corr)
      << "\",\"key\":\"" << support::JsonEscape(record.key)
      << "\",\"kind\":\"" << support::JsonEscape(record.kind)
      << "\",\"status\":\"" << support::JsonEscape(record.status)
      << "\",\"latency_ms\":" << latency << ",\"seq\":" << record.seq << "}";
}

}  // namespace

std::string WriteForensicsDump(const Forensics& forensics,
                               std::string_view reason) {
  if (forensics.dump_dir.empty()) return "";

  std::ostringstream out;
  out << "{\"schema\":1,\"reason\":\"" << support::JsonEscape(
             std::string(reason))
      << "\",\"pid\":" << ::getpid()
      << ",\"build_type\":\"" << B2H_BUILD_TYPE << "\""
      << ",\"wire_schema\":" << kWireSchemaVersion
      << ",\"report_schema\":" << kReportSchemaVersion
      << ",\"metrics_schema\":" << obs::kMetricsSchemaVersion;

  out << ",\"in_flight\":[";
  if (forensics.requests != nullptr) {
    bool first = true;
    for (const RequestRecord& record : forensics.requests->InFlight()) {
      if (!first) out << ",";
      first = false;
      AppendRecord(out, record);
    }
  }
  out << "],\"recent\":[";
  if (forensics.requests != nullptr) {
    bool first = true;
    for (const RequestRecord& record : forensics.requests->Recent()) {
      if (!first) out << ",";
      first = false;
      AppendRecord(out, record);
    }
  }
  out << "]";

  // Both sections are raw JSON objects from their own writers, embedded
  // verbatim so the bundle parses as one document.
  out << ",\"metrics\":" << obs::Registry::Global().SnapshotJson();
  out << ",\"trace\":" << obs::Tracer::Global().FlightChromeTraceJson();
  out << "}\n";

  static std::atomic<std::uint64_t> next_dump{1};
  const std::uint64_t seq =
      next_dump.fetch_add(1, std::memory_order_relaxed);
  const std::string path = forensics.dump_dir + "/b2h-forensics-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(seq) + ".json";
  if (!support::AtomicWriteFile(path, out.str())) {
    std::fprintf(stderr, "serve: failed to write forensics dump '%s'\n",
                 path.c_str());
    return "";
  }
  return path;
}

namespace {

// Crash-handler state: a plain pointer set once at startup (the Forensics
// lives in the Server, which outlives every worker), plus a once-flag so a
// fault inside the dump writer cannot recurse into a second dump.
std::atomic<const Forensics*> g_forensics{nullptr};
std::atomic<bool> g_dumped{false};
std::terminate_handler g_prior_terminate = nullptr;

void DumpOnce(const char* reason) {
  const Forensics* forensics = g_forensics.load(std::memory_order_acquire);
  if (forensics == nullptr) return;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return;
  // Deliberately not async-signal-safe (allocates, takes locks, does
  // buffered I/O): a black-box dump that usually works beats none at all,
  // and SA_RESETHAND below guarantees a fault inside the handler still
  // terminates the process with the original signal's disposition.
  const std::string path = WriteForensicsDump(*forensics, reason);
  if (!path.empty()) {
    std::fprintf(stderr, "serve: wrote forensics dump: %s\n", path.c_str());
  }
}

void OnFatalSignal(int signal_number) {
  const char* reason = "fatal-signal";
  switch (signal_number) {
    case SIGSEGV: reason = "SIGSEGV"; break;
    case SIGABRT: reason = "SIGABRT"; break;
    case SIGBUS: reason = "SIGBUS"; break;
    case SIGFPE: reason = "SIGFPE"; break;
    default: break;
  }
  DumpOnce(reason);
  // SA_RESETHAND restored the default disposition before this handler ran:
  // re-raising terminates the process with the original signal so waitpid
  // observers (and the shell) still see the true cause.
  ::raise(signal_number);
}

void OnTerminate() {
  DumpOnce("std::terminate");
  if (g_prior_terminate != nullptr) g_prior_terminate();
  std::abort();
}

}  // namespace

void InstallCrashHandlers(const Forensics* forensics) {
  g_forensics.store(forensics, std::memory_order_release);
  if (forensics == nullptr) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = OnFatalSignal;
  sigemptyset(&action.sa_mask);
  // One shot: the disposition resets to default before the handler runs,
  // so the re-raise (or a crash inside the handler) terminates for real.
  action.sa_flags = SA_RESETHAND;
  for (const int signal_number : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(signal_number, &action, nullptr);
  }
  g_prior_terminate = std::set_terminate(OnTerminate);
}

}  // namespace b2h::serve
