// The b2h-serve daemon core: partitioning-as-a-service over a unix socket.
//
// A design-space exploration service keeps answering the same questions —
// the same benchmarks against overlapping platform/strategy grids — so the
// economics are those of a WARM server: one process owns one Toolchain
// with one two-tier ArtifactCache (and its CandidateSetPool), and every
// connection shares them.  A request that names already-computed work is
// answered from cache with zero simulations/decompilations/partitions; the
// loadgen bench and the CI serve smoke assert exactly that.
//
// Concurrency model:
//
//   accept thread  — owns the listening socket, spawns one thread per
//                    connection (the suite's request shapes are few and
//                    long-lived; a thread per connection is the simple
//                    correct choice at this scale).
//   connection threads — frame/parse/validate requests, answer cheap kinds
//                    (ping/stats/shutdown) inline, and block on the
//                    Scheduler for heavy kinds (partition/explore).
//   scheduler workers — run the toolchain work, bounded and coalesced
//                    (serve/scheduler.hpp).
//
// Robustness contract (regression-tested): malformed JSON, an unknown
// kind, a schema mismatch, or an oversized/truncated frame yields a
// structured error on THAT connection only — other connections keep being
// served, and the daemon never aborts on request input.  Oversized frames
// additionally close the connection (the stream is no longer in sync).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/flight.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "support/error.hpp"
#include "support/http.hpp"
#include "support/once_cache.hpp"
#include "support/socket.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h::serve {

class Server {
 public:
  struct Options {
    std::string socket_path;
    /// Disk tier for the shared artifact cache ("" = memory-only; the
    /// B2H_CACHE_DIR environment variable still applies to the toolchain
    /// when set).
    std::string cache_dir;
    unsigned workers = 2;        ///< scheduler worker threads
    std::size_t max_queue = 64;  ///< bounded admission queue
    unsigned toolchain_threads = 1;  ///< intra-request fan-out
    std::uint32_t max_frame_bytes = support::kDefaultMaxFrameBytes;
    /// Loopback HTTP introspection plane: <0 = disabled, 0 = pick an
    /// ephemeral port (read it back via http_port()), >0 = bind that port.
    int http_port = -1;
    /// Directory for forensics dump bundles ("" = crash handlers and the
    /// `dump` request kind are disabled).
    std::string dump_dir;
  };

  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the accept thread.  On error the server is
  /// unusable (nothing to clean up beyond the destructor).
  [[nodiscard]] Status Start();

  /// Block until shutdown is requested (shutdown request, RequestShutdown,
  /// or a signal handler calling it), then tear everything down: stop
  /// accepting, join connections, drain the scheduler, close and unlink
  /// the socket.
  void Wait();

  /// Async-signal-safe shutdown trigger (sets a flag; Wait() acts on it).
  void RequestShutdown() noexcept { stopping_.store(true); }

  /// Volatile server statistics as a JSON object (the `stats` response
  /// body): request/error counters, scheduler stats, cumulative toolchain
  /// work counters, artifact-cache and candidate-pool stats.
  [[nodiscard]] std::string StatsJson() const;

  [[nodiscard]] const Options& options() const { return options_; }

  /// Bound HTTP port after Start() (0 when the HTTP plane is disabled).
  /// With Options::http_port == 0 this is the ephemeral port the kernel
  /// picked.
  [[nodiscard]] int http_port() const noexcept { return http_port_; }

 private:
  /// Optional per-connection sink for mid-request frames (progress
  /// streaming).  Returns false when the connection is gone; null when the
  /// transport cannot stream (HTTP).
  using FrameSink = std::function<bool(std::string_view)>;

  /// Accepts on `listen_fd` until shutdown, one thread running `serve` per
  /// connection.
  void AcceptLoop(int listen_fd, void (Server::*serve)(int fd));
  void ServeConnection(int fd);
  void ServeHttpConnection(int fd);
  void HandleHttp(int fd, const support::HttpRequest& request);
  /// Answers one parsed request, or its parse `error` when it is empty.
  [[nodiscard]] std::string HandleRequest(const std::optional<Request>& request,
                                          const ParseError& error,
                                          const FrameSink* frame_sink);
  [[nodiscard]] std::string HandleWork(const Request& request,
                                       const std::string& corr,
                                       const FrameSink* frame_sink);
  /// The work closure of both work kinds: one Explore over the request's
  /// grid, rendered as a partition report or an explore report.
  [[nodiscard]] JobResult DoWork(const Request& request,
                                 const std::string& key,
                                 const std::string& corr);

  /// The benchmark compiled at `opt_level`, compiled once per daemon.
  [[nodiscard]] Result<std::shared_ptr<const mips::SoftBinary>> ObtainBinary(
      const std::string& benchmark, int opt_level);

  /// Registry-existence validation of a work request's grid; empty code
  /// on success.
  [[nodiscard]] ParseError ValidateNames(const Request& request) const;

  void AccumulateWork(const explore::ExploreResult& result);

  const Options options_;
  Toolchain toolchain_;
  Scheduler scheduler_;

  int listen_fd_ = -1;
  int http_listen_fd_ = -1;
  int http_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread http_accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::thread> connections_;

  // Flight-recorder forensics: recent-request log, per-key progress board,
  // and the crash-dump configuration the signal handlers read.
  RequestLog request_log_;
  ProgressBoard progress_;
  Forensics forensics_;
  std::atomic<std::uint64_t> next_corr_{1};  ///< server-assigned corr ids

  /// Compiled benchmarks keyed `<benchmark>@O<level>`; a failed compile is
  /// kept like a successful one.
  support::OnceCache<std::string, Result<mips::SoftBinary>> binaries_;

  // Request/traffic metrics, backed by the process-wide obs::Registry so
  // the same instruments feed StatsJson(), the `metrics` request kind, and
  // --trace-out sessions.  References resolved once in the constructor
  // (registry instruments live for the process lifetime).
  obs::Counter& requests_;
  obs::Counter& protocol_errors_;
  obs::Counter& connections_served_;
  obs::Counter& http_requests_;
  // Cumulative toolchain work this process actually performed.
  obs::Counter& simulations_run_;
  obs::Counter& decompilations_run_;
  obs::Counter& partitions_run_;
  // Live connection count and per-endpoint request latency (queue + coalesce
  // + execute wall time as seen by the connection thread).
  obs::Gauge& connections_open_;
  obs::Histogram& partition_latency_ms_;
  obs::Histogram& explore_latency_ms_;
};

}  // namespace b2h::serve
