#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "partition/strategy.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"

namespace b2h::serve {

namespace {

using support::JsonEscape;

/// How often blocked loops re-check the stop flag (accept poll, idle
/// connection reads).  Bounds shutdown latency without busy-waiting.
constexpr int kStopPollMs = 100;

/// The "progress" object of a progress frame / GET /v1/progress response.
std::string ProgressJson(const explore::ExploreProgress& state) {
  std::ostringstream out;
  out << "{\"stage\":\"" << JsonEscape(state.stage) << "\""
      << ",\"stage_done\":" << state.stage_done
      << ",\"stage_total\":" << state.stage_total
      << ",\"points_total\":" << state.points_total
      << ",\"cache_hits\":" << state.cache_hits
      << ",\"done\":" << (state.done ? "true" : "false") << "}";
  return out.str();
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      scheduler_(Scheduler::Options{options_.workers, options_.max_queue}),
      requests_(obs::Registry::Global().counter("serve.requests")),
      protocol_errors_(obs::Registry::Global().counter(
          "serve.protocol_errors")),
      connections_served_(obs::Registry::Global().counter(
          "serve.connections")),
      http_requests_(obs::Registry::Global().counter("serve.http_requests")),
      simulations_run_(obs::Registry::Global().counter(
          "serve.simulations_run")),
      decompilations_run_(obs::Registry::Global().counter(
          "serve.decompilations_run")),
      partitions_run_(obs::Registry::Global().counter("serve.partitions_run")),
      connections_open_(obs::Registry::Global().gauge(
          "serve.connections_open")),
      partition_latency_ms_(obs::Registry::Global().histogram(
          "serve.latency_ms.partition")),
      explore_latency_ms_(obs::Registry::Global().histogram(
          "serve.latency_ms.explore")) {
  // A fresh daemon starts its serve.* instruments at zero — the behavior of
  // the per-instance counters this registry family replaced.  The registry
  // is process-global, but a process runs one Server (b2h-serve) and the
  // tests construct daemons sequentially, so nothing live is zeroed.
  requests_.Reset();
  protocol_errors_.Reset();
  connections_served_.Reset();
  http_requests_.Reset();
  simulations_run_.Reset();
  decompilations_run_.Reset();
  partitions_run_.Reset();
  connections_open_.Reset();
  partition_latency_ms_.Reset();
  explore_latency_ms_.Reset();
  toolchain_.WithThreads(options_.toolchain_threads);
  if (!options_.cache_dir.empty()) {
    toolchain_.WithCacheDir(options_.cache_dir);
  }
  // The flight recorder is always on for a daemon: when something goes
  // wrong, the last few thousand spans are already in memory waiting for
  // the dump writer — no need to have started with --trace-out.
  obs::Tracer::Global().EnableFlight();
  forensics_.dump_dir = options_.dump_dir;
  forensics_.requests = &request_log_;
}

Server::~Server() {
  RequestShutdown();
  if (accept_thread_.joinable()) Wait();
}

Status Server::Start() {
  std::string error;
  listen_fd_ = support::ListenUnix(options_.socket_path, 64, &error);
  if (listen_fd_ < 0) {
    return Status::Error(ErrorKind::kResource, "b2h-serve: " + error);
  }
  if (options_.http_port >= 0) {
    std::uint16_t bound = 0;
    http_listen_fd_ = support::ListenTcp(
        static_cast<std::uint16_t>(options_.http_port), 64, &bound, &error);
    if (http_listen_fd_ < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ::unlink(options_.socket_path.c_str());
      return Status::Error(ErrorKind::kResource, "b2h-serve http: " + error);
    }
    http_port_ = bound;
  }
  if (!options_.dump_dir.empty()) {
    InstallCrashHandlers(&forensics_);
  }
  accept_thread_ = std::thread(
      [this] { AcceptLoop(listen_fd_, &Server::ServeConnection); });
  if (http_listen_fd_ >= 0) {
    http_accept_thread_ = std::thread(
        [this] { AcceptLoop(http_listen_fd_, &Server::ServeHttpConnection); });
  }
  return Status::Ok();
}

void Server::Wait() {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kStopPollMs / 2));
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (http_accept_thread_.joinable()) http_accept_thread_.join();
  // Drain order matters: failing queued jobs / finishing running ones
  // unblocks any connection thread parked in Scheduler::Run, after which
  // every connection loop observes the stop flag and exits.
  scheduler_.Stop();
  std::vector<std::thread> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (std::thread& connection : connections) {
    if (connection.joinable()) connection.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (http_listen_fd_ >= 0) {
    ::close(http_listen_fd_);
    http_listen_fd_ = -1;
  }
  // Crash handlers hold a pointer into this Server; detach it before the
  // object can die (tests construct daemons sequentially in one process).
  if (!options_.dump_dir.empty()) {
    InstallCrashHandlers(nullptr);
  }
  // The daemon owns its socket path; leaving the file behind would make a
  // later `connect` hang instead of failing fast.
  ::unlink(options_.socket_path.c_str());
}

void Server::AcceptLoop(int listen_fd, void (Server::*serve)(int fd)) {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int polled = ::poll(&pfd, 1, kStopPollMs);
    if (polled <= 0) continue;  // timeout or EINTR: re-check stop flag
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    connections_.emplace_back([this, serve, fd] { (this->*serve)(fd); });
  }
}

void Server::ServeConnection(int fd) {
  connections_served_.Add(1);
  connections_open_.Add(1);
  // Mid-request frame sink for progress streaming; HandleWork only uses it
  // when the request opted in (progress:true).
  const FrameSink frame_sink = [this, fd](std::string_view frame) {
    return support::WriteFrame(fd, frame, options_.max_frame_bytes);
  };
  std::string payload;
  while (!stopping_.load()) {
    const support::FrameStatus status = support::ReadFrame(
        fd, &payload, options_.max_frame_bytes, kStopPollMs);
    if (status == support::FrameStatus::kTimeout) continue;  // idle tick
    if (status == support::FrameStatus::kClosed) break;
    if (status == support::FrameStatus::kOversized) {
      // The prefix was consumed but the payload not; the stream is out of
      // sync, so answer structurally and close THIS connection only.
      protocol_errors_.Add(1);
      (void)support::WriteFrame(
          fd,
          ErrorResponse("", kErrBadFrame,
                        "frame exceeds the " +
                            std::to_string(options_.max_frame_bytes) +
                            "-byte cap"),
          options_.max_frame_bytes);
      break;
    }
    if (status != support::FrameStatus::kOk) break;  // truncated / error

    const std::string response = HandleRequest(payload, &frame_sink);
    if (!support::WriteFrame(fd, response, options_.max_frame_bytes)) break;
  }
  connections_open_.Add(-1);
  ::close(fd);
}

void Server::ServeHttpConnection(int fd) {
  connections_served_.Add(1);
  connections_open_.Add(1);
  // Wait for the first request byte in stop-aware slices, then read the
  // whole request in one bounded call (ReadHttpRequest keeps its own
  // buffer, so the accumulation must happen in a single invocation).
  while (!stopping_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int polled = ::poll(&pfd, 1, kStopPollMs);
    if (polled > 0) break;
    if (polled < 0 && errno != EINTR) {
      connections_open_.Add(-1);
      ::close(fd);
      return;
    }
  }
  if (stopping_.load()) {
    connections_open_.Add(-1);
    ::close(fd);
    return;
  }
  support::HttpRequest request;
  const support::HttpStatus status = support::ReadHttpRequest(
      fd, &request, options_.max_frame_bytes, /*timeout_ms=*/2000);
  switch (status) {
    case support::HttpStatus::kOk:
      HandleHttp(fd, request);
      break;
    case support::HttpStatus::kMalformed:
      protocol_errors_.Add(1);
      (void)support::WriteHttpResponse(fd, 400, "Bad Request", "text/plain",
                                       "malformed HTTP request\n");
      break;
    case support::HttpStatus::kOversized:
      protocol_errors_.Add(1);
      (void)support::WriteHttpResponse(
          fd, 413, "Payload Too Large", "text/plain",
          "header block or body exceeds the configured cap\n");
      break;
    case support::HttpStatus::kTimeout:
      (void)support::WriteHttpResponse(fd, 408, "Request Timeout",
                                       "text/plain",
                                       "request not completed in time\n");
      break;
    case support::HttpStatus::kClosed:
    case support::HttpStatus::kError:
      break;  // nothing sensible to answer
  }
  connections_open_.Add(-1);
  ::close(fd);
}

void Server::HandleHttp(int fd, const support::HttpRequest& request) {
  http_requests_.Add(1);
  obs::ScopedSpan span("serve.http", "serve");
  span.Arg("method", request.method).Arg("target", request.target);
  std::string_view target = request.target;
  if (const std::size_t query = target.find('?');
      query != std::string_view::npos) {
    target = target.substr(0, query);  // routing ignores the query string
  }

  if (request.method == "GET") {
    if (target == "/metrics") {
      (void)support::WriteHttpResponse(
          fd, 200, "OK", "text/plain; version=0.0.4; charset=utf-8",
          obs::Registry::Global().PrometheusText());
      return;
    }
    if (target == "/healthz") {
      obs::Registry& registry = obs::Registry::Global();
      const std::int64_t queue_depth =
          registry.gauge("serve.queue_depth").Value();
      const std::int64_t in_flight =
          registry.gauge("serve.in_flight").Value();
      const bool shutting_down = stopping_.load();
      const bool overloaded =
          queue_depth >= static_cast<std::int64_t>(options_.max_queue);
      const bool healthy = !shutting_down && !overloaded;
      std::ostringstream body;
      body << "{\"ok\":" << (healthy ? "true" : "false")
           << ",\"stopping\":" << (shutting_down ? "true" : "false")
           << ",\"overloaded\":" << (overloaded ? "true" : "false")
           << ",\"queue_depth\":" << queue_depth
           << ",\"max_queue\":" << options_.max_queue
           << ",\"in_flight\":" << in_flight << "}";
      (void)support::WriteHttpResponse(
          fd, healthy ? 200 : 503, healthy ? "OK" : "Service Unavailable",
          "application/json", body.str());
      return;
    }
    if (target == "/trace") {
      (void)support::WriteHttpResponse(
          fd, 200, "OK", "application/json",
          obs::Tracer::Global().FlightChromeTraceJson());
      return;
    }
    constexpr std::string_view kProgressPrefix = "/v1/progress/";
    if (target.size() > kProgressPrefix.size() &&
        target.substr(0, kProgressPrefix.size()) == kProgressPrefix) {
      const std::string corr(target.substr(kProgressPrefix.size()));
      const std::optional<std::string> key = request_log_.KeyForCorr(corr);
      std::optional<explore::ExploreProgress> state;
      if (key.has_value()) state = progress_.Get(*key);
      if (!state.has_value()) {
        (void)support::WriteHttpResponse(
            fd, 404, "Not Found", "application/json",
            "{\"error\":\"unknown correlation id\"}");
        return;
      }
      (void)support::WriteHttpResponse(
          fd, 200, "OK", "application/json",
          "{\"corr\":\"" + JsonEscape(corr) +
              "\",\"progress\":" + ProgressJson(*state) + "}");
      return;
    }
    (void)support::WriteHttpResponse(fd, 404, "Not Found", "text/plain",
                                     "unknown target\n");
    return;
  }

  if (request.method == "POST") {
    const char* kind = nullptr;
    if (target == "/v1/partition") {
      kind = "partition";
    } else if (target == "/v1/explore") {
      kind = "explore";
    }
    if (kind == nullptr) {
      (void)support::WriteHttpResponse(fd, 404, "Not Found", "text/plain",
                                       "unknown target\n");
      return;
    }
    // The body is the framed wire payload verbatim (so HTTP and framed
    // clients produce byte-identical reports); "kind" may be omitted — the
    // path supplies it — but must match the path when present.
    std::string payload = request.body;
    const std::optional<support::JsonValue> parsed =
        support::JsonValue::Parse(payload);
    if (parsed.has_value() && parsed->is_object()) {
      const support::JsonValue* body_kind = parsed->Find("kind");
      if (body_kind == nullptr) {
        const std::size_t brace = payload.find('{');
        std::size_t after = brace + 1;
        while (after < payload.size() &&
               std::isspace(static_cast<unsigned char>(payload[after]))) {
          ++after;
        }
        const bool empty_object =
            after < payload.size() && payload[after] == '}';
        payload.insert(brace + 1, std::string("\"kind\":\"") + kind +
                                      (empty_object ? "\"" : "\","));
      } else if (!body_kind->is_string() || body_kind->string() != kind) {
        protocol_errors_.Add(1);
        (void)support::WriteHttpResponse(
            fd, 400, "Bad Request", "application/json",
            ErrorResponse("", kErrBadRequest,
                          std::string("\"kind\" must match the request path "
                                      "(expected \"") +
                              kind + "\")"));
        return;
      }
    }
    // Through the same HandleRequest as framed clients: shared parsing,
    // validation, coalescing, deadlines, and cache.  Protocol-level
    // failures ride the JSON envelope (ok:false) with HTTP 200.
    const std::string response = HandleRequest(payload, nullptr);
    (void)support::WriteHttpResponse(fd, 200, "OK", "application/json",
                                     response);
    return;
  }

  (void)support::WriteHttpResponse(fd, 405, "Method Not Allowed", "text/plain",
                                   "only GET and POST are supported\n");
}

std::string Server::HandleRequest(std::string_view payload,
                                  const FrameSink* frame_sink) {
  requests_.Add(1);
  obs::ScopedSpan span("serve.request", "serve");
  ParseError error;
  const std::optional<Request> request = ParseRequest(payload, &error);
  if (!request.has_value()) {
    protocol_errors_.Add(1);
    span.Arg("kind", "invalid");
    return ErrorResponse("", error.code, error.message);
  }
  // Correlation id: client-supplied when present, server-stamped otherwise.
  // Every span and the response envelope carry it, so a trace, a forensics
  // dump, or a progress poll can be tied back to this exact request.
  const std::string corr =
      request->corr.empty() ? "c-" + std::to_string(next_corr_.fetch_add(1))
                            : request->corr;
  span.Arg("kind", RequestKindName(request->kind)).Arg("corr", corr);
  switch (request->kind) {
    case RequestKind::kPing:
      return OkResponse(request->id, "{\"pong\":true}", "{}", corr);
    case RequestKind::kStats:
      // Stats are volatile by definition, so they ride in "served", never
      // in the deterministic "report" slot.
      return OkResponse(request->id, "{}", StatsJson(), corr);
    case RequestKind::kMetrics:
      // Full registry snapshot, schema-stamped by SnapshotJson itself
      // (kMetricsSchemaVersion).  Volatile like stats: "served" slot only.
      return OkResponse(request->id, "{}",
                        obs::Registry::Global().SnapshotJson(), corr);
    case RequestKind::kDump: {
      // Operator-triggered forensics bundle — same writer, same shape as a
      // crash dump.  The path is delivery metadata: "served" slot.
      const std::string path = WriteForensicsDump(forensics_, "request");
      if (path.empty()) {
        return ErrorResponse(request->id, kErrBadRequest,
                             "forensics dumping is disabled (start b2h-serve "
                             "with --dump-dir) or the write failed",
                             corr);
      }
      return OkResponse(request->id, "{}",
                        "{\"path\":\"" + JsonEscape(path) + "\"}", corr);
    }
    case RequestKind::kShutdown:
      RequestShutdown();
      return OkResponse(request->id, "{}", "{\"stopping\":true}", corr);
    case RequestKind::kPartition:
    case RequestKind::kExplore:
      return HandleWork(*request, corr, frame_sink);
  }
  return ErrorResponse(request->id, kErrInternal, "unreachable request kind",
                       corr);
}

std::string Server::HandleWork(const Request& request, const std::string& corr,
                               const FrameSink* frame_sink) {
  const ParseError invalid = ValidateNames(request);
  if (!invalid.code.empty()) {
    protocol_errors_.Add(1);
    return ErrorResponse(request.id, invalid.code, invalid.message, corr);
  }

  const std::string key = RequestKey(request);
  request_log_.Begin(corr, key, RequestKindName(request.kind));
  Request job_request = request;  // owned copy; outlives this frame
  obs::ScopedSpan span("serve.dispatch", "serve");
  span.Arg("key", key).Arg("corr", corr);
  const obs::Stopwatch latency;  // queue + coalesce + execute, as the
                                 // connection thread sees it

  // Progress streaming: a framed client that asked (progress:true) gets
  // board snapshots as interleaved frames while it waits; the poll runs on
  // THIS connection thread every Scheduler::kPollIntervalMs, so a slow or
  // dead client only ever stalls itself.  HTTP pollers read the same board
  // through GET /v1/progress/<corr> instead.
  std::function<void()> poll;
  if (request.progress && frame_sink != nullptr && *frame_sink) {
    poll = [this, frame_sink, &key, &request, &corr,
            last_sent = std::string()]() mutable {
      const std::optional<explore::ExploreProgress> state =
          progress_.Get(key);
      if (!state.has_value()) return;
      std::string progress_json = ProgressJson(*state);
      if (progress_json == last_sent) return;  // no news, no frame
      last_sent = std::move(progress_json);
      (void)(*frame_sink)(ProgressFrame(request.id, corr, last_sent));
    };
  }
  const Scheduler::Outcome outcome = scheduler_.Run(
      key,
      [this, job_request = std::move(job_request), key, corr]() -> JobResult {
        return job_request.kind == RequestKind::kPartition
                   ? DoPartition(job_request, key, corr)
                   : DoExplore(job_request, key, corr);
      },
      request.deadline_ms, poll);
  const double millis = latency.Millis();
  (request.kind == RequestKind::kPartition ? partition_latency_ms_
                                           : explore_latency_ms_)
      .Observe(millis);
  span.Arg("coalesced", static_cast<int>(outcome.coalesced));

  switch (outcome.code) {
    case Scheduler::OutcomeCode::kOverloaded:
      request_log_.Finish(corr, kErrOverloaded, millis);
      return ErrorResponse(request.id, kErrOverloaded,
                           "admission queue is full; retry later", corr);
    case Scheduler::OutcomeCode::kDeadline:
      request_log_.Finish(corr, kErrDeadline, millis);
      return ErrorResponse(request.id, kErrDeadline,
                           "deadline of " +
                               std::to_string(request.deadline_ms) +
                               " ms expired (the computation continues and "
                               "will be served warm)",
                           corr);
    case Scheduler::OutcomeCode::kShuttingDown:
      request_log_.Finish(corr, kErrShuttingDown, millis);
      return ErrorResponse(request.id, kErrShuttingDown,
                           "server is shutting down", corr);
    case Scheduler::OutcomeCode::kDone:
      break;
  }
  const JobResult& result = *outcome.result;
  if (!result.ok) {
    request_log_.Finish(corr, result.error_code, millis);
    return ErrorResponse(request.id, result.error_code, result.error_message,
                         corr);
  }
  request_log_.Finish(corr, "ok", millis);
  return OkResponse(request.id, result.report,
                    outcome.coalesced ? "{\"coalesced\":true}"
                                      : "{\"coalesced\":false}",
                    corr);
}

JobResult Server::DoPartition(Request request, std::string key,
                              std::string corr) {
  obs::ScopedSpan span("serve.partition", "serve");
  span.Arg("benchmark", request.benchmark)
      .Arg("platform", request.platform)
      .Arg("strategy", request.strategy)
      .Arg("corr", corr);
  auto binary = ObtainBinary(request.benchmark, request.opt_level);
  if (!binary.ok()) {
    return {false, kErrInternal, binary.status().message(), ""};
  }
  explore::ExploreSpec spec;
  spec.binaries = {{request.benchmark, binary.value()}};
  spec.platforms = {request.platform};
  spec.strategies = {request.strategy};
  spec.objectives = {*partition::ParseObjective(request.objective)};
  spec.strategy_options.seed = request.seed;
  spec.strategy_options.annealing_iterations = request.annealing_iterations;
  spec.progress = [this, &key](const explore::ExploreProgress& progress) {
    progress_.Update(key, progress);
  };

  // Through Explore — not Run — so the request hits the shared artifact
  // cache and candidate pool; a repeat of this request does zero work.
  const explore::ExploreResult result = toolchain_.Explore(spec);
  AccumulateWork(result);
  const explore::ExplorePoint& point = result.At(0, 0, 0, 0);
  if (!point.status.ok()) {
    return {false, kErrFlowFailed, point.status.message(), ""};
  }
  // The same renderer as a local Toolchain::RunOn + Json(), so a served
  // report is bit-identical to it (asserted in test_serve).
  return {true, "", "", ToolchainRun::FromPoint(point).Json()};
}

JobResult Server::DoExplore(Request request, std::string key,
                            std::string corr) {
  obs::ScopedSpan span("serve.explore", "serve");
  span.Arg("benchmarks", static_cast<std::uint64_t>(request.benchmarks.size()))
      .Arg("platforms", static_cast<std::uint64_t>(request.platforms.size()))
      .Arg("strategies",
           static_cast<std::uint64_t>(request.strategies.size()))
      .Arg("corr", corr);
  explore::ExploreSpec spec;
  spec.binaries.reserve(request.benchmarks.size());
  for (const std::string& benchmark : request.benchmarks) {
    auto binary = ObtainBinary(benchmark, request.opt_level);
    if (!binary.ok()) {
      return {false, kErrInternal, binary.status().message(), ""};
    }
    spec.binaries.push_back({benchmark, binary.value()});
  }
  spec.platforms = request.platforms;
  spec.strategies = request.strategies;
  spec.objectives.clear();
  for (const std::string& objective : request.objectives) {
    spec.objectives.push_back(*partition::ParseObjective(objective));
  }
  spec.strategy_options.seed = request.seed;
  spec.strategy_options.annealing_iterations = request.annealing_iterations;
  spec.progress = [this, &key](const explore::ExploreProgress& progress) {
    progress_.Update(key, progress);
  };

  const explore::ExploreResult result = toolchain_.Explore(spec);
  AccumulateWork(result);
  return {true, "", "", result.Json()};
}

Result<std::shared_ptr<const mips::SoftBinary>> Server::ObtainBinary(
    const std::string& benchmark, int opt_level) {
  using Compiled = Result<mips::SoftBinary>;
  const auto compiled = binaries_.Obtain(
      benchmark + "@O" + std::to_string(opt_level), [&] {
        const suite::Benchmark* bench = suite::FindBenchmark(benchmark);
        return std::make_shared<const Compiled>(
            bench == nullptr
                ? Compiled(Status::Error(ErrorKind::kUnsupported,
                                         "unknown benchmark: " + benchmark))
                : suite::BuildBinary(*bench, opt_level));
      });
  if (!compiled->ok()) return compiled->status();
  return std::shared_ptr<const mips::SoftBinary>(compiled,
                                                 &compiled->value());
}

ParseError Server::ValidateNames(const Request& request) const {
  const auto check_benchmark = [](const std::string& name) -> ParseError {
    if (suite::FindBenchmark(name) == nullptr) {
      return {kErrUnknownBenchmark, "unknown benchmark \"" + name + "\""};
    }
    return {};
  };
  const auto check_platform = [](const std::string& name) -> ParseError {
    if (!partition::PlatformRegistry::Global().Find(name).has_value()) {
      return {kErrUnknownPlatform, "unknown platform \"" + name + "\""};
    }
    return {};
  };
  const auto check_strategy = [](const std::string& name) -> ParseError {
    if (partition::StrategyRegistry::Global().Create(name) == nullptr) {
      return {kErrUnknownStrategy, "unknown strategy \"" + name + "\""};
    }
    return {};
  };

  ParseError error;
  if (request.kind == RequestKind::kPartition) {
    if (error = check_benchmark(request.benchmark); !error.code.empty()) {
      return error;
    }
    if (error = check_platform(request.platform); !error.code.empty()) {
      return error;
    }
    return check_strategy(request.strategy);
  }
  for (const std::string& name : request.benchmarks) {
    if (error = check_benchmark(name); !error.code.empty()) return error;
  }
  for (const std::string& name : request.platforms) {
    if (error = check_platform(name); !error.code.empty()) return error;
  }
  for (const std::string& name : request.strategies) {
    if (error = check_strategy(name); !error.code.empty()) return error;
  }
  return {};
}

void Server::AccumulateWork(const explore::ExploreResult& result) {
  simulations_run_.Add(result.simulations_run);
  decompilations_run_.Add(result.decompilations_run);
  partitions_run_.Add(result.partitions_run);
}

std::string Server::StatsJson() const {
  const Scheduler::Stats scheduler = scheduler_.stats();
  const explore::ArtifactCache::Stats cache = toolchain_.CacheStats();
  const mips::SharedBlockCache::Stats blockcache = Toolchain::BlockCacheStats();
  const partition::CandidateSetPool::Stats pool =
      toolchain_.artifact_cache()->candidate_pool()->stats();
  obs::Registry& registry = obs::Registry::Global();
  std::ostringstream out;
  out << "{\"schema\":" << kWireSchemaVersion
      << ",\"requests\":" << requests_.Value()
      << ",\"protocol_errors\":" << protocol_errors_.Value()
      << ",\"connections\":" << connections_served_.Value()
      << ",\"http_requests\":" << http_requests_.Value()
      // Live gauges (new fields; everything above keeps its name and shape
      // for existing parsers).
      << ",\"connections_open\":" << connections_open_.Value()
      << ",\"queue_depth\":" << registry.gauge("serve.queue_depth").Value()
      << ",\"in_flight\":" << registry.gauge("serve.in_flight").Value()
      << ",\"scheduler\":{\"submitted\":" << scheduler.submitted
      << ",\"executed\":" << scheduler.executed
      << ",\"coalesced\":" << scheduler.coalesced
      << ",\"rejected_overload\":" << scheduler.rejected_overload
      << ",\"deadline_expired\":" << scheduler.deadline_expired
      << ",\"max_queue_depth\":" << scheduler.max_queue_depth
      << "},\"work\":{\"simulations_run\":" << simulations_run_.Value()
      << ",\"decompilations_run\":" << decompilations_run_.Value()
      << ",\"partitions_run\":" << partitions_run_.Value()
      << "},\"cache\":{\"memory_hits\":" << cache.memory_hits
      << ",\"disk_hits\":" << cache.disk_hits
      << ",\"misses\":" << cache.misses
      << ",\"entries\":" << cache.entries
      << "},\"blockcache\":{\"hits\":" << blockcache.hits
      << ",\"misses\":" << blockcache.misses
      << ",\"evictions\":" << blockcache.evictions
      << ",\"bytes\":" << blockcache.bytes
      << ",\"entries\":" << blockcache.entries
      << "},\"candidate_pool\":{\"scans\":" << pool.scans
      << ",\"hits\":" << pool.hits << ",\"entries\":" << pool.entries
      << ",\"synthesis_runs\":" << pool.synthesis_runs << "}}";
  return out.str();
}

}  // namespace b2h::serve
