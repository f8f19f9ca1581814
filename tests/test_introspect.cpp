// Introspection-plane tests: the minimal HTTP server (request parsing,
// abuse handling, connection-per-request lifecycle), the live endpoints
// (/metrics, /healthz, /trace, /v1/progress), HTTP work routed through the
// same scheduler as framed clients (byte-identical reports, warm-cache
// zero-recompute, kind/path agreement), request correlation ids, progress
// streaming over the framed protocol, and the forensics flight recorder —
// both the explicit `dump` request and a child-process crash test that
// proves a SIGSEGV still leaves a parseable black-box bundle naming the
// in-flight request.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/flight.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/http.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"
#include "testing_support.hpp"

namespace b2h {
namespace {

using serve::Client;
using serve::Server;
using support::HttpRequest;
using support::HttpResponse;
using support::HttpStatus;
using support::JsonValue;
using testing_support::ParkGate;
using testing_support::RegisterParkedStrategy;
using testing_support::ScopedEnv;
using testing_support::TempDir;

// Hermetic for the whole binary: an exported cache dir would serve "cold"
// requests warm and flip the zero-recompute assertions below.
const ScopedEnv kPinnedCacheDirEnv("B2H_CACHE_DIR", nullptr);

// ---------------------------------------------------------------------------
// Shared helpers (mirroring test_serve.cpp)
// ---------------------------------------------------------------------------

struct ServerHarness {
  explicit ServerHarness(Server::Options options)
      : server(std::move(options)) {}
  ~ServerHarness() {
    server.RequestShutdown();
    if (waiter.joinable()) waiter.join();
  }

  [[nodiscard]] bool Start() {
    const Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status.message();
    if (!status.ok()) return false;
    waiter = std::thread([this] { server.Wait(); });
    return true;
  }

  Server server;
  std::thread waiter;
};

Client MustConnect(const std::string& socket_path) {
  Result<Client> client = Client::Connect(socket_path);
  EXPECT_TRUE(client.ok()) << client.status().message();
  return client.ok() ? std::move(client).take() : Client();
}

std::string Call(Client& client, const std::string& request) {
  std::string response;
  const Status status = client.Call(request, &response, 60000);
  EXPECT_TRUE(status.ok()) << status.message();
  return response;
}

JsonValue MustParse(const std::string& text) {
  const auto parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.value_or(JsonValue());
}

/// The raw "report" object text — sliced, not re-serialized, so equality
/// really is bit-identity of what the daemon sent.
std::string ExtractReport(const std::string& response) {
  const std::size_t begin = response.find("\"report\":");
  const std::size_t end = response.rfind(",\"served\":");
  EXPECT_NE(begin, std::string::npos) << response;
  EXPECT_NE(end, std::string::npos) << response;
  if (begin == std::string::npos || end == std::string::npos) return "";
  const std::size_t start = begin + 9;
  return response.substr(start, end - start);
}

double WorkTotal(Client& client) {
  const JsonValue parsed =
      MustParse(Call(client, R"({"schema":1,"kind":"stats"})"));
  const JsonValue* served = parsed.Find("served");
  EXPECT_NE(served, nullptr);
  if (served == nullptr) return -1.0;
  const JsonValue* work = served->Find("work");
  EXPECT_NE(work, nullptr);
  if (work == nullptr) return -1.0;
  return work->GetNumber("simulations_run") +
         work->GetNumber("decompilations_run") +
         work->GetNumber("partitions_run");
}

std::string PartitionRequest(std::uint64_t seed = 1,
                             unsigned iterations = 1500) {
  return R"({"schema":1,"kind":"partition","benchmark":"crc",)"
         R"("strategy":"paper-greedy","seed":)" +
         std::to_string(seed) + R"(,"annealing_iterations":)" +
         std::to_string(iterations) + "}";
}

// ---------------------------------------------------------------------------
// HTTP request parsing (socketpair-fed, no live server)
// ---------------------------------------------------------------------------

struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void Write(std::string_view text) {
    ASSERT_EQ(::send(fd[0], text.data(), text.size(), 0),
              static_cast<ssize_t>(text.size()));
  }
  void CloseWriter() {
    ::close(fd[0]);
    fd[0] = -1;
  }
};

TEST(HttpParse, ParsesRequestLineHeadersAndBody) {
  SocketPair pair;
  pair.Write(
      "POST /v1/partition HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/json\r\nContent-Length: 4\r\n\r\nbody");
  HttpRequest request;
  ASSERT_EQ(support::ReadHttpRequest(pair.fd[1], &request, 1 << 20, 2000),
            HttpStatus::kOk);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/partition");
  EXPECT_EQ(request.Header("content-type"), "application/json");
  EXPECT_EQ(request.body, "body");
}

// A request already waiting in the socket is read even with no time left:
// like the framed transport, the HTTP reader polls at least once before it
// reports a timeout (support::PollTimeoutMs).
TEST(HttpParse, ZeroTimeoutStillReadsAWaitingRequest) {
  SocketPair pair;
  pair.Write(
      "POST /v1/partition HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody");
  HttpRequest request;
  ASSERT_EQ(support::ReadHttpRequest(pair.fd[1], &request, 1 << 20,
                                     /*timeout_ms=*/0),
            HttpStatus::kOk);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "body");
}

TEST(HttpParse, RejectsMalformedInput) {
  // Each case: raw bytes -> expected refusal.  The writer closes so a
  // parser waiting for more data sees EOF instead of hanging.
  const struct {
    const char* wire;
    HttpStatus expected;
  } cases[] = {
      {"NONSENSE\r\n\r\n", HttpStatus::kMalformed},
      {"GET /x\r\n\r\n", HttpStatus::kMalformed},  // missing HTTP version
      {"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n", HttpStatus::kMalformed},
      {"GET /x HTTP/1.1\r\nContent-Length: 12a\r\n\r\n",
       HttpStatus::kMalformed},
      {"", HttpStatus::kClosed},
  };
  for (const auto& test_case : cases) {
    SocketPair pair;
    if (*test_case.wire != '\0') pair.Write(test_case.wire);
    pair.CloseWriter();
    HttpRequest request;
    EXPECT_EQ(support::ReadHttpRequest(pair.fd[1], &request, 1 << 20, 2000),
              test_case.expected)
        << test_case.wire;
  }
}

TEST(HttpParse, OversizedBodyAndHeadersAreRefused) {
  {
    SocketPair pair;
    pair.Write("POST /x HTTP/1.1\r\nContent-Length: 10000\r\n\r\n");
    HttpRequest request;
    EXPECT_EQ(support::ReadHttpRequest(pair.fd[1], &request,
                                       /*max_body_bytes=*/4096, 2000),
              HttpStatus::kOversized);
  }
  {
    SocketPair pair;
    std::string endless = "GET /x HTTP/1.1\r\n";
    while (endless.size() <= support::kMaxHttpHeaderBytes + 1024) {
      endless += "x-filler: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n";
    }
    pair.Write(endless);  // never sends the blank line
    HttpRequest request;
    EXPECT_EQ(support::ReadHttpRequest(pair.fd[1], &request, 1 << 20, 2000),
              HttpStatus::kOversized);
  }
}

// ---------------------------------------------------------------------------
// Live HTTP plane
// ---------------------------------------------------------------------------

Server::Options HttpOptions(const TempDir& scratch) {
  Server::Options options{scratch.path + "/serve.sock"};
  options.http_port = 0;  // ephemeral, read back via http_port()
  return options;
}

TEST(HttpPlane, HealthzMetricsTraceAndRouting) {
  TempDir scratch;
  ServerHarness harness(HttpOptions(scratch));
  ASSERT_TRUE(harness.Start());
  const auto port = static_cast<std::uint16_t>(harness.server.http_port());
  ASSERT_GT(port, 0);

  // Real work first so /metrics and /trace have something to show.
  Client client = MustConnect(harness.server.options().socket_path);
  ASSERT_TRUE(MustParse(Call(client, PartitionRequest())).GetBool("ok", false));

  HttpResponse health;
  ASSERT_TRUE(support::HttpCall(port, "GET", "/healthz", "", &health));
  EXPECT_EQ(health.status_code, 200);
  const JsonValue health_json = MustParse(health.body);
  EXPECT_TRUE(health_json.GetBool("ok", false)) << health.body;
  EXPECT_FALSE(health_json.GetBool("stopping", true));
  ASSERT_NE(health_json.Find("queue_depth"), nullptr);
  ASSERT_NE(health_json.Find("in_flight"), nullptr);

  HttpResponse metrics;
  ASSERT_TRUE(support::HttpCall(port, "GET", "/metrics", "", &metrics));
  EXPECT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.body.find("# TYPE serve_requests counter"),
            std::string::npos)
      << metrics.body.substr(0, 400);
  EXPECT_NE(metrics.body.find("# TYPE serve_latency_ms_partition histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("serve_latency_ms_partition_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("serve_latency_ms_partition_sum"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("serve_http_requests"), std::string::npos);

  HttpResponse trace;
  ASSERT_TRUE(support::HttpCall(port, "GET", "/trace", "", &trace));
  EXPECT_EQ(trace.status_code, 200);
  const JsonValue trace_json = MustParse(trace.body);
  const JsonValue* events = trace_json.Find("traceEvents");
  ASSERT_NE(events, nullptr) << trace.body.substr(0, 200);
  ASSERT_TRUE(events->is_array());
  // The flight recorder is always on in a daemon: the partition above left
  // closed spans behind even though main tracing was never enabled.
  EXPECT_FALSE(events->array().empty());

  HttpResponse missing;
  ASSERT_TRUE(support::HttpCall(port, "GET", "/nope", "", &missing));
  EXPECT_EQ(missing.status_code, 404);
  HttpResponse bad_method;
  ASSERT_TRUE(support::HttpCall(port, "PUT", "/metrics", "", &bad_method));
  EXPECT_EQ(bad_method.status_code, 405);
  HttpResponse unknown_corr;
  ASSERT_TRUE(
      support::HttpCall(port, "GET", "/v1/progress/zzz", "", &unknown_corr));
  EXPECT_EQ(unknown_corr.status_code, 404);
}

TEST(HttpPlane, AbuseGetsStatusCodesAndConnectionPerRequestCloses) {
  TempDir scratch;
  ServerHarness harness(HttpOptions(scratch));
  ASSERT_TRUE(harness.Start());
  const auto port = static_cast<std::uint16_t>(harness.server.http_port());

  const auto raw_roundtrip = [&](std::string_view wire) {
    std::string error;
    const int fd = support::ConnectTcp(port, &error);
    EXPECT_GE(fd, 0) << error;
    if (fd < 0) return std::string();
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    ::shutdown(fd, SHUT_WR);
    std::string response;
    char buffer[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n <= 0) break;  // EOF: the server closes after one response
      response.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  EXPECT_NE(raw_roundtrip("NONSENSE\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(raw_roundtrip("POST /v1/partition HTTP/1.1\r\n"
                          "Content-Length: 999999999\r\n\r\n")
                .find("HTTP/1.1 413"),
            std::string::npos);

  // The abuse above must not have wedged the plane: a clean request on a
  // fresh connection still works, and the server closes after answering
  // (the recv-to-EOF inside HttpCall is exactly that lifecycle).
  HttpResponse health;
  ASSERT_TRUE(support::HttpCall(port, "GET", "/healthz", "", &health));
  EXPECT_EQ(health.status_code, 200);
}

TEST(HttpPlane, PostSharesSchedulerCacheAndReportBytesWithFramedClients) {
  TempDir scratch;
  ServerHarness harness(HttpOptions(scratch));
  ASSERT_TRUE(harness.Start());
  const auto port = static_cast<std::uint16_t>(harness.server.http_port());
  Client client = MustConnect(harness.server.options().socket_path);

  const std::string request = PartitionRequest(/*seed=*/7);
  const std::string framed = Call(client, request);
  ASSERT_TRUE(MustParse(framed).GetBool("ok", false)) << framed;
  const std::string framed_report = ExtractReport(framed);
  const double cold_work = WorkTotal(client);
  ASSERT_GT(cold_work, 0.0);

  // Same body over HTTP: byte-identical report, zero extra toolchain work.
  HttpResponse with_kind;
  ASSERT_TRUE(support::HttpCall(port, "POST", "/v1/partition", request,
                                &with_kind, 60000));
  EXPECT_EQ(with_kind.status_code, 200);
  EXPECT_TRUE(MustParse(with_kind.body).GetBool("ok", false)) << with_kind.body;
  EXPECT_EQ(ExtractReport(with_kind.body), framed_report);

  // "kind" omitted: the path supplies it and the request key is unchanged.
  std::string without_kind = request;
  const std::size_t kind_pos = without_kind.find(R"("kind":"partition",)");
  ASSERT_NE(kind_pos, std::string::npos);
  without_kind.erase(kind_pos, std::strlen(R"("kind":"partition",)"));
  HttpResponse injected;
  ASSERT_TRUE(support::HttpCall(port, "POST", "/v1/partition", without_kind,
                                &injected, 60000));
  EXPECT_EQ(injected.status_code, 200);
  EXPECT_EQ(ExtractReport(injected.body), framed_report);

  EXPECT_EQ(WorkTotal(client), cold_work) << "HTTP replay recomputed work";

  // A body whose kind contradicts the path is refused before any work.
  HttpResponse mismatch;
  ASSERT_TRUE(
      support::HttpCall(port, "POST", "/v1/explore", request, &mismatch));
  EXPECT_EQ(mismatch.status_code, 400);
  const JsonValue mismatch_json = MustParse(mismatch.body);
  EXPECT_FALSE(mismatch_json.GetBool("ok", true));
  ASSERT_NE(mismatch_json.Find("error"), nullptr);
  EXPECT_EQ(mismatch_json.Find("error")->GetString("code"),
            serve::kErrBadRequest);
}

// ---------------------------------------------------------------------------
// Correlation ids and progress streaming
// ---------------------------------------------------------------------------

TEST(Correlation, EnvelopeEchoesClientCorrOrAssignsOne) {
  TempDir scratch;
  Server::Options options{scratch.path + "/serve.sock"};
  ServerHarness harness(options);
  ASSERT_TRUE(harness.Start());
  Client client = MustConnect(options.socket_path);

  const JsonValue echoed = MustParse(Call(
      client, R"({"schema":1,"kind":"ping","id":"t1","corr":"abc.Z_9-x"})"));
  EXPECT_EQ(echoed.GetString("corr"), "abc.Z_9-x");
  EXPECT_EQ(echoed.GetString("id"), "t1");

  const JsonValue assigned =
      MustParse(Call(client, R"({"schema":1,"kind":"ping"})"));
  const std::string corr = assigned.GetString("corr");
  EXPECT_EQ(corr.substr(0, 2), "c-") << corr;

  // Invalid ids are rejected up front — and the error envelope cannot echo
  // an id that failed validation.
  const JsonValue rejected = MustParse(
      Call(client, R"({"schema":1,"kind":"ping","corr":"has spaces!"})"));
  EXPECT_FALSE(rejected.GetBool("ok", true));
  ASSERT_NE(rejected.Find("error"), nullptr);
  EXPECT_EQ(rejected.Find("error")->GetString("code"), serve::kErrBadRequest);
  EXPECT_EQ(rejected.Find("corr"), nullptr);
}

TEST(Correlation, ExploreStreamsProgressFramesAndHttpPollsThem) {
  TempDir scratch;
  ServerHarness harness(HttpOptions(scratch));
  ASSERT_TRUE(harness.Start());
  const auto port = static_cast<std::uint16_t>(harness.server.http_port());
  Client client = MustConnect(harness.server.options().socket_path);

  // The parked strategy holds the explore in flight until the first
  // progress frame arrives, so at least one 25 ms scheduler poll lands
  // mid-flight however fast the flow is.
  ParkGate& gate = RegisterParkedStrategy();
  const std::string request =
      R"({"schema":1,"kind":"explore","id":"e1","corr":"exp-1",)"
      R"("progress":true,"benchmarks":["crc","fir"],)"
      R"("strategies":["test-parked"]})";
  std::vector<std::string> frames;
  std::string response;
  const Status status = client.CallStreaming(
      request, &response,
      [&](std::string_view frame) {
        frames.emplace_back(frame);
        gate.Release();
      },
      120000);
  ASSERT_TRUE(status.ok()) << status.message();
  const JsonValue final_reply = MustParse(response);
  EXPECT_TRUE(final_reply.GetBool("ok", false)) << response;
  EXPECT_EQ(final_reply.GetString("corr"), "exp-1");

  ASSERT_FALSE(frames.empty()) << "no progress frames before the reply";
  for (const std::string& frame : frames) {
    const JsonValue parsed = MustParse(frame);
    EXPECT_EQ(parsed.GetString("corr"), "exp-1") << frame;
    EXPECT_EQ(parsed.Find("ok"), nullptr) << frame;
    const JsonValue* progress = parsed.Find("progress");
    ASSERT_NE(progress, nullptr) << frame;
    EXPECT_FALSE(progress->GetString("stage").empty()) << frame;
    ASSERT_NE(progress->Find("points_total"), nullptr) << frame;
  }

  // The polled view agrees: after completion the board shows done=true
  // under the same correlation id.
  HttpResponse polled;
  ASSERT_TRUE(
      support::HttpCall(port, "GET", "/v1/progress/exp-1", "", &polled));
  EXPECT_EQ(polled.status_code, 200);
  const JsonValue polled_json = MustParse(polled.body);
  EXPECT_EQ(polled_json.GetString("corr"), "exp-1");
  const JsonValue* progress = polled_json.Find("progress");
  ASSERT_NE(progress, nullptr) << polled.body;
  EXPECT_TRUE(progress->GetBool("done", false)) << polled.body;
}

// ---------------------------------------------------------------------------
// Forensics: explicit dump request and crash-path black box
// ---------------------------------------------------------------------------

/// Slices the `"trace":{...}` sub-document out of a forensics bundle (it is
/// the final field by the writer's contract) so validate_trace.py can check
/// it as a standalone Chrome trace file.
std::string SliceTrace(const std::string& bundle) {
  const std::size_t pos = bundle.find("\"trace\":");
  EXPECT_NE(pos, std::string::npos);
  if (pos == std::string::npos) return "";
  std::string trace = bundle.substr(pos + 8);
  while (!trace.empty() &&
         (trace.back() == '\n' || trace.back() == ' ')) {
    trace.pop_back();
  }
  EXPECT_FALSE(trace.empty());
  EXPECT_EQ(trace.back(), '}');  // the bundle's own closing brace
  trace.pop_back();
  return trace;
}

bool HavePython3() {
  return std::system("python3 --version >/dev/null 2>&1") == 0;
}

/// Runs ci/validate_trace.py over `trace_json` (written to `dir`); returns
/// true when the validator accepts it.  `require` scopes the category
/// check to what a flight ring is guaranteed to hold.
void ExpectTraceValidates(const std::string& dir,
                          const std::string& trace_json,
                          const std::string& require) {
  if (!HavePython3()) {
    GTEST_LOG_(INFO) << "python3 not found; skipping validate_trace.py";
    return;
  }
  const std::string trace_path = dir + "/flight-trace.json";
  std::ofstream(trace_path, std::ios::binary) << trace_json;
  const std::string command = "python3 '" B2H_SOURCE_DIR
                              "/ci/validate_trace.py' '" +
                              trace_path + "' --require-categories '" +
                              require + "' >/dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
}

TEST(Forensics, DumpRequestWritesParseableBundle) {
  TempDir scratch;
  Server::Options options{scratch.path + "/serve.sock"};
  options.dump_dir = scratch.path;
  ServerHarness harness(options);
  ASSERT_TRUE(harness.Start());
  Client client = MustConnect(options.socket_path);

  // A completed request first, so `recent` and the flight ring are
  // populated and correlated.
  const std::string worked = Call(
      client, R"({"schema":1,"kind":"partition","benchmark":"crc",)"
              R"("strategy":"paper-greedy","corr":"done-1"})");
  ASSERT_TRUE(MustParse(worked).GetBool("ok", false)) << worked;

  const JsonValue reply =
      MustParse(Call(client, R"({"schema":1,"kind":"dump","id":"d1"})"));
  ASSERT_TRUE(reply.GetBool("ok", false));
  const JsonValue* served = reply.Find("served");
  ASSERT_NE(served, nullptr);
  const std::string path = served->GetString("path");
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(std::filesystem::exists(path)) << path;

  std::ifstream in(path, std::ios::binary);
  std::string bundle((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  const JsonValue parsed = MustParse(bundle);
  EXPECT_DOUBLE_EQ(parsed.GetNumber("schema"), 1.0);
  EXPECT_EQ(parsed.GetString("reason"), "request");
  EXPECT_DOUBLE_EQ(parsed.GetNumber("wire_schema"), kWireSchemaVersion);
  EXPECT_DOUBLE_EQ(parsed.GetNumber("metrics_schema"),
                   obs::kMetricsSchemaVersion);
  ASSERT_NE(parsed.Find("metrics"), nullptr);
  ASSERT_NE(parsed.Find("in_flight"), nullptr);
  const JsonValue* recent = parsed.Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_TRUE(recent->is_array());
  bool saw_corr = false;
  for (const JsonValue& record : recent->array()) {
    if (record.GetString("corr") == "done-1") {
      saw_corr = true;
      EXPECT_EQ(record.GetString("kind"), "partition");
      EXPECT_EQ(record.GetString("status"), "ok");
      EXPECT_GT(record.GetNumber("latency_ms"), 0.0);
    }
  }
  EXPECT_TRUE(saw_corr) << bundle.substr(0, 600);

  const JsonValue* trace = parsed.Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_NE(trace->Find("traceEvents"), nullptr);
  EXPECT_FALSE(trace->Find("traceEvents")->array().empty());
  ExpectTraceValidates(scratch.path, SliceTrace(bundle), "serve,partition");
}

TEST(Forensics, DumpWithoutDumpDirIsRefused) {
  TempDir scratch;
  ServerHarness harness(Server::Options{scratch.path + "/serve.sock"});
  ASSERT_TRUE(harness.Start());
  Client client = MustConnect(scratch.path + "/serve.sock");
  const JsonValue reply =
      MustParse(Call(client, R"({"schema":1,"kind":"dump"})"));
  EXPECT_FALSE(reply.GetBool("ok", true));
  ASSERT_NE(reply.Find("error"), nullptr);
  EXPECT_EQ(reply.Find("error")->GetString("code"), serve::kErrBadRequest);
}

TEST(Forensics, CrashLeavesBundleNamingInFlightRequest) {
  TempDir scratch;
  const std::string socket_path = scratch.path + "/crash.sock";
  const std::string dump_dir = scratch.path + "/dumps";
  ASSERT_TRUE(std::filesystem::create_directory(dump_dir));

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: a real daemon that faults mid-request.  No gtest assertions
    // here — failure paths _exit with distinct codes so the parent's
    // WIFSIGNALED check reports them.
    ParkGate& gate = RegisterParkedStrategy();  // never released
    Server::Options options{socket_path};
    options.dump_dir = dump_dir;
    Server server(options);
    if (!server.Start().ok()) ::_exit(90);
    std::thread waiter([&server] { server.Wait(); });
    waiter.detach();

    Result<Client> connected = Client::Connect(socket_path);
    if (!connected.ok()) ::_exit(91);
    Client client = std::move(connected).take();
    // One completed request seeds the flight ring with closed spans...
    std::string response;
    if (!client
             .Call(R"({"schema":1,"kind":"partition","benchmark":"crc",)"
                   R"("strategy":"paper-greedy","corr":"warm-1"})",
                   &response, 60000)
             .ok()) {
      ::_exit(92);
    }
    // ...then an explore is parked in flight under a known corr.
    if (!client
             .Send(R"({"schema":1,"kind":"explore","corr":"crash-corr",)"
                   R"("benchmarks":["crc","fir"],)"
                   R"("strategies":["test-parked"]})")
             .ok()) {
      ::_exit(93);
    }
    if (!gate.WaitEntered(std::chrono::seconds(60))) ::_exit(95);
    ::raise(SIGSEGV);  // the installed handler dumps, then re-raises
    ::_exit(94);       // unreachable
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of crashing";
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::string dump_path;
  for (const auto& entry : std::filesystem::directory_iterator(dump_dir)) {
    if (entry.path().filename().string().rfind("b2h-forensics-", 0) == 0) {
      dump_path = entry.path().string();
    }
  }
  ASSERT_FALSE(dump_path.empty()) << "no forensics dump in " << dump_dir;

  std::ifstream in(dump_path, std::ios::binary);
  std::string bundle((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  const JsonValue parsed = MustParse(bundle);
  EXPECT_EQ(parsed.GetString("reason"), "SIGSEGV");
  EXPECT_DOUBLE_EQ(parsed.GetNumber("schema"), 1.0);

  // The black box names the request that was running when the fault hit.
  const JsonValue* in_flight = parsed.Find("in_flight");
  ASSERT_NE(in_flight, nullptr);
  ASSERT_TRUE(in_flight->is_array());
  bool saw_crash_corr = false;
  for (const JsonValue& record : in_flight->array()) {
    if (record.GetString("corr") == "crash-corr") {
      saw_crash_corr = true;
      EXPECT_EQ(record.GetString("kind"), "explore");
      EXPECT_EQ(record.GetString("status"), "in-flight");
    }
  }
  EXPECT_TRUE(saw_crash_corr) << bundle.substr(0, 600);

  const JsonValue* trace = parsed.Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_NE(trace->Find("traceEvents"), nullptr);
  EXPECT_FALSE(trace->Find("traceEvents")->array().empty());
  ExpectTraceValidates(scratch.path, SliceTrace(bundle), "serve");
}

}  // namespace
}  // namespace b2h
