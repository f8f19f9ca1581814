// Serving-layer tests: the strict JSON reader, length-prefixed framing,
// wire-protocol decode/validation and content keys, scheduler semantics
// (single-flight coalescing, deadlines, bounded admission, shutdown), and
// live-daemon behavior over a real unix socket — lifecycle, robustness to
// hostile input (malformed JSON, schema skew, oversized/truncated frames),
// report parity with the local Toolchain, warm-cache zero-recompute, and a
// multi-tenant hammer that proves bursts of identical requests compute once
// and leave the disk cache untorn.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "explore/explorer.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"
#include "support/socket.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

using serve::Client;
using serve::Request;
using serve::RequestKey;
using serve::Scheduler;
using serve::Server;
using support::FrameStatus;
using support::JsonValue;
using testing_support::ParkGate;
using testing_support::RegisterParkedStrategy;
using testing_support::ScopedEnv;
using testing_support::TempDir;

// Hermetic for the whole binary: the server's Toolchain would otherwise
// pick up a developer's exported cache dir and serve "cold" requests warm,
// flipping every work-counter assertion below.
const ScopedEnv kPinnedCacheDirEnv("B2H_CACHE_DIR", nullptr);

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(JsonParse, ParsesNestedDocument) {
  const auto parsed = JsonValue::Parse(
      R"( {"s":"a\"b\\c\n","n":-2.5e2,"t":true,"f":false,"z":null,)"
      R"("arr":[1,"two",{"deep":3}],"obj":{"k":"v"}} )");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->GetString("s"), "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("n"), -250.0);
  EXPECT_TRUE(parsed->GetBool("t", false));
  EXPECT_FALSE(parsed->GetBool("f", true));
  ASSERT_NE(parsed->Find("z"), nullptr);
  EXPECT_TRUE(parsed->Find("z")->is_null());
  const JsonValue* arr = parsed->Find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->array().size(), 3u);
  EXPECT_DOUBLE_EQ(arr->array()[0].number(), 1.0);
  EXPECT_EQ(arr->array()[1].string(), "two");
  EXPECT_DOUBLE_EQ(arr->array()[2].GetNumber("deep"), 3.0);
  EXPECT_EQ(parsed->Find("obj")->GetString("k"), "v");
  EXPECT_EQ(parsed->Find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",           "[1,",        "{\"a\":}",
      "{\"a\" 1}",  "{} trailing", "tru",        "nan",
      "\"unterminated", "{\"a\":1,}",  "[1 2]",      "01",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).has_value()) << text;
  }
}

TEST(JsonParse, BoundsRecursionDepth) {
  // A pathological nesting must yield nullopt, not a stack overflow.
  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += '[';
  for (int i = 0; i < 10000; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::Parse(deep).has_value());
}

TEST(JsonParse, GetStringArrayRefusesNonStrings) {
  const auto parsed = JsonValue::Parse(
      R"({"v":["a","b","c"],"mixed":["a",1,"b",null],"s":"a"})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->GetStringArray("v"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parsed->GetStringArray("mixed"), std::nullopt);
  EXPECT_EQ(parsed->GetStringArray("s"), std::nullopt);
  ASSERT_TRUE(parsed->GetStringArray("missing").has_value());
  EXPECT_TRUE(parsed->GetStringArray("missing")->empty());
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void CloseWriter() {
    ::close(fd[0]);
    fd[0] = -1;
  }
};

TEST(Framing, RoundTripsPayloads) {
  SocketPair pair;
  std::string payload;
  ASSERT_TRUE(support::WriteFrame(pair.fd[0], "hello frames", 1 << 20));
  ASSERT_TRUE(support::WriteFrame(pair.fd[0], "", 1 << 20));
  EXPECT_EQ(support::ReadFrame(pair.fd[1], &payload, 1 << 20, 1000),
            FrameStatus::kOk);
  EXPECT_EQ(payload, "hello frames");
  EXPECT_EQ(support::ReadFrame(pair.fd[1], &payload, 1 << 20, 1000),
            FrameStatus::kOk);
  EXPECT_EQ(payload, "");
}

TEST(Framing, ReportsOversizedPrefixWithoutAllocating) {
  SocketPair pair;
  // Writer honors a generous cap; the reader's tighter cap must reject.
  ASSERT_TRUE(support::WriteFrame(pair.fd[0], std::string(100, 'x'), 1 << 20));
  std::string payload;
  EXPECT_EQ(support::ReadFrame(pair.fd[1], &payload, 50, 1000),
            FrameStatus::kOversized);
}

TEST(Framing, WriterRefusesOversizedPayload) {
  SocketPair pair;
  EXPECT_FALSE(support::WriteFrame(pair.fd[0], std::string(100, 'x'), 50));
}

TEST(Framing, ReportsTruncatedStream) {
  SocketPair pair;
  const unsigned char prefix[4] = {100, 0, 0, 0};  // claims 100 bytes
  ASSERT_EQ(::send(pair.fd[0], prefix, 4, 0), 4);
  ASSERT_EQ(::send(pair.fd[0], "short", 5, 0), 5);
  pair.CloseWriter();
  std::string payload;
  EXPECT_EQ(support::ReadFrame(pair.fd[1], &payload, 1 << 20, 1000),
            FrameStatus::kTruncated);
}

TEST(Framing, ReportsCleanCloseAndTimeout) {
  {
    SocketPair pair;
    pair.CloseWriter();
    std::string payload;
    EXPECT_EQ(support::ReadFrame(pair.fd[1], &payload, 1 << 20, 1000),
              FrameStatus::kClosed);
  }
  {
    SocketPair pair;
    std::string payload;
    EXPECT_EQ(support::ReadFrame(pair.fd[1], &payload, 1 << 20, 50),
              FrameStatus::kTimeout);
  }
}

TEST(Framing, StallAfterPrefixStillDeliversTheFrame) {
  // The payload arrives after the reader's timeout.  The timeout bounds only
  // the wait for a frame's first byte, so the reader finishes the frame: a
  // kTimeout here would leave the payload to be read as the next prefix.
  SocketPair pair;
  const std::string body = "late payload";
  const unsigned char prefix[4] = {static_cast<unsigned char>(body.size()), 0,
                                   0, 0};
  ASSERT_EQ(::send(pair.fd[0], prefix, 4, 0), 4);
  std::thread late([&pair, &body] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(::send(pair.fd[0], body.data(), body.size(), 0),
              static_cast<ssize_t>(body.size()));
  });
  std::string payload;
  EXPECT_EQ(support::ReadFrame(pair.fd[1], &payload, 1 << 20, 50),
            FrameStatus::kOk);
  late.join();
  EXPECT_EQ(payload, body);
}

// ---------------------------------------------------------------------------
// Protocol decode + content keys
// ---------------------------------------------------------------------------

std::optional<Request> Parse(const std::string& payload,
                             serve::ParseError* error) {
  return serve::ParseRequest(payload, error);
}

TEST(Protocol, DecodesPartitionRequestWithDefaults) {
  serve::ParseError error;
  const auto request =
      Parse(R"({"schema":1,"kind":"partition","benchmark":"crc"})", &error);
  ASSERT_TRUE(request.has_value()) << error.message;
  EXPECT_EQ(request->kind, serve::RequestKind::kPartition);
  // A partition is the one-point grid: each singular field is a list of one.
  using Names = std::vector<std::string>;
  EXPECT_EQ(request->benchmarks, Names{"crc"});
  EXPECT_EQ(request->platforms, Names{"mips200-xc2v1000"});
  EXPECT_EQ(request->strategies, Names{"paper-greedy"});
  EXPECT_EQ(request->objectives, Names{"speedup"});
  EXPECT_EQ(request->opt_level, 1);
  EXPECT_EQ(request->seed, 1u);
  EXPECT_EQ(request->deadline_ms, -1);
}

TEST(Protocol, RejectsStructurallyInvalidRequests) {
  const struct {
    const char* payload;
    const char* code;
  } cases[] = {
      {"{nope", serve::kErrBadJson},
      {"[1,2]", serve::kErrBadRequest},
      {R"({"kind":"ping"})", serve::kErrBadSchema},
      {R"({"schema":99,"kind":"ping"})", serve::kErrBadSchema},
      {R"({"schema":1,"kind":"bogus"})", serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition"})", serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc","seed":-1})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc","deadline_ms":-5})",
       serve::kErrBadRequest},
      // Out of range for the field: truncating would alias another request
      // (2^32 iterations as 0) or drop the deadline.
      {R"({"schema":1,"kind":"partition","benchmark":"crc",)"
       R"("annealing_iterations":4294967296})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc",)"
       R"("deadline_ms":1e10})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc",)"
       R"("deadline_ms":1e999})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc",)"
       R"("seed":18446744073709551616})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc",)"
       R"("objective":"bogus"})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"explore"})", serve::kErrBadRequest},
      {R"({"schema":1,"kind":"explore","benchmarks":["crc"],)"
       R"("objectives":["bogus"]})",
       serve::kErrBadRequest},
      // "schema" is exactly 1: neither truncated to it nor cast out of the
      // int range.
      {R"({"schema":1.9,"kind":"ping"})", serve::kErrBadSchema},
      {R"({"schema":1e300,"kind":"ping"})", serve::kErrBadSchema},
      // A field of the wrong type is refused, never read as its default:
      // the defaults would answer (and coalesce onto) another request.
      {R"({"schema":1,"kind":"partition","benchmark":"crc","platform":7})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc",)"
       R"("strategy":["annealing"]})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"partition","benchmark":"crc",)"
       R"("objective":null})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"explore","benchmarks":["crc",5]})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"explore","benchmarks":["crc"],)"
       R"("strategies":"annealing"})",
       serve::kErrBadRequest},
      {R"({"schema":1,"kind":"ping","id":42})", serve::kErrBadRequest},
      {R"({"schema":1,"kind":"ping","corr":17})", serve::kErrBadRequest},
  };
  for (const auto& test_case : cases) {
    serve::ParseError error;
    EXPECT_FALSE(Parse(test_case.payload, &error).has_value())
        << test_case.payload;
    EXPECT_EQ(error.code, test_case.code) << test_case.payload;
    EXPECT_FALSE(error.message.empty());
  }
}

TEST(Protocol, RequestKeyIgnoresVolatileFieldsOnly) {
  serve::ParseError error;
  const auto base = Parse(
      R"({"schema":1,"kind":"partition","benchmark":"crc","seed":7})", &error);
  const auto volatile_fields = Parse(
      R"({"schema":1,"kind":"partition","benchmark":"crc","seed":7,)"
      R"("id":"req-1","deadline_ms":500})",
      &error);
  const auto other_seed = Parse(
      R"({"schema":1,"kind":"partition","benchmark":"crc","seed":8})", &error);
  ASSERT_TRUE(base && volatile_fields && other_seed);
  EXPECT_EQ(RequestKey(*base), RequestKey(*volatile_fields));
  EXPECT_NE(RequestKey(*base), RequestKey(*other_seed));

  // A reordered explore grid is a different report, hence a different key.
  const auto grid_ab = Parse(
      R"({"schema":1,"kind":"explore","benchmarks":["crc","fir"]})", &error);
  const auto grid_ba = Parse(
      R"({"schema":1,"kind":"explore","benchmarks":["fir","crc"]})", &error);
  ASSERT_TRUE(grid_ab && grid_ba);
  EXPECT_NE(RequestKey(*grid_ab), RequestKey(*grid_ba));
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

serve::JobResult OkJob(std::string report) {
  return {true, "", "", std::move(report)};
}

/// Spin until `predicate` holds (bounded); the scheduler has no test hooks,
/// so admission ordering is observed through its stats.
template <typename Predicate>
void SpinUntil(Predicate predicate) {
  for (int i = 0; i < 20000 && !predicate(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(predicate());
}

TEST(SchedulerTest, CoalescesConcurrentIdenticalKeys) {
  Scheduler scheduler({/*workers=*/1, /*max_queue=*/8});
  std::atomic<bool> started{false};
  std::atomic<int> executions{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();

  const auto work = [&]() {
    started.store(true);
    ++executions;
    gate.wait();
    return OkJob("shared-result");
  };

  std::vector<Scheduler::Outcome> outcomes(4);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { outcomes[0] = scheduler.Run("k", work, -1); });
  SpinUntil([&] { return started.load(); });
  for (int i = 1; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { outcomes[i] = scheduler.Run("k", work, -1); });
  }
  SpinUntil([&] { return scheduler.stats().coalesced == 3; });
  release.set_value();
  for (std::thread& thread : threads) thread.join();

  int coalesced = 0;
  for (const Scheduler::Outcome& outcome : outcomes) {
    EXPECT_EQ(outcome.code, Scheduler::OutcomeCode::kDone);
    ASSERT_NE(outcome.result, nullptr);
    EXPECT_EQ(outcome.result->report, "shared-result");
    if (outcome.coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, 3);
  EXPECT_EQ(executions.load(), 1);  // single-flight: the closure ran once
  const Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.coalesced, 3u);
}

TEST(SchedulerTest, DeadlineExpiresButComputationCompletes) {
  Scheduler scheduler({/*workers=*/1, /*max_queue=*/8});
  std::atomic<bool> started{false};
  std::atomic<int> fast_runs{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();

  std::thread blocker([&] {
    (void)scheduler.Run(
        "block",
        [&] {
          started.store(true);
          gate.wait();
          return OkJob("blocked");
        },
        -1);
  });
  SpinUntil([&] { return started.load(); });

  // Queued behind the blocked worker with a deadline far shorter than the
  // block: the waiter must give up, the job must stay admitted.
  const auto fast = [&] {
    ++fast_runs;
    return OkJob("fast-result");
  };
  const Scheduler::Outcome expired = scheduler.Run("fast", fast, 50);
  EXPECT_EQ(expired.code, Scheduler::OutcomeCode::kDeadline);
  EXPECT_EQ(expired.result, nullptr);
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);

  release.set_value();
  blocker.join();

  // The abandoned job completes; a later identical request gets its result.
  const Scheduler::Outcome retry = scheduler.Run("fast", fast, -1);
  EXPECT_EQ(retry.code, Scheduler::OutcomeCode::kDone);
  ASSERT_NE(retry.result, nullptr);
  EXPECT_EQ(retry.result->report, "fast-result");
  EXPECT_GE(fast_runs.load(), 1);
}

TEST(SchedulerTest, PollingWaiterStillMeetsItsDeadline) {
  Scheduler scheduler({/*workers=*/1, /*max_queue=*/8});
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> runs{0};
  const auto held = [&] {
    ++runs;
    gate.wait();
    return OkJob("held-result");
  };

  // Polls every kPollIntervalMs, so a 100 ms deadline sees several polls
  // before it expires; the held job stays admitted.
  int polls = 0;
  const Scheduler::Outcome expired =
      scheduler.Run("held", held, 100, [&] { ++polls; });
  EXPECT_EQ(expired.code, Scheduler::OutcomeCode::kDeadline);
  EXPECT_EQ(expired.result, nullptr);
  EXPECT_GE(polls, 1);
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);

  release.set_value();
  SpinUntil([&] { return scheduler.stats().executed == 1; });
  const Scheduler::Outcome retry = scheduler.Run("held", held, -1);
  EXPECT_EQ(retry.code, Scheduler::OutcomeCode::kDone);
  ASSERT_NE(retry.result, nullptr);
  EXPECT_EQ(retry.result->report, "held-result");
  EXPECT_EQ(runs.load(), 2);  // the retry ran it again: nothing caches here
}

TEST(SchedulerTest, BoundedAdmissionRejectsNovelButAdmitsAttach) {
  Scheduler scheduler({/*workers=*/1, /*max_queue=*/1});
  std::atomic<bool> started{false};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();

  std::thread blocker([&] {
    (void)scheduler.Run(
        "block",
        [&] {
          started.store(true);
          gate.wait();
          return OkJob("blocked");
        },
        -1);
  });
  SpinUntil([&] { return started.load(); });

  std::thread queued([&] {
    const Scheduler::Outcome outcome =
        scheduler.Run("queued", [] { return OkJob("queued"); }, -1);
    EXPECT_EQ(outcome.code, Scheduler::OutcomeCode::kDone);
  });
  SpinUntil([&] { return scheduler.stats().submitted == 2; });

  // Queue is at capacity: a novel key bounces immediately...
  const Scheduler::Outcome rejected =
      scheduler.Run("novel", [] { return OkJob("novel"); }, -1);
  EXPECT_EQ(rejected.code, Scheduler::OutcomeCode::kOverloaded);
  EXPECT_EQ(scheduler.stats().rejected_overload, 1u);

  // ...but attaching to in-flight work adds no load and is always admitted.
  std::thread attacher([&] {
    const Scheduler::Outcome outcome =
        scheduler.Run("block", [] { return OkJob("never"); }, -1);
    EXPECT_EQ(outcome.code, Scheduler::OutcomeCode::kDone);
    EXPECT_TRUE(outcome.coalesced);
    ASSERT_NE(outcome.result, nullptr);
    EXPECT_EQ(outcome.result->report, "blocked");
  });
  SpinUntil([&] { return scheduler.stats().coalesced == 1; });

  release.set_value();
  blocker.join();
  queued.join();
  attacher.join();
}

TEST(SchedulerTest, StopFailsQueuedJobsAndRefusesNewOnes) {
  Scheduler scheduler({/*workers=*/1, /*max_queue=*/8});
  std::atomic<bool> started{false};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();

  std::thread blocker([&] {
    const Scheduler::Outcome outcome = scheduler.Run(
        "block",
        [&] {
          started.store(true);
          gate.wait();
          return OkJob("finished");
        },
        -1);
    // Running jobs finish normally even during shutdown.
    EXPECT_EQ(outcome.code, Scheduler::OutcomeCode::kDone);
    ASSERT_NE(outcome.result, nullptr);
    EXPECT_TRUE(outcome.result->ok);
    EXPECT_EQ(outcome.result->report, "finished");
  });
  SpinUntil([&] { return started.load(); });

  std::thread queued([&] {
    const Scheduler::Outcome outcome =
        scheduler.Run("queued", [] { return OkJob("queued"); }, -1);
    // Admitted but never started: failed structurally at Stop() time.
    EXPECT_EQ(outcome.code, Scheduler::OutcomeCode::kDone);
    ASSERT_NE(outcome.result, nullptr);
    EXPECT_FALSE(outcome.result->ok);
    EXPECT_EQ(outcome.result->error_code, serve::kErrShuttingDown);
  });
  SpinUntil([&] { return scheduler.stats().submitted == 2; });

  std::thread stopper([&] { scheduler.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  stopper.join();
  blocker.join();
  queued.join();

  const Scheduler::Outcome late =
      scheduler.Run("late", [] { return OkJob("late"); }, -1);
  EXPECT_EQ(late.code, Scheduler::OutcomeCode::kShuttingDown);
}

// ---------------------------------------------------------------------------
// Live daemon helpers
// ---------------------------------------------------------------------------

/// One in-process daemon on a scratch socket; Wait() runs on a background
/// thread so tests drive it through real client connections.
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

JsonValue MustParse(const std::string& response) {
  const auto parsed = JsonValue::Parse(response);
  EXPECT_TRUE(parsed.has_value()) << response;
  return parsed.value_or(JsonValue());
}

void ExpectErrorCode(const std::string& response, std::string_view code) {
  const JsonValue parsed = MustParse(response);
  EXPECT_DOUBLE_EQ(parsed.GetNumber("schema"), kWireSchemaVersion);
  EXPECT_FALSE(parsed.GetBool("ok", true)) << response;
  const JsonValue* error = parsed.Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_EQ(error->GetString("code"), code) << response;
  EXPECT_FALSE(error->GetString("message").empty());
}

/// The raw "report" object text — sliced, not re-serialized, so equality
/// below really is bit-identity of what the daemon sent.
std::string ExtractReport(const std::string& response) {
  const std::size_t begin = response.find("\"report\":");
  const std::size_t end = response.rfind(",\"served\":");
  EXPECT_NE(begin, std::string::npos) << response;
  EXPECT_NE(end, std::string::npos) << response;
  if (begin == std::string::npos || end == std::string::npos) return "";
  const std::size_t start = begin + 9;
  return response.substr(start, end - start);
}

struct WorkCounters {
  double simulations = 0;
  double decompilations = 0;
  double partitions = 0;
  double scheduler_executed = 0;
  double scheduler_coalesced = 0;
  double scheduler_deadline_expired = 0;
};

WorkCounters FetchStats(Client& client) {
  const std::string response =
      Call(client, R"({"schema":1,"kind":"stats"})");
  const JsonValue parsed = MustParse(response);
  WorkCounters counters;
  const JsonValue* served = parsed.Find("served");
  EXPECT_NE(served, nullptr) << response;
  if (served == nullptr) return counters;
  const JsonValue* work = served->Find("work");
  const JsonValue* scheduler = served->Find("scheduler");
  EXPECT_NE(work, nullptr);
  EXPECT_NE(scheduler, nullptr);
  if (work != nullptr) {
    counters.simulations = work->GetNumber("simulations_run");
    counters.decompilations = work->GetNumber("decompilations_run");
    counters.partitions = work->GetNumber("partitions_run");
  }
  if (scheduler != nullptr) {
    counters.scheduler_executed = scheduler->GetNumber("executed");
    counters.scheduler_coalesced = scheduler->GetNumber("coalesced");
    counters.scheduler_deadline_expired =
        scheduler->GetNumber("deadline_expired");
  }
  return counters;
}

std::string PartitionRequest(const std::string& benchmark,
                             const std::string& strategy,
                             std::uint64_t seed = 1,
                             unsigned iterations = 2000) {
  return R"({"schema":1,"kind":"partition","benchmark":")" + benchmark +
         R"(","strategy":")" + strategy + R"(","seed":)" +
         std::to_string(seed) + R"(,"annealing_iterations":)" +
         std::to_string(iterations) + "}";
}

// ---------------------------------------------------------------------------
// Live daemon
// ---------------------------------------------------------------------------

TEST(ServeDaemon, LifecyclePingStatsShutdown) {
  TempDir scratch;
  const std::string socket_path = scratch.path + "/serve.sock";
  ServerHarness harness({socket_path});
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(socket_path);
  const std::string pong =
      Call(client, R"({"schema":1,"kind":"ping","id":"t-1"})");
  const JsonValue parsed = MustParse(pong);
  EXPECT_DOUBLE_EQ(parsed.GetNumber("schema"), kWireSchemaVersion);
  EXPECT_TRUE(parsed.GetBool("ok", false));
  EXPECT_EQ(parsed.GetString("id"), "t-1");
  ASSERT_NE(parsed.Find("report"), nullptr);
  EXPECT_TRUE(parsed.Find("report")->GetBool("pong", false));

  const WorkCounters before = FetchStats(client);
  EXPECT_EQ(before.simulations, 0.0);

  const std::string bye = Call(client, R"({"schema":1,"kind":"shutdown"})");
  EXPECT_TRUE(MustParse(bye).GetBool("ok", false));
  if (harness.waiter.joinable()) harness.waiter.join();
  // A clean shutdown removes the socket file so restarts never hang on a
  // stale path.
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(ServeDaemon, MetricsEndpointReturnsSchemaStampedSnapshot) {
  TempDir scratch;
  const std::string socket_path = scratch.path + "/serve.sock";
  ServerHarness harness({socket_path});
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(socket_path);
  // Real work first, so the snapshot has something to show.
  const std::string worked =
      Call(client, PartitionRequest("crc", "paper-greedy"));
  ASSERT_TRUE(MustParse(worked).GetBool("ok", false)) << worked;

  const std::string response =
      Call(client, R"({"schema":1,"kind":"metrics","id":"m-1"})");
  const JsonValue parsed = MustParse(response);
  EXPECT_DOUBLE_EQ(parsed.GetNumber("schema"), kWireSchemaVersion);
  EXPECT_TRUE(parsed.GetBool("ok", false)) << response;
  EXPECT_EQ(parsed.GetString("id"), "m-1");

  // The served slot is the registry snapshot, stamped with its OWN schema
  // version (the metrics vocabulary evolves independently of the wire).
  const JsonValue* served = parsed.Find("served");
  ASSERT_NE(served, nullptr) << response;
  EXPECT_DOUBLE_EQ(served->GetNumber("schema"), obs::kMetricsSchemaVersion);
  const JsonValue* counters = served->Find("counters");
  const JsonValue* gauges = served->Find("gauges");
  const JsonValue* histograms = served->Find("histograms");
  ASSERT_NE(counters, nullptr) << response;
  ASSERT_NE(gauges, nullptr) << response;
  ASSERT_NE(histograms, nullptr) << response;

  // The metrics request itself is counted before the snapshot is taken,
  // so the floor includes it (partition + metrics = 2).
  EXPECT_GE(counters->GetNumber("serve.requests"), 2.0);
  EXPECT_GE(counters->GetNumber("serve.partitions_run"), 1.0);
  EXPECT_GE(counters->GetNumber("serve.connections"), 1.0);
  EXPECT_GE(gauges->GetNumber("serve.connections_open"), 1.0);
  const JsonValue* latency = histograms->Find("serve.latency_ms.partition");
  ASSERT_NE(latency, nullptr) << response;
  EXPECT_GE(latency->GetNumber("count"), 1.0);
  EXPECT_GT(latency->GetNumber("sum"), 0.0);

  // The registry-backed StatsJson keeps its original field names and adds
  // the live gauges.
  const std::string stats = Call(client, R"({"schema":1,"kind":"stats"})");
  const JsonValue* stats_served = nullptr;
  const JsonValue stats_parsed = MustParse(stats);
  stats_served = stats_parsed.Find("served");
  ASSERT_NE(stats_served, nullptr) << stats;
  EXPECT_GE(stats_served->GetNumber("requests"), 3.0);
  EXPECT_GE(stats_served->GetNumber("connections_open"), 1.0);
  ASSERT_NE(stats_served->Find("queue_depth"), nullptr) << stats;
  ASSERT_NE(stats_served->Find("in_flight"), nullptr) << stats;
}

TEST(ServeDaemon, SchemaMismatchAndMalformedJsonKeepConnectionServing) {
  TempDir scratch;
  const std::string socket_path = scratch.path + "/serve.sock";
  ServerHarness harness({socket_path});
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(socket_path);
  ExpectErrorCode(Call(client, R"({"schema":2,"kind":"ping"})"),
                  serve::kErrBadSchema);
  ExpectErrorCode(Call(client, "{this is not json"), serve::kErrBadJson);
  ExpectErrorCode(Call(client, R"({"schema":1,"kind":"frobnicate"})"),
                  serve::kErrBadRequest);
  ExpectErrorCode(
      Call(client,
           R"({"schema":1,"kind":"partition","benchmark":"no-such-bench"})"),
      serve::kErrUnknownBenchmark);
  ExpectErrorCode(Call(client,
                       R"({"schema":1,"kind":"partition","benchmark":"crc",)"
                       R"("platform":"no-such-platform"})"),
                  serve::kErrUnknownPlatform);
  ExpectErrorCode(Call(client,
                       R"({"schema":1,"kind":"partition","benchmark":"crc",)"
                       R"("strategy":"no-such-strategy"})"),
                  serve::kErrUnknownStrategy);

  // After six protocol errors the same connection still serves real work.
  const std::string pong = Call(client, R"({"schema":1,"kind":"ping"})");
  EXPECT_TRUE(MustParse(pong).GetBool("ok", false));
}

TEST(ServeDaemon, OversizedFrameClosesOnlyThatConnection) {
  TempDir scratch;
  Server::Options options{scratch.path + "/serve.sock"};
  options.max_frame_bytes = 4096;  // tight server-side cap
  ServerHarness harness(options);
  ASSERT_TRUE(harness.Start());

  Client abuser = MustConnect(options.socket_path);
  Client bystander = MustConnect(options.socket_path);

  // The client's own cap is the default 8 MiB, so it happily sends a frame
  // the server must refuse.
  ASSERT_TRUE(abuser.Send(std::string(8000, 'x')).ok());
  std::string response;
  ASSERT_TRUE(abuser.Receive(&response, 10000).ok());
  ExpectErrorCode(response, serve::kErrBadFrame);
  // The stream is out of sync, so the daemon hung up on this connection...
  EXPECT_FALSE(abuser.Receive(&response, 2000).ok());

  // ...and on this one a peer died mid-frame (truncated stream)...
  {
    Client truncator = MustConnect(options.socket_path);
    const char prefix[4] = {100, 0, 0, 0};
    ASSERT_TRUE(truncator.SendRaw(std::string_view(prefix, 4)));
    ASSERT_TRUE(truncator.SendRaw("short"));
    truncator.Close();
  }

  // ...while everyone else keeps being served.
  const std::string pong = Call(bystander, R"({"schema":1,"kind":"ping"})");
  EXPECT_TRUE(MustParse(pong).GetBool("ok", false));
}

TEST(ServeDaemon, ClientStallingMidFrameStillGetsAReply) {
  TempDir scratch;
  const std::string socket_path = scratch.path + "/serve.sock";
  ServerHarness harness({socket_path});
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(socket_path);
  const std::string request = R"({"schema":1,"kind":"ping","id":"slow"})";
  const char prefix[4] = {static_cast<char>(request.size()), 0, 0, 0};
  ASSERT_TRUE(client.SendRaw(std::string_view(prefix, 4)));
  // Longer than the daemon's 100 ms idle-read tick.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(client.SendRaw(request));
  std::string response;
  ASSERT_TRUE(client.Receive(&response, 10000).ok());
  const JsonValue parsed = MustParse(response);
  EXPECT_TRUE(parsed.GetBool("ok", false)) << response;
  EXPECT_EQ(parsed.GetString("id"), "slow");
}

TEST(ServeDaemon, PartitionReportMatchesLocalToolchain) {
  TempDir scratch;
  const std::string socket_path = scratch.path + "/serve.sock";
  ServerHarness harness({socket_path});
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(socket_path);
  const std::string response =
      Call(client, PartitionRequest("crc", "paper-greedy"));
  ASSERT_TRUE(MustParse(response).GetBool("ok", false)) << response;
  const std::string served_report = ExtractReport(response);

  // The daemon routes partition requests through the exploration engine
  // (for the shared cache), but its report must be bit-identical to the
  // local single-shot flow for the same request.
  const suite::Benchmark* bench = suite::FindBenchmark("crc");
  ASSERT_NE(bench, nullptr);
  Result<mips::SoftBinary> binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Toolchain toolchain;
  toolchain.WithThreads(1);
  const Result<ToolchainRun> local = toolchain.RunOn(
      "mips200-xc2v1000",
      std::make_shared<const mips::SoftBinary>(std::move(binary).take()),
      "crc");
  ASSERT_TRUE(local.ok()) << local.status().message();
  EXPECT_EQ(served_report, local.value().Json());
}

TEST(ServeDaemon, WarmRepeatDoesZeroWorkAndReportsIdentically) {
  TempDir scratch;
  const std::string socket_path = scratch.path + "/serve.sock";
  ServerHarness harness({socket_path});
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(socket_path);
  const std::string request = PartitionRequest("brev", "paper-greedy");
  const std::string first = Call(client, request);
  ASSERT_TRUE(MustParse(first).GetBool("ok", false)) << first;
  const WorkCounters after_first = FetchStats(client);
  EXPECT_EQ(after_first.simulations, 1.0);
  EXPECT_EQ(after_first.decompilations, 1.0);
  EXPECT_EQ(after_first.partitions, 1.0);

  const std::string second = Call(client, request);
  const WorkCounters after_second = FetchStats(client);
  EXPECT_EQ(ExtractReport(first), ExtractReport(second));
  // The warm repeat is served entirely from the artifact cache.
  EXPECT_EQ(after_second.simulations, 1.0);
  EXPECT_EQ(after_second.decompilations, 1.0);
  EXPECT_EQ(after_second.partitions, 1.0);
}

// Single-flight decompiles: two explorers sharing one artifact cache,
// launched cold at the same instant with DISTINCT strategies over the same
// binary+platform.  Their request keys differ — the daemon's scheduler
// cannot coalesce them — but the decompile key (binary, pipeline, cycle
// model) is shared, so exactly one profile+decompile may run; the tenant
// whose ObtainDecompile finds the key in flight waits for it inside its own
// parallel job and reports zero work.
TEST(ServeWork, ConcurrentDistinctColdExploresRunOneDecompile) {
  const suite::Benchmark* bench = suite::FindBenchmark("crc");
  ASSERT_NE(bench, nullptr);
  Result<mips::SoftBinary> built = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(built.ok()) << built.status().message();
  const auto binary =
      std::make_shared<const mips::SoftBinary>(std::move(built).take());

  const auto shared_cache = std::make_shared<explore::ArtifactCache>();
  const char* strategies[2] = {"paper-greedy", "annealing"};
  explore::ExploreResult results[2];
  std::atomic<bool> go{false};
  std::vector<std::thread> tenants;
  for (int t = 0; t < 2; ++t) {
    tenants.emplace_back([&, t] {
      Toolchain toolchain;
      toolchain.WithThreads(1).WithArtifactCache(shared_cache);
      explore::ExploreSpec spec;
      spec.binaries.push_back({"crc", binary});
      spec.platforms = {"mips200-xc2v1000"};
      spec.strategies = {strategies[t]};
      while (!go.load()) std::this_thread::yield();
      results[t] = toolchain.Explore(spec);
    });
  }
  go.store(true);
  for (std::thread& tenant : tenants) tenant.join();

  std::size_t simulations = 0;
  std::size_t decompilations = 0;
  std::size_t partitions = 0;
  for (const explore::ExploreResult& result : results) {
    for (const explore::ExplorePoint& point : result.points) {
      EXPECT_TRUE(point.status.ok()) << point.status.message();
    }
    simulations += result.simulations_run;
    decompilations += result.decompilations_run;
    partitions += result.partitions_run;
  }
  // One decompile total across both tenants, regardless of interleaving
  // (full overlap resolves via the in-flight build, no overlap via the
  // memory tier) — and each tenant still computed its own partition.
  EXPECT_EQ(simulations, 1u);
  EXPECT_EQ(decompilations, 1u);
  EXPECT_EQ(partitions, 2u);
}

TEST(ServeDaemon, DeadlineRequestGetsErrorAndLaterServesWarm) {
  TempDir scratch;
  Server::Options options{scratch.path + "/serve.sock"};
  options.workers = 1;
  ServerHarness harness(options);
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(options.socket_path);
  // The job parks in its strategy until released, so the 1 ms deadline
  // expires while it runs.
  ParkGate& gate = RegisterParkedStrategy();
  const std::string slow = PartitionRequest("crc", "test-parked");
  const std::string with_deadline =
      slow.substr(0, slow.size() - 1) + R"(,"deadline_ms":1})";
  ExpectErrorCode(Call(client, with_deadline), serve::kErrDeadline);
  gate.Release();

  // The computation kept running and completed into the cache: the retry
  // without a deadline succeeds, and the flow executed exactly once.
  const std::string retry = Call(client, slow);
  EXPECT_TRUE(MustParse(retry).GetBool("ok", false)) << retry;
  const WorkCounters counters = FetchStats(client);
  EXPECT_EQ(counters.simulations, 1.0);
  EXPECT_EQ(counters.decompilations, 1.0);
  EXPECT_EQ(counters.partitions, 1.0);
  EXPECT_EQ(counters.scheduler_deadline_expired, 1.0);
}

TEST(ServeDaemon, ZeroQueueCapacityRejectsWorkButServesCheapKinds) {
  TempDir scratch;
  Server::Options options{scratch.path + "/serve.sock"};
  options.workers = 1;
  options.max_queue = 0;  // nothing may queue: every novel job bounces
  ServerHarness harness(options);
  ASSERT_TRUE(harness.Start());

  Client client = MustConnect(options.socket_path);
  ExpectErrorCode(Call(client, PartitionRequest("crc", "paper-greedy")),
                  serve::kErrOverloaded);
  // Overload is a fast structured rejection, not a dropped connection:
  // cheap kinds never touch the scheduler and still work.
  const std::string pong = Call(client, R"({"schema":1,"kind":"ping"})");
  EXPECT_TRUE(MustParse(pong).GetBool("ok", false));
}

TEST(ServeDaemon, MultiTenantHammerComputesOnceAndLeavesDiskCacheSound) {
  TempDir scratch;
  TempDir cache;
  Server::Options options{scratch.path + "/serve.sock"};
  options.workers = 3;
  options.cache_dir = cache.path;
  ServerHarness harness(options);
  ASSERT_TRUE(harness.Start());

  // Four distinct request keys over two benchmarks and two strategies.
  const std::vector<std::string> keys = {
      PartitionRequest("crc", "paper-greedy"),
      PartitionRequest("crc", "annealing"),
      PartitionRequest("checksum", "paper-greedy"),
      PartitionRequest("checksum", "annealing"),
  };

  // Prime serially so the exact work totals below are deterministic (two
  // benchmarks to decompile, four partition artifacts to compute).
  std::map<std::string, std::string> baseline;
  Client primer = MustConnect(options.socket_path);
  for (const std::string& key : keys) {
    const std::string response = Call(primer, key);
    ASSERT_TRUE(MustParse(response).GetBool("ok", false)) << response;
    baseline[key] = ExtractReport(response);
  }
  const WorkCounters primed = FetchStats(primer);
  EXPECT_EQ(primed.simulations, 2.0);
  EXPECT_EQ(primed.decompilations, 2.0);
  EXPECT_EQ(primed.partitions, 4.0);

  // Hammer: six tenants, each its own connection, overlapping identical
  // and distinct warm requests.  Every report must match the serial
  // baseline byte for byte, and no work may be recomputed.
  constexpr int kThreads = 6;
  constexpr int kRequestsPerThread = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> tenants;
  for (int t = 0; t < kThreads; ++t) {
    tenants.emplace_back([&, t] {
      Client client = MustConnect(options.socket_path);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string& key = keys[(t + i) % keys.size()];
        std::string response;
        if (!client.Call(key, &response, 60000).ok() ||
            !MustParse(response).GetBool("ok", false)) {
          ++failures;
          continue;
        }
        if (ExtractReport(response) != baseline[key]) ++mismatches;
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const WorkCounters hammered = FetchStats(primer);
  EXPECT_EQ(hammered.simulations, 2.0);
  EXPECT_EQ(hammered.decompilations, 2.0);
  EXPECT_EQ(hammered.partitions, 4.0);

  // Coalescing burst: every tenant fires the SAME novel key at once, and
  // the job stays parked until all of them have attached to it.  The
  // underlying partition computes exactly once.
  ParkGate& gate = RegisterParkedStrategy();
  const std::string burst = PartitionRequest("crc", "test-parked");
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> bursters;
  for (int t = 0; t < kThreads; ++t) {
    bursters.emplace_back([&] {
      Client client = MustConnect(options.socket_path);
      ++ready;
      while (!go.load()) std::this_thread::yield();
      std::string response;
      if (!client.Call(burst, &response, 60000).ok() ||
          !MustParse(response).GetBool("ok", false)) {
        ++failures;
      }
    });
  }
  SpinUntil([&] { return ready.load() == kThreads; });
  go.store(true);
  SpinUntil([&] {
    return FetchStats(primer).scheduler_coalesced >=
           hammered.scheduler_coalesced + kThreads - 1;
  });
  gate.Release();
  for (std::thread& burster : bursters) burster.join();
  EXPECT_EQ(failures.load(), 0);
  const WorkCounters after_burst = FetchStats(primer);
  EXPECT_EQ(after_burst.simulations, 2.0);      // crc decompile was warm
  EXPECT_EQ(after_burst.decompilations, 2.0);
  EXPECT_EQ(after_burst.partitions, 5.0);       // exactly one new artifact
  EXPECT_GE(after_burst.scheduler_coalesced, 1.0);

  harness.server.RequestShutdown();
  if (harness.waiter.joinable()) harness.waiter.join();

  // Disk-cache integrity: a fresh process-local toolchain pointed at the
  // hammered cache dir replays the whole grid with ZERO recomputation and
  // no undecodable entries — concurrent tenants never tore a disk write.
  Toolchain verifier;
  verifier.WithThreads(1).WithCacheDir(cache.path);
  explore::ExploreSpec spec;
  for (const char* name : {"crc", "checksum"}) {
    const suite::Benchmark* bench = suite::FindBenchmark(name);
    ASSERT_NE(bench, nullptr);
    Result<mips::SoftBinary> binary = suite::BuildBinary(*bench, 1);
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    spec.binaries.push_back(
        {name, std::make_shared<const mips::SoftBinary>(
                   std::move(binary).take())});
  }
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy", "annealing"};
  const explore::ExploreResult replay = verifier.Explore(spec);
  for (const explore::ExplorePoint& point : replay.points) {
    EXPECT_TRUE(point.status.ok()) << point.status.message();
  }
  EXPECT_EQ(replay.simulations_run, 0u);
  EXPECT_EQ(replay.decompilations_run, 0u);
  EXPECT_EQ(replay.partitions_run, 0u);
  EXPECT_EQ(verifier.CacheStats().disk_bad_entries, 0u);
}

}  // namespace
}  // namespace b2h
