// Wire protocol of the b2h-serve daemon.
//
// Transport: unix-domain stream socket + 4-byte little-endian
// length-prefixed frames (support/socket.hpp).  Payloads are JSON both
// ways; every request and response carries "schema": kWireSchemaVersion,
// and a mismatched request is rejected with a structured `bad-schema`
// error — the daemon never guesses at an unknown format.
//
// Request kinds:
//
//   {"schema":1,"kind":"ping"}
//   {"schema":1,"kind":"partition","benchmark":"crc","platform":
//       "mips200-xc2v1000","strategy":"annealing","objective":"speedup",
//       "opt_level":1,"seed":7,"deadline_ms":2000,"id":"req-42"}
//   {"schema":1,"kind":"explore","benchmarks":[...],"platforms":[...],
//       "strategies":[...],"objectives":[...],"seed":1}
//   {"schema":1,"kind":"stats"}
//   {"schema":1,"kind":"metrics"}
//   {"schema":1,"kind":"dump"}
//   {"schema":1,"kind":"shutdown"}
//
// Numeric fields are integers within their field's range (seed < 2^64,
// annealing_iterations < 2^32, opt_level <= 3, and deadline_ms, which may
// be fractional, at most 2^31 - 1); anything else is rejected with
// `bad-request`, never truncated into another request's key.
//
// Any request may carry "corr" (a client correlation id, [A-Za-z0-9._-],
// <= 64 bytes; the server assigns one when absent) — it is echoed in the
// response envelope and stamped into every span the request produces.
// Work requests may set "progress":true to receive progress frames
// ({"schema":1,"id":...,"corr":...,"progress":{...}}) before the final
// reply on the same connection.
//
// Responses:
//
//   success: {"schema":1,"id":"...","ok":true,"report":{...},"served":{...}}
//   error:   {"schema":1,"id":"...","ok":false,
//             "error":{"code":"...","message":"..."}}
//
// The "report" sub-object is DETERMINISTIC — a pure function of the request
// (ToolchainRun::Json() shape for `partition`, ExploreResult::Json() for
// `explore`) — while "served" carries volatile delivery metadata (whether
// the result was coalesced onto an in-flight computation).  Clients
// comparing serial vs. concurrent replays compare "report" bit-for-bit and
// ignore "served"; the loadgen and the hammer tests rely on that split.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace b2h::serve {

// Structured error codes (the closed set clients may dispatch on).
inline constexpr char kErrBadFrame[] = "bad-frame";        ///< framing layer
inline constexpr char kErrBadJson[] = "bad-json";          ///< unparseable
inline constexpr char kErrBadSchema[] = "bad-schema";      ///< version skew
inline constexpr char kErrBadRequest[] = "bad-request";    ///< shape/values
inline constexpr char kErrUnknownBenchmark[] = "unknown-benchmark";
inline constexpr char kErrUnknownPlatform[] = "unknown-platform";
inline constexpr char kErrUnknownStrategy[] = "unknown-strategy";
inline constexpr char kErrOverloaded[] = "overloaded";     ///< queue full
inline constexpr char kErrDeadline[] = "deadline";         ///< request timed out
inline constexpr char kErrShuttingDown[] = "shutting-down";
inline constexpr char kErrFlowFailed[] = "flow-failed";    ///< analysis failure
inline constexpr char kErrInternal[] = "internal";

enum class RequestKind {
  kPing,
  kPartition,
  kExplore,
  kStats,    ///< serving counters (StatsJson shape)
  kMetrics,  ///< full obs::Registry snapshot (kMetricsSchemaVersion shape)
  kDump,     ///< write a forensics bundle now; report = {"path":...}
  kShutdown
};

[[nodiscard]] std::string_view RequestKindName(RequestKind kind);

/// One decoded request.  `partition` uses the singular fields; `explore`
/// the plural ones.  Absent optional fields keep these defaults.
struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string id;        ///< opaque client tag, echoed in the response
  std::string corr;      ///< correlation id; "" = server assigns one
  bool progress = false; ///< stream progress frames before the final reply
  int deadline_ms = -1;  ///< < 0 = no deadline

  // partition
  std::string benchmark;
  std::string platform = "mips200-xc2v1000";
  std::string strategy = "paper-greedy";
  std::string objective = "speedup";
  int opt_level = 1;

  // explore
  std::vector<std::string> benchmarks;
  std::vector<std::string> platforms;
  std::vector<std::string> strategies;
  std::vector<std::string> objectives;

  // strategy knobs shared by both work kinds
  std::uint64_t seed = 1;
  unsigned annealing_iterations = 2000;
};

struct ParseError {
  std::string code;
  std::string message;
};

/// Decode + structurally validate one request payload (schema match, known
/// kind, required fields present and well-typed, objectives parseable).
/// Registry-level validation (benchmark/platform/strategy existence) stays
/// with the server, which owns the registries.  nullopt => `*error` holds
/// the structured code/message to send back.
[[nodiscard]] std::optional<Request> ParseRequest(std::string_view payload,
                                                  ParseError* error);

/// Canonical content key of the deterministic work a request names — the
/// scheduler coalesces concurrent requests with equal keys onto one
/// computation.  Includes every field that can change the report, nothing
/// volatile (no id, no deadline).
[[nodiscard]] std::string RequestKey(const Request& request);

/// True when `corr` is usable as a client-supplied correlation id:
/// non-empty, at most 64 bytes, charset [A-Za-z0-9._-].
[[nodiscard]] bool ValidCorrelationId(std::string_view corr);

// ---- response builders (all stamped with kWireSchemaVersion) -------------
// A non-empty `corr` adds a "corr" field to the envelope (additive: the
// wire schema stays 1; report/served stay adjacent for byte-slicing
// clients).

[[nodiscard]] std::string ErrorResponse(const std::string& id,
                                        std::string_view code,
                                        std::string_view message,
                                        std::string_view corr = {});

/// Success envelope around a pre-serialized deterministic `report` object
/// and a pre-serialized volatile `served` object (both must be complete
/// JSON values; pass "{}" when empty).
[[nodiscard]] std::string OkResponse(const std::string& id,
                                     std::string_view report_json,
                                     std::string_view served_json,
                                     std::string_view corr = {});

/// Progress frame for a streaming request: {"schema":1,"id":...,
/// "corr":...,"progress":<progress_json>}.  Distinguished from the final
/// reply by the presence of "progress" and the absence of "ok".
[[nodiscard]] std::string ProgressFrame(const std::string& id,
                                        std::string_view corr,
                                        std::string_view progress_json);

}  // namespace b2h::serve
