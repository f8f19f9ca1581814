#include "serve/protocol.hpp"

#include <limits>
#include <sstream>

#include "partition/strategy.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"

namespace b2h::serve {

namespace {

using support::JsonValue;

std::optional<RequestKind> ParseKind(std::string_view name) {
  if (name == "ping") return RequestKind::kPing;
  if (name == "partition") return RequestKind::kPartition;
  if (name == "explore") return RequestKind::kExplore;
  if (name == "stats") return RequestKind::kStats;
  if (name == "metrics") return RequestKind::kMetrics;
  if (name == "dump") return RequestKind::kDump;
  if (name == "shutdown") return RequestKind::kShutdown;
  return std::nullopt;
}

std::optional<Request> Fail(ParseError* error, std::string code,
                            std::string message) {
  if (error != nullptr) {
    error->code = std::move(code);
    error->message = std::move(message);
  }
  return std::nullopt;
}

/// Integral member in [0, max] with a default; false on a present but
/// non-numeric / negative / fractional / larger value.
bool GetCount(const JsonValue& object, std::string_view key,
              std::uint64_t fallback, std::uint64_t max, std::uint64_t* out) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr) {
    *out = fallback;
    return true;
  }
  if (!member->is_number()) return false;
  const double value = member->number();
  // Range first: casting 2^64 or more (1e999 parses as infinity) to
  // uint64_t is undefined.
  if (!(value >= 0.0 && value < 0x1p64) ||
      value != static_cast<double>(static_cast<std::uint64_t>(value)) ||
      static_cast<std::uint64_t>(value) > max) {
    return false;
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

}  // namespace

std::string_view RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing: return "ping";
    case RequestKind::kPartition: return "partition";
    case RequestKind::kExplore: return "explore";
    case RequestKind::kStats: return "stats";
    case RequestKind::kMetrics: return "metrics";
    case RequestKind::kDump: return "dump";
    case RequestKind::kShutdown: return "shutdown";
  }
  return "ping";
}

std::optional<Request> ParseRequest(std::string_view payload,
                                    ParseError* error) {
  const std::optional<JsonValue> parsed = JsonValue::Parse(payload);
  if (!parsed.has_value()) {
    return Fail(error, kErrBadJson, "request payload is not valid JSON");
  }
  if (!parsed->is_object()) {
    return Fail(error, kErrBadRequest, "request must be a JSON object");
  }
  const JsonValue& object = *parsed;

  const JsonValue* schema = object.Find("schema");
  if (schema == nullptr || !schema->is_number()) {
    return Fail(error, kErrBadSchema,
                "request carries no numeric \"schema\" field");
  }
  if (static_cast<int>(schema->number()) != kWireSchemaVersion) {
    return Fail(error, kErrBadSchema,
                "unsupported wire schema " +
                    std::to_string(static_cast<int>(schema->number())) +
                    " (server speaks " +
                    std::to_string(kWireSchemaVersion) + ")");
  }

  const std::string kind_name = object.GetString("kind");
  const std::optional<RequestKind> kind = ParseKind(kind_name);
  if (!kind.has_value()) {
    return Fail(error, kErrBadRequest,
                "unknown request kind \"" + kind_name + "\"");
  }

  Request request;
  request.kind = *kind;
  request.id = object.GetString("id");
  request.corr = object.GetString("corr");
  if (!request.corr.empty() && !ValidCorrelationId(request.corr)) {
    return Fail(error, kErrBadRequest,
                "\"corr\" must be 1-64 bytes of [A-Za-z0-9._-]");
  }
  const JsonValue* progress = object.Find("progress");
  if (progress != nullptr) {
    if (!progress->is_bool()) {
      return Fail(error, kErrBadRequest, "\"progress\" must be a boolean");
    }
    request.progress = progress->bool_value();
  }

  const JsonValue* deadline = object.Find("deadline_ms");
  if (deadline != nullptr) {
    // An int holds it; out of range would wrap to "no deadline".
    if (!deadline->is_number() || !(deadline->number() >= 0.0) ||
        deadline->number() > std::numeric_limits<int>::max()) {
      return Fail(error, kErrBadRequest,
                  "\"deadline_ms\" must be a number from 0 to 2147483647");
    }
    request.deadline_ms = static_cast<int>(deadline->number());
  }

  std::uint64_t seed = 1;
  std::uint64_t iterations = 2000;
  std::uint64_t opt_level = 1;
  if (!GetCount(object, "seed", 1, std::numeric_limits<std::uint64_t>::max(),
                &seed) ||
      !GetCount(object, "annealing_iterations", 2000,
                std::numeric_limits<unsigned>::max(), &iterations) ||
      !GetCount(object, "opt_level", 1, 3, &opt_level)) {
    return Fail(error, kErrBadRequest,
                "\"seed\", \"annealing_iterations\", and \"opt_level\" must "
                "be non-negative integers (seed < 2^64, annealing_iterations "
                "< 2^32, opt_level <= 3)");
  }
  request.seed = seed;
  request.annealing_iterations = static_cast<unsigned>(iterations);
  request.opt_level = static_cast<int>(opt_level);

  switch (request.kind) {
    case RequestKind::kPing:
    case RequestKind::kStats:
    case RequestKind::kMetrics:
    case RequestKind::kDump:
    case RequestKind::kShutdown:
      return request;
    case RequestKind::kPartition: {
      request.benchmark = object.GetString("benchmark");
      if (request.benchmark.empty()) {
        return Fail(error, kErrBadRequest,
                    "partition request needs a \"benchmark\" name");
      }
      request.platform = object.GetString("platform", request.platform);
      request.strategy = object.GetString("strategy", request.strategy);
      request.objective = object.GetString("objective", request.objective);
      if (!partition::ParseObjective(request.objective).has_value()) {
        return Fail(error, kErrBadRequest,
                    "unknown objective \"" + request.objective + "\"");
      }
      return request;
    }
    case RequestKind::kExplore: {
      request.benchmarks = object.GetStringArray("benchmarks");
      if (request.benchmarks.empty()) {
        return Fail(error, kErrBadRequest,
                    "explore request needs a non-empty \"benchmarks\" array");
      }
      request.platforms = object.GetStringArray("platforms");
      request.strategies = object.GetStringArray("strategies");
      request.objectives = object.GetStringArray("objectives");
      if (request.platforms.empty()) {
        request.platforms = {"mips40", "mips200-xc2v1000", "mips400"};
      }
      if (request.strategies.empty()) request.strategies = {"paper-greedy"};
      if (request.objectives.empty()) request.objectives = {"speedup"};
      for (const std::string& objective : request.objectives) {
        if (!partition::ParseObjective(objective).has_value()) {
          return Fail(error, kErrBadRequest,
                      "unknown objective \"" + objective + "\"");
        }
      }
      return request;
    }
  }
  return Fail(error, kErrInternal, "unreachable request kind");
}

std::string RequestKey(const Request& request) {
  // '\x1f' separators cannot appear in registry/benchmark names, so the
  // concatenation is injective; lists keep their order (a reordered explore
  // grid is a different report, hence a different key).
  std::ostringstream out;
  out << RequestKindName(request.kind);
  const auto field = [&](std::string_view value) { out << '\x1f' << value; };
  const auto list = [&](const std::vector<std::string>& values) {
    out << '\x1f' << values.size();
    for (const std::string& value : values) field(value);
  };
  if (request.kind == RequestKind::kPartition) {
    field(request.benchmark);
    field(request.platform);
    field(request.strategy);
    field(request.objective);
  } else {
    list(request.benchmarks);
    list(request.platforms);
    list(request.strategies);
    list(request.objectives);
  }
  out << '\x1f' << request.opt_level << '\x1f' << request.seed << '\x1f'
      << request.annealing_iterations;
  return out.str();
}

bool ValidCorrelationId(std::string_view corr) {
  if (corr.empty() || corr.size() > 64) return false;
  for (const char c : corr) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace {

void AppendCorr(std::ostringstream& out, std::string_view corr) {
  if (!corr.empty()) {
    out << ",\"corr\":\"" << support::JsonEscape(std::string(corr)) << "\"";
  }
}

}  // namespace

std::string ErrorResponse(const std::string& id, std::string_view code,
                          std::string_view message, std::string_view corr) {
  std::ostringstream out;
  out << "{\"schema\":" << kWireSchemaVersion << ",\"id\":\""
      << support::JsonEscape(id) << "\"";
  AppendCorr(out, corr);
  out << ",\"ok\":false,\"error\":{\"code\":\""
      << support::JsonEscape(std::string(code)) << "\",\"message\":\""
      << support::JsonEscape(std::string(message)) << "\"}}";
  return out.str();
}

std::string OkResponse(const std::string& id, std::string_view report_json,
                       std::string_view served_json, std::string_view corr) {
  std::ostringstream out;
  out << "{\"schema\":" << kWireSchemaVersion << ",\"id\":\""
      << support::JsonEscape(id) << "\"";
  AppendCorr(out, corr);
  out << ",\"ok\":true,\"report\":"
      << (report_json.empty() ? "{}" : report_json) << ",\"served\":"
      << (served_json.empty() ? "{}" : served_json) << "}";
  return out.str();
}

std::string ProgressFrame(const std::string& id, std::string_view corr,
                          std::string_view progress_json) {
  std::ostringstream out;
  out << "{\"schema\":" << kWireSchemaVersion << ",\"id\":\""
      << support::JsonEscape(id) << "\"";
  AppendCorr(out, corr);
  out << ",\"progress\":" << (progress_json.empty() ? "{}" : progress_json)
      << "}";
  return out.str();
}

}  // namespace b2h::serve
