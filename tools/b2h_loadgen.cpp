// b2h-loadgen — load generator + serving benchmark for the b2h-serve
// daemon.
//
//   b2h-loadgen --spawn SERVER_BIN [--cache-dir DIR] [options]
//   b2h-loadgen --socket PATH [options]
//
//   options: --requests N (default 1200)  --connections C (default 8)
//            --cold-keys K (default 8)    --socket PATH (with --spawn)
//
// Drives a mixed warm/cold request replay against a serving daemon and
// writes BENCH_serve.json (JSON Lines, bench/bench_json.hpp schema) for
// the CI perf-trajectory gate.  Phases:
//
//   1. cold serial  — every unique warm-set request once; baseline reports
//   2. mixed load   — N requests over C connections: warm keys plus K
//                     unique cold keys (fresh annealing seeds)
//   3. coalesce burst — C connections fire ONE brand-new key at the same
//                     instant; it must be computed exactly once
//   4. verify serial — replay every key; reports must be bit-identical to
//                     the concurrent phase's
//   5. http replay  — (with --http-port) every key again over POST
//                     /v1/partition|/v1/explore; reports must be
//                     bit-identical to the framed baseline and /healthz
//                     must answer 200
//
// Self-gated invariants (non-zero exit on violation, enforced again by
// ci/perf_trajectory.py ABSOLUTE_GATES):
//
//   serve_warm_simulations   == 0   phases 2-5 re-simulate nothing
//   serve_warm_decompilations== 0   ... and re-decompile nothing
//   serve_extra_partitions   == 0   partitions beyond the unique cold keys
//   serve_burst_partitions   == 1   the burst computed its key once
//   serve_report_identical   == 1   serial == concurrent, bit for bit
//   serve_metrics_ok         == 1   `metrics` snapshot matches the load
//   serve_http_identical     == 1   (with --http-port) HTTP == framed
//   serve_shutdown_clean     == 1   (spawn mode) exit 0, socket removed
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_json.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/http.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"

namespace {

using b2h::serve::Client;
using b2h::support::JsonValue;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string socket_path;
  std::string server_bin;  ///< spawn mode when non-empty
  std::string cache_dir;
  std::string trace_out;  ///< Chrome/Perfetto trace of the client phases
  std::size_t requests = 1200;
  unsigned connections = 8;
  std::size_t cold_keys = 8;
  int http_port = -1;  ///< >= 0: run the HTTP replay phase on this port
};

int Usage() {
  std::fprintf(stderr,
               "usage: b2h-loadgen (--spawn SERVER_BIN | --socket PATH)\n"
               "                   [--socket PATH] [--cache-dir DIR]\n"
               "                   [--requests N] [--connections C]\n"
               "                   [--cold-keys K] [--trace-out FILE]\n"
               "                   [--http-port N]\n");
  return 1;
}

std::string PartitionRequest(const std::string& benchmark,
                             const std::string& strategy, std::uint64_t seed,
                             unsigned iterations) {
  std::ostringstream out;
  out << "{\"schema\":" << b2h::kWireSchemaVersion
      << ",\"kind\":\"partition\",\"benchmark\":\"" << benchmark
      << "\",\"strategy\":\"" << strategy << "\",\"objective\":\"speedup\""
      << ",\"seed\":" << seed << ",\"annealing_iterations\":" << iterations
      << "}";
  return out.str();
}

std::string ExploreRequest(const std::vector<std::string>& benchmarks) {
  std::ostringstream out;
  out << "{\"schema\":" << b2h::kWireSchemaVersion
      << ",\"kind\":\"explore\",\"benchmarks\":[";
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << benchmarks[i] << "\"";
  }
  out << "],\"strategies\":[\"paper-greedy\"]}";
  return out.str();
}

std::string SimpleRequest(const char* kind) {
  std::ostringstream out;
  out << "{\"schema\":" << b2h::kWireSchemaVersion << ",\"kind\":\"" << kind
      << "\"}";
  return out.str();
}

/// The deterministic "report" slice of a response — everything between the
/// envelope's report and served members (a format contract with
/// serve::OkResponse, which always emits them adjacently in that order).
std::string ExtractReport(const std::string& response) {
  const std::string report_tag = "\"report\":";
  const std::string served_tag = ",\"served\":";
  const std::size_t begin = response.find(report_tag);
  const std::size_t end = response.rfind(served_tag);
  if (begin == std::string::npos || end == std::string::npos ||
      end <= begin) {
    return "";
  }
  const std::size_t start = begin + report_tag.size();
  return response.substr(start, end - start);
}

bool ResponseOk(const std::string& response, bool* coalesced = nullptr) {
  const std::optional<JsonValue> parsed = JsonValue::Parse(response);
  if (!parsed.has_value() || !parsed->is_object()) return false;
  if (coalesced != nullptr) {
    const JsonValue* served = parsed->Find("served");
    *coalesced =
        served != nullptr && served->GetBool("coalesced", false);
  }
  return parsed->GetBool("ok", false);
}

struct StatsSnapshot {
  double simulations = 0, decompilations = 0, partitions = 0;
  double executed = 0, coalesced = 0, memory_hits = 0, misses = 0;
};

bool FetchStats(Client& client, StatsSnapshot* out) {
  std::string response;
  if (!client.Call(SimpleRequest("stats"), &response, 10'000).ok()) {
    return false;
  }
  const std::optional<JsonValue> parsed = JsonValue::Parse(response);
  if (!parsed.has_value()) return false;
  const JsonValue* served = parsed->Find("served");
  if (served == nullptr) return false;
  const JsonValue* work = served->Find("work");
  const JsonValue* scheduler = served->Find("scheduler");
  const JsonValue* cache = served->Find("cache");
  if (work == nullptr || scheduler == nullptr || cache == nullptr) {
    return false;
  }
  out->simulations = work->GetNumber("simulations_run");
  out->decompilations = work->GetNumber("decompilations_run");
  out->partitions = work->GetNumber("partitions_run");
  out->executed = scheduler->GetNumber("executed");
  out->coalesced = scheduler->GetNumber("coalesced");
  out->memory_hits = cache->GetNumber("memory_hits");
  out->misses = cache->GetNumber("misses");
  return true;
}

/// Cross-check the `metrics` endpoint against the load we generated: the
/// served body must be a schema-stamped registry snapshot whose
/// serve.requests counter covers at least the requests this process sent.
bool MetricsEndpointOk(Client& client, double min_requests) {
  std::string response;
  if (!client.Call(SimpleRequest("metrics"), &response, 10'000).ok()) {
    return false;
  }
  const std::optional<JsonValue> parsed = JsonValue::Parse(response);
  if (!parsed.has_value() || !parsed->GetBool("ok", false)) return false;
  const JsonValue* served = parsed->Find("served");
  if (served == nullptr) return false;
  if (served->GetNumber("schema") !=
      static_cast<double>(b2h::obs::kMetricsSchemaVersion)) {
    return false;
  }
  const JsonValue* counters = served->Find("counters");
  if (counters == nullptr || served->Find("gauges") == nullptr ||
      served->Find("histograms") == nullptr) {
    return false;
  }
  return counters->GetNumber("serve.requests") >= min_requests;
}

/// Baseline report registry: the first response for a key becomes the
/// reference; every later response must match it byte for byte.
class ReportRegistry {
 public:
  /// True when the report matches (or creates) the key's baseline.
  bool CheckOrInsert(const std::string& key, const std::string& report) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = reports_.try_emplace(key, report);
    if (!inserted && it->second != report) {
      ++mismatches_;
      return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t mismatches() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return mismatches_;
  }
  [[nodiscard]] std::vector<std::string> Keys() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> keys;
    keys.reserve(reports_.size());
    for (const auto& [key, report] : reports_) keys.push_back(key);
    return keys;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::string> reports_;
  std::size_t mismatches_ = 0;
};

pid_t SpawnServer(const Options& options, const std::string& http_port) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<const char*> args = {options.server_bin.c_str(), "--socket",
                                   options.socket_path.c_str(),
                                   "--workers", "2"};
  if (!options.cache_dir.empty()) {
    args.push_back("--cache-dir");
    args.push_back(options.cache_dir.c_str());
  }
  if (!http_port.empty()) {
    args.push_back("--http-port");
    args.push_back(http_port.c_str());
  }
  args.push_back(nullptr);
  ::execv(options.server_bin.c_str(),
          const_cast<char* const*>(args.data()));
  std::_Exit(127);
}

bool ConnectReady(const std::string& socket_path, Client* out,
                  int attempts = 100) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    auto client = Client::Connect(socket_path);
    if (client.ok()) {
      std::string response;
      if (client.value().Call(SimpleRequest("ping"), &response, 2'000).ok() &&
          ResponseOk(response)) {
        *out = std::move(client).take();
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      fraction * static_cast<double>(values.size() - 1));
  return values[index];
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      options.socket_path = argv[++i];
    } else if (arg == "--spawn" && i + 1 < argc) {
      options.server_bin = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      options.cache_dir = argv[++i];
    } else if (arg == "--requests" && i + 1 < argc) {
      options.requests = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--connections" && i + 1 < argc) {
      options.connections =
          static_cast<unsigned>(std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--cold-keys" && i + 1 < argc) {
      options.cold_keys = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--trace-out" && i + 1 < argc) {
      options.trace_out = argv[++i];
    } else if (arg == "--http-port" && i + 1 < argc) {
      options.http_port = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (!options.trace_out.empty()) b2h::obs::Tracer::Global().Enable();
  const bool spawn = !options.server_bin.empty();
  if (!spawn && options.socket_path.empty()) return Usage();
  if (options.socket_path.empty()) {
    options.socket_path =
        "/tmp/b2h-loadgen-" + std::to_string(::getpid()) + ".sock";
  }

  pid_t server_pid = -1;
  if (spawn) {
    server_pid = SpawnServer(options, options.http_port >= 0
                                          ? std::to_string(options.http_port)
                                          : std::string());
    if (server_pid < 0) {
      std::fprintf(stderr, "b2h-loadgen: fork failed\n");
      return 1;
    }
  }

  Client control;
  if (!ConnectReady(options.socket_path, &control)) {
    std::fprintf(stderr, "b2h-loadgen: server at %s never became ready\n",
                 options.socket_path.c_str());
    if (server_pid > 0) ::kill(server_pid, SIGKILL);
    return 1;
  }

  // ---- warm request set ----------------------------------------------------
  const std::vector<std::string> benchmarks = {"crc", "fir", "checksum",
                                               "brev"};
  std::vector<std::string> warm_set;
  for (const std::string& benchmark : benchmarks) {
    warm_set.push_back(PartitionRequest(benchmark, "paper-greedy", 1, 2000));
    warm_set.push_back(PartitionRequest(benchmark, "annealing", 1, 2000));
    warm_set.push_back(PartitionRequest(benchmark, "annealing", 2, 2000));
  }
  warm_set.push_back(ExploreRequest(benchmarks));
  const auto cold_request = [&](std::size_t index) {
    // Fresh annealing seeds the warm phases never used.
    return PartitionRequest(benchmarks[index % benchmarks.size()],
                            "annealing", 1000 + index, 2000);
  };

  ReportRegistry registry;
  std::size_t request_failures = 0;

  // ---- phase 1: cold serial ------------------------------------------------
  b2h::obs::ScopedSpan phase1_span("loadgen.cold_prime", "loadgen");
  for (const std::string& request : warm_set) {
    std::string response;
    if (!control.Call(request, &response, 120'000).ok() ||
        !ResponseOk(response)) {
      std::fprintf(stderr, "b2h-loadgen: cold request failed: %s\n%s\n",
                   request.c_str(), response.c_str());
      ++request_failures;
      continue;
    }
    registry.CheckOrInsert(request, ExtractReport(response));
  }
  StatsSnapshot after_cold;
  if (!FetchStats(control, &after_cold)) {
    std::fprintf(stderr, "b2h-loadgen: stats request failed\n");
    return 1;
  }
  phase1_span.Arg("requests", static_cast<std::uint64_t>(warm_set.size()));
  phase1_span.Close();
  std::printf("phase 1 (cold): %zu unique requests primed\n",
              warm_set.size());

  // ---- phase 2: mixed concurrent load -------------------------------------
  b2h::obs::ScopedSpan phase2_span("loadgen.mixed_load", "loadgen");
  std::mutex merge_mutex;
  std::vector<double> warm_latencies_ms;
  std::vector<double> cold_latencies_ms;
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> client_coalesced{0};

  const std::size_t total = std::max<std::size_t>(options.requests, 1);
  const unsigned connections = options.connections;
  const auto phase2_start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (unsigned t = 0; t < connections; ++t) {
      threads.emplace_back([&, t] {
        auto client = Client::Connect(options.socket_path);
        if (!client.ok()) {
          failures.fetch_add(1);
          return;
        }
        std::vector<double> warm_ms;
        std::vector<double> cold_ms;
        for (std::size_t i = t; i < total; i += connections) {
          // Every 5th request draws from the small cold pool (repeats
          // included, so late duplicates exercise the now-warm path).
          const bool cold =
              i % 5 == 4 && options.cold_keys > 0;
          const std::string request =
              cold ? cold_request((i / 5) % options.cold_keys)
                   : warm_set[i % warm_set.size()];
          const auto start = Clock::now();
          std::string response;
          bool coalesced = false;
          if (!client.value().Call(request, &response, 120'000).ok() ||
              !ResponseOk(response, &coalesced)) {
            failures.fetch_add(1);
            continue;
          }
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count();
          (cold ? cold_ms : warm_ms).push_back(ms);
          if (coalesced) client_coalesced.fetch_add(1);
          if (!registry.CheckOrInsert(request, ExtractReport(response))) {
            failures.fetch_add(1);
          }
        }
        const std::lock_guard<std::mutex> lock(merge_mutex);
        warm_latencies_ms.insert(warm_latencies_ms.end(), warm_ms.begin(),
                                 warm_ms.end());
        cold_latencies_ms.insert(cold_latencies_ms.end(), cold_ms.begin(),
                                 cold_ms.end());
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double phase2_seconds =
      std::chrono::duration<double>(Clock::now() - phase2_start).count();
  phase2_span.Arg("requests", static_cast<std::uint64_t>(total))
      .Arg("connections", static_cast<std::uint64_t>(connections));
  phase2_span.Close();
  StatsSnapshot after_mixed;
  if (!FetchStats(control, &after_mixed)) return 1;
  std::printf("phase 2 (mixed): %zu requests over %u connections in %.2fs\n",
              total, connections, phase2_seconds);

  // ---- phase 3: coalesce burst --------------------------------------------
  // Every connection fires the SAME never-seen request at the same instant;
  // it must be computed exactly once.  The gate counts partitions, not
  // closure runs: a warm key computes in well under a millisecond, so a
  // connection whose send trails the first run's end enters a second
  // closure, which is a memory-tier hit and computes nothing.  Coalescing
  // itself is tested deterministically in SchedulerTest.
  const std::string burst_request =
      PartitionRequest("crc", "annealing", 999'983, 20'000);
  {
    b2h::obs::ScopedSpan phase3_span("loadgen.coalesce_burst", "loadgen");
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool gate_open = false;
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(connections);
    for (unsigned t = 0; t < connections; ++t) {
      threads.emplace_back([&] {
        auto client = Client::Connect(options.socket_path);
        if (!client.ok()) {
          failures.fetch_add(1);
          ready.fetch_add(1);
          return;
        }
        ready.fetch_add(1);
        {
          std::unique_lock<std::mutex> lock(gate_mutex);
          gate_cv.wait(lock, [&] { return gate_open; });
        }
        std::string response;
        if (!client.value().Call(burst_request, &response, 120'000).ok() ||
            !ResponseOk(response)) {
          failures.fetch_add(1);
          return;
        }
        if (!registry.CheckOrInsert(burst_request,
                                    ExtractReport(response))) {
          failures.fetch_add(1);
        }
      });
    }
    while (ready.load() < connections) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      const std::lock_guard<std::mutex> lock(gate_mutex);
      gate_open = true;
    }
    gate_cv.notify_all();
    for (std::thread& thread : threads) thread.join();
  }
  StatsSnapshot after_burst;
  if (!FetchStats(control, &after_burst)) return 1;
  const double burst_executed = after_burst.executed - after_mixed.executed;
  const double burst_partitions =
      after_burst.partitions - after_mixed.partitions;
  std::printf("phase 3 (burst): %u simultaneous identical requests, "
              "%.0f execution(s), %.0f partition(s)\n",
              connections, burst_executed, burst_partitions);

  // ---- phase 4: serial verification ---------------------------------------
  b2h::obs::ScopedSpan phase4_span("loadgen.verify", "loadgen");
  for (const std::string& request : registry.Keys()) {
    std::string response;
    if (!control.Call(request, &response, 120'000).ok() ||
        !ResponseOk(response)) {
      ++request_failures;
      continue;
    }
    if (!registry.CheckOrInsert(request, ExtractReport(response))) {
      ++request_failures;
    }
  }
  phase4_span.Close();

  // ---- phase 5: HTTP replay (--http-port) ---------------------------------
  // Every baselined key again, this time as POST /v1/partition|/v1/explore.
  // The daemon routes both transports through the same scheduler + cache,
  // so the report slice must be byte-identical to the framed baseline and
  // the replay must do zero new toolchain work (covered by the warm gates:
  // the final stats snapshot is taken AFTER this phase).
  bool http_identical = true;
  const bool http_enabled = options.http_port >= 0;
  if (http_enabled) {
    b2h::obs::ScopedSpan phase5_span("loadgen.http_replay", "loadgen");
    const auto http_port = static_cast<std::uint16_t>(options.http_port);
    b2h::support::HttpResponse health;
    if (!b2h::support::HttpCall(http_port, "GET", "/healthz", "", &health) ||
        health.status_code != 200) {
      std::fprintf(stderr, "b2h-loadgen: GET /healthz failed (status %d)\n",
                   health.status_code);
      http_identical = false;
    }
    std::size_t replayed = 0;
    for (const std::string& request : registry.Keys()) {
      const std::optional<JsonValue> parsed = JsonValue::Parse(request);
      if (!parsed.has_value()) continue;
      const std::string kind = parsed->GetString("kind");
      if (kind != "partition" && kind != "explore") continue;
      b2h::support::HttpResponse http_response;
      if (!b2h::support::HttpCall(http_port, "POST", "/v1/" + kind, request,
                                  &http_response, 120'000) ||
          http_response.status_code != 200 ||
          !ResponseOk(http_response.body)) {
        std::fprintf(stderr, "b2h-loadgen: http replay failed: %s\n",
                     request.c_str());
        http_identical = false;
        continue;
      }
      if (!registry.CheckOrInsert(request, ExtractReport(http_response.body))) {
        http_identical = false;
      }
      ++replayed;
    }
    phase5_span.Arg("requests", static_cast<std::uint64_t>(replayed));
    phase5_span.Close();
    std::printf("phase 5 (http): %zu keys replayed over 127.0.0.1:%d\n",
                replayed, options.http_port);
  }

  StatsSnapshot final_stats;
  if (!FetchStats(control, &final_stats)) return 1;
  // The new metrics endpoint must corroborate the load we just generated.
  const bool metrics_ok =
      MetricsEndpointOk(control, static_cast<double>(total));

  // ---- invariants ----------------------------------------------------------
  const double warm_simulations =
      final_stats.simulations - after_cold.simulations;
  const double warm_decompilations =
      final_stats.decompilations - after_cold.decompilations;
  // Partitions after priming: exactly one per unique cold key actually
  // drawn in phase 2 plus one for the burst key; anything more is
  // recomputation the cache or the single-flight map failed to absorb.
  std::set<std::size_t> drawn_cold;
  for (std::size_t i = 0; i < total; ++i) {
    if (i % 5 == 4 && options.cold_keys > 0) {
      drawn_cold.insert((i / 5) % options.cold_keys);
    }
  }
  const double expected_partitions =
      static_cast<double>(drawn_cold.size()) + 1.0;
  const double extra_partitions =
      (final_stats.partitions - after_cold.partitions) - expected_partitions;
  const std::size_t total_failures = request_failures + failures.load();
  const bool reports_identical =
      registry.mismatches() == 0 && total_failures == 0;

  // ---- spawn-mode shutdown ------------------------------------------------
  double shutdown_clean = 1.0;
  if (spawn) {
    shutdown_clean = 0.0;
    std::string response;
    if (control.Call(SimpleRequest("shutdown"), &response, 10'000).ok() &&
        ResponseOk(response)) {
      int status = 0;
      for (int waited_ms = 0; waited_ms < 15'000; waited_ms += 50) {
        const pid_t done = ::waitpid(server_pid, &status, WNOHANG);
        if (done == server_pid) {
          struct stat socket_stat {};
          const bool socket_removed =
              ::stat(options.socket_path.c_str(), &socket_stat) != 0;
          if (WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
              socket_removed) {
            shutdown_clean = 1.0;
          }
          server_pid = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    if (server_pid > 0) {  // orphaned daemon: reap it and fail the gate
      ::kill(server_pid, SIGKILL);
      (void)::waitpid(server_pid, nullptr, 0);
    }
  }

  // ---- metrics -------------------------------------------------------------
  const double throughput =
      phase2_seconds > 0.0 ? static_cast<double>(total) / phase2_seconds
                           : 0.0;
  const double cache_lookups = final_stats.memory_hits + final_stats.misses;
  {
    b2h::bench::JsonWriter json("serve");
    json.Record("serve_throughput_rps", throughput, "req/s");
    json.Record("serve_warm_p50_ms", Percentile(warm_latencies_ms, 0.50),
                "ms");
    json.Record("serve_warm_p99_ms", Percentile(warm_latencies_ms, 0.99),
                "ms");
    json.Record("serve_cold_p50_ms", Percentile(cold_latencies_ms, 0.50),
                "ms");
    json.Record("serve_warm_simulations", warm_simulations, "count");
    json.Record("serve_warm_decompilations", warm_decompilations, "count");
    json.Record("serve_extra_partitions", extra_partitions, "count");
    json.Record("serve_burst_executed", burst_executed, "count");
    json.Record("serve_burst_partitions", burst_partitions, "count");
    json.Record("serve_report_identical", reports_identical ? 1.0 : 0.0,
                "bool");
    json.Record("serve_metrics_ok", metrics_ok ? 1.0 : 0.0, "bool");
    if (http_enabled) {
      json.Record("serve_http_identical", http_identical ? 1.0 : 0.0, "bool");
    }
    json.Record("serve_coalesced_total", final_stats.coalesced, "count");
    json.Record("serve_client_coalesced",
                static_cast<double>(client_coalesced.load()), "count");
    json.Record("serve_cache_memory_pct",
                cache_lookups > 0.0
                    ? 100.0 * final_stats.memory_hits / cache_lookups
                    : 0.0,
                "%");
    if (spawn) json.Record("serve_shutdown_clean", shutdown_clean, "bool");
  }

  std::printf(
      "throughput %.0f req/s, warm p50 %.2f ms, p99 %.2f ms\n"
      "warm work: %.0f simulations, %.0f decompilations, "
      "%.0f extra partitions\n"
      "coalesced %.0f (server) / %zu (client-visible), burst executed %.0f\n",
      throughput, Percentile(warm_latencies_ms, 0.50),
      Percentile(warm_latencies_ms, 0.99), warm_simulations,
      warm_decompilations, extra_partitions, final_stats.coalesced,
      client_coalesced.load(), burst_executed);

  bool failed = false;
  const auto gate = [&](const char* name, bool ok) {
    std::printf("gate %-26s %s\n", name, ok ? "ok" : "FAIL");
    if (!ok) failed = true;
  };
  gate("serve_warm_simulations==0", warm_simulations == 0.0);
  gate("serve_warm_decompilations==0", warm_decompilations == 0.0);
  gate("serve_extra_partitions==0", extra_partitions == 0.0);
  gate("serve_burst_partitions==1", burst_partitions == 1.0);
  gate("serve_report_identical==1", reports_identical);
  gate("serve_metrics_ok==1", metrics_ok);
  if (http_enabled) gate("serve_http_identical==1", http_identical);
  if (spawn) gate("serve_shutdown_clean==1", shutdown_clean == 1.0);
  if (!options.trace_out.empty() &&
      b2h::obs::Tracer::Global().WriteChromeTrace(options.trace_out)) {
    std::printf("trace written to %s\n", options.trace_out.c_str());
  }
  return failed ? 1 : 0;
}
