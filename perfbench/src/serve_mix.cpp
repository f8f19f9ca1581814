// serve_mix: a spawned b2h-serve (default 2 workers, disk tier in a fresh
// private dir) driven in a closed loop by kClients connections, because its
// callers (sweep drivers, CI) each wait for their reply.  The mix is mostly
// warm repeats of a seeded key set, a seeded share of cold points (new
// annealing seeds on already-decompiled binaries) and one first touch of
// each remaining suite binary, spread over the run.  After the loop every
// served report is recomputed in-process and compared byte for byte.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "drive.hpp"
#include "minicc/codegen.hpp"
#include "mips/shared_cache.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/schema.hpp"

namespace perfbench {
namespace {

using namespace b2h;
using support::JsonValue;

// The proportions of the mix are placeholders: no record of the daemon's
// real traffic exists to take them from.  README.md lists them and compares
// them with b2h-loadgen's mix.
constexpr unsigned kClients = 3;
/// Cold points are due at a fixed rate, so the compute they put on the
/// workers does not grow with warm throughput.
constexpr double kColdPerSecond = 30.0;
/// Explore keys in the warm key set; warm repeats draw every key, partition
/// or explore, with equal chance.
constexpr std::size_t kExploreKeys = 8;
/// The reference point of every binary: its first touch, and the first
/// warm key of each warm binary.  app_speedup.geomean is taken over these.
const char* const kReferencePlatform = "mips200-xc2v1000";
/// Cold points recomputed in-process after the loop (a seeded sample).
constexpr std::size_t kColdChecks = 32;
constexpr int kSetupRepeats = 5;
constexpr int kTimeoutMs = 60'000;
/// Client spans are recorded for one request in this many (traced run).
constexpr std::uint32_t kTracedEvery = 8;
/// In-process warm repeats per key for serve.overhead_ms.
constexpr int kInProcessRepeats = 5;

const std::vector<std::string>& PaperPlatforms() {
  static const std::vector<std::string> names = {"mips40", "mips200-xc2v1000",
                                                 "mips400"};
  return names;
}

constexpr partition::Objective kObjectives[] = {
    partition::Objective::kSpeedup, partition::Objective::kEnergy,
    partition::Objective::kEnergyDelay};

enum Class { kWarm, kCold, kFirstTouch, kClasses };
const char* const kClassNames[kClasses] = {"warm", "cold", "first_touch"};

/// One request of the mix.  A partition request names one binary, platform,
/// strategy and objective; an explore request names several binaries of
/// one optimization level.
struct Request {
  bool explore = false;
  std::vector<const PoolBinary*> binaries;
  std::vector<std::string> platforms;
  std::vector<std::string> strategies;
  std::vector<partition::Objective> objectives;
  std::uint64_t seed = 1;

  [[nodiscard]] std::string Payload() const {
    std::ostringstream out;
    const auto list = [&out](const std::vector<std::string>& items) {
      out << "[";
      for (std::size_t i = 0; i < items.size(); ++i) {
        out << (i == 0 ? "\"" : ",\"") << support::JsonEscape(items[i])
            << "\"";
      }
      out << "]";
    };
    std::vector<std::string> names, objectives;
    for (const PoolBinary* binary : binaries) names.push_back(binary->bench->name);
    for (partition::Objective o : this->objectives) {
      objectives.emplace_back(partition::ObjectiveName(o));
    }
    out << "{\"schema\":" << kWireSchemaVersion;
    if (explore) {
      out << ",\"kind\":\"explore\",\"benchmarks\":";
      list(names);
      out << ",\"platforms\":";
      list(platforms);
      out << ",\"strategies\":";
      list(strategies);
      out << ",\"objectives\":";
      list(objectives);
    } else {
      out << ",\"kind\":\"partition\",\"benchmark\":\"" << names[0]
          << "\",\"platform\":\"" << platforms[0] << "\",\"strategy\":\""
          << strategies[0] << "\",\"objective\":\"" << objectives[0] << "\"";
    }
    out << ",\"opt_level\":" << binaries[0]->opt_level << ",\"seed\":" << seed
        << "}";
    return out.str();
  }

  /// The same request as an in-process sweep; the daemon names each binary
  /// by its suite program.
  [[nodiscard]] explore::ExploreSpec Spec() const {
    explore::ExploreSpec spec;
    for (const PoolBinary* binary : binaries) {
      spec.binaries.push_back({binary->bench->name, binary->binary});
    }
    spec.platforms = platforms;
    spec.strategies = strategies;
    spec.objectives = objectives;
    spec.strategy_options.seed = seed;
    return spec;
  }

  [[nodiscard]] std::string Label() const {
    std::string label = explore ? "explore" : "partition";
    for (const PoolBinary* binary : binaries) label.append(" ").append(binary->name);
    for (const std::string& p : platforms) label.append(" ").append(p);
    for (const std::string& s : strategies) label.append(" ").append(s);
    for (partition::Objective o : objectives) {
      label.append(" ").append(partition::ObjectiveName(o));
    }
    return label.append(" seed=").append(std::to_string(seed));
  }
};

// Byte markers of serve::OkResponse, which emits "ok", "report" and
// "served" adjacently, in that order.
constexpr char kOkReport[] = "\"ok\":true,\"report\":";
constexpr char kCoalesced[] = "\"served\":{\"coalesced\":true";

/// The deterministic "report" slice of a reply.
std::string ReportSlice(const std::string& response) {
  const std::string report_tag = "\"report\":";
  const std::string served_tag = ",\"served\":";
  const std::size_t begin = response.find(report_tag);
  const std::size_t end = response.rfind(served_tag);
  if (begin == std::string::npos || end == std::string::npos || end <= begin) {
    return "";
  }
  const std::size_t start = begin + report_tag.size();
  return response.substr(start, end - start);
}

/// The error code of a failed call: the reply's error.code, or "transport"
/// when no reply arrived.
std::string ErrorCode(const Status& status, const std::string& response) {
  const std::optional<JsonValue> parsed =
      status.ok() ? JsonValue::Parse(response) : std::nullopt;
  const JsonValue* error = parsed ? parsed->Find("error") : nullptr;
  return error ? error->GetString("code") : "transport";
}

/// Failed requests by error code.
using ErrorCounts = std::map<std::string, std::size_t>;

// ------------------------------------------------------------------ daemon

/// A spawned b2h-serve with a fresh private cache dir.  The destructor
/// kills and reaps a daemon that did not shut down cleanly.
class Daemon {
 public:
  Daemon(const Args& args, int index) {
    const std::string tag = std::to_string(::getpid()) + "-" +
                            std::to_string(index);
    socket_ = args.run_dir + "/serve-" + tag + ".sock";
    cache_dir_ = args.run_dir + "/serve-cache-" + tag;
    log_ = args.run_dir + "/serve-" + tag + ".log";
    std::filesystem::remove_all(cache_dir_);
    std::fflush(stdout);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive a benchmark that is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      const char* argv[] = {args.serve_bin.c_str(), "--socket",
                            socket_.c_str(),        "--cache-dir",
                            cache_dir_.c_str(),     nullptr};
      ::execv(args.serve_bin.c_str(), const_cast<char* const*>(argv));
      std::_Exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, nullptr, 0);
    }
    std::error_code ignored;
    std::filesystem::remove_all(cache_dir_, ignored);
    std::filesystem::remove(socket_, ignored);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// A connection that answered a ping; throws when the daemon never came up.
  [[nodiscard]] serve::Client Connect() {
    const obs::Stopwatch waited;
    while (waited.Seconds() < 30.0) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("b2h-serve exited during start-up");
      }
      auto client = serve::Client::Connect(socket_);
      if (client.ok()) {
        std::string response;
        if (client.value()
                .Call("{\"schema\":1,\"kind\":\"ping\"}", &response,
                      kTimeoutMs)
                .ok()) {
          return std::move(client).take();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("b2h-serve did not answer within 30 s");
  }

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Sends a control request (stats, shutdown) and returns its reply.  A
  /// failed call counts in `errors` and is retried once on a new
  /// connection, as a caller would.
  std::string Control(serve::Client& control, const char* payload,
                      ErrorCounts& errors) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      std::string response;
      const Status status = control.Call(payload, &response, kTimeoutMs);
      if (status.ok() && response.find("\"ok\":true") != std::string::npos) {
        return response;
      }
      ++errors[ErrorCode(status, response)];
      control = Connect();
    }
    throw std::runtime_error(std::string("b2h-serve refused ") + payload);
  }

  /// Sends `shutdown` and reaps the process; false when it did not exit 0.
  bool Shutdown(serve::Client& control, ErrorCounts& errors) {
    (void)Control(control, "{\"schema\":1,\"kind\":\"shutdown\"}", errors);
    int status = 0;
    const obs::Stopwatch waited;
    while (waited.Seconds() < 30.0) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (clean) std::filesystem::remove(log_);  // kept for a failure
        return clean;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
  std::string cache_dir_;
  std::string log_;
};

/// Cache and candidate-pool counters from the daemon's `stats` reply.
struct DaemonStats {
  double cache_hits = 0, cache_lookups = 0, pool_hits = 0, pool_lookups = 0;
};

DaemonStats FetchStats(Daemon& daemon, serve::Client& control,
                       ErrorCounts& errors) {
  const std::string response = daemon.Control(
      control, "{\"schema\":1,\"kind\":\"stats\"}", errors);
  const std::optional<JsonValue> parsed = JsonValue::Parse(response);
  const JsonValue* served = parsed ? parsed->Find("served") : nullptr;
  const JsonValue* cache = served ? served->Find("cache") : nullptr;
  const JsonValue* pool = served ? served->Find("candidate_pool") : nullptr;
  if (cache == nullptr || pool == nullptr) {
    throw std::runtime_error("b2h-serve stats reply lacks cache counters");
  }
  DaemonStats stats;
  stats.cache_hits = cache->GetNumber("memory_hits") +
                     cache->GetNumber("disk_hits");
  stats.cache_lookups = stats.cache_hits + cache->GetNumber("misses");
  stats.pool_hits = pool->GetNumber("hits");
  stats.pool_lookups = stats.pool_hits + pool->GetNumber("scans");
  return stats;
}

// --------------------------------------------------------------- the mix

/// Seeded inputs: the warm key set, the order of first touches and the
/// cold points.  The daemon only compiles suite programs at O0-O3, and the
/// jump-table programs would answer every request with a flow failure, so
/// the serve pool is the 18 working programs at O0-O3.  The -O1 builds the
/// paper evaluated are warm: 18 binaries, more than the daemon's 16-entry
/// candidate pool, so cold points also meet pool misses.  The other 54
/// binaries are first touched during the run.  Which binaries are warm is
/// fixed, so a seed changes the draw but not the mix's composition.
struct Mix {
  std::vector<const PoolBinary*> warm_binaries;
  std::vector<const PoolBinary*> first_touch;
  std::vector<Request> warm_keys;
};

Request ReferenceRequest(const PoolBinary* binary) {
  Request request;
  request.binaries = {binary};
  request.platforms = {kReferencePlatform};
  request.strategies = {"paper-greedy"};
  request.objectives = {partition::Objective::kSpeedup};
  return request;
}

Mix DrawMix(const Pool& pool, std::uint64_t seed) {
  constexpr int kWarmLevel = 1;
  Mix mix;
  for (const PoolBinary& entry : pool.binaries) {
    const bool compiled_default =
        entry.opt_level >= 0 &&
        (entry.opt_level < 3 ||
         entry.unroll == minicc::CompileOptions{}.unroll_factor);
    if (!compiled_default || entry.bench->expect_cdfg_failure) continue;
    (entry.opt_level == kWarmLevel ? mix.warm_binaries : mix.first_touch)
        .push_back(&entry);
  }
  Rng rng(seed);
  rng.Shuffle(mix.first_touch);

  // Per warm binary: its reference point, one knapsack and one annealing
  // key on a seeded platform and objective.
  for (const PoolBinary* binary : mix.warm_binaries) {
    mix.warm_keys.push_back(ReferenceRequest(binary));
    for (const char* strategy : {"knapsack-optimal", "annealing"}) {
      Request request;
      request.binaries = {binary};
      request.platforms = {PaperPlatforms()[rng.Below(3)]};
      request.strategies = {strategy};
      request.objectives = {kObjectives[rng.Below(3)]};
      mix.warm_keys.push_back(std::move(request));
    }
  }
  // Small explores: two warm binaries of one level, two platforms, greedy
  // plus one search strategy.
  std::map<int, std::vector<const PoolBinary*>> by_level;
  for (const PoolBinary* binary : mix.warm_binaries) {
    by_level[binary->opt_level].push_back(binary);
  }
  std::vector<int> levels;
  for (const auto& [level, binaries] : by_level) {
    if (binaries.size() >= 2) levels.push_back(level);
  }
  std::set<std::string> payloads;
  while (payloads.size() < kExploreKeys) {
    std::vector<const PoolBinary*> binaries =
        by_level[levels[rng.Below(levels.size())]];
    rng.Shuffle(binaries);
    std::vector<std::string> platforms = PaperPlatforms();
    rng.Shuffle(platforms);
    Request request;
    request.explore = true;
    request.binaries = {binaries[0], binaries[1]};
    request.platforms = {platforms[0], platforms[1]};
    request.strategies = {"paper-greedy",
                          rng.Below(2) == 0 ? "knapsack-optimal" : "annealing"};
    request.objectives = {partition::Objective::kSpeedup};
    if (payloads.insert(request.Payload()).second) {
      mix.warm_keys.push_back(std::move(request));
    }
  }
  return mix;
}

/// Sends every warm key once and returns the baseline reports.
std::vector<std::string> Prewarm(serve::Client& client, const Mix& mix) {
  std::vector<std::string> baselines;
  for (const Request& request : mix.warm_keys) {
    std::string response;
    if (!client.Call(request.Payload(), &response, kTimeoutMs).ok()) {
      throw std::runtime_error("prewarm call failed: " + request.Label());
    }
    const std::optional<JsonValue> parsed = JsonValue::Parse(response);
    if (!parsed || !parsed->GetBool("ok", false)) {
      throw std::runtime_error("prewarm failed: " + request.Label() + ": " +
                               response);
    }
    baselines.push_back(ReportSlice(response));
  }
  return baselines;
}

/// Latencies bucketed into one-second windows of the run.  Requests take a
/// few hops between threads, so a transient stall of the shared host slows
/// whole windows; the median over windows reads through such stalls.
class Windowed {
 public:
  void Add(std::size_t window, double ms) {
    if (window >= windows_.size()) windows_.resize(window + 1);
    windows_[window].Add(ms);
    pooled_.Add(ms);
  }
  void Append(const Windowed& other) {
    if (other.windows_.size() > windows_.size()) {
      windows_.resize(other.windows_.size());
    }
    for (std::size_t w = 0; w < other.windows_.size(); ++w) {
      windows_[w].Append(other.windows_[w]);
    }
    pooled_.Append(other.pooled_);
  }
  [[nodiscard]] std::size_t size() const { return pooled_.size(); }
  [[nodiscard]] const Samples& pooled() const { return pooled_; }
  /// Median over the first `windows` windows of each window's q-quantile.
  [[nodiscard]] double Quantile(double q, std::size_t windows) const {
    Samples per_window;
    for (std::size_t w = 0; w < std::min(windows, windows_.size()); ++w) {
      if (windows_[w].size() >= kMinWindowSamples) {
        per_window.Add(windows_[w].Quantile(q));
      }
    }
    return per_window.Quantile(0.5);
  }
  /// Median over the first `windows` windows of requests completed per second.
  [[nodiscard]] double MedianRate(std::size_t windows) const {
    Samples per_window;
    for (std::size_t w = 0; w < windows; ++w) {
      per_window.Add(w < windows_.size()
                         ? static_cast<double>(windows_[w].size())
                         : 0.0);
    }
    return per_window.Quantile(0.5);
  }

 private:
  static constexpr std::size_t kMinWindowSamples = 10;
  std::vector<Samples> windows_;
  Samples pooled_;
};

/// A computed (cold or first-touch) reply, kept for the in-process check.
struct Reply {
  Class kind = kCold;
  Request request;
  std::string report;
};

/// What one client connection measured.
struct ClientLog {
  Windowed latency[kClasses];
  Windowed all;
  Samples traced;    ///< requests with client spans recording
  Samples untraced;  ///< ... and without
  std::size_t requests = 0;
  std::size_t first_touches = 0;  ///< issued, answered or not
  std::size_t coalesced = 0;
  ErrorCounts errors;                         ///< failed requests by code
  std::size_t mismatches = 0;                 ///< wrong reports
  std::vector<std::string> failures;          ///< the first few, described
  std::vector<Reply> replies;
  SpanRecorder spans{false};

  void Note(std::string what) {
    if (failures.size() < 5) failures.push_back(std::move(what));
  }
};

/// Requests due at evenly spaced times; the first client to ask after one
/// is due takes it.
class Schedule {
 public:
  Schedule(std::size_t count, double interval_s)
      : count_(count), interval_s_(interval_s) {}
  /// Claims the next due request; false when none is due yet.
  bool Claim(double elapsed_s, std::size_t* index) {
    std::size_t next = next_.load();
    while (next < count_ &&
           elapsed_s >= static_cast<double>(next) * interval_s_) {
      if (next_.compare_exchange_weak(next, next + 1)) {
        *index = next;
        return true;
      }
    }
    return false;
  }

 private:
  std::size_t count_;
  double interval_s_;
  std::atomic<std::size_t> next_{0};
};

struct LoopShared {
  const std::string& socket;
  const Mix& mix;
  const std::vector<std::string>& baselines;
  double seconds;
  bool trace;
  std::uint64_t cold_seed_base;
  std::uint64_t start_ns = 0;
  Schedule first_touches;
  Schedule cold_points;
};

void RunClient(LoopShared& shared, serve::Client& client, unsigned index,
               std::uint64_t seed, ClientLog& log) {
  Rng rng(seed * 1000 + index + 1);
  const Mix& mix = shared.mix;
  std::string response;
  for (std::uint32_t n = 0;; ++n) {
    const double elapsed =
        static_cast<double>(NowNs() - shared.start_ns) / 1e9;
    if (elapsed >= shared.seconds) break;
    Class kind = kWarm;
    const Request* request = nullptr;
    Request cold;
    std::size_t key = 0;
    std::size_t due = 0;
    if (shared.first_touches.Claim(elapsed, &due)) {
      kind = kFirstTouch;
      cold = ReferenceRequest(mix.first_touch[due]);
      request = &cold;
    } else if (shared.cold_points.Claim(elapsed, &due)) {
      // A new annealing seed on an already-decompiled binary.
      kind = kCold;
      cold.binaries = {mix.warm_binaries[rng.Below(mix.warm_binaries.size())]};
      cold.platforms = {PaperPlatforms()[rng.Below(3)]};
      cold.strategies = {"annealing"};
      cold.objectives = {kObjectives[rng.Below(3)]};
      cold.seed = shared.cold_seed_base + due;
      request = &cold;
    } else {
      key = rng.Below(mix.warm_keys.size());
      request = &mix.warm_keys[key];
    }
    const std::string payload = request->Payload();

    // One request in kTracedEvery records client spans; the rest are the
    // untraced side of obs.trace_overhead_pct.
    const bool traced = shared.trace && n % kTracedEvery == 0;
    log.spans.set_enabled(traced);
    log.spans.set_op(n + 1);
    double ms = 0.0;
    {
      SpanRecorder::Scope root(log.spans, std::string("serve.") +
                                              kClassNames[kind]);
      const std::uint64_t sent = NowNs();
      Status status;
      {
        SpanRecorder::Scope span(log.spans, "client.send");
        status = client.Send(payload);
      }
      if (status.ok()) {
        SpanRecorder::Scope span(log.spans, "client.wait");
        status = client.Receive(&response, kTimeoutMs);
      }
      ms = static_cast<double>(NowNs() - sent) / 1e6;
      SpanRecorder::Scope span(log.spans, "client.check");
      ++log.requests;
      if (kind == kFirstTouch) ++log.first_touches;
      // Success replies are checked by their bytes, which keeps the client
      // light; only an error reply is parsed, for its code.
      if (!status.ok() || response.find(kOkReport) == std::string::npos) {
        const std::string code = ErrorCode(status, response);
        ++log.errors[code];
        log.Note(request->Label() + ": " + code);
        if (!status.ok()) {
          // The daemon dropped the connection: open a new one, as a caller
          // would, and go on.
          auto reconnected = serve::Client::Connect(shared.socket);
          if (!reconnected.ok()) break;
          client = std::move(reconnected).take();
        }
        continue;
      }
      if (response.find(kCoalesced) != std::string::npos) ++log.coalesced;
      std::string report = ReportSlice(response);
      if (kind != kWarm) {
        log.replies.push_back({kind, *request, std::move(report)});
      } else if (report != shared.baselines[key]) {
        ++log.mismatches;
        log.Note(request->Label() + ": warm report differs from its first");
      }
    }
    const auto window = static_cast<std::size_t>(
        static_cast<double>(NowNs() - shared.start_ns) / 1e9);
    log.latency[kind].Add(window, ms);
    log.all.Add(window, ms);
    (traced ? log.traced : log.untraced).Add(ms);
  }
}

/// A client thread's body: nothing may escape it, or the process would end
/// with the daemon still running.
void ClientLoop(LoopShared& shared, serve::Client client, unsigned index,
                std::uint64_t seed, ClientLog& log) {
  try {
    RunClient(shared, client, index, seed, log);
  } catch (const std::exception& e) {
    ++log.errors["client-exception"];
    log.Note(std::string("client ") + std::to_string(index) + ": " + e.what());
  }
}

}  // namespace

Outcome RunServeMix(const Args& args) {
  Outcome outcome;
  // ---- set-up, repeated: pool, daemon start, prewarm of the warm keys ----
  Pool pool;
  Mix mix;
  std::vector<std::string> baselines;
  std::unique_ptr<Daemon> daemon;
  serve::Client control;
  ErrorCounts control_errors;  // stats and shutdown calls that failed
  Samples setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon != nullptr && !daemon->Shutdown(control, control_errors)) {
      throw std::runtime_error("b2h-serve did not shut down cleanly");
    }
    daemon.reset();
    const obs::Stopwatch watch;
    pool = BuildPool();
    mix = DrawMix(pool, args.seed);
    daemon = std::make_unique<Daemon>(args, rep);
    control = daemon->Connect();
    baselines = Prewarm(control, mix);
    setup_s.Add(watch.Seconds());
  }
  std::printf("serve pool: %zu warm binaries, %zu first touches, %zu warm "
              "keys, %u clients, %.0f cold points/s\n",
              mix.warm_binaries.size(), mix.first_touch.size(),
              mix.warm_keys.size(), kClients, kColdPerSecond);
  std::printf("warm binaries:");
  for (const PoolBinary* b : mix.warm_binaries) std::printf(" %s", b->name.c_str());
  std::printf("\nfirst touches (in order):");
  for (const PoolBinary* b : mix.first_touch) std::printf(" %s", b->name.c_str());
  std::printf("\n");
  for (const Request& request : mix.warm_keys) {
    std::printf("warm key: %s\n", request.Label().c_str());
  }

  // ---- the closed loop ---------------------------------------------------
  const DaemonStats before = FetchStats(*daemon, control, control_errors);
  LoopShared shared{
      daemon->socket(),
      mix,
      baselines,
      args.seconds,
      args.trace,
      1000 + args.seed * 1'000'000,
      0,
      Schedule(mix.first_touch.size(),
               args.seconds / static_cast<double>(mix.first_touch.size())),
      Schedule(static_cast<std::size_t>(args.seconds * kColdPerSecond),
               1.0 / kColdPerSecond)};
  std::vector<ClientLog> logs(kClients);
  std::vector<serve::Client> clients;
  for (unsigned c = 0; c < kClients; ++c) clients.push_back(daemon->Connect());
  shared.start_ns = NowNs();
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back(ClientLoop, std::ref(shared), std::move(clients[c]),
                           c, args.seed, std::ref(logs[c]));
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double measured_s =
      static_cast<double>(NowNs() - shared.start_ns) / 1e9;
  const DaemonStats after = FetchStats(*daemon, control, control_errors);
  const double daemon_rss_mb = PeakRssMb(daemon->pid());
  if (!daemon->Shutdown(control, control_errors)) {
    outcome.Fail("b2h-serve did not shut down cleanly");
  }
  daemon.reset();

  ClientLog total;
  total.errors = control_errors;
  // Whole one-second windows of the measured run.
  const auto windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds));
  for (ClientLog& log : logs) {
    for (int k = 0; k < kClasses; ++k) total.latency[k].Append(log.latency[k]);
    total.all.Append(log.all);
    total.traced.Append(log.traced);
    total.untraced.Append(log.untraced);
    total.requests += log.requests;
    total.coalesced += log.coalesced;
    for (const auto& [code, count] : log.errors) total.errors[code] += count;
    total.first_touches += log.first_touches;
    outcome.failed += log.mismatches;
    outcome.wrong += log.mismatches;
    for (std::string& failure : log.failures) {
      outcome.failures.push_back(std::move(failure));
    }
    for (Reply& reply : log.replies) total.replies.push_back(std::move(reply));
    total.spans.Merge(log.spans);
  }
  outcome.attempted = total.requests;
  // Error replies fail their request; they are counted, not wrong output.
  std::size_t error_count = 0;
  for (const auto& [code, count] : total.errors) {
    std::printf("serve error %s: %zu\n", code.c_str(), count);
    error_count += count;
  }
  outcome.failed += error_count;
  const std::size_t first_touches = total.latency[kFirstTouch].size();
  if (total.first_touches != mix.first_touch.size()) {
    outcome.Error("only " + std::to_string(total.first_touches) + " of " +
                  std::to_string(mix.first_touch.size()) +
                  " first touches were issued");
  }
  std::printf("measured %.2f s, %zu requests (%zu warm, %zu cold, %zu first "
              "touch)\n",
              measured_s, total.requests, total.latency[kWarm].size(),
              total.latency[kCold].size(), first_touches);

  // ---- every served report against the in-process flow ------------------
  // Checked: each warm key's baseline, every first touch, and a seeded
  // sample of cold points.  Partition reports come from the layer drive,
  // explore reports from an in-process Toolchain::Explore.
  std::vector<Reply> checks;
  for (std::size_t k = 0; k < mix.warm_keys.size(); ++k) {
    checks.push_back({kWarm, mix.warm_keys[k], baselines[k]});
  }
  std::vector<Reply> cold_sample;
  for (Reply& reply : total.replies) {
    (reply.kind == kFirstTouch ? checks : cold_sample)
        .push_back(std::move(reply));
  }
  Rng sample_rng(args.seed);
  sample_rng.Shuffle(cold_sample);
  if (cold_sample.size() > kColdChecks) cold_sample.resize(kColdChecks);
  for (auto& entry : cold_sample) checks.push_back(std::move(entry));

  SpanRecorder drive_spans(args.trace);
  LayerTally tally;
  Samples find_ms, self_ms, render_ms, in_process_warm;
  double explore_path_ms = 0.0, layer_path_ms = 0.0;
  const auto in_process = FreshToolchain(1);
  for (const auto& [kind, request, report] : checks) {
    if (request.explore) {
      if (in_process->Explore(request.Spec()).Json() != report) {
        outcome.Fail(request.Label() + ": served report differs in-process");
      }
      continue;
    }
    const PoolBinary& entry = *request.binaries[0];
    const Axes axes = ResolveAxes(request.platforms, request.strategies,
                                  request.objectives, request.seed);
    mips::SharedBlockCache::Global().Clear();
    drive_spans.set_op(static_cast<std::uint32_t>(tally.ops + 1));
    const Drive drive = RunDrive(entry, axes, drive_spans);
    tally.Count(drive);
    std::string error = CheckReturn(entry, drive.run);
    if (error.empty() && (drive.jobs.empty() ||
                          PartitionReport(entry.bench->name,
                                          request.platforms[0], drive,
                                          drive.jobs.front()) != report)) {
      error = request.Label() + ": served report differs in-process";
    }
    if (!error.empty()) outcome.Fail(error);
    if (!args.trace) continue;
    TimeCacheFinds(drive, request.Label(), *in_process->artifact_cache(),
                   find_ms);
    if (kind == kFirstTouch) {
      // explore.self_ms: the Explore path of the same first touch, cold.
      ProbeStrategies(drive, axes, drive_spans);
      mips::SharedBlockCache::Global().Clear();
      const ExploreOp path = RunExplore(*FreshToolchain(1), request.Spec());
      self_ms.Add(path.ms - drive.layer_ms - path.render_ms);
      explore_path_ms += path.ms;
      layer_path_ms += drive.layer_ms + path.render_ms;
    }
  }
  std::printf("checked %zu served reports in-process\n", checks.size());

  if (!args.trace) {
    outcome.Add("setup_s", setup_s.Quantile(0.5), "s", setup_s.size());
    outcome.Add("latency_ms.p50", total.all.Quantile(0.5, windows), "ms",
                total.all.size());
    outcome.Add("latency_ms.p90", total.all.Quantile(0.9, windows), "ms",
                total.all.size());
    outcome.Add("ops_per_s", total.all.MedianRate(windows), "1/s",
                total.all.size());
    outcome.Add("failed_ratio",
                static_cast<double>(outcome.failed) /
                    static_cast<double>(std::max<std::size_t>(1,
                                                              total.requests)),
                "ratio", total.requests);
    outcome.Add("peak_rss_mb", daemon_rss_mb, "MiB", 1);
    // Served speedups at every binary's reference point.
    double log_speedup = 0.0;
    std::size_t speedups = 0;
    for (const Reply& reply : checks) {
      if (reply.request.explore ||
          reply.request.strategies[0] != "paper-greedy") {
        continue;
      }
      const std::optional<JsonValue> parsed = JsonValue::Parse(reply.report);
      const double speedup = parsed ? parsed->GetNumber("speedup", 0.0) : 0.0;
      if (speedup > 0.0) {
        log_speedup += std::log(speedup);
        ++speedups;
      }
    }
    outcome.Add("app_speedup.geomean",
                std::exp(log_speedup / static_cast<double>(
                                           std::max<std::size_t>(1, speedups))),
                "x", speedups);
    outcome.Add("warm_ms.p50", total.latency[kWarm].Quantile(0.5, windows),
                "ms", total.latency[kWarm].size());
    outcome.Add("warm_ms.p90", total.latency[kWarm].Quantile(0.9, windows),
                "ms", total.latency[kWarm].size());
    outcome.Add("cold_ms.p50", total.latency[kCold].Quantile(0.5, windows),
                "ms", total.latency[kCold].size());
    outcome.Add("cold_ms.p90", total.latency[kCold].Quantile(0.9, windows),
                "ms", total.latency[kCold].size());
    // Too few per window for a per-window statistic: pooled over the run.
    // The tail is p80, the highest percentile with ten of the 54 first
    // touches beyond it.
    outcome.Add("first_touch_ms.p50",
                total.latency[kFirstTouch].pooled().Quantile(0.5),
                "ms", first_touches);
    outcome.Add("first_touch_ms.p80",
                total.latency[kFirstTouch].pooled().Quantile(0.8),
                "ms", first_touches);
    return outcome;
  }

  // ---- per-layer metrics -------------------------------------------------
  // serve.overhead_ms: a served warm request minus the in-process warm
  // Explore + Json() of the same request, over the same key distribution.
  for (const Request& request : mix.warm_keys) {
    const explore::ExploreSpec spec = request.Spec();
    (void)in_process->Explore(spec);
    for (int rep = 0; rep < kInProcessRepeats; ++rep) {
      const ExploreOp warm = RunExplore(*in_process, spec);
      in_process_warm.Add(warm.ms);
      render_ms.Add(warm.render_ms);
    }
  }
  const double served_warm = total.latency[kWarm].Quantile(0.5, windows);
  const double local_warm = in_process_warm.Quantile(0.5);

  SpanRecorder all_spans(false);
  all_spans.Merge(total.spans);
  all_spans.Merge(drive_spans);
  PrintLedger(all_spans.spans());
  AddLayerMetrics(drive_spans.spans(), tally, outcome);
  outcome.Add("explore.parallel_efficiency", 1.0, "ratio", 0);
  outcome.Add("explore.self_ms", self_ms.Mean(), "ms", self_ms.size());
  outcome.Add("explore.render_ms", render_ms.Mean(), "ms", render_ms.size());
  outcome.Add("explore.cache.find_ms", find_ms.Mean(), "ms", find_ms.size());
  outcome.Add("explore.cache.hit_ratio",
              (after.cache_hits - before.cache_hits) /
                  std::max(1.0, after.cache_lookups - before.cache_lookups),
              "ratio",
              static_cast<std::size_t>(after.cache_lookups -
                                       before.cache_lookups));
  outcome.Add("explore.pool.hit_ratio",
              (after.pool_hits - before.pool_hits) /
                  std::max(1.0, after.pool_lookups - before.pool_lookups),
              "ratio",
              static_cast<std::size_t>(after.pool_lookups -
                                       before.pool_lookups));
  outcome.Add("serve.overhead_ms", served_warm - local_warm, "ms",
              total.latency[kWarm].size());
  outcome.Add("serve.coalesced_ratio",
              static_cast<double>(total.coalesced) /
                  static_cast<double>(std::max<std::size_t>(1,
                                                            total.requests)),
              "ratio", total.requests);
  outcome.Add("serve.errors", static_cast<double>(error_count), "count",
              total.requests);
  Samples compile;
  for (double ms : pool.compile_ms) compile.Add(ms);
  outcome.Add("minicc.compile_ms", compile.Mean(), "ms", compile.size());
  outcome.Add("ledger.attributed_pct", 100.0 * local_warm / served_warm, "%",
              in_process_warm.size());
  outcome.Add("obs.trace_overhead_pct",
              100.0 * (total.traced.Quantile(0.5) /
                           total.untraced.Quantile(0.5) -
                       1.0),
              "%", total.traced.size());
  std::printf("layer share of a cold first touch (Explore path): %.2f%%\n",
              explore_path_ms > 0.0 ? 100.0 * layer_path_ms / explore_path_ms
                                    : 0.0);
  WriteSpans(all_spans.spans(), args);
  return outcome;
}

}  // namespace perfbench
