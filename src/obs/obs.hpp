// Unified observability layer: a process-wide metrics registry plus a
// structured-span tracer, shared by every subsystem (decomp passes, explore
// stages, the artifact cache, the dynamic partitioner, the simulator, and
// the serve daemon).
//
// Two components with two different cost contracts:
//
//   * obs::Registry — counters, gauges, and fixed-bucket histograms.
//     Always on.  The write path is lock-free (striped relaxed atomics,
//     one cache line per stripe) so increments are safe inside the
//     simulator and scheduler hot paths.  Lookup by name takes a mutex;
//     hot callers resolve their instrument once and keep the reference
//     (instruments are never destroyed, so references stay valid for the
//     process lifetime).
//
//   * obs::Tracer — bounded in-memory ring of completed spans (name,
//     category, start/duration, thread, parent, key=value args), exported
//     as Chrome trace-event JSON that Perfetto (ui.perfetto.dev) loads
//     directly.  Off by default: a disabled ScopedSpan reads one relaxed
//     atomic and touches nothing else — no clock reads, no allocation
//     (verified by tests/test_obs.cpp and the BENCH_obs overhead gate).
//
// obs::Stopwatch is the repo-wide replacement for hand-rolled
// steady_clock/duration_cast timing (pass manager, explorer, dynamic
// partitioner all use it now).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace b2h::obs {

/// Schema version stamped into Registry::SnapshotJson() (and therefore the
/// b2h-serve `metrics` response body).  Bump on any field change.
inline constexpr int kMetricsSchemaVersion = 1;

// ---------------------------------------------------------------- Stopwatch

/// Monotonic wall-clock stopwatch: starts at construction, reports elapsed
/// time without the steady_clock/duration_cast boilerplate it replaces.
class Stopwatch {
 public:
  Stopwatch() : start_(Now()) {}

  void Reset() { start_ = Now(); }
  [[nodiscard]] double Millis() const {
    return static_cast<double>(Now() - start_) / 1e6;
  }
  [[nodiscard]] double Seconds() const {
    return static_cast<double>(Now() - start_) / 1e9;
  }

  /// Monotonic nanoseconds since an arbitrary (process-stable) epoch.
  static std::uint64_t Now() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::uint64_t start_;
};

// ----------------------------------------------------------------- metrics

/// Monotonic counter.  Increments are striped across cache-line-sized slots
/// indexed by thread so concurrent hot-path writers never contend on one
/// atomic; Value() sums the stripes (exact: each Add lands in exactly one
/// stripe).
class Counter {
 public:
  void Add(std::uint64_t n = 1) noexcept {
    stripes_[StripeIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() noexcept {
    for (auto& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::size_t kStripes = 8;  // power of two
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  static std::size_t StripeIndex() noexcept;
  Stripe stripes_[kStripes];
};

/// Point-in-time signed value (queue depths, in-flight requests).
class Gauge {
 public:
  void Set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { Set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: bounds are upper edges (value <= bounds[i] lands
/// in bucket i; one implicit overflow bucket past the last bound).  Observe
/// is a short scan over <= kMaxBounds doubles plus three relaxed atomic
/// adds — no locks, safe on hot paths.
class Histogram {
 public:
  static constexpr std::size_t kMaxBounds = 24;

  /// Default latency bucket edges, in milliseconds: 10us .. 10s, roughly
  /// 1-2.5-5 per decade.
  static const std::vector<double>& DefaultLatencyBoundsMs();

  explicit Histogram(const std::vector<double>& bounds);

  void Observe(double value) noexcept {
    std::size_t i = 0;
    while (i < bound_count_ && value > bounds_[i]) ++i;
    buckets_[i].value.fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> (C++20): relaxed accumulation is fine,
    // sum is reporting-only.
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t Count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double Sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<double> Bounds() const;
  /// Per-bucket counts, bounds_count + 1 entries (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> BucketCounts() const;
  /// Cumulative counts for `le`-labeled Prometheus exposition: entry i is
  /// the number of observations <= bounds[i]; the final entry (the +Inf
  /// bucket) is the total.  Derived from one pass over the per-bucket
  /// atomics, so it is internally consistent even under concurrent Observe
  /// (monotone by construction), unlike pairing BucketCounts() with a
  /// separately-loaded Count().
  [[nodiscard]] std::vector<std::uint64_t> CumulativeBucketCounts() const;
  void Reset() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  double bounds_[kMaxBounds];
  std::size_t bound_count_;
  Slot buckets_[kMaxBounds + 1];
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Process-wide instrument registry.  counter()/gauge()/histogram() create
/// on first use and return a stable reference (instruments live for the
/// process lifetime); the lookup takes a mutex, so hot paths resolve once
/// and cache the reference.  SnapshotJson() serializes every instrument,
/// sorted by name, stamped with kMetricsSchemaVersion.
class Registry {
 public:
  static Registry& Global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies only on first creation (empty = default latency
  /// buckets); later callers get the existing histogram unchanged.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& bounds = {});

  /// {"schema":1,"counters":{...},"gauges":{...},"histograms":{...}} with
  /// names sorted for stable output.
  [[nodiscard]] std::string SnapshotJson() const;

  /// Prometheus text exposition format (version 0.0.4): one `# TYPE` line
  /// per metric, instrument names sanitized to the Prometheus charset
  /// ('.' and any other illegal character become '_'), histograms rendered
  /// as cumulative `le`-labeled buckets plus `_sum`/`_count`.  Served by
  /// the b2h-serve HTTP plane at GET /metrics.
  [[nodiscard]] std::string PrometheusText() const;

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ------------------------------------------------------------------ tracer

/// One completed span in the ring.  Times are nanoseconds on the Stopwatch
/// clock; tid is a small per-thread ordinal (first armed span wins the next
/// number), parent is the span id of the enclosing ScopedSpan on the same
/// thread (0 = root).
struct Span {
  static constexpr std::size_t kMaxArgs = 6;
  struct Arg {
    const char* key = nullptr;  // static string
    bool is_number = false;
    double number = 0.0;
    std::string text;
  };

  std::string name;
  const char* category = "";
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
  Arg args[kMaxArgs];
  std::size_t arg_count = 0;
};

/// Bounded ring of completed spans + Chrome trace-event JSON exporter.
/// Disabled by default; when disabled every instrumentation site reduces to
/// one relaxed atomic load.
///
/// Two independent rings share the instrumentation sites:
///
///   * the MAIN ring — Enable()/Disable()-gated, sized per recording
///     session, exported by ChromeTraceJson().  This is the --trace-out /
///     WithTrace surface.
///   * the FLIGHT ring — a small always-on black-box recorder
///     (EnableFlight(); b2h-serve turns it on at startup and never turns it
///     off).  It keeps the most recent spans regardless of the main ring's
///     state so a crash-time forensics dump always has recent history.
///     Wraps are expected steady-state behavior and are counted separately
///     (`obs.flight.wrapped`) from main-ring drops (`obs.trace.dropped`).
///
/// A span is armed when EITHER ring is recording — still one relaxed load
/// on the fully-disabled path (both modes live in one atomic word).
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;
  static constexpr std::size_t kDefaultFlightCapacity = 1 << 12;

  static Tracer& Global();

  /// Start recording (clears any previous spans).  Capacity bounds memory:
  /// once full the ring overwrites the oldest spans and counts them as
  /// dropped.
  void Enable(std::size_t capacity = kDefaultCapacity);
  void Disable();
  /// Flip recording back on WITHOUT clearing the ring (Enable() resets and
  /// reallocates).  For sites that toggle recording around a region after
  /// one up-front Enable() — e.g. bench_obs interleaving enabled/disabled
  /// samples.  A no-op recorder until Enable() has sized the ring.
  void Resume() noexcept {
    modes_.fetch_or(kModeMain, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return (modes_.load(std::memory_order_relaxed) & kModeMain) != 0;
  }

  /// Turn on the flight recorder (clears any previous flight spans).
  /// Independent of Enable()/Disable(): once on, it stays on — only
  /// DisableFlight() (test-only) turns it back off.
  void EnableFlight(std::size_t capacity = kDefaultFlightCapacity);
  /// Test-only: stop flight recording so later tests see the documented
  /// single-load disabled path again.
  void DisableFlight();
  /// Flip flight recording back on WITHOUT clearing the flight ring — the
  /// flight analogue of Resume(), for bench_obs's interleaved samples.
  void ResumeFlight() noexcept {
    modes_.fetch_or(kModeFlight, std::memory_order_relaxed);
  }

  /// True when any ring is recording: the ScopedSpan arming check.
  [[nodiscard]] bool sampling() const noexcept {
    return modes_.load(std::memory_order_relaxed) != 0;
  }

  void Record(Span&& span);

  /// Spans currently held, oldest first.  Only tests read spans one by
  /// one; production exports them as ChromeTraceJson().
  [[nodiscard]] std::vector<Span> Snapshot() const;
  [[nodiscard]] std::size_t dropped() const;
  void Clear();

  /// Flight-ring spans, oldest first; read by tests like Snapshot().
  [[nodiscard]] std::vector<Span> FlightSnapshot() const;

  /// Chrome trace-event JSON ({"otherData":{"dropped":N},
  /// "traceEvents":[...]}), events sorted by start time; ts/dur are
  /// microseconds relative to the earliest span.  Loadable by Perfetto and
  /// chrome://tracing.
  [[nodiscard]] std::string ChromeTraceJson() const;
  /// Same exporter over the flight ring (otherData.dropped reports wraps —
  /// expected to be nonzero on a long-lived daemon).
  [[nodiscard]] std::string FlightChromeTraceJson() const;
  /// Write ChromeTraceJson() to `path`; false (with a stderr note) on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Next span id (process-unique, never 0).
  static std::uint64_t NextSpanId();
  /// Small ordinal for the calling thread (assigned on first use).
  static std::uint32_t ThreadOrdinal();

 private:
  static constexpr std::uint32_t kModeMain = 1u << 0;
  static constexpr std::uint32_t kModeFlight = 1u << 1;

  struct Ring {
    std::vector<Span> spans;
    std::size_t capacity = 0;
    std::size_t next = 0;     // write index
    std::size_t size = 0;     // spans held (<= capacity)
    std::size_t wrapped = 0;  // overwritten since the ring was sized
    void Size(std::size_t cap);
    void Push(Span&& span);
    [[nodiscard]] std::vector<Span> CopyOldestFirst() const;
  };

  Tracer() = default;
  std::atomic<std::uint32_t> modes_{0};
  mutable std::mutex mutex_;
  Ring ring_;         // main (Enable/Disable) ring
  Ring flight_;       // always-on flight recorder
};

// ------------------------------------------------------- thread span stack

namespace detail {
// Per-thread stack of active span ids, for parent attribution.  Fixed-size
// so the disabled path never allocates; deeper nesting saturates at the top.
inline constexpr std::size_t kMaxSpanDepth = 32;
struct SpanStack {
  std::uint64_t ids[kMaxSpanDepth];
  std::size_t depth = 0;
};
SpanStack& ThreadSpanStack();
}  // namespace detail

/// RAII span: arms itself only when the global tracer is enabled at
/// construction.  Disabled cost: one relaxed atomic load, no clock read, no
/// allocation.  Args attach key=value pairs (numbers or strings; keys must
/// be static strings); at most Span::kMaxArgs stick, extras are dropped.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, const char* category)
      : armed_(Tracer::Global().sampling()) {
    if (armed_) Arm(name, category);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (armed_) Finish();
  }

  ScopedSpan& Arg(const char* key, double value) {
    if (armed_ && span_.arg_count < Span::kMaxArgs) {
      auto& a = span_.args[span_.arg_count++];
      a.key = key;
      a.is_number = true;
      a.number = value;
    }
    return *this;
  }
  ScopedSpan& Arg(const char* key, std::uint64_t value) {
    return Arg(key, static_cast<double>(value));
  }
  ScopedSpan& Arg(const char* key, int value) {
    return Arg(key, static_cast<double>(value));
  }
  ScopedSpan& Arg(const char* key, std::string_view value) {
    if (armed_ && span_.arg_count < Span::kMaxArgs) {
      auto& a = span_.args[span_.arg_count++];
      a.key = key;
      a.is_number = false;
      a.text.assign(value);
    }
    return *this;
  }

  /// Elapsed milliseconds so far — lets instrumented code reuse the span's
  /// clock instead of running a second stopwatch.  0 when disabled (callers
  /// that need timing regardless should use Stopwatch).
  [[nodiscard]] double Millis() const {
    return armed_ ? static_cast<double>(Stopwatch::Now() - span_.start_ns) /
                        1e6
                  : 0.0;
  }
  [[nodiscard]] bool armed() const { return armed_; }

  /// Finish the span now instead of at scope exit (idempotent); for sites
  /// where the interesting work ends mid-scope.
  void Close() {
    if (armed_) {
      Finish();
      armed_ = false;
    }
  }

 private:
  void Arm(std::string_view name, const char* category);
  void Finish();

  bool armed_;
  Span span_;
};

}  // namespace b2h::obs
