// Implementation of the observability layer: registry snapshot
// serialization, the span ring, and the Chrome trace-event exporter.
#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/json.hpp"

namespace b2h::obs {

namespace {

/// Shortest round-trippable double, matching the repo's report writers.
std::string Num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

}  // namespace

// ----------------------------------------------------------------- Counter

std::size_t Counter::StripeIndex() noexcept {
  // One stripe per thread, fixed for the thread's lifetime.  A counter of
  // threads (not the thread id hash) keeps the mapping dense, so up to
  // kStripes concurrent writers never share a cache line.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

// --------------------------------------------------------------- Histogram

const std::vector<double>& Histogram::DefaultLatencyBoundsMs() {
  // 10us .. 10s, roughly 1-2.5-5 per decade: wide enough for a simulator
  // run or a cold explore, fine enough near the bottom for serve pings.
  static const std::vector<double> bounds = {
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,    10.0,
      25.0, 50.0,  100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
  return bounds;
}

Histogram::Histogram(const std::vector<double>& bounds) {
  const std::vector<double>& edges =
      bounds.empty() ? DefaultLatencyBoundsMs() : bounds;
  bound_count_ = std::min(edges.size(), kMaxBounds);
  for (std::size_t i = 0; i < bound_count_; ++i) bounds_[i] = edges[i];
}

std::vector<double> Histogram::Bounds() const {
  return std::vector<double>(bounds_, bounds_ + bound_count_);
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> counts(bound_count_ + 1);
  for (std::size_t i = 0; i <= bound_count_; ++i) {
    counts[i] = buckets_[i].value.load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<std::uint64_t> Histogram::CumulativeBucketCounts() const {
  std::vector<std::uint64_t> counts = BucketCounts();
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
  return counts;
}

void Histogram::Reset() noexcept {
  for (auto& bucket : buckets_) {
    bucket.value.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Registry

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  }
  return *it->second;
}

std::string Registry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"schema\":" << kMetricsSchemaVersion << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << support::JsonEscape(name) << "\":" << counter->Value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << support::JsonEscape(name) << "\":" << gauge->Value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << support::JsonEscape(name) << "\":{\"count\":"
        << histogram->Count() << ",\"sum\":" << Num(histogram->Sum())
        << ",\"bounds\":[";
    const auto bounds = histogram->Bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i) out << ",";
      out << Num(bounds[i]);
    }
    out << "],\"buckets\":[";
    const auto counts = histogram->BucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out << ",";
      out << counts[i];
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

namespace {

/// Sanitize an instrument name into the Prometheus metric-name charset
/// [a-zA-Z_:][a-zA-Z0-9_:]* — dots (the repo's namespacing convention) and
/// anything else illegal become '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = (c >= '0' && c <= '9');
    if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) out[i] = '_';
  }
  if (out.empty()) out.push_back('_');
  return out;
}

}  // namespace

std::string Registry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    const std::string metric = PrometheusName(name);
    out << "# TYPE " << metric << " counter\n";
    out << metric << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string metric = PrometheusName(name);
    out << "# TYPE " << metric << " gauge\n";
    out << metric << " " << gauge->Value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string metric = PrometheusName(name);
    out << "# TYPE " << metric << " histogram\n";
    const std::vector<double> bounds = histogram->Bounds();
    // One consistent pass over the bucket atomics: the +Inf bucket and
    // _count both render the same cumulative total, so the series stays
    // spec-consistent even while Observe() runs concurrently.
    const std::vector<std::uint64_t> cumulative =
        histogram->CumulativeBucketCounts();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      out << metric << "_bucket{le=\"" << Num(bounds[i]) << "\"} "
          << cumulative[i] << "\n";
    }
    const std::uint64_t total = cumulative.empty() ? 0 : cumulative.back();
    out << metric << "_bucket{le=\"+Inf\"} " << total << "\n";
    out << metric << "_sum " << Num(histogram->Sum()) << "\n";
    out << metric << "_count " << total << "\n";
  }
  return out.str();
}

// ------------------------------------------------------------------ Tracer

Tracer& Tracer::Global() {
  static Tracer* instance = new Tracer();  // never destroyed
  return *instance;
}

void Tracer::Ring::Size(std::size_t cap) {
  capacity = std::max<std::size_t>(cap, 1);
  // Allocate the replacement while the old buffer is still live so the new
  // ring lands at a different address: bench_obs re-Enables to re-roll
  // cache-set aliasing between the ring and the workload, which
  // clear()+resize() would defeat by reusing the same allocation.
  std::vector<Span> fresh(capacity);
  spans.swap(fresh);
  next = 0;
  size = 0;
  wrapped = 0;
}

void Tracer::Ring::Push(Span&& span) {
  if (capacity == 0) return;
  if (size == capacity) ++wrapped;
  spans[next] = std::move(span);
  next = (next + 1) % capacity;
  size = std::min(size + 1, capacity);
}

std::vector<Span> Tracer::Ring::CopyOldestFirst() const {
  std::vector<Span> out;
  out.reserve(size);
  // Oldest span sits at next once the ring has wrapped, at 0 before.
  const std::size_t start = (size == capacity) ? next : 0;
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(spans[(start + i) % capacity]);
  }
  return out;
}

namespace {

/// Overwrite counters surfaced in /metrics (satellite: silent span loss
/// must be visible).  Resolved lazily so merely linking obs does not
/// create the series; referenced only on a wrap, never on the hot path.
Counter& TraceDroppedCounter() {
  static Counter& counter = Registry::Global().counter("obs.trace.dropped");
  return counter;
}
Counter& FlightWrappedCounter() {
  static Counter& counter = Registry::Global().counter("obs.flight.wrapped");
  return counter;
}

}  // namespace

void Tracer::Enable(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.Size(capacity);
  modes_.fetch_or(kModeMain, std::memory_order_relaxed);
}

void Tracer::Disable() {
  modes_.fetch_and(~kModeMain, std::memory_order_relaxed);
}

void Tracer::EnableFlight(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  flight_.Size(capacity);
  modes_.fetch_or(kModeFlight, std::memory_order_relaxed);
}

void Tracer::DisableFlight() {
  modes_.fetch_and(~kModeFlight, std::memory_order_relaxed);
}

void Tracer::Record(Span&& span) {
  const std::uint32_t modes = modes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if ((modes & kModeFlight) != 0 && flight_.capacity != 0) {
    const bool was_full = flight_.size == flight_.capacity;
    if ((modes & kModeMain) != 0) {
      flight_.Push(Span(span));  // main ring still needs the original
    } else {
      flight_.Push(std::move(span));
    }
    if (was_full) FlightWrappedCounter().Add();
    if ((modes & kModeMain) == 0) return;
  } else if ((modes & kModeMain) == 0) {
    return;
  }
  const bool was_full = ring_.size == ring_.capacity && ring_.capacity != 0;
  ring_.Push(std::move(span));
  if (was_full) TraceDroppedCounter().Add();
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.CopyOldestFirst();
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.wrapped;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.next = 0;
  ring_.size = 0;
  ring_.wrapped = 0;
}

std::vector<Span> Tracer::FlightSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return flight_.CopyOldestFirst();
}

namespace {

/// Shared Chrome trace-event serializer for both rings.  `dropped` lands in
/// otherData so consumers (ci/validate_trace.py) can detect span loss
/// without diffing counts.
std::string SpansToChromeTraceJson(std::vector<Span> spans,
                                   std::size_t dropped) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const std::uint64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":" << dropped
      << "},\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out << ",";
    first = false;
    // Complete ("X") events: ts/dur in fractional microseconds relative to
    // the earliest span, one row per thread ordinal.
    out << "{\"name\":\"" << support::JsonEscape(span.name)
        << "\",\"cat\":\"" << support::JsonEscape(span.category)
        << "\",\"ph\":\"X\",\"ts\":"
        << Num(static_cast<double>(span.start_ns - epoch) / 1e3)
        << ",\"dur\":" << Num(static_cast<double>(span.duration_ns) / 1e3)
        << ",\"pid\":1,\"tid\":" << span.tid << ",\"args\":{\"span_id\":"
        << span.id;
    if (span.parent != 0) out << ",\"parent_id\":" << span.parent;
    for (std::size_t i = 0; i < span.arg_count; ++i) {
      const Span::Arg& arg = span.args[i];
      out << ",\"" << support::JsonEscape(arg.key) << "\":";
      if (arg.is_number) {
        out << Num(arg.number);
      } else {
        out << "\"" << support::JsonEscape(arg.text) << "\"";
      }
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

}  // namespace

std::string Tracer::ChromeTraceJson() const {
  std::vector<Span> spans;
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = ring_.CopyOldestFirst();
    dropped = ring_.wrapped;
  }
  return SpansToChromeTraceJson(std::move(spans), dropped);
}

std::string Tracer::FlightChromeTraceJson() const {
  std::vector<Span> spans;
  std::size_t wrapped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans = flight_.CopyOldestFirst();
    wrapped = flight_.wrapped;
  }
  return SpansToChromeTraceJson(std::move(spans), wrapped);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open trace output '%s'\n", path.c_str());
    return false;
  }
  out << ChromeTraceJson() << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "obs: short write to trace output '%s'\n",
                 path.c_str());
    return false;
  }
  return true;
}

std::uint64_t Tracer::NextSpanId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t Tracer::ThreadOrdinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// ------------------------------------------------------- thread span stack

namespace detail {
SpanStack& ThreadSpanStack() {
  thread_local SpanStack stack;
  return stack;
}
}  // namespace detail

// -------------------------------------------------------------- ScopedSpan

void ScopedSpan::Arm(std::string_view name, const char* category) {
  span_.name.assign(name);
  span_.category = category;
  span_.id = Tracer::NextSpanId();
  span_.tid = Tracer::ThreadOrdinal();
  auto& stack = detail::ThreadSpanStack();
  const std::size_t top = std::min(stack.depth, detail::kMaxSpanDepth);
  span_.parent = top > 0 ? stack.ids[top - 1] : 0;
  if (stack.depth < detail::kMaxSpanDepth) {
    stack.ids[stack.depth] = span_.id;
  }
  ++stack.depth;  // deeper nesting saturates: pushes past the top are dropped
  span_.start_ns = Stopwatch::Now();  // last: exclude setup from duration
}

void ScopedSpan::Finish() {
  span_.duration_ns = Stopwatch::Now() - span_.start_ns;
  auto& stack = detail::ThreadSpanStack();
  if (stack.depth > 0) --stack.depth;
  Tracer& tracer = Tracer::Global();
  if (tracer.sampling()) tracer.Record(std::move(span_));
}

}  // namespace b2h::obs
