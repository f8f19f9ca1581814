// Observability-layer tests: exact counter sums under concurrent striped
// writers, gauge semantics, histogram bucket-edge placement, the registry's
// schema-stamped JSON snapshot, the tracer's bounded ring and Chrome
// trace-event export (well-formed JSON, sorted relative timestamps,
// parent/child nesting), the disabled-mode zero-allocation contract, and an
// end-to-end traced Toolchain::Explore that must emit spans from every flow
// layer.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explore/explorer.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/json_parse.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: replace the (unaligned) global operator new for this
// test binary so the disabled-span zero-allocation contract is checked for
// real, not inferred.  Counting is passive — behavior is plain malloc/free —
// so every other test in the binary runs unaffected.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

// The whole unaligned family must be replaced together: the library frees
// nothrow-new'd memory (std::get_temporary_buffer) through the PLAIN
// operator delete, so a partial replacement pairs the default allocator
// with our free() — an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace b2h {
namespace {

using support::JsonValue;
using testing_support::ScopedEnv;
using testing_support::TempDir;

// Hermetic: an exported cache dir would make the traced cold sweep below
// disk-warm and drop the decomp spans it asserts on.
const ScopedEnv kPinnedCacheDirEnv("B2H_CACHE_DIR", nullptr);

// ---------------------------------------------------------------------------
// Registry instruments
// ---------------------------------------------------------------------------

TEST(ObsCounter, ConcurrentAddsSumExactly) {
  obs::Counter& counter =
      obs::Registry::Global().counter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        // Mix unit and weighted adds: each lands in exactly one stripe, so
        // the total must be exact, not approximate.
        if (i % 10 == 0) {
          counter.Add(3);
        } else {
          counter.Add();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  constexpr std::uint64_t kPerThread =
      (kAddsPerThread / 10) * 3 + (kAddsPerThread - kAddsPerThread / 10);
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);

  // The registry hands back the same instrument for the same name.
  EXPECT_EQ(&counter, &obs::Registry::Global().counter(
                          std::string("test.counter.") + "concurrent"));
}

TEST(ObsGauge, SetAdd) {
  obs::Gauge& gauge = obs::Registry::Global().gauge("test.gauge.basic");
  gauge.Set(5);
  EXPECT_EQ(gauge.Value(), 5);
  gauge.Add(-8);
  EXPECT_EQ(gauge.Value(), -3);
}

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram& histogram = obs::Registry::Global().histogram(
      "test.histogram.edges", {1.0, 10.0, 100.0});
  // value <= bounds[i] lands in bucket i; past the last bound -> overflow.
  histogram.Observe(0.5);    // bucket 0
  histogram.Observe(1.0);    // bucket 0: edges are inclusive
  histogram.Observe(1.001);  // bucket 1
  histogram.Observe(10.0);   // bucket 1
  histogram.Observe(100.0);  // bucket 2
  histogram.Observe(1e6);    // overflow
  EXPECT_EQ(histogram.Count(), 6u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 1e6);
  EXPECT_EQ(histogram.Bounds(), (std::vector<double>{1.0, 10.0, 100.0}));
  EXPECT_EQ(histogram.BucketCounts(),
            (std::vector<std::uint64_t>{2, 2, 1, 1}));

  // Re-resolving with different bounds returns the EXISTING histogram:
  // bounds apply on first creation only.
  obs::Histogram& again =
      obs::Registry::Global().histogram("test.histogram.edges", {42.0});
  EXPECT_EQ(&again, &histogram);
  EXPECT_EQ(again.Bounds().size(), 3u);
}

TEST(ObsRegistry, SnapshotJsonIsSchemaStampedAndParseable) {
  obs::Registry& registry = obs::Registry::Global();
  registry.counter("test.snapshot.counter").Add(7);
  registry.gauge("test.snapshot.gauge").Set(-2);
  registry.histogram("test.snapshot.histogram", {1.0, 2.0}).Observe(1.5);

  const auto parsed = JsonValue::Parse(registry.SnapshotJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->GetNumber("schema"), obs::kMetricsSchemaVersion);
  const JsonValue* counters = parsed->Find("counters");
  const JsonValue* gauges = parsed->Find("gauges");
  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);
  EXPECT_DOUBLE_EQ(counters->GetNumber("test.snapshot.counter"), 7.0);
  EXPECT_DOUBLE_EQ(gauges->GetNumber("test.snapshot.gauge"), -2.0);
  const JsonValue* histogram = histograms->Find("test.snapshot.histogram");
  ASSERT_NE(histogram, nullptr);
  EXPECT_DOUBLE_EQ(histogram->GetNumber("count"), 1.0);
  EXPECT_DOUBLE_EQ(histogram->GetNumber("sum"), 1.5);
  const JsonValue* buckets = histogram->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  EXPECT_EQ(buckets->array().size(), 3u);  // two bounds + overflow
  EXPECT_DOUBLE_EQ(buckets->array()[1].number(), 1.0);  // 1 < 1.5 <= 2
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(ObsTracer, RingBoundsMemoryAndCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan span("ring.fill", "test");
  }
  tracer.Disable();
  const std::vector<obs::Span> spans = tracer.Snapshot();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Oldest-first: ids of the surviving (latest) spans ascend.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].id, spans[i - 1].id);
  }
}

TEST(ObsTracer, ChromeTraceJsonIsWellFormedAndNested) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/64);
  {
    obs::ScopedSpan outer("outer", "test");
    outer.Arg("label", std::string_view("root"));
    {
      obs::ScopedSpan inner("inner", "test");
      inner.Arg("n", 42);
    }
  }
  tracer.Disable();

  const auto parsed = JsonValue::Parse(tracer.ChromeTraceJson());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array().size(), 2u);

  // Sorted by start: the enclosing span first even though it RECORDED last,
  // at ts 0 (timestamps are relative to the earliest span).
  const JsonValue& outer = events->array()[0];
  const JsonValue& inner = events->array()[1];
  EXPECT_EQ(outer.GetString("name"), "outer");
  EXPECT_EQ(inner.GetString("name"), "inner");
  for (const JsonValue* event : {&outer, &inner}) {
    EXPECT_EQ(event->GetString("cat"), "test");
    EXPECT_EQ(event->GetString("ph"), "X");
    EXPECT_GE(event->GetNumber("dur"), 0.0);
    ASSERT_NE(event->Find("args"), nullptr);
  }
  EXPECT_DOUBLE_EQ(outer.GetNumber("ts"), 0.0);
  EXPECT_GE(inner.GetNumber("ts"), outer.GetNumber("ts"));
  // The inner span ends no later than its parent.
  EXPECT_LE(inner.GetNumber("ts") + inner.GetNumber("dur"),
            outer.GetNumber("ts") + outer.GetNumber("dur") + 1e-9);

  // Parent attribution: inner points at outer; outer is a root.
  const JsonValue* outer_args = outer.Find("args");
  const JsonValue* inner_args = inner.Find("args");
  EXPECT_GT(outer_args->GetNumber("span_id"), 0.0);
  EXPECT_DOUBLE_EQ(inner_args->GetNumber("parent_id"),
                   outer_args->GetNumber("span_id"));
  EXPECT_EQ(outer_args->Find("parent_id"), nullptr);
  // Span args ride along, numbers as numbers and strings as strings.
  EXPECT_EQ(outer_args->GetString("label"), "root");
  EXPECT_DOUBLE_EQ(inner_args->GetNumber("n"), 42.0);
}

TEST(ObsTracer, DisabledSpanDoesNotAllocate) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  // Warm up thread-local state outside the measured window.
  { obs::ScopedSpan warmup("warmup", "test"); }

  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedSpan span("alloc.check", "test");
    span.Arg("n", i).Arg("s", std::string_view("sv"));
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "a disabled ScopedSpan must be one relaxed atomic load: "
      << (after - before) << " allocation(s) leaked into the disabled path";
}

TEST(ObsTracer, ResumeKeepsRecordedSpans) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/16);
  { obs::ScopedSpan span("before.pause", "test"); }
  tracer.Disable();
  { obs::ScopedSpan span("while.paused", "test"); }  // not recorded
  tracer.Resume();  // unlike Enable(), must NOT clear the ring
  { obs::ScopedSpan span("after.resume", "test"); }
  tracer.Disable();

  const std::vector<obs::Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "before.pause");
  EXPECT_EQ(spans[1].name, "after.resume");
}

TEST(ObsTracer, FlightRingRecordsIndependentlyOfMainRing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/8);
  tracer.EnableFlight(/*capacity=*/8);
  { obs::ScopedSpan span("both.rings", "test"); }
  tracer.Disable();  // main off, flight stays on (the daemon's idle state)
  { obs::ScopedSpan span("flight.only", "test"); }
  tracer.DisableFlight();
  { obs::ScopedSpan span("neither", "test"); }  // fully off: recorded nowhere

  const std::vector<obs::Span> main_spans = tracer.Snapshot();
  ASSERT_EQ(main_spans.size(), 1u);
  EXPECT_EQ(main_spans[0].name, "both.rings");

  const std::vector<obs::Span> flight_spans = tracer.FlightSnapshot();
  ASSERT_EQ(flight_spans.size(), 2u);
  EXPECT_EQ(flight_spans[0].name, "both.rings");
  EXPECT_EQ(flight_spans[1].name, "flight.only");
}

TEST(ObsTracer, FlightRingWrapsBoundedAndCountsIntoRegistry) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  obs::Counter& wrapped_counter =
      obs::Registry::Global().counter("obs.flight.wrapped");
  const std::uint64_t wrapped_before = wrapped_counter.Value();
  tracer.EnableFlight(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    obs::ScopedSpan span("flight.fill", "test");
  }
  EXPECT_EQ(tracer.FlightSnapshot().size(), 2u);
  // Wraps surface as a registry counter so /metrics and the CI trace
  // validator can detect span loss without a snapshot diff.
  EXPECT_EQ(wrapped_counter.Value() - wrapped_before, 3u);

  // The flight export is the same Chrome trace shape as the main ring's,
  // with the wrap count in otherData.dropped.
  const auto parsed = JsonValue::Parse(tracer.FlightChromeTraceJson());
  tracer.DisableFlight();
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->GetNumber("dropped"), 3.0);
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(events->array().size(), 2u);
}

TEST(ObsTracer, MainRingDropsSurfaceAsRegistryCounter) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::Counter& dropped_counter =
      obs::Registry::Global().counter("obs.trace.dropped");
  const std::uint64_t dropped_before = dropped_counter.Value();
  tracer.Enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan span("drop.fill", "test");
  }
  tracer.Disable();
  EXPECT_EQ(dropped_counter.Value() - dropped_before, 6u);
  // The export stamps the same count into otherData for the CI validator.
  const auto parsed = JsonValue::Parse(tracer.ChromeTraceJson());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->GetNumber("dropped"), 6.0);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

TEST(ObsRegistry, PrometheusTextIsSpecConsistent) {
  obs::Registry& registry = obs::Registry::Global();
  registry.counter("test.prom.counter").Add(3);
  registry.gauge("test.prom.gauge").Set(-4);
  obs::Histogram& histogram =
      registry.histogram("test.prom.hist", {1.0, 2.0, 4.0});
  histogram.Reset();
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  histogram.Observe(3.0);
  histogram.Observe(100.0);  // overflow bucket

  const std::string text = registry.PrometheusText();
  // Names are sanitized ('.' -> '_') and typed before their samples.
  EXPECT_NE(text.find("# TYPE test_prom_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_counter 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge -4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_hist histogram\n"),
            std::string::npos);
  // Buckets are CUMULATIVE (le="2" counts everything <= 2), the +Inf
  // bucket equals _count, and _sum is present — the histogram contract
  // Prometheus scrapers rely on.
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_sum 105\n"), std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 4\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced cold sweep covers every flow layer
// ---------------------------------------------------------------------------

TEST(ObsEndToEnd, TracedExploreEmitsSpansFromEveryLayer) {
  TempDir scratch;
  const std::string trace_path = scratch.path + "/explore-trace.json";
  {
    Toolchain toolchain;
    toolchain.WithThreads(1).WithTrace(trace_path);

    const suite::Benchmark* bench = suite::FindBenchmark("crc");
    ASSERT_NE(bench, nullptr);
    Result<mips::SoftBinary> binary = suite::BuildBinary(*bench, 1);
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    explore::ExploreSpec spec;
    spec.binaries.push_back(
        {"crc", std::make_shared<const mips::SoftBinary>(
                    std::move(binary).take())});
    spec.platforms = {"mips200-xc2v1000"};
    spec.strategies = {"paper-greedy"};
    const explore::ExploreResult result = toolchain.Explore(spec);
    for (const explore::ExplorePoint& point : result.points) {
      ASSERT_TRUE(point.status.ok()) << point.status.message();
    }
    // Destructor flushes the trace to the WithTrace path.
  }
  obs::Tracer::Global().Disable();

  // The cold sweep exercised every instrumented subsystem: the exported
  // trace must carry spans from the decompiler, the partitioner, synthesis,
  // the sweep engine, the artifact cache, and the simulator.
  std::string text;
  {
    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good()) << "trace file missing: " << trace_path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.has_value()) << "trace is not valid JSON";
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_FALSE(events->array().empty());

  std::set<std::string> categories;
  double last_ts = 0.0;
  std::set<double> span_ids;
  for (const JsonValue& event : events->array()) {
    categories.insert(event.GetString("cat"));
    EXPECT_EQ(event.GetString("ph"), "X");
    const double ts = event.GetNumber("ts");
    EXPECT_GE(ts, last_ts);  // exporter contract: sorted by start
    last_ts = ts;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    const double span_id = args->GetNumber("span_id");
    EXPECT_GT(span_id, 0.0);
    EXPECT_TRUE(span_ids.insert(span_id).second) << "duplicate span id";
  }
  for (const char* required :
       {"decomp", "partition", "synth", "explore", "cache", "sim"}) {
    EXPECT_EQ(categories.count(required), 1u)
        << "no spans from the '" << required << "' layer";
  }
}

}  // namespace
}  // namespace b2h
