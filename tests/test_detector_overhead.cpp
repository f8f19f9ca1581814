// Detector-overhead bound, in its OWN test binary on purpose.
//
// The measurement compares two instantiations of the same interpreter loop
// (Run vs RunInstrumented) at single-digit-percent resolution; embedding it
// in a large test binary lets unrelated code shift section layout enough to
// distort the ratio by >10 percentage points (observed empirically: the
// identical measurement read ~8% standalone and ~25% inside the full
// test_dynamic binary).  A dedicated binary keeps the measured code's
// layout minimal and stable.  bench_dynamic records the same numbers for
// the perf trajectory through the SAME support::MeasureOverhead harness;
// this asserts the bound.
//
// The bound is per build type, and its constants are calibrated against the
// default engine, kBlock: Run and RunInstrumented are the two
// instantiations of its one trace run loop (ExecBlock<false> and
// ExecBlock<true>).  The hook plumbing itself — latch check, event
// batching, profile expansion at flush — measures ~0% against a null
// observer, so what this ratio mostly captures is the
// DetectionOnlyObserver's own per-event cache update, whose absolute cost
// is unchanged but whose relative share grew when the baseline interpreter
// got 3-5x faster.  RelWithDebInfo measures ~10% (bound 15%); under -O3
// Release the measurement carries extra layout sensitivity (relative
// placement of the two interpreter-loop instantiations) that -falign-loops
// does not fully pin, so it keeps a layout-headroom bound (25%); a real
// hook regression moves both builds.
// Min-of-N sampling with attempt-level retries does the rest: noise only
// ever inflates a sample, so the minimum converges toward the true ratio
// from above.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "dynamic/hot_region.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/cpu_time.hpp"

namespace b2h {
namespace {

constexpr double DetectorOverheadBound() {
#ifdef B2H_BUILD_TYPE
  if (std::string_view(B2H_BUILD_TYPE) == "Release") return 0.25;
#endif
  return 0.15;
}

TEST(DetectorOverhead, StaysWithinPerBuildTypeBound) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "perf bound is about production code; sanitizer "
                  "instrumentation multiplies the hook path's memory ops";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "perf bound is about production code; sanitizer "
                  "instrumentation multiplies the hook path's memory ops";
#endif
#endif
  // fir has the densest latch-event stream in the suite (~1 event per 6
  // instructions), so it upper-bounds the hook cost.
  const suite::Benchmark* bench = suite::FindBenchmark("fir");
  ASSERT_NE(bench, nullptr);
  auto built = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(built.ok());
  const auto binary =
      std::make_shared<const mips::SoftBinary>(std::move(built).take());

  // Size reps so each sample simulates a few million instructions.
  mips::Simulator probe(*binary);
  const auto probe_run = probe.Run();
  const int reps = std::max<int>(
      1, static_cast<int>(4'000'000 / std::max<std::uint64_t>(
                                          1, probe_run.instructions)));

  const double bound = DetectorOverheadBound();
  support::OverheadOptions options;
  options.samples = 8;
  options.attempts = 4;
  options.early_exit_below = bound;  // a passing attempt ends the test
  const support::OverheadMeasurement measured = support::MeasureOverhead(
      [&] {
        for (int i = 0; i < reps; ++i) {
          mips::Simulator sim(*binary);
          (void)sim.Run();
        }
      },
      [&] {
        for (int i = 0; i < reps; ++i) {
          mips::Simulator sim(*binary);
          dynamic::DetectionOnlyObserver detector;
          (void)sim.RunInstrumented({}, 100'000'000, &detector);
        }
      },
      options);
  ASSERT_GT(measured.plain_seconds, 0.0);
  EXPECT_LE(measured.overhead, bound)
      << "detector hook costs more than " << bound * 100.0
      << "% on the simulator hot path";
}

}  // namespace
}  // namespace b2h
