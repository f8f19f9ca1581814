// Process-CPU timing for micro-measurements (bench + perf tests).
//
// Wall clock is useless for single-digit-percent comparisons on shared
// machines: sibling processes may own every other core, and scheduler
// preemption lands in one variant's samples.  Process CPU time charges only
// cycles this process actually ran.
#pragma once

#include <algorithm>
#include <cstddef>
#include <ctime>
#include <utility>
#include <vector>

namespace b2h::support {

/// CPU seconds consumed by this process so far.
[[nodiscard]] inline double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// CPU seconds `fn` takes to run.
template <typename Fn>
[[nodiscard]] double CpuSecondsOf(Fn&& fn) {
  const double start = ProcessCpuSeconds();
  std::forward<Fn>(fn)();
  return ProcessCpuSeconds() - start;
}

/// Knobs for MeasureOverhead.  The defaults match the detector-overhead
/// bound's needs; benches that only record a trajectory can drop
/// `attempts` to 1 and `early_exit_below` to 0.
struct OverheadOptions {
  int samples = 8;    ///< interleaved min-of-N samples per attempt
  int attempts = 3;   ///< whole-measurement retries (keeps the minimum)
  /// Stop retrying once the measured overhead drops to/below this; an
  /// assertion bound goes here so a passing measurement exits early.
  double early_exit_below = 0.0;
  /// Use the median of per-pair ratios instead of min(variant)/min(plain).
  /// Min-of-N assumes noise only ever inflates a sample, which holds for a
  /// single-threaded loop but not for multi-threaded workloads measured
  /// with process CPU time: worker wake/park costs land in the measured
  /// quantity itself and swing both ways.  Adjacent baseline/variant pairs
  /// see the same machine state, so the median pair ratio is robust there.
  bool median = false;
};

/// What MeasureOverhead measured: the overhead and the samples behind it
/// (the winning attempt's best baseline/variant times), so callers can
/// print times that are consistent with the ratio.
struct OverheadMeasurement {
  double overhead = 1e9;  ///< variant/plain - 1; 1e9 when nothing measured
  double plain_seconds = 0.0;
  double variant_seconds = 0.0;
};

/// Relative CPU-time overhead of `variant` over `baseline`:
/// min(variant)/min(plain) - 1.
///
/// Measurement discipline (shared by test_detector_overhead and
/// bench_dynamic — keep them honest with ONE harness): samples are
/// interleaved (baseline, variant, baseline, ...) so slow drift lands on
/// both sides, and minima are used throughout because scheduler/frequency
/// noise only ever inflates a sample — it cannot make the variant look
/// cheaper than it is.  More samples therefore tighten the measurement
/// monotonically toward the true ratio.
template <typename Baseline, typename Variant>
[[nodiscard]] OverheadMeasurement MeasureOverhead(
    Baseline&& baseline, Variant&& variant, const OverheadOptions& options) {
  OverheadMeasurement result;
  if (options.median) {
    // One flat pass of interleaved pairs; each attempt-block checks the
    // running median so a measurement already inside the budget stays cheap.
    std::vector<double> ratios;
    double best_plain = 1e9, best_variant = 1e9;
    for (int attempt = 0; attempt < options.attempts; ++attempt) {
      for (int sample = 0; sample < options.samples; ++sample) {
        const double plain = CpuSecondsOf(baseline);
        const double hooked = CpuSecondsOf(variant);
        if (plain <= 0.0) continue;  // clock quantum too coarse; skip pair
        ratios.push_back(hooked / plain - 1.0);
        if (plain < best_plain) best_plain = plain;
        if (hooked < best_variant) best_variant = hooked;
      }
      if (ratios.empty()) continue;
      std::vector<double> sorted = ratios;
      const std::size_t mid = sorted.size() / 2;
      std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
      result.overhead = sorted[mid];
      if (result.overhead <= options.early_exit_below && ratios.size() >= 8) {
        break;
      }
    }
    result.plain_seconds = best_plain;
    result.variant_seconds = best_variant;
    return result;
  }
  for (int attempt = 0; attempt < options.attempts &&
                        result.overhead > options.early_exit_below;
       ++attempt) {
    double plain = 1e9;
    double hooked = 1e9;
    for (int sample = 0; sample < options.samples; ++sample) {
      plain = std::min(plain, CpuSecondsOf(baseline));
      hooked = std::min(hooked, CpuSecondsOf(variant));
    }
    if (plain <= 0.0) continue;  // clock quantum too coarse; retry
    const double attempt_overhead = hooked / plain - 1.0;
    if (attempt_overhead < result.overhead) {
      result = {attempt_overhead, plain, hooked};
    }
  }
  return result;
}

}  // namespace b2h::support
