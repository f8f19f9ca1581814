// Shared pieces of the binary-in -> report-out benchmark: arguments, the
// seeded suite binary pool, sample statistics, the benchmark's own span
// recorder, and the result line.  README.md in this package explains the
// workloads and every metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mips/binary.hpp"
#include "suite/suite.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;    ///< per-run scratch (socket, daemon cache, spans)
  std::string serve_bin;  ///< the b2h-serve daemon of this checkout
};

/// Seeded, platform-independent generator (splitmix64), so a seed names the
/// same draw on every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, bound).
  std::size_t Below(std::size_t bound);
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[Below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// One distinct suite binary.
struct PoolBinary {
  std::string name;  ///< "crc@O2", "crc@O3u8", "switch01"
  const b2h::suite::Benchmark* bench = nullptr;
  int opt_level = -1;  ///< 0..3; -1 for the assembly programs
  int unroll = 0;      ///< O3 unroll factor; 0 below O3
  std::shared_ptr<const b2h::mips::SoftBinary> binary;
  std::int32_t reference = 0;  ///< the suite's native oracle
};

/// Every distinct binary the suite yields: the 20 programs at O0-O3, plus O3
/// at unroll factors 2 and 8 (4 is O3's default), deduplicated by content.
struct Pool {
  std::vector<PoolBinary> binaries;
  std::vector<double> compile_ms;  ///< one per minicc::Compile call
};
[[nodiscard]] Pool BuildPool();

/// Registers the design-space grid (4 CPU clocks x 3 FPGA sizes) the way
/// examples/platform_explorer.cpp does; returns the names in grid order.
std::vector<std::string> RegisterGridPlatforms();

/// Draws binaries without replacement; a new seeded permutation starts each
/// time the pool is exhausted.
class Draw {
 public:
  Draw(std::size_t size, std::uint64_t seed);
  std::size_t Next();
  [[nodiscard]] const std::vector<std::size_t>& order() const {
    return order_;
  }

 private:
  std::size_t size_;
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

/// A set of timings or other measured values.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Quantile, q in [0, 1], interpolated linearly between the sorted
  /// values; 0 when empty.
  [[nodiscard]] double Quantile(double q) const;
  [[nodiscard]] double Mean() const;

 private:
  std::vector<double> values_;
};

/// Spans the benchmark records around its own calls into each layer: name,
/// start, end, parent and op id, kept in memory and written at exit.  One
/// recorder per thread; a disabled recorder records nothing and reads no
/// clock, which is the untraced side of obs.trace_overhead_pct.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint32_t op = 0;
    [[nodiscard]] double Millis() const {
      return static_cast<double>(end_ns - start_ns) / 1e6;
    }
  };

  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_ = 0;
    bool armed_ = false;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(std::uint32_t op) { op_ = op; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Index of the first span recorded after this call (for per-op slices).
  [[nodiscard]] std::size_t mark() const { return spans_.size(); }
  void Merge(const SpanRecorder& other);

 private:
  bool enabled_;
  std::uint32_t op_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<std::uint32_t> stack_;
  std::vector<Span> spans_;
};

/// Self time (span minus its children) and call count, per span name.
struct LayerTotals {
  std::size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
[[nodiscard]] std::map<std::string, LayerTotals> SelfTimes(
    const std::vector<SpanRecorder::Span>& spans);

/// Writes the spans as JSON lines to <run dir>/spans-<workload>-s<seed>.jsonl.
void WriteSpans(const std::vector<SpanRecorder::Span>& spans,
                const Args& args);

/// Prints the per-layer ledger: for each root span name (an op, a probe, a
/// request class), every layer's calls, self and total time per root call,
/// and its share of the root's time.
void PrintLedger(const std::vector<SpanRecorder::Span>& spans);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a workload run reports: op counts, failures and metrics.  An op
/// fails either with a wrong output (a check mismatch, which makes the run
/// incorrect) or with an error reply from the program (counted only).
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;              ///< of failed: wrong outputs
  std::vector<std::string> failures;  ///< the first few, described
  std::vector<Metric> metrics;

  void Fail(std::string what);   ///< a wrong output
  void Error(std::string what);  ///< an op that failed without output
  void Add(std::string name, double value, std::string unit,
           std::size_t samples);
};

/// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
[[nodiscard]] double PeakRssMb(int pid = 0);

/// Nanoseconds on the monotonic clock.
[[nodiscard]] std::uint64_t NowNs();

/// Workload entry points.  `setup_s` is measured by each workload, which
/// repeats its set-up and reports the median.
Outcome RunColdFlow(const Args& args);
Outcome RunDesignSweep(const Args& args);
Outcome RunServeMix(const Args& args);

}  // namespace perfbench
