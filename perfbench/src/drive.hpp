// The two ways a workload takes a binary to a report: the Explore path
// (what users run, timed end to end) and the layer drive (the same work
// through each layer's public functions, with a span around every call).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "decomp/pass_manager.hpp"
#include "explore/explorer.hpp"
#include "mips/simulator.hpp"
#include "partition/candidates.hpp"
#include "partition/strategy.hpp"
#include "toolchain/toolchain.hpp"

namespace perfbench {

/// Toolchain::Explore's profiling budget (ExplorerConfig default).
inline constexpr std::uint64_t kMaxSimInstructions = 200'000'000;

/// The three registered strategies, in sweep order.
[[nodiscard]] const std::vector<std::string>& AllStrategies();

/// A one-binary sweep spec; `name` is the binary's report name.
[[nodiscard]] b2h::explore::ExploreSpec MakeSpec(
    std::string name, std::shared_ptr<const b2h::mips::SoftBinary> binary,
    std::vector<std::string> platforms, std::vector<std::string> strategies,
    std::vector<b2h::partition::Objective> objectives,
    std::uint64_t seed = 1);

/// A memory-only toolchain with its own artifact cache and candidate pool.
[[nodiscard]] std::unique_ptr<b2h::Toolchain> FreshToolchain(unsigned threads);

struct ExploreOp {
  double ms = 0.0;         ///< Explore + Json
  double render_ms = 0.0;  ///< Json alone
  b2h::explore::ExploreResult result;
  std::string json;
};
[[nodiscard]] ExploreOp RunExplore(const b2h::Toolchain& toolchain,
                                   const b2h::explore::ExploreSpec& spec);

/// "" when every point of `result` has the outcome the suite expects: ok,
/// or the paper's CDFG recovery failure on the two jump-table programs.
[[nodiscard]] std::string CheckPoints(const PoolBinary& entry,
                                      const b2h::explore::ExploreResult& result);

/// "" when a profiling run returned the suite's native reference value.
[[nodiscard]] std::string CheckReturn(const PoolBinary& entry,
                                      const b2h::mips::RunResult& run);

/// The resolved axes of a flow: what the layer drive calls into.
struct Axes {
  std::vector<b2h::partition::Platform> platforms;
  std::vector<std::string> strategy_names;
  std::vector<std::unique_ptr<b2h::partition::Strategy>> strategies;
  std::vector<b2h::partition::Objective> objectives;
  b2h::partition::StrategyOptions strategy_options;
};
[[nodiscard]] Axes ResolveAxes(
    const std::vector<std::string>& platforms,
    const std::vector<std::string>& strategies,
    std::vector<b2h::partition::Objective> objectives, std::uint64_t seed = 1);

/// One distinct strategy call, deduplicated the way the explorer keys
/// partitions: objective-insensitive strategies run once per platform.
struct DriveJob {
  std::size_t platform = 0;
  std::size_t strategy = 0;
  b2h::partition::Objective objective = b2h::partition::Objective::kSpeedup;
  b2h::Result<b2h::partition::PartitionResult> result =
      b2h::Status::Error(b2h::ErrorKind::kUnsupported, "not run");
  b2h::partition::AppEstimate estimate;
};

struct Drive {
  b2h::Status status;  ///< profiling or CDFG recovery failure
  b2h::mips::RunResult run;
  std::shared_ptr<const b2h::decomp::DecompiledProgram> program;
  std::shared_ptr<const b2h::partition::CandidateSet> set;
  std::vector<DriveJob> jobs;
  std::size_t regions = 0;
  double op_ms = 0.0;     ///< the op, timed whether or not spans record
  double layer_ms = 0.0;  ///< summed layer calls inside the op (traced)
};

/// The default pass pipeline, verifying, as the toolchain runs it.
[[nodiscard]] const b2h::decomp::PassManager& DefaultPipeline();

/// Drives one binary through the public functions of each layer, in the
/// order the Explore path runs them: pre-decode, simulator set-up, the
/// profiling run, the pass pipeline, candidate scan, synthesis of every
/// profiled candidate, then each strategy call and its estimate, all under
/// an "op" span.  With spans recording, a probe after the op splits the
/// pipeline into lift and one-pass runs in default order.
[[nodiscard]] Drive RunDrive(const PoolBinary& entry, const Axes& axes,
                             SpanRecorder& spans);

/// Times the strategies the flow itself does not run on the op's
/// synthesized set (outside the op), so every workload reports each one.
void ProbeStrategies(const Drive& drive, const Axes& axes,
                     SpanRecorder& spans);

/// "" when the layer drive reproduces every point of the Explore path.
[[nodiscard]] std::string CompareWithExplore(
    const PoolBinary& entry, const Drive& drive, const Axes& axes,
    const b2h::explore::ExploreResult& result);

/// The drive's partition for one request, rendered the way a served
/// `partition` report is (ToolchainRun::Json).
[[nodiscard]] std::string PartitionReport(const std::string& binary_name,
                                          const std::string& platform_name,
                                          const Drive& drive,
                                          const DriveJob& job);

/// Work counts of the drives a traced run made.
struct LayerTally {
  std::size_t ops = 0;
  double instructions = 0.0;
  double lifted = 0.0;
  double final_instrs = 0.0;
  double candidates = 0.0;
  double regions = 0.0;
  void Count(const Drive& drive);
};

/// Adds the mips, decomp, synth and partition per-layer metrics of the
/// traced drives recorded in `spans`: op-level layers per op, synthesis,
/// strategy and estimate calls per call.
void AddLayerMetrics(const std::vector<SpanRecorder::Span>& spans,
                     const LayerTally& tally, Outcome& outcome);

/// Files the drive's partitions in `cache` under synthetic keys and times
/// memory-tier FindPartition hits on them.
void TimeCacheFinds(const Drive& drive, const std::string& tag,
                    b2h::explore::ArtifactCache& cache, Samples& find_ms);

}  // namespace perfbench
