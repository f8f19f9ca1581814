#include "toolchain/toolchain.hpp"

#include <iomanip>
#include <sstream>

#include "obs/obs.hpp"
#include "support/json.hpp"
#include "support/schema.hpp"

namespace b2h {

using support::JsonEscape;

// ---------------------------------------------------------- ToolchainRun

ToolchainRun ToolchainRun::FromPoint(const explore::ExplorePoint& point) {
  Check(point.artifact != nullptr, "ToolchainRun: point has no artifact");
  ToolchainRun run;
  run.binary_name = point.binary_name;
  run.platform_name = point.platform_name;
  run.software_run = point.artifact->software_run;
  run.program = point.artifact->program;
  run.partition = point.artifact->partition;
  run.estimate = point.artifact->estimate;
  return run;
}

std::string ToolchainRun::Report() const {
  std::ostringstream out;
  out << "=== " << binary_name << " on " << platform_name << " ===\n";
  out << ReportBody();
  if (!program->pass_runs.empty()) {
    out << "passes:";
    for (const auto& run : program->pass_runs) {
      char millis[32];
      std::snprintf(millis, sizeof millis, "%.3f", run.millis);
      out << " " << run.pass << "=" << millis << "ms";
    }
    out << "\n";
  }
  return out.str();
}

std::string ToolchainRun::ReportBody() const {
  using partition::SelectedBy;
  std::ostringstream out;
  out << std::fixed;
  out << "software: " << software_run->instructions << " instrs, "
      << software_run->cycles << " cycles, rv=" << software_run->return_value
      << "\n";
  const auto& stats = program->stats;
  out << "decompile: " << stats.lifted_instrs << " -> " << stats.final_instrs
      << " ops (stack ops removed " << stats.stack_ops_removed
      << ", loops rerolled " << stats.loops_rerolled << ", muls recovered "
      << stats.muls_recovered << ", narrowed " << stats.instrs_narrowed
      << ")\n";
  out << "partition: " << partition.hw.size() << " hw region(s), area "
      << std::setprecision(0) << partition.area_used_gates << " / "
      << partition.area_budget_gates << " gates, loop coverage "
      << std::setprecision(1) << partition.loop_coverage * 100.0 << "%\n";
  for (const auto& selected : partition.hw) {
    const char* reason = selected.selected_by == SelectedBy::kFrequency
                             ? "freq"
                         : selected.selected_by == SelectedBy::kAlias ? "alias"
                         : selected.selected_by == SelectedBy::kGreedy
                             ? "greedy"
                         : selected.selected_by == SelectedBy::kOptimal
                             ? "optimal"
                             : "annealed";
    out << "  [" << reason << "] " << selected.synthesized.region.name
        << ": sw " << selected.sw_cycles << " cyc -> hw "
        << selected.synthesized.hw_cycles << " cyc @ "
        << std::setprecision(0) << selected.synthesized.clock_mhz << " MHz, "
        << selected.synthesized.area.total_gates << " gates";
    if (selected.synthesized.schedule.pipeline_ii > 0) {
      out << ", II=" << selected.synthesized.schedule.pipeline_ii;
    }
    if (selected.arrays_resident) out << ", arrays resident";
    out << "\n";
  }
  // Why regions were skipped.
  for (const std::string& reason :
       partition::UniqueRejections(partition.rejected)) {
    out << "  rejected " << reason << "\n";
  }
  out << std::setprecision(2);
  out << "estimate: speedup " << estimate.speedup << "x, kernel speedup "
      << estimate.avg_kernel_speedup << "x, energy savings "
      << std::setprecision(1) << estimate.energy_savings * 100.0 << "%\n";
  return out.str();
}

std::string ToolchainRun::Json() const {
  std::ostringstream out;
  char number[64];
  out << "{\"schema\":" << kReportSchemaVersion << ",\"binary\":\""
      << JsonEscape(binary_name) << "\",\"platform\":\""
      << JsonEscape(platform_name) << "\"";
  std::snprintf(number, sizeof number, "%.9g", estimate.speedup);
  out << ",\"speedup\":" << number;
  std::snprintf(number, sizeof number, "%.9g", estimate.energy_savings);
  out << ",\"energy_savings\":" << number;
  std::snprintf(number, sizeof number, "%.9g", estimate.area_gates);
  out << ",\"area_gates\":" << number;
  out << ",\"hw_regions\":[";
  for (std::size_t i = 0; i < partition.hw.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << JsonEscape(partition.hw[i].synthesized.region.name)
        << "\"";
  }
  out << "],\"rejected\":[";
  for (std::size_t i = 0; i < partition.rejected.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << JsonEscape(partition.rejected[i]) << "\"";
  }
  out << "]}";
  return out.str();
}

// -------------------------------------------------------------- Toolchain

Toolchain::Toolchain() {
  // Env-only plumbing: a process pointed at a cache dir via B2H_CACHE_DIR
  // gets a disk-backed cache without any code changes (ResolveCacheDir
  // returns "" when the variable is unset, which keeps the cache
  // memory-only).
  const std::string dir = explore::ResolveCacheDir("");
  artifact_cache_ = dir.empty()
                        ? std::make_shared<explore::ArtifactCache>()
                        : std::make_shared<explore::ArtifactCache>(
                              explore::DiskStore::Options{dir, 0});
}

Toolchain::~Toolchain() {
  if (!trace_path_.empty()) (void)FlushTrace();
}

Toolchain& Toolchain::WithTrace(std::string trace_path, std::size_t capacity) {
  trace_path_ = std::move(trace_path);
  obs::Tracer::Global().Enable(capacity == 0 ? obs::Tracer::kDefaultCapacity
                                             : capacity);
  return *this;
}

bool Toolchain::FlushTrace() const {
  if (trace_path_.empty()) return true;
  return obs::Tracer::Global().WriteChromeTrace(trace_path_);
}

Toolchain& Toolchain::WithCacheDir(std::string directory,
                                   std::uint64_t max_bytes) {
  const std::string dir = explore::ResolveCacheDir(std::move(directory));
  artifact_cache_ = std::make_shared<explore::ArtifactCache>(
      explore::DiskStore::Options{dir, max_bytes});
  return *this;
}

Toolchain& Toolchain::WithPipeline(std::string spec) {
  pipeline_spec_ = std::move(spec);
  return *this;
}

Toolchain& Toolchain::WithMaxSimInstructions(std::uint64_t max_instructions) {
  max_sim_instructions_ = max_instructions;
  return *this;
}

Toolchain& Toolchain::WithThreads(unsigned threads) {
  threads_ = threads;
  return *this;
}

Toolchain& Toolchain::WithDynamicPolicy(partition::DynamicPolicy policy) {
  dynamic_policy_ = policy;
  return *this;
}

Toolchain& Toolchain::WithArtifactCache(
    std::shared_ptr<explore::ArtifactCache> cache) {
  Check(cache != nullptr, "Toolchain: null artifact cache");
  artifact_cache_ = std::move(cache);
  return *this;
}

explore::ExplorerConfig Toolchain::Config() const {
  explore::ExplorerConfig config;
  config.pipeline = pipeline_spec_;
  config.max_sim_instructions = max_sim_instructions_;
  config.threads = threads_;
  return config;
}

explore::ExploreResult Toolchain::Explore(
    const explore::ExploreSpec& spec) const {
  return explore::Explorer(Config(), artifact_cache_).Run(spec);
}

BatchResult Toolchain::RunMany(
    const std::vector<NamedBinary>& binaries,
    const std::vector<std::string>& platform_names) const {
  explore::ExploreSpec spec;
  spec.binaries = binaries;
  spec.platforms = platform_names;
  spec.strategies = {"paper-greedy"};
  spec.objectives = {partition::Objective::kSpeedup};
  // A null cache gives the sweep a private memory-only one, never
  // artifact_cache_: see the header comment.
  const explore::ExploreResult sweep = explore::Explorer(Config()).Run(spec);

  BatchResult batch;
  batch.num_platforms = spec.platforms.size();
  batch.simulations_run = sweep.simulations_run;
  batch.decompilations_run = sweep.decompilations_run;
  batch.runs.reserve(sweep.points.size());
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const explore::ExplorePoint& point = sweep.points[i];
    if (!point.status.ok()) {
      batch.runs.emplace_back(point.status);
      continue;
    }
    ToolchainRun run = ToolchainRun::FromPoint(point);
    run.binary = spec.binaries[i / batch.num_platforms].binary;
    batch.runs.emplace_back(std::move(run));
  }
  return batch;
}

Result<ToolchainRun> Toolchain::RunOn(
    std::string_view platform_name,
    std::shared_ptr<const mips::SoftBinary> binary,
    std::string binary_name) const {
  BatchResult batch = RunMany({{std::move(binary_name), std::move(binary)}},
                              {std::string(platform_name)});
  return std::move(batch.runs.front());
}

Result<DynamicToolchainRun> Toolchain::RunDynamicOn(
    std::string_view platform_name,
    std::shared_ptr<const mips::SoftBinary> binary,
    std::string binary_name) const {
  auto static_run =
      RunOn(platform_name, std::move(binary), std::move(binary_name));
  if (!static_run.ok()) return static_run.status();
  const ToolchainRun& oracle = static_run.value();
  const auto platform = PlatformRegistry::Global().Find(oracle.platform_name);
  Check(platform.has_value(), "Toolchain: platform vanished from registry");
  dynamic::DynamicOptions options;
  options.policy = dynamic_policy_;
  options.pipeline = pipeline_spec_;
  options.max_instructions = max_sim_instructions_;
  dynamic::DynamicPartitioner online(*platform, options, oracle.platform_name);
  auto dynamic_run = online.Run(oracle.binary, oracle.binary_name);
  if (!dynamic_run.ok()) return dynamic_run.status();

  DynamicToolchainRun run;
  run.static_run = std::move(static_run).take();
  run.dynamic_run = std::move(dynamic_run).take();
  run.convergence = run.static_run.estimate.speedup > 0.0
                        ? run.dynamic_run.estimate.speedup /
                              run.static_run.estimate.speedup
                        : 0.0;
  return run;
}

std::string DynamicToolchainRun::Report() const {
  std::ostringstream out;
  out << dynamic_run.Report();
  char line[160];
  std::snprintf(line, sizeof line,
                "static oracle: speedup=%.2fx (dynamic captured %.0f%% of "
                "the static payoff)\n",
                static_run.estimate.speedup, convergence * 100.0);
  out << line;
  return out.str();
}

}  // namespace b2h
