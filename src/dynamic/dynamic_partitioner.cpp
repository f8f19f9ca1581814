#include "dynamic/dynamic_partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "decomp/alias.hpp"
#include "decomp/lifter.hpp"
#include "decomp/pass_manager.hpp"
#include "dynamic/hot_region.hpp"
#include "ir/dominators.hpp"
#include "ir/loops.hpp"
#include "mips/isa.hpp"
#include "obs/obs.hpp"
#include "synth/hw_region.hpp"
#include "synth/synth.hpp"

namespace b2h::dynamic {

namespace {

/// Hot-loop detector slots (HotRegionCache rounds up to a power of two).
constexpr std::size_t kDetectorEntries = 64;

std::string Hex(std::uint32_t value) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "0x%x", value);
  return buffer;
}

/// Absolute per-range counters read off the live profile + instruction
/// encodings (no IR, no simulator hot-path support needed).  Differences of
/// two snapshots give exactly what a region cost within a time window.
struct RangeSnapshot {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t header_execs = 0;
  std::uint64_t latch_reentries = 0;  ///< latch executions back to header
};

RangeSnapshot SnapshotRange(const mips::SoftBinary& binary,
                            const mips::ExecProfile& profile,
                            std::uint32_t lo, std::uint32_t hi,
                            std::uint32_t header_pc) {
  RangeSnapshot snap;
  for (std::uint32_t pc = lo; pc < hi; pc += 4) {
    const std::size_t word = (pc - mips::kTextBase) / 4u;
    if (word >= profile.instr_count.size()) break;
    snap.instructions += profile.instr_count[word];
    snap.cycles += profile.cycle_count[word];
    const auto instr = mips::Decode(binary.text[word]);
    if (!instr.has_value()) continue;
    if (mips::IsLoad(instr->op) || mips::IsStore(instr->op)) {
      snap.mem_accesses += profile.instr_count[word];
    }
    // Latches: in-range control transfers back to the header.  Every header
    // execution NOT fed from inside the range is an entry from outside.
    if (mips::IsBranch(instr->op) &&
        mips::BranchTarget(pc, *instr) == header_pc) {
      snap.latch_reentries += profile.branch_taken[word];
    } else if (instr->op == mips::Op::kJ &&
               mips::JumpTarget(pc, *instr) == header_pc) {
      snap.latch_reentries += profile.instr_count[word];
    }
  }
  // In-range fallthrough into the header (rotated loop layouts, and helper
  // calls just before the header whose return resumes at it) is a re-entry,
  // not a kernel invocation.
  if (header_pc > lo) {
    const std::size_t prev = (header_pc - 4 - mips::kTextBase) / 4u;
    if (prev < profile.instr_count.size()) {
      if (const auto instr = mips::Decode(binary.text[prev])) {
        if (mips::IsBranch(instr->op)) {
          snap.latch_reentries += profile.branch_not_taken[prev];
        } else if (instr->op == mips::Op::kJal) {
          snap.latch_reentries += profile.instr_count[prev];
        } else if (!mips::IsDirectJump(instr->op) &&
                   !mips::IsIndirectJump(instr->op)) {
          snap.latch_reentries += profile.instr_count[prev];
        }
      }
    }
  }
  const std::size_t header_word = (header_pc - mips::kTextBase) / 4u;
  if (header_word < profile.instr_count.size()) {
    snap.header_execs = profile.instr_count[header_word];
  }
  return snap;
}

/// Post-swap window accounting: the delta between two snapshots.
RegionWindowStats WindowBetween(std::uint32_t lo, std::uint32_t hi,
                                std::uint32_t header_pc,
                                const RangeSnapshot& start,
                                const RangeSnapshot& end) {
  RegionWindowStats stats;
  stats.lo = lo;
  stats.hi = hi;
  stats.header_pc = header_pc;
  stats.instructions = end.instructions - start.instructions;
  stats.cycles = end.cycles - start.cycles;
  stats.mem_accesses = end.mem_accesses - start.mem_accesses;
  stats.header_hits = end.header_execs - start.header_execs;
  const std::uint64_t reentries = end.latch_reentries - start.latch_reentries;
  stats.entries =
      stats.header_hits > reentries ? stats.header_hits - reentries : 0u;
  return stats;
}

/// The online partitioner: observes backward branches, detects hot headers,
/// and performs the decompile -> synthesize -> swap-in sequence from inside
/// the simulator callback.  All state it reads is deterministic, so the
/// whole dynamic run is reproducible.
class OnlinePartitioner final : public mips::RunObserver {
 public:
  struct Mapped {
    std::string name;
    std::uint32_t header_pc = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    partition::DynamicKernelModel model;
    double area_gates = 0.0;
    bool evicted = false;
    RangeSnapshot at_swap;   ///< profile counters when the kernel went live
    RangeSnapshot at_evict;  ///< profile counters at eviction (if evicted)
  };

  OnlinePartitioner(std::shared_ptr<const mips::SoftBinary> binary,
                    const partition::Platform& platform,
                    const DynamicOptions& options,
                    const decomp::PassManager& pipeline)
      : binary_(std::move(binary)),
        platform_(platform),
        options_(options),
        pipeline_(pipeline),
        cache_(kDetectorEntries, options.policy.hot_threshold),
        function_entries_(decomp::FunctionEntries(*binary_)) {}

  void OnBackwardBranches(std::span<const mips::BranchEvent> events,
                          const mips::RunResult& so_far) override {
    for (const mips::BranchEvent& event : events) {
      const auto hot = cache_.Observe(event.target_pc, event.from_pc);
      if (hot.has_value()) TrySwapIn(*hot, so_far);
    }
  }

  [[nodiscard]] const std::vector<Mapped>& mapped() const { return mapped_; }
  [[nodiscard]] const std::vector<SwapEvent>& swaps() const { return swaps_; }
  [[nodiscard]] const std::vector<std::string>& rejected() const {
    return rejected_;
  }
  [[nodiscard]] std::uint64_t detector_events() const {
    return cache_.events();
  }
  [[nodiscard]] double online_cad_ms() const { return online_cad_ms_; }
  [[nodiscard]] double time_to_first_kernel_ms() const {
    return time_to_first_kernel_ms_;
  }
  /// Host CAD milliseconds spent up to and including the first successful
  /// swap (earlier rejected attempts included): the wall-clock input to the
  /// simulated time-to-first-kernel conversion.
  [[nodiscard]] double cad_ms_to_first_kernel() const {
    return cad_ms_to_first_kernel_;
  }

  void StartWallClock() { wall_.Reset(); }

 private:
  void Reject(std::uint32_t header_pc, const std::string& reason) {
    obs::Registry::Global().counter("dynamic.rejections").Add();
    rejected_.push_back(Hex(header_pc) + ": " + reason);
  }

  /// Observed value (saved seconds) of an active kernel so far, for the
  /// eviction plan's value-density ordering.
  [[nodiscard]] double SavedSecondsSoFar(
      const Mapped& kernel, const mips::ExecProfile& profile) const {
    const RangeSnapshot now = SnapshotRange(*binary_, profile, kernel.lo,
                                            kernel.hi, kernel.header_pc);
    const RegionWindowStats stats = WindowBetween(
        kernel.lo, kernel.hi, kernel.header_pc, kernel.at_swap, now);
    const double cpu_hz = platform_.cpu.clock_mhz * 1e6;
    const double sw_seconds = static_cast<double>(stats.cycles) / cpu_hz;
    // Same in-flight-invocation clamp as PriceDynamicKernel.
    const std::uint64_t invocations =
        stats.header_hits > 0 ? std::max<std::uint64_t>(1, stats.entries)
                              : stats.entries;
    return sw_seconds -
           partition::DynamicHwSeconds(
               platform_, kernel.model,
               static_cast<double>(stats.header_hits),
               static_cast<double>(invocations),
               static_cast<double>(stats.mem_accesses));
  }

  void TrySwapIn(const HotEvent& hot, const mips::RunResult& so_far) {
    const std::uint32_t header = hot.header_pc;
    if (!attempted_.insert(header).second) return;  // one decision per header

    // --- Incremental decompilation: just the enclosing function. ---------
    const obs::Stopwatch cad_watch;
    auto entry_it = std::upper_bound(function_entries_.begin(),
                                     function_entries_.end(), header);
    if (entry_it == function_entries_.begin()) {
      Reject(header, "no enclosing function");
      return;
    }
    const std::uint32_t root_entry = *std::prev(entry_it);
    double decompile_ms = 0.0;
    auto program = [&] {
      obs::ScopedSpan span("dynamic.decompile", "dynamic");
      span.Arg("header_pc", static_cast<std::uint64_t>(header));
      auto result = pipeline_.RunAt(binary_, root_entry, &so_far.profile);
      decompile_ms = cad_watch.Millis();
      return result;
    }();
    online_cad_ms_ += decompile_ms;
    if (!program.ok()) {
      Reject(header, "decompilation failed: " + program.status().message());
      return;
    }

    // --- Locate the hot loop in the recovered CDFG. -----------------------
    const ir::Function& root = *program.value().module.main;
    ir::DominatorTree dom(root);
    ir::LoopForest forest(root, dom);
    forest.AnnotateProfile();
    const ir::Loop* loop = nullptr;
    for (const auto& candidate : forest.loops()) {
      if (candidate->header->start_pc == header) {
        loop = candidate.get();
        break;
      }
    }
    if (loop == nullptr) {
      Reject(header, "no recovered loop at this header");
      return;
    }

    // --- Synthesize the region. ------------------------------------------
    const obs::Stopwatch synth_watch;
    obs::ScopedSpan synth_span("dynamic.synth", "dynamic");
    synth_span.Arg("header_pc", static_cast<std::uint64_t>(header));
    synth::HwRegion region = synth::ExtractLoopRegion(root, *loop);
    decomp::AliasAnalysis alias(root, &binary_->symbols);
    auto synthesized = synth::Synthesize(region, &alias);
    const double synth_ms = synth_watch.Millis();
    synth_span.Close();
    online_cad_ms_ += synth_ms;
    if (!synthesized.ok()) {
      Reject(header, "synthesis failed: " + synthesized.status().message());
      return;
    }
    const synth::SynthesizedRegion& kernel = synthesized.value();
    const double clock_mhz =
        std::min(kernel.clock_mhz, platform_.fpga.clock_mhz_cap);

    // --- Binary extent of the loop: detector latch + CDFG provenance. -----
    std::uint32_t lo = header;
    std::uint32_t hi = hot.max_latch_pc + 4;
    for (const ir::Block* block : region.blocks) {
      if (block->start_pc != 0) {
        lo = std::min(lo, block->start_pc);
        hi = std::max(hi, block->start_pc + 4);
      }
      const ir::Instr* term = block->has_terminator() ? block->terminator()
                                                      : nullptr;
      if (term != nullptr && term->src_pc != 0) {
        hi = std::max(hi, term->src_pc + 4);
      }
    }
    hi = std::min(hi, binary_->text_end());

    // --- Per-iteration costs from the partial profile. --------------------
    const RangeSnapshot at_swap =
        SnapshotRange(*binary_, so_far.profile, lo, hi, header);
    const std::uint64_t iterations =
        std::max<std::uint64_t>(1, at_swap.header_execs);
    const double sw_cpi = static_cast<double>(at_swap.cycles) /
                          static_cast<double>(iterations);
    const double mem_per_iter = static_cast<double>(at_swap.mem_accesses) /
                                static_cast<double>(iterations);
    const std::uint64_t annotated_iters =
        std::max<std::uint64_t>(1, loop->header->exec_count);
    const std::uint64_t entries =
        std::max<std::uint64_t>(1, loop->entry_count);

    partition::DynamicKernelModel model;
    model.hw_cycles_per_iteration = static_cast<double>(kernel.hw_cycles) /
                                    static_cast<double>(annotated_iters);
    model.kernel_clock_mhz = clock_mhz;
    model.iterations_per_entry = static_cast<double>(annotated_iters) /
                                 static_cast<double>(entries);
    model.mem_accesses_per_iteration = mem_per_iter;
    model.array_footprint_words = partition::ArrayFootprintWords(
        alias, alias.RegionsIn(*loop), *binary_);

    const double projected =
        partition::ProjectedIterationSpeedup(platform_, sw_cpi, model);
    if (projected < 1.0) {
      char text[64];
      std::snprintf(text, sizeof text, "%.2f", projected);
      Reject(header, std::string("not profitable in hardware (projected ") +
                         text + "x)");
      return;
    }

    // --- Overlap analysis: subsume contained kernels, reject otherwise. ---
    std::vector<std::size_t> subsumed;  // indices into mapped_
    for (std::size_t i = 0; i < mapped_.size(); ++i) {
      if (mapped_[i].evicted) continue;
      const bool contained = mapped_[i].lo >= lo && mapped_[i].hi <= hi;
      const bool disjoint = mapped_[i].hi <= lo || mapped_[i].lo >= hi;
      if (contained) {
        subsumed.push_back(i);
      } else if (!disjoint) {
        Reject(header,
               "overlaps mapped kernel " + Hex(mapped_[i].header_pc));
        return;
      }
    }

    // --- Area: evict lower-value kernels if the budget is exhausted. ------
    double area_used = 0.0;
    std::vector<partition::ActiveKernel> active;
    for (std::size_t i = 0; i < mapped_.size(); ++i) {
      if (mapped_[i].evicted) continue;
      if (std::find(subsumed.begin(), subsumed.end(), i) != subsumed.end()) {
        continue;  // being replaced regardless
      }
      area_used += mapped_[i].area_gates;
      partition::ActiveKernel entry;
      entry.id = i;
      entry.area_gates = mapped_[i].area_gates;
      entry.value_density =
          mapped_[i].area_gates > 0.0
              ? SavedSecondsSoFar(mapped_[i], so_far.profile) /
                    mapped_[i].area_gates
              : 0.0;
      active.push_back(entry);
    }
    const double cpu_hz = platform_.cpu.clock_mhz * 1e6;
    const double saved_per_iter =
        sw_cpi / cpu_hz -
        partition::DynamicHwSeconds(
            platform_, model, 1.0,
            1.0 / std::max(1.0, model.iterations_per_entry), mem_per_iter);
    const double candidate_density =
        kernel.area.total_gates > 0.0
            ? saved_per_iter * static_cast<double>(iterations) /
                  kernel.area.total_gates
            : 0.0;
    const auto eviction_plan = partition::PlanEviction(
        std::move(active), platform_.fpga.budget_gates(), area_used,
        kernel.area.total_gates, candidate_density);
    if (!eviction_plan.has_value()) {
      Reject(header, "area constraint violated");
      return;
    }

    // --- Commit: evict, map, record. --------------------------------------
    obs::ScopedSpan swap_span("dynamic.swap", "dynamic");
    swap_span.Arg("header_pc", static_cast<std::uint64_t>(header))
        .Arg("area_gates", kernel.area.total_gates)
        .Arg("projected_speedup", projected);
    SwapEvent swap;
    const auto evict = [&](std::size_t i) {
      mapped_[i].evicted = true;
      mapped_[i].at_evict =
          SnapshotRange(*binary_, so_far.profile, mapped_[i].lo,
                        mapped_[i].hi, mapped_[i].header_pc);
      swap.evicted_headers.push_back(mapped_[i].header_pc);
    };
    for (std::size_t i : subsumed) evict(i);
    for (std::size_t i : *eviction_plan) evict(i);

    Mapped entry;
    entry.name = region.name;
    entry.header_pc = header;
    entry.lo = lo;
    entry.hi = hi;
    entry.model = model;
    entry.area_gates = kernel.area.total_gates;
    entry.at_swap = at_swap;
    mapped_.push_back(std::move(entry));

    swap.header_pc = header;
    swap.range_lo = lo;
    swap.range_hi = hi;
    swap.at_instruction = so_far.instructions;
    swap.at_cycle = so_far.cycles;
    swap.detect_count = hot.count;
    swap.area_gates = kernel.area.total_gates;
    swap.clock_mhz = clock_mhz;
    swap.hw_cycles_per_iteration = model.hw_cycles_per_iteration;
    swap.dma_staged = partition::PrefersDmaStaging(platform_, model);
    swap.projected_speedup = projected;
    swap.decompile_ms = decompile_ms;
    swap.synth_ms = synth_ms;
    swaps_.push_back(std::move(swap));
    obs::Registry::Global().counter("dynamic.swaps").Add();
    if (swaps_.size() == 1) {
      time_to_first_kernel_ms_ = wall_.Millis();
      cad_ms_to_first_kernel_ = online_cad_ms_;
    }
  }

  std::shared_ptr<const mips::SoftBinary> binary_;
  const partition::Platform& platform_;
  const DynamicOptions& options_;
  const decomp::PassManager& pipeline_;
  HotRegionCache cache_;
  std::vector<std::uint32_t> function_entries_;
  std::set<std::uint32_t> attempted_;
  std::vector<Mapped> mapped_;
  std::vector<SwapEvent> swaps_;
  std::vector<std::string> rejected_;
  double online_cad_ms_ = 0.0;
  double time_to_first_kernel_ms_ = 0.0;
  double cad_ms_to_first_kernel_ = 0.0;
  obs::Stopwatch wall_;
};

}  // namespace

DynamicPartitioner::DynamicPartitioner(partition::Platform platform,
                                       DynamicOptions options,
                                       std::string platform_name)
    : platform_(std::move(platform)),
      options_(std::move(options)),
      platform_name_(std::move(platform_name)) {}

Result<DynamicRun> DynamicPartitioner::Run(
    std::shared_ptr<const mips::SoftBinary> binary,
    std::string binary_name) const {
  Check(binary != nullptr, "DynamicPartitioner: null binary");
  auto manager = decomp::PassManager::FromSpec(options_.pipeline);
  if (!manager.ok()) return manager.status();
  const decomp::PassManager pipeline = std::move(manager).take();

  mips::Simulator sim(*binary, platform_.cpu.cycle_model);
  OnlinePartitioner online(binary, platform_, options_, pipeline);
  obs::ScopedSpan span("dynamic.run", "dynamic");
  span.Arg("binary", binary_name).Arg("platform", platform_name_);
  online.StartWallClock();
  mips::RunResult run =
      sim.RunInstrumented({}, options_.max_instructions, &online);
  if (run.reason != mips::HaltReason::kReturned) {
    return Status::Error(ErrorKind::kMalformedBinary,
                         "dynamic run did not complete: " + run.fault_message);
  }

  DynamicRun out;
  out.binary_name = std::move(binary_name);
  out.platform_name = platform_name_;
  out.run = std::move(run);
  out.swaps = online.swaps();
  out.rejected = online.rejected();
  out.detector_events = online.detector_events();
  out.online_cad_ms = online.online_cad_ms();
  out.time_to_first_kernel_ms = online.time_to_first_kernel_ms();
  // Simulated-time CAD accounting: convert the host wall-clock CAD cost
  // through the policy's cycles-per-millisecond model.
  const double cad_rate = options_.policy.cad_cycles_per_ms;
  out.cad_simulated_cycles = static_cast<std::uint64_t>(
      std::llround(online.online_cad_ms() * cad_rate));
  if (!out.swaps.empty()) {
    out.time_to_first_kernel_cycles =
        out.swaps.front().at_cycle +
        static_cast<std::uint64_t>(
            std::llround(online.cad_ms_to_first_kernel() * cad_rate));
  }

  std::vector<partition::KernelEstimate> estimates;
  for (const auto& mapped : online.mapped()) {
    DynamicKernel kernel;
    kernel.name = mapped.name;
    kernel.header_pc = mapped.header_pc;
    kernel.evicted = mapped.evicted;
    const RangeSnapshot end =
        mapped.evicted
            ? mapped.at_evict
            : SnapshotRange(*binary, out.run.profile, mapped.lo, mapped.hi,
                            mapped.header_pc);
    kernel.observed = WindowBetween(mapped.lo, mapped.hi, mapped.header_pc,
                                    mapped.at_swap, end);
    kernel.estimate = partition::PriceDynamicKernel(
        mapped.name, platform_, mapped.model, kernel.observed.cycles,
        kernel.observed.header_hits, kernel.observed.entries,
        kernel.observed.mem_accesses, mapped.area_gates);
    estimates.push_back(kernel.estimate);
    out.kernels.push_back(std::move(kernel));
  }
  out.estimate = partition::CombineEstimates(platform_, out.run.cycles,
                                             std::move(estimates));
  // Copy back the derived per-kernel timings for the report.
  for (std::size_t i = 0; i < out.kernels.size(); ++i) {
    out.kernels[i].estimate = out.estimate.kernels[i];
  }
  return out;
}

std::string DynamicRun::Report() const {
  std::ostringstream out;
  char line[256];
  out << "=== dynamic run: " << binary_name << " on " << platform_name
      << " ===\n";
  std::snprintf(line, sizeof line,
                "run: %llu instructions, %llu cycles, returned %d\n",
                static_cast<unsigned long long>(run.instructions),
                static_cast<unsigned long long>(run.cycles),
                run.return_value);
  out << line;
  std::snprintf(line, sizeof line,
                "detector: %llu backward-branch events, %zu swap(s), "
                "%zu rejection(s)\n",
                static_cast<unsigned long long>(detector_events),
                swaps.size(), rejected.size());
  out << line;
  for (std::size_t i = 0; i < swaps.size(); ++i) {
    const SwapEvent& swap = swaps[i];
    std::snprintf(line, sizeof line,
                  "swap %zu: header=0x%x range=[0x%x,0x%x) at instr=%llu "
                  "area=%.0f clock=%.1fMHz cpi=%.2f mem=%s projected=%.1fx",
                  i + 1, swap.header_pc, swap.range_lo, swap.range_hi,
                  static_cast<unsigned long long>(swap.at_instruction),
                  swap.area_gates, swap.clock_mhz,
                  swap.hw_cycles_per_iteration,
                  swap.dma_staged ? "dma-staged" : "bus",
                  swap.projected_speedup);
    out << line;
    if (!swap.evicted_headers.empty()) {
      out << " evicted=";
      for (std::size_t j = 0; j < swap.evicted_headers.size(); ++j) {
        if (j != 0) out << ",";
        out << Hex(swap.evicted_headers[j]);
      }
    }
    out << "\n";
  }
  for (const DynamicKernel& kernel : kernels) {
    std::snprintf(
        line, sizeof line,
        "kernel %s%s: iters=%llu entries=%llu swCycles=%llu memAcc=%llu "
        "speedup=%.1fx\n",
        kernel.name.c_str(), kernel.evicted ? " (evicted)" : "",
        static_cast<unsigned long long>(kernel.observed.header_hits),
        static_cast<unsigned long long>(kernel.observed.entries),
        static_cast<unsigned long long>(kernel.observed.cycles),
        static_cast<unsigned long long>(kernel.observed.mem_accesses),
        kernel.estimate.kernel_speedup);
    out << line;
  }
  for (const std::string& reason : rejected) {
    out << "rejected " << reason << "\n";
  }
  std::snprintf(line, sizeof line,
                "estimate: sw=%.3fms dynamic=%.3fms speedup=%.2fx "
                "energy-savings=%.0f%%\n",
                estimate.sw_time * 1e3, estimate.partitioned_time * 1e3,
                estimate.speedup, estimate.energy_savings * 100.0);
  out << line;
  return out.str();
}

}  // namespace b2h::dynamic
