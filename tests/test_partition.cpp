// Partitioner and estimator tests: the three steps of the paper's
// algorithm, area budgeting, the performance/energy model, the platform
// trends the paper reports (slower CPU -> larger speedup and savings), the
// candidate pool serving each program instance its own set, the
// table-driven subset scorer against the definitions it replaced, and the
// annealing strategy's early-stopping walk against the full walk.
#include "partition/partitioner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <tuple>

#include "minicc/codegen.hpp"
#include "partition/candidates.hpp"
#include "partition/strategy.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

// Counts this thread's global operator new calls, so the scorer test can
// show that scoring a subset allocates nothing.  Every unaligned new and
// delete form is replaced, so sanitizer runtimes only ever see matching
// malloc/free pairs.
namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* memory = ::operator new(size, std::nothrow)) return memory;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete[](void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }
void operator delete[](void* memory, std::size_t) noexcept {
  std::free(memory);
}
void operator delete(void* memory, const std::nothrow_t&) noexcept {
  std::free(memory);
}
void operator delete[](void* memory, const std::nothrow_t&) noexcept {
  std::free(memory);
}

namespace b2h::partition {
namespace {

/// Runs `binary` through Toolchain::RunOn on a registered platform.
ToolchainRun RunBinary(mips::SoftBinary binary, const std::string& name,
                       const std::string& platform_name = "mips200-xc2v1000") {
  Toolchain toolchain;
  auto run = toolchain.RunOn(
      platform_name,
      std::make_shared<const mips::SoftBinary>(std::move(binary)), name);
  EXPECT_TRUE(run.ok()) << run.status().message();
  return std::move(run).take();
}

/// Builds benchmark `name` at -O1 and runs it as RunBinary does.
ToolchainRun RunBenchmark(
    const std::string& name,
    const std::string& platform_name = "mips200-xc2v1000") {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr);
  auto binary = suite::BuildBinary(*bench, 1);
  EXPECT_TRUE(binary.ok());
  return RunBinary(std::move(binary).take(), name, platform_name);
}

TEST(Partitioner, SelectsHotLoopsFirst) {
  const ToolchainRun flow = RunBenchmark("fir");
  ASSERT_FALSE(flow.partition.hw.empty());
  // The first (frequency-step) region must be the hottest one.
  const auto& first = flow.partition.hw.front();
  EXPECT_EQ(first.selected_by, SelectedBy::kFrequency);
  for (const auto& other : flow.partition.hw) {
    if (other.selected_by == SelectedBy::kFrequency) {
      EXPECT_LE(other.sw_cycles, first.sw_cycles);
      break;
    }
  }
  // The 90-10 rule holds on this suite: loops dominate execution.
  EXPECT_GT(flow.partition.loop_coverage, 0.5);
}

TEST(Partitioner, RespectsAreaBudget) {
  Platform tiny;
  tiny.fpga.capacity_gates = 30'000;
  tiny.fpga.usable_fraction = 1.0;
  PlatformRegistry::Global().Register("test-partition-30k", tiny);
  const ToolchainRun flow = RunBenchmark("fir", "test-partition-30k");
  EXPECT_LE(flow.partition.area_used_gates, 30'000.0);
  // Something must have been rejected for area on this multi-loop program.
  bool area_rejection = false;
  for (const auto& reason : flow.partition.rejected) {
    if (reason.find("area") != std::string::npos) area_rejection = true;
  }
  EXPECT_TRUE(area_rejection);
}

TEST(Partitioner, ZeroBudgetSelectsNothing) {
  Platform none;
  none.fpga.capacity_gates = 0;
  PlatformRegistry::Global().Register("test-partition-no-fpga", none);
  const ToolchainRun flow = RunBenchmark("fir", "test-partition-no-fpga");
  EXPECT_TRUE(flow.partition.hw.empty());
  EXPECT_NEAR(flow.estimate.speedup, 1.0, 1e-9);
  EXPECT_NEAR(flow.estimate.energy_savings, 0.0, 1e-9);
}

TEST(Partitioner, AliasStepMakesArraysResident) {
  // fir: samples/coeffs/output are shared between the init loops and the
  // kernel; once all loops touching them are in hardware the arrays become
  // FPGA-resident.
  const ToolchainRun flow = RunBenchmark("fir");
  bool any_resident = false;
  for (const auto& selected : flow.partition.hw) {
    if (selected.arrays_resident) any_resident = true;
  }
  EXPECT_TRUE(any_resident);
}

TEST(Estimator, SpeedupRequiresPositiveTimes) {
  const ToolchainRun flow = RunBenchmark("brev");
  const AppEstimate& est = flow.estimate;
  EXPECT_GT(est.sw_time, 0.0);
  EXPECT_GT(est.partitioned_time, 0.0);
  EXPECT_LT(est.partitioned_time, est.sw_time);
  EXPECT_GT(est.speedup, 1.0);
  EXPECT_GT(est.avg_kernel_speedup, est.speedup * 0.5);
  EXPECT_GT(est.energy_savings, 0.0);
  EXPECT_LT(est.energy_savings, 1.0);
}

TEST(Estimator, RegionSwCyclesAttributesAll) {
  // All-leaders attribution: a region covering every block gets all cycles.
  const suite::Benchmark* bench = suite::FindBenchmark("bcnt");
  auto binary = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(binary.ok());
  mips::Simulator sim(binary.value());
  const auto run = sim.Run();
  std::vector<std::uint32_t> all_leaders{mips::kTextBase};
  const std::uint64_t cycles =
      RegionSwCycles(run.profile, all_leaders, all_leaders);
  EXPECT_EQ(cycles, run.cycles);
}

TEST(Platforms, SlowerCpuMeansBiggerWins) {
  // Paper trend: 40 MHz -> speedup 12.6 / savings 84%;
  //              200 MHz -> 5.4 / 69%;  400 MHz -> 3.8 / 49%.
  double speedups[3];
  double savings[3];
  const char* platforms[3] = {"mips40", "mips200-xc2v1000", "mips400"};
  for (int i = 0; i < 3; ++i) {
    const ToolchainRun flow = RunBenchmark("fir", platforms[i]);
    speedups[i] = flow.estimate.speedup;
    savings[i] = flow.estimate.energy_savings;
  }
  EXPECT_GT(speedups[0], speedups[1]);
  EXPECT_GT(speedups[1], speedups[2]);
  EXPECT_GT(savings[0], savings[1]);
  EXPECT_GT(savings[1], savings[2]);
  EXPECT_GT(speedups[2], 1.0);  // still wins at 400 MHz
}

TEST(Platforms, PowerModelScalesWithFrequency) {
  const CpuModel cpu40 = Platform::WithCpuMhz(40).cpu;
  const CpuModel cpu400 = Platform::WithCpuMhz(400).cpu;
  EXPECT_LT(cpu40.active_watts(), cpu400.active_watts());
  EXPECT_LT(cpu40.idle_watts(), cpu40.active_watts());
  const FpgaModel fpga;
  EXPECT_GT(fpga.dynamic_watts(50'000, 100),
            fpga.dynamic_watts(10'000, 100));
  EXPECT_GT(fpga.dynamic_watts(50'000, 100), 0.0);
  EXPECT_GT(fpga.budget_gates(), 0.0);
}

TEST(Flow, ReportMentionsEverything) {
  const ToolchainRun flow = RunBenchmark("fir");
  const std::string report = flow.Report();
  EXPECT_NE(report.find("decompile:"), std::string::npos);
  EXPECT_NE(report.find("partition:"), std::string::npos);
  EXPECT_NE(report.find("speedup"), std::string::npos);
  EXPECT_NE(report.find("energy savings"), std::string::npos);
  EXPECT_NE(report.find("gates"), std::string::npos);
}

TEST(CandidateSetPool, ServesEachProgramInstanceItsOwnSet) {
  // Two decompiles of one binary (two toolchains, two program instances)
  // under one pool key: each gets a set scanned from its own program, so a
  // pooled candidate never points into another instance's IR.
  const ToolchainRun first = RunBenchmark("fir");
  const ToolchainRun second = RunBenchmark("fir");
  ASSERT_NE(first.program, nullptr);
  ASSERT_NE(second.program, nullptr);
  ASSERT_NE(first.program, second.program);

  CandidateSetPool pool;
  const auto obtain = [&pool](const ToolchainRun& run) {
    return pool.Obtain("fir", run.program, run.software_run->profile);
  };
  const auto first_set = obtain(first);
  const auto second_set = obtain(second);
  ASSERT_NE(first_set, second_set);
  EXPECT_EQ(obtain(first), first_set);
  EXPECT_EQ(obtain(second), second_set);
  const CandidateSetPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.scans, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);

  const auto owns = [](const ToolchainRun& run, const ir::Function* function) {
    for (const auto& owned : run.program->module.functions) {
      if (owned.get() == function) return true;
    }
    return false;
  };
  for (const auto& [set, run, other] :
       {std::tuple{first_set, &first, &second},
        std::tuple{second_set, &second, &first}}) {
    ASSERT_GT(set->size(), 0u);
    for (const Candidate& candidate : set->candidates()) {
      EXPECT_TRUE(owns(*run, candidate.function));
      EXPECT_FALSE(owns(*other, candidate.function));
    }
  }
}

TEST(CandidateSetPool, EvictedSetsKeepTheirSynthesisRuns) {
  // The pool holds kMaxEntries sets; the least recently used one goes when
  // another arrives, and the synthesis work done on it stays counted.
  const ToolchainRun flow = RunBenchmark("fir");
  ASSERT_NE(flow.program, nullptr);
  CandidateSetPool pool;
  const auto obtain = [&](std::size_t key) {
    return pool.Obtain("key" + std::to_string(key), flow.program,
                       flow.software_run->profile);
  };
  const auto first = obtain(0);
  ASSERT_GT(first->size(), 0u);
  (void)first->Synthesize(0, synth::SynthOptions{});
  ASSERT_EQ(first->synthesis_runs(), 1u);
  for (std::size_t key = 1; key <= CandidateSetPool::kMaxEntries; ++key) {
    (void)obtain(key);
  }
  const CandidateSetPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.scans, CandidateSetPool::kMaxEntries + 1);
  EXPECT_EQ(stats.entries, CandidateSetPool::kMaxEntries);
  EXPECT_EQ(stats.synthesis_runs, 1u);
  // Key 0 was evicted: obtaining it again scans again.
  EXPECT_NE(obtain(0), first);
  EXPECT_EQ(pool.stats().scans, CandidateSetPool::kMaxEntries + 2);
}

// ---------------------------------------------------------------------------
// Subset scorer vs. the pre-table definitions
// ---------------------------------------------------------------------------

// The oracle: subset scoring as it was defined before the dense tables —
// overlap by block-set intersection, residency through a std::set of the
// arrays that software-side candidates touch.
class OracleScorer {
 public:
  explicit OracleScorer(const CandidateSet& set)
      : set_(set), overlaps_(set.size(), std::vector<bool>(set.size())) {
    const auto& candidates = set.candidates();
    for (std::size_t a = 0; a < set.size(); ++a) {
      const std::set<const ir::Block*> blocks(
          candidates[a].region.blocks.begin(),
          candidates[a].region.blocks.end());
      for (std::size_t b = 0; b < set.size(); ++b) {
        for (const ir::Block* block : candidates[b].region.blocks) {
          if (blocks.count(block) != 0) overlaps_[a][b] = true;
        }
      }
    }
  }

  bool Overlaps(std::size_t a, std::size_t b) const { return overlaps_[a][b]; }

  std::optional<AppEstimate> Evaluate(const std::vector<std::size_t>& subset,
                                      const Platform& platform,
                                      const PartitionOptions& options) const {
    double area = 0.0;
    for (std::size_t i = 0; i < subset.size(); ++i) {
      for (std::size_t j = i + 1; j < subset.size(); ++j) {
        if (Overlaps(subset[i], subset[j])) return std::nullopt;
      }
      const auto& synthesized = set_.Synthesize(subset[i], options.synth);
      if (!synthesized.ok()) return std::nullopt;
      area += synthesized.value().area.total_gates;
    }
    if (area > platform.fpga.budget_gates()) return std::nullopt;

    std::vector<bool> covered(set_.size(), false);
    for (std::size_t id : subset) covered[id] = true;
    for (std::size_t id = 0; id < set_.size(); ++id) {
      if (covered[id]) continue;
      for (std::size_t sel : subset) {
        if (Overlaps(id, sel)) {
          covered[id] = true;
          break;
        }
      }
    }
    std::set<std::pair<const ir::Function*, int>> sw_arrays;
    for (std::size_t id = 0; id < set_.size(); ++id) {
      if (covered[id]) continue;
      const Candidate& candidate = set_.candidates()[id];
      for (int region : candidate.alias_regions) {
        sw_arrays.insert({candidate.function, region});
      }
    }
    std::vector<KernelEstimate> kernels;
    for (std::size_t id : subset) {
      const Candidate& candidate = set_.candidates()[id];
      const auto& synthesized = set_.Synthesize(id, options.synth);
      bool resident = !candidate.alias_regions.empty();
      for (int region : candidate.alias_regions) {
        if (sw_arrays.count({candidate.function, region}) != 0) {
          resident = false;
          break;
        }
      }
      KernelEstimate kernel;
      kernel.sw_cycles = candidate.sw_cycles;
      kernel.hw_cycles = synthesized.value().hw_cycles;
      kernel.invocations = candidate.invocations;
      kernel.comm_words = candidate.comm_words;
      kernel.mem_accesses = candidate.mem_accesses;
      kernel.arrays_resident = resident;
      kernel.hw_clock_mhz = std::min(synthesized.value().clock_mhz,
                                     platform.fpga.clock_mhz_cap);
      kernel.area_gates = synthesized.value().area.total_gates;
      kernels.push_back(kernel);
    }
    return CombineEstimates(platform, set_.total_sw_cycles(),
                            std::move(kernels));
  }

 private:
  const CandidateSet& set_;
  std::vector<std::vector<bool>> overlaps_;
};

// Eighty loops in one function: twenty two-deep nests and twenty single
// loops over five shared arrays, and twenty single loops that each own an
// array (resident whenever selected).  Half the nests are tiny, so they
// sort last and overlap entirely within the second 64-bit table word.
std::string EightyLoopProgram() {
  std::string globals = "int a0[64];\nint a1[64];\nint a2[64];\n"
                        "int a3[64];\nint a4[64];\n";
  std::string body = "int main() {\n  int i;\n  int j;\n  int s = 0;\n";
  for (int k = 0; k < 60; ++k) {
    const std::string shared = "a" + std::to_string(k % 5);
    const std::string other = "a" + std::to_string((k + 2) % 5);
    const std::string trips = std::to_string(8 + k % 7 * 8);
    if (k % 3 == 0) {
      const bool tiny = k >= 30;
      body += "  for (i = 0; i < " + std::string(tiny ? "2" : "4") +
              "; i = i + 1) {\n"
              "    for (j = 0; j < " + (tiny ? "2" : trips) +
              "; j = j + 1) {\n"
              "      " + shared + "[j] = " + shared + "[j] + " + other +
              "[j] * i;\n    }\n  }\n";
      continue;
    }
    const std::string array = k % 3 == 1 ? "p" + std::to_string(k) : shared;
    if (k % 3 == 1) globals += "int " + array + "[64];\n";
    body += "  for (i = 0; i < " + trips + "; i = i + 1) {\n"
            "    " + array + "[i] = " + array + "[i] + i * " +
            std::to_string(k + 1) + ";\n  }\n";
  }
  body += "  for (i = 0; i < 64; i = i + 1) {\n"
          "    s = s + a0[i] + a1[i] + a2[i] + a3[i] + a4[i];\n  }\n"
          "  return s;\n}\n";
  return globals + body;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Scores every subset of the viable candidates (or 2000 seeded random
// ones when there are more than 12) with a reused SubsetScorer, with
// EvaluateSubset and with the oracle, and requires identical feasibility,
// bit-identical figures and no allocation by the reused scorer.  Adds to
// the feasible/infeasible counts.
void ExpectScorerMatchesOracle(const ToolchainRun& flow,
                               const Platform& platform,
                               const std::string& label, int* feasible,
                               int* infeasible) {
  const PartitionOptions options;
  const CandidateSet set =
      CandidateSet::Scan(*flow.program, flow.software_run->profile);
  const std::vector<std::size_t> viable =
      FilterViableCandidates(set, platform, options).ids;
  const OracleScorer oracle(set);
  for (std::size_t a = 0; a < set.size(); ++a) {
    for (std::size_t b = 0; b < set.size(); ++b) {
      ASSERT_EQ(set.Overlaps(a, b), oracle.Overlaps(a, b))
          << label << ": " << a << " vs " << b;
    }
  }
  SubsetScorer scorer(set, platform, options, viable, {});
  const std::size_t synthesis_runs = set.synthesis_runs();

  std::vector<std::vector<std::size_t>> subsets;
  if (viable.size() <= 12) {
    for (std::size_t mask = 0; mask < (std::size_t{1} << viable.size());
         ++mask) {
      std::vector<std::size_t> subset;
      for (std::size_t v = 0; v < viable.size(); ++v) {
        if ((mask >> v) & 1u) subset.push_back(viable[v]);
      }
      subsets.push_back(std::move(subset));
    }
  } else {
    // Half the draws are arbitrary (mostly overlapping) subsets; the other
    // half add candidates in random order while they stay overlap-free, so
    // the residency and pricing paths get exercised too.
    std::mt19937_64 rng(13);
    for (int draw = 0; draw < 2000; ++draw) {
      std::vector<std::size_t> order = viable;
      std::shuffle(order.begin(), order.end(), rng);
      const std::size_t size = 1 + rng() % 10;
      std::vector<std::size_t> subset;
      for (std::size_t id : order) {
        if (subset.size() == size) break;
        bool fits = true;
        for (std::size_t member : subset) {
          if (draw % 2 == 1 && oracle.Overlaps(id, member)) fits = false;
        }
        if (fits) subset.push_back(id);
      }
      std::sort(subset.begin(), subset.end());
      subsets.push_back(std::move(subset));
    }
  }

  for (const std::vector<std::size_t>& subset : subsets) {
    const std::optional<AppEstimate> expected =
        oracle.Evaluate(subset, platform, options);
    const std::size_t allocations = t_allocations;
    const AppEstimate* scored = scorer.Score(subset);
    ASSERT_EQ(t_allocations, allocations) << label << ": Score allocated";
    const std::optional<AppEstimate> evaluated =
        testing_support::EvaluateSubset(set, subset, platform, options);
    ASSERT_EQ(scored != nullptr, expected.has_value()) << label;
    ASSERT_EQ(evaluated.has_value(), expected.has_value()) << label;
    if (!expected.has_value()) {
      ++*infeasible;
      continue;
    }
    ++*feasible;
    for (const AppEstimate* actual : {scored, &*evaluated}) {
      EXPECT_EQ(Bits(actual->speedup), Bits(expected->speedup)) << label;
      EXPECT_EQ(Bits(actual->partitioned_time),
                Bits(expected->partitioned_time))
          << label;
      EXPECT_EQ(Bits(actual->partitioned_energy),
                Bits(expected->partitioned_energy))
          << label;
      EXPECT_EQ(Bits(actual->area_gates), Bits(expected->area_gates))
          << label;
    }
    ASSERT_EQ(evaluated->kernels.size(), subset.size()) << label;
    for (std::size_t k = 0; k < subset.size(); ++k) {
      EXPECT_EQ(evaluated->kernels[k].name,
                set.candidates()[subset[k]].region.name);
      EXPECT_EQ(evaluated->kernels[k].arrays_resident,
                expected->kernels[k].arrays_resident)
          << label;
    }
  }
  EXPECT_EQ(set.synthesis_runs(), synthesis_runs) << label;
}

std::string MhzLabel(const Platform& platform) {
  return std::to_string(static_cast<int>(platform.cpu.clock_mhz)) + " MHz";
}

std::vector<Platform> ScorerPlatforms() {
  Platform small = Platform::WithCpuMhz(40.0);
  small.fpga.capacity_gates = 15'000;
  small.fpga.usable_fraction = 1.0;
  Platform large = Platform::WithCpuMhz(400.0);
  large.fpga.capacity_gates = 300'000;
  large.fpga.usable_fraction = 1.0;
  return {small, Platform::WithCpuMhz(200.0), large};
}

TEST(SubsetScorer, MatchesPreTableDefinitionsOnTheSuite) {
  int feasible = 0;
  int infeasible = 0;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    const ToolchainRun flow = RunBenchmark(bench->name);
    ASSERT_NE(flow.program, nullptr) << bench->name;
    for (const Platform& platform : ScorerPlatforms()) {
      ExpectScorerMatchesOracle(
          flow, platform,
          bench->name + " @ " + MhzLabel(platform),
          &feasible, &infeasible);
    }
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(SubsetScorer, MatchesPreTableDefinitionsPastOneTableWord) {
  minicc::CompileOptions compile;
  compile.opt_level = 1;
  auto compiled = minicc::Compile(EightyLoopProgram(), compile);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  const ToolchainRun flow =
      RunBinary(std::move(compiled).take().binary, "80 loops");
  ASSERT_NE(flow.program, nullptr);
  const CandidateSet set =
      CandidateSet::Scan(*flow.program, flow.software_run->profile);
  ASSERT_GT(set.size(), 64u);  // two-word table rows
  EXPECT_EQ(set.row_words(), 2u);
  for (const Platform& platform : ScorerPlatforms()) {
    int feasible = 0;
    int infeasible = 0;
    ExpectScorerMatchesOracle(
        flow, platform,
        "80 loops @ " + MhzLabel(platform), &feasible, &infeasible);
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
  }
}

// ---------------------------------------------------------------------------
// Annealing vs. the full walk
// ---------------------------------------------------------------------------

// The oracle: the annealing walk as it was defined before its score table
// and exact stop — every proposal scored as it is drawn, all
// `annealing_iterations` of them.  Returns the best subset, sorted.
std::vector<std::size_t> FullAnnealingWalk(
    const CandidateSet& set, const Platform& platform,
    const PartitionOptions& options, const StrategyOptions& strategy_options) {
  const std::vector<std::size_t> viable =
      FilterViableCandidates(set, platform, options).ids;
  std::vector<std::size_t> current =
      GreedyChosenSubset(set, platform, options);
  SubsetScorer scorer(set, platform, options, viable, current);
  double current_score =
      ObjectiveScore(*scorer.Score(current), strategy_options.objective);
  std::vector<std::size_t> best = current;
  std::vector<std::size_t> proposal;
  double best_score = current_score;

  std::mt19937_64 rng(strategy_options.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const unsigned iterations =
      viable.empty() ? 0 : strategy_options.annealing_iterations;
  for (unsigned iter = 0; iter < iterations; ++iter) {
    const std::size_t id = viable[rng() % viable.size()];
    proposal = current;
    const auto it = std::find(proposal.begin(), proposal.end(), id);
    if (it != proposal.end()) {
      proposal.erase(it);
    } else {
      proposal.insert(std::lower_bound(proposal.begin(), proposal.end(), id),
                      id);
    }
    const AppEstimate* estimate = scorer.Score(proposal);
    if (estimate == nullptr) continue;
    const double score = ObjectiveScore(*estimate, strategy_options.objective);
    const double temperature =
        0.1 * (1.0 - static_cast<double>(iter) /
                         static_cast<double>(iterations));
    const double scale =
        std::max(std::abs(current_score), 1e-12) * temperature;
    const bool accept =
        score > current_score ||
        (scale > 0.0 &&
         std::exp((score - current_score) / scale) > unit(rng));
    if (!accept) continue;
    current.swap(proposal);
    current_score = score;
    if (current_score > best_score) {
      best_score = current_score;
      best = current;
    }
  }
  std::sort(best.begin(), best.end());
  return best;
}

/// Candidate ids of a result's hardware regions, in result order (each
/// region is identified by its entry block).
std::vector<std::size_t> SelectedIds(const CandidateSet& set,
                                     const PartitionResult& result) {
  std::vector<std::size_t> ids;
  for (const SelectedRegion& region : result.hw) {
    const ir::Block* entry = region.synthesized.region.blocks.front();
    for (std::size_t id = 0; id < set.size(); ++id) {
      if (set.candidates()[id].region.blocks.front() == entry) {
        ids.push_back(id);
        break;
      }
    }
  }
  return ids;
}

/// The 12-platform design-space grid of examples/platform_explorer.cpp
/// (4 CPU clocks x 3 FPGA sizes), as bench/bench_explore.cpp builds it.
std::vector<Platform> GridPlatforms() {
  std::vector<Platform> platforms;
  for (double mhz : {40.0, 100.0, 200.0, 400.0}) {
    for (double kgates : {15.0, 50.0, 300.0}) {
      Platform platform = Platform::WithCpuMhz(mhz);
      platform.fpga.capacity_gates = kgates * 1000.0;
      platform.fpga.usable_fraction = 1.0;
      platforms.push_back(platform);
    }
  }
  return platforms;
}

// Iteration counts at and around the table condition 2^n <= iterations
// (n = 3 and 6 sit on its edge), so calls take the table path, the
// scored-as-drawn path and, without viable candidates, no walk at all.
TEST(Annealing, StopsEarlyWithTheFullWalksSelection) {
  const std::unique_ptr<Strategy> annealing = MakeAnnealingStrategy();
  const PartitionOptions options;
  int table_calls = 0;
  int drawn_calls = 0;
  int empty_calls = 0;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    for (int opt_level = 0; opt_level <= 3; ++opt_level) {
      auto binary = suite::BuildBinary(*bench, opt_level);
      ASSERT_TRUE(binary.ok()) << bench->name;
      const ToolchainRun flow =
          RunBinary(std::move(binary).take(), bench->name);
      ASSERT_NE(flow.program, nullptr) << bench->name;
      const mips::ExecProfile& profile = flow.software_run->profile;
      StrategyOptions strategy_options;
      strategy_options.candidates = std::make_shared<const CandidateSet>(
          CandidateSet::Scan(*flow.program, profile));
      const CandidateSet& set = *strategy_options.candidates;
      for (const Platform& platform : GridPlatforms()) {
        const std::size_t n =
            FilterViableCandidates(set, platform, options).ids.size();
        for (Objective objective :
             {Objective::kSpeedup, Objective::kEnergy,
              Objective::kEnergyDelay}) {
          for (std::uint64_t seed : {1u, 7u}) {
            for (unsigned iterations : {1u, 7u, 8u, 64u, 300u, 2000u}) {
              strategy_options.objective = objective;
              strategy_options.seed = seed;
              strategy_options.annealing_iterations = iterations;
              const std::string label =
                  bench->name + "@O" + std::to_string(opt_level) + " " +
                  MhzLabel(platform) + " " +
                  std::to_string(static_cast<int>(
                      platform.fpga.capacity_gates)) +
                  " gates, " + std::string(ObjectiveName(objective)) +
                  ", seed " + std::to_string(seed) + ", " +
                  std::to_string(iterations) + " iterations";
              const auto result = annealing->Partition(
                  *flow.program, profile, platform, options,
                  strategy_options);
              ASSERT_TRUE(result.ok()) << label;
              ASSERT_EQ(SelectedIds(set, result.value()),
                        FullAnnealingWalk(set, platform, options,
                                          strategy_options))
                  << label;
              if (n == 0) {
                ++empty_calls;
              } else if (n <= 16 && (std::size_t{1} << n) <= iterations) {
                ++table_calls;
              } else {
                ++drawn_calls;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(table_calls, 0);
  EXPECT_GT(drawn_calls, 0);
  EXPECT_GT(empty_calls, 0);
}

}  // namespace
}  // namespace b2h::partition
