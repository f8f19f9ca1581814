// Golden report digests: tests/golden/reports.txt pins the Explore surface,
// the Toolchain views and the online partitioner byte for byte, so a change
// that promises "same reports" is checked by the suite rather than by a
// one-off driver.
//
// One Toolchain::Explore per seed in {1, 7} sweeps the 20 suite programs at
// O0-O3 x the paper's three platforms x the three strategies x the three
// objectives.  The file holds, per seed, the Fnv1a64 of Report() and of
// Json(), then one line per (program@O, seed) digesting that binary's
// points in row order: status, the headline numbers printed exactly (%a),
// the selected region names and each selected region's VHDL.
//
// Then one line per program@O with two digests: `views` over its RunMany
// slots on the paper's three platforms (ReportBody() and Json(), or the
// error kind and message), and `dynamic` over RunDynamicOn's Report() on
// those platforms plus a 40,000-gate copy of mips200-xc2v1000, where the
// online partitioner runs out of area and evicts.
//
// Last, one line per program@O with an `ir` digest of its decompiled,
// profile-annotated module: ir::Print of every function, then every block's
// id, profile counts and predecessor ids, and every instruction's id, width
// and signedness.  Reports read only part of the IR, so this line is what
// holds a decompiler change that promises the same IR to exactly that.
//
// The file is a review surface: a change that moves a report changes a line
// here, and the change must explain it.  On a mismatch the test writes the
// recomputed file to golden_reports.actual in its working directory (copy it
// over tests/golden/reports.txt once the difference is understood) and
// names the first line that differs.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ir/printer.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/serialize.hpp"
#include "testing_support.hpp"
#include "toolchain/toolchain.hpp"

namespace b2h {
namespace {

// Toolchain's default constructor reads B2H_CACHE_DIR.  A persisted cache
// would serve artifacts an older build computed, so keep the sweep cold and
// memory-only: the digests must come from this build.
const testing_support::ScopedEnv kPinnedCacheDirEnv("B2H_CACHE_DIR", nullptr);

std::string Hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016" PRIx64, value);
  return text;
}

std::string Exact(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%a", value);
  return text;
}

/// Everything one point contributes to its binary's digest.
void AppendPoint(const explore::ExplorePoint& point, std::string& out) {
  out += ToString(point.status.kind());
  out += ' ';
  out += point.status.message();
  for (const double value : {point.speedup, point.energy,
                             point.partitioned_time, point.area_gates}) {
    out += ' ';
    out += Exact(value);
  }
  for (const std::string& name : point.hw_names) {
    out += ' ';
    out += name;
  }
  out += '\n';
  if (point.artifact == nullptr) return;
  for (const partition::SelectedRegion& region : point.artifact->partition.hw) {
    out += region.synthesized.vhdl;
    out += '\n';
  }
}

/// A Toolchain view or online run as text: the rendered report, or the
/// error kind and message.
template <typename Run, typename Render>
void AppendOutcome(const Result<Run>& outcome, Render render,
                   std::string& out) {
  if (outcome.ok()) {
    out += render(outcome.value());
  } else {
    out += ToString(outcome.status().kind());
    out += ' ';
    out += outcome.status().message();
  }
  out += '\n';
}

/// The decompiled module as text: ir::Print plus what it leaves out.
std::string IrText(const ir::Module& module) {
  std::string out = ir::Print(module);
  for (const auto& function : module.functions) {
    for (const auto& block : function->blocks()) {
      out += std::to_string(block->id) + ' ' +
             std::to_string(block->exec_count) + ' ' +
             std::to_string(block->taken_count) + ' ' +
             std::to_string(block->not_taken_count) + " <-";
      for (const ir::Block* pred : block->preds) {
        out += ' ' + std::to_string(pred->id);
      }
      out += '\n';
      for (const ir::Instr* instr : block->instrs) {
        out += std::to_string(instr->id) + ':' +
               std::to_string(instr->width) + (instr->is_signed ? 's' : 'u') +
               ' ';
      }
      out += '\n';
    }
  }
  return out;
}

/// One line per binary: its RunMany slots on the paper platforms and its
/// RunDynamicOn reports on those plus the 40k-gate platform.  Then one line
/// per binary digesting the IR its RunMany slots share.
void AppendViewLines(const Toolchain& toolchain,
                     const std::vector<NamedBinary>& binaries,
                     std::vector<std::string>& lines) {
  const std::vector<std::string> paper = {"mips40", "mips200-xc2v1000",
                                          "mips400"};
  partition::Platform small =
      *PlatformRegistry::Global().Find("mips200-xc2v1000");
  small.fpga.capacity_gates = 40'000.0;
  PlatformRegistry::Global().Register("golden-40k", small);
  std::vector<std::string> dynamic_platforms = paper;
  dynamic_platforms.push_back("golden-40k");

  const BatchResult batch = toolchain.RunMany(binaries, paper);
  for (std::size_t b = 0; b < binaries.size(); ++b) {
    std::string views;
    for (std::size_t p = 0; p < paper.size(); ++p) {
      AppendOutcome(
          batch.At(b, p),
          [](const ToolchainRun& run) { return run.ReportBody() + run.Json(); },
          views);
    }
    std::string online;
    for (const std::string& platform : dynamic_platforms) {
      AppendOutcome(
          toolchain.RunDynamicOn(platform, binaries[b].binary,
                                 binaries[b].name),
          [](const DynamicToolchainRun& run) { return run.Report(); }, online);
    }
    lines.push_back(binaries[b].name +
                    " views=" + Hex(support::Fnv1a64(views)) +
                    " dynamic=" + Hex(support::Fnv1a64(online)));
  }
  for (std::size_t b = 0; b < binaries.size(); ++b) {
    std::string ir;
    AppendOutcome(
        batch.At(b, 0),
        [](const ToolchainRun& run) { return IrText(run.program->module); },
        ir);
    lines.push_back(binaries[b].name + " ir=" + Hex(support::Fnv1a64(ir)));
  }
}

std::vector<std::string> ComputeGolden() {
  std::vector<NamedBinary> binaries;
  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    for (int opt = 0; opt <= 3; ++opt) {
      auto built = suite::BuildBinary(bench, opt);
      EXPECT_TRUE(built.ok()) << bench.name << ": " << built.status().message();
      if (!built.ok()) continue;
      binaries.push_back(
          {bench.name + "@O" + std::to_string(opt),
           std::make_shared<const mips::SoftBinary>(std::move(built).take())});
    }
  }

  const Toolchain toolchain;
  std::vector<std::string> lines;
  for (const std::uint64_t seed : {1u, 7u}) {
    explore::ExploreSpec spec;
    spec.binaries = binaries;
    spec.platforms = {"mips40", "mips200-xc2v1000", "mips400"};
    spec.strategies = {"paper-greedy", "knapsack-optimal", "annealing"};
    spec.objectives = {partition::Objective::kSpeedup,
                       partition::Objective::kEnergy,
                       partition::Objective::kEnergyDelay};
    spec.strategy_options.seed = seed;
    const explore::ExploreResult result = toolchain.Explore(spec);

    const std::string tag = "seed=" + std::to_string(seed);
    lines.push_back(tag + " report=" + Hex(support::Fnv1a64(result.Report())) +
                    " json=" + Hex(support::Fnv1a64(result.Json())));
    const std::size_t per_binary = result.num_platforms *
                                   result.num_strategies *
                                   result.num_objectives;
    for (std::size_t b = 0; b < result.num_binaries; ++b) {
      std::string digest_input;
      for (std::size_t i = 0; i < per_binary; ++i) {
        AppendPoint(result.points[b * per_binary + i], digest_input);
      }
      lines.push_back(binaries[b].name + " " + tag + " points=" +
                      Hex(support::Fnv1a64(digest_input)));
    }
  }
  AppendViewLines(toolchain, binaries, lines);
  return lines;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Golden, ReportsMatchCheckedInDigests) {
  const std::string path =
      std::string(B2H_SOURCE_DIR) + "/tests/golden/reports.txt";
  const std::vector<std::string> expected = ReadLines(path);
  const std::vector<std::string> actual = ComputeGolden();
  ASSERT_EQ(actual.size(), 2u + 4u * 4u * suite::AllBenchmarks().size());
  if (actual == expected) return;

  std::ofstream out("golden_reports.actual");
  for (const std::string& line : actual) out << line << '\n';
  std::size_t first = 0;
  while (first < actual.size() && first < expected.size() &&
         actual[first] == expected[first]) {
    ++first;
  }
  ADD_FAILURE() << path << " differs at line " << first + 1 << ":\n"
                << "  expected: "
                << (first < expected.size() ? expected[first] : "<end>")
                << "\n  actual:   "
                << (first < actual.size() ? actual[first] : "<end>")
                << "\nthe recomputed file is golden_reports.actual in the "
                   "working directory";
}

}  // namespace
}  // namespace b2h
