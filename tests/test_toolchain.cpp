// Toolchain facade tests: platform registry, builder configuration, and
// the RunOn/RunMany views over the exploration engine — in particular
// that a platform sweep reuses ONE decompilation per binary, that parallel
// and serial batches produce identical results, that VHDL is identical
// across runs and entry points, and that a warm disk cache never reaches
// the views.
#include "toolchain/toolchain.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "testing_support.hpp"

namespace b2h {
namespace {

std::shared_ptr<const mips::SoftBinary> BuildBench(const std::string& name,
                                                   int opt_level = 1) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr) << name;
  auto binary = suite::BuildBinary(*bench, opt_level);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  return std::make_shared<const mips::SoftBinary>(std::move(binary).take());
}

const std::vector<std::string> kPaperPlatforms = {"mips40", "mips200-xc2v1000",
                                                  "mips400"};

TEST(PlatformRegistry, BuiltinsCoverThePaperEvaluationPoints) {
  const auto p40 = PlatformRegistry::Global().Find("mips40");
  const auto p200 = PlatformRegistry::Global().Find("mips200-xc2v1000");
  const auto p400 = PlatformRegistry::Global().Find("mips400");
  ASSERT_TRUE(p40.has_value());
  ASSERT_TRUE(p200.has_value());
  ASSERT_TRUE(p400.has_value());
  EXPECT_DOUBLE_EQ(p40->cpu.clock_mhz, 40.0);
  EXPECT_DOUBLE_EQ(p200->cpu.clock_mhz, 200.0);
  EXPECT_DOUBLE_EQ(p400->cpu.clock_mhz, 400.0);
  EXPECT_FALSE(PlatformRegistry::Global().Find("no-such").has_value());
}

TEST(PlatformRegistry, CustomRegistrationIsUsableByName) {
  partition::Platform tiny = partition::Platform::WithCpuMhz(100.0);
  tiny.fpga.capacity_gates = 20'000.0;
  tiny.fpga.usable_fraction = 1.0;
  PlatformRegistry::Global().Register("test-tiny", tiny);

  Toolchain toolchain;
  auto run = toolchain.RunOn("test-tiny", BuildBench("fir"), "fir");
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run.value().platform_name, "test-tiny");
  EXPECT_LE(run.value().partition.area_budget_gates, 20'000.0);
}

TEST(Toolchain, RunOutlivesCallerBinary) {
  // Regression for the dangling-pointer hazard: the ToolchainRun (and the
  // program inside it) must stay valid after the caller's binary handle
  // and the surrounding scope are gone.
  ToolchainRun run = [] {
    auto binary = BuildBench("brev");
    auto result = Toolchain().RunOn("mips200-xc2v1000", binary, "brev");
    EXPECT_TRUE(result.ok());
    binary.reset();  // drop the caller's only handle
    return std::move(result).take();
  }();
  run.binary.reset();  // and the run's: the program owns its binary
  ASSERT_NE(run.program, nullptr);
  ASSERT_NE(run.program->binary, nullptr);
  EXPECT_GT(run.program->binary->text.size(), 0u);
  EXPECT_FALSE(run.Report().empty());
}

TEST(Toolchain, UnknownPlatformIsAnError) {
  Toolchain toolchain;
  auto run = toolchain.RunOn("atari2600", BuildBench("fir"), "fir");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().kind(), ErrorKind::kUnsupported);
}

TEST(Toolchain, BadPipelineSpecSurfacesAtRunTime) {
  Toolchain toolchain;
  toolchain.WithPipeline("default,-simplify-constants,no-such-pass");
  auto run = toolchain.RunOn("mips200-xc2v1000", BuildBench("fir"), "fir");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().kind(), ErrorKind::kUnsupported);
}

TEST(Toolchain, PipelineSpecSelectsPasses) {
  Toolchain toolchain;
  toolchain.WithPipeline("none");
  auto run = toolchain.RunOn("mips200-xc2v1000", BuildBench("fir"), "fir");
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().program->pass_runs.empty());

  toolchain.WithPipeline("default");
  auto full = toolchain.RunOn("mips200-xc2v1000", BuildBench("fir"), "fir");
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.value().program->pass_runs.empty());
}

// Acceptance criterion: RunMany over the three paper platforms performs
// exactly one decompilation (and one profiling run) per binary, and every
// platform's run shares that decompiled program.
TEST(Toolchain, RunManyDecompilesEachBinaryOnce) {
  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")},
                                             {"brev", BuildBench("brev")}};
  Toolchain toolchain;
  const BatchResult batch = toolchain.RunMany(binaries, kPaperPlatforms);

  ASSERT_EQ(batch.runs.size(), binaries.size() * kPaperPlatforms.size());
  EXPECT_EQ(batch.decompilations_run, binaries.size());
  EXPECT_EQ(batch.simulations_run, binaries.size());

  for (std::size_t b = 0; b < binaries.size(); ++b) {
    const auto& first = batch.At(b, 0);
    ASSERT_TRUE(first.ok()) << first.status().message();
    for (std::size_t p = 1; p < kPaperPlatforms.size(); ++p) {
      const auto& other = batch.At(b, p);
      ASSERT_TRUE(other.ok()) << other.status().message();
      // Same object, not an equal copy: the decompilation was reused.
      EXPECT_EQ(first.value().program.get(), other.value().program.get());
      EXPECT_EQ(first.value().software_run.get(),
                other.value().software_run.get());
    }
  }

  // The sweep trend the paper reports: slower CPU -> larger speedup.
  for (std::size_t b = 0; b < binaries.size(); ++b) {
    const double s40 =
        batch.At(b, 0).value().estimate.speedup;
    const double s400 =
        batch.At(b, 2).value().estimate.speedup;
    EXPECT_GT(s40, s400);
  }
}

// Platforms with a different CPU cycle model must NOT share a profile:
// RunMany groups by cycle model and decompiles once per group, so the
// batch row agrees exactly with the single-run path.
TEST(Toolchain, RunManyGroupsByCycleModel) {
  partition::Platform slow_mem = partition::Platform::WithCpuMhz(200.0);
  slow_mem.cpu.cycle_model.load_extra = 5;
  PlatformRegistry::Global().Register("test-slow-mem", slow_mem);

  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")}};
  Toolchain toolchain;
  const BatchResult batch =
      toolchain.RunMany(binaries, {"mips200-xc2v1000", "test-slow-mem"});
  ASSERT_EQ(batch.runs.size(), 2u);
  ASSERT_TRUE(batch.At(0, 0).ok());
  ASSERT_TRUE(batch.At(0, 1).ok());
  EXPECT_EQ(batch.decompilations_run, 2u);  // one per distinct cycle model
  EXPECT_NE(batch.At(0, 0).value().program.get(),
            batch.At(0, 1).value().program.get());

  auto single = toolchain.RunOn("test-slow-mem", binaries[0].binary, "fir");
  ASSERT_TRUE(single.ok());
  const auto& batched = batch.At(0, 1).value();
  EXPECT_EQ(batched.ReportBody(), single.value().ReportBody());
}

TEST(Toolchain, RunManyParallelEqualsSerial) {
  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")},
                                             {"crc", BuildBench("crc")},
                                             {"brev", BuildBench("brev")}};
  Toolchain serial;
  serial.WithThreads(1);
  Toolchain parallel;
  parallel.WithThreads(4);

  const BatchResult a = serial.RunMany(binaries, kPaperPlatforms);
  const BatchResult b = parallel.RunMany(binaries, kPaperPlatforms);

  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.decompilations_run, b.decompilations_run);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    ASSERT_EQ(a.runs[i].ok(), b.runs[i].ok()) << i;
    if (!a.runs[i].ok()) continue;
    // Semantic reports (partition layout, cycle counts, estimates) match
    // bit-for-bit between thread counts.  ToolchainRun::Report() also
    // prints wall-clock pass timings, which legitimately vary — compare
    // the timing-free body instead.
    const auto& ra = a.runs[i].value();
    const auto& rb = b.runs[i].value();
    EXPECT_EQ(ra.ReportBody(), rb.ReportBody()) << i;
  }
}

TEST(Toolchain, RunManyReportsPerSlotFailures) {
  const std::vector<NamedBinary> binaries = {{"fir", BuildBench("fir")},
                                             {"null", nullptr}};
  const std::vector<std::string> platforms = {"mips200-xc2v1000", "bogus"};
  Toolchain toolchain;
  const BatchResult batch = toolchain.RunMany(binaries, platforms);
  ASSERT_EQ(batch.runs.size(), 4u);
  EXPECT_TRUE(batch.At(0, 0).ok());
  ASSERT_FALSE(batch.At(0, 1).ok());  // unknown platform
  EXPECT_EQ(batch.At(0, 1).status().kind(), ErrorKind::kUnsupported);
  ASSERT_FALSE(batch.At(1, 0).ok());  // null binary
  EXPECT_EQ(batch.At(1, 0).status().kind(), ErrorKind::kMalformedBinary);
  // Both at once: the null binary is reported.
  ASSERT_FALSE(batch.At(1, 1).ok());
  EXPECT_EQ(batch.At(1, 1).status().kind(), ErrorKind::kMalformedBinary);
}

// The two jump-table EEMBC-style benchmarks fail CDFG recovery in RunMany
// (paper: two failures).
TEST(Toolchain, RunManyPropagatesCdfgFailures) {
  std::vector<NamedBinary> binaries;
  for (const auto& bench : suite::AllBenchmarks()) {
    if (!bench.expect_cdfg_failure) continue;
    binaries.push_back({bench.name, BuildBench(bench.name)});
  }
  ASSERT_EQ(binaries.size(), 2u);
  Toolchain toolchain;
  const BatchResult batch =
      toolchain.RunMany(binaries, {"mips200-xc2v1000"});
  for (const auto& run : batch.runs) {
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().kind(), ErrorKind::kIndirectJump);
  }
}

// VHDL ports follow the regions' live values.  With those ordered by
// instruction id rather than heap address (checked region by region in
// test_synth), the generated VHDL is identical run to run in one process
// and across RunOn, RunMany and Explore.  These binaries are where address
// order used to show.
TEST(Toolchain, VhdlIsIdenticalAcrossRunsAndEntryPoints) {
  std::vector<NamedBinary> binaries;
  for (const char* name : {"g3fax", "checksum", "g721_quan"}) {
    for (int opt_level = 0; opt_level <= 3; ++opt_level) {
      binaries.push_back({std::string(name) + "-O" + std::to_string(opt_level),
                          BuildBench(name, opt_level)});
    }
  }
  const std::size_t num_platforms = kPaperPlatforms.size();
  const auto vhdl_of = [](const partition::PartitionResult& partition) {
    std::vector<std::string> vhdl;
    for (const auto& region : partition.hw) {
      vhdl.push_back(region.synthesized.vhdl);
    }
    return vhdl;
  };
  Toolchain toolchain;
  // Each run is dropped before the next starts, so later runs reuse the
  // heap of earlier ones: the condition under which address order showed.
  const auto run_vhdl = [&](std::size_t b, std::size_t p) {
    const auto run = toolchain.RunOn(kPaperPlatforms[p], binaries[b].binary,
                                     binaries[b].name);
    EXPECT_TRUE(run.ok()) << binaries[b].name << ": "
                          << run.status().message();
    return run.ok() ? vhdl_of(run.value().partition)
                    : std::vector<std::string>{};
  };
  std::vector<std::vector<std::string>> expected;
  std::size_t regions = 0;
  for (std::size_t b = 0; b < binaries.size(); ++b) {
    for (std::size_t p = 0; p < num_platforms; ++p) {
      expected.push_back(run_vhdl(b, p));
      regions += expected.back().size();
    }
  }
  EXPECT_GT(regions, 0u);

  const BatchResult batch = toolchain.RunMany(binaries, kPaperPlatforms);
  explore::ExploreSpec spec;
  spec.binaries = binaries;
  spec.platforms = kPaperPlatforms;
  spec.strategies = {"paper-greedy"};
  const explore::ExploreResult sweep = toolchain.Explore(spec);
  for (std::size_t b = 0; b < binaries.size(); ++b) {
    for (std::size_t p = 0; p < num_platforms; ++p) {
      const std::string where = binaries[b].name + " on " + kPaperPlatforms[p];
      const std::vector<std::string>& first = expected[b * num_platforms + p];
      EXPECT_EQ(run_vhdl(b, p), first) << where;
      ASSERT_TRUE(batch.At(b, p).ok()) << where;
      EXPECT_EQ(vhdl_of(batch.At(b, p).value().partition), first) << where;
      const explore::ExplorePoint& point = sweep.At(b, p, 0, 0);
      ASSERT_TRUE(point.status.ok()) << where;
      EXPECT_EQ(vhdl_of(point.artifact->partition), first) << where;
    }
  }
}

// RunOn and RunMany use a private memory-only cache, never the
// Toolchain's own.  A disk-served artifact has no program or profile, so a
// view reading it would hand out a run whose Report() dereferences null.
TEST(Toolchain, RunStaysLiveOverAWarmDiskCache) {
  const testing_support::TempDir dir;
  const testing_support::ScopedEnv env("B2H_CACHE_DIR", dir.path.c_str());
  const auto binary = BuildBench("fir");
  explore::ExploreSpec spec;
  spec.binaries = {{"fir", binary}};
  spec.platforms = {"mips200-xc2v1000"};
  spec.strategies = {"paper-greedy"};
  {
    Toolchain cold;  // the environment gives it a disk-backed cache
    ASSERT_NE(cold.artifact_cache()->disk(), nullptr);
    ASSERT_TRUE(cold.Explore(spec).At(0, 0, 0, 0).status.ok());
    ASSERT_GT(cold.CacheStats().disk_stores, 0u);
  }

  Toolchain fresh;
  auto run = fresh.RunOn("mips200-xc2v1000", binary, "fir");
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_NE(run.value().program, nullptr);
  ASSERT_NE(run.value().software_run, nullptr);
  EXPECT_FALSE(run.value().Report().empty());

  // The same Toolchain's Explore is served from disk, without IR, and
  // leaves those artifacts in its memory tier; RunOn still never sees them.
  const explore::ExploreResult replay = fresh.Explore(spec);
  ASSERT_TRUE(replay.At(0, 0, 0, 0).status.ok());
  EXPECT_GT(replay.cache_disk_hits, 0u);
  EXPECT_EQ(replay.At(0, 0, 0, 0).artifact->program, nullptr);
  auto again = fresh.RunOn("mips200-xc2v1000", binary, "fir");
  ASSERT_TRUE(again.ok()) << again.status().message();
  ASSERT_NE(again.value().program, nullptr);
  ASSERT_NE(again.value().software_run, nullptr);
  EXPECT_EQ(again.value().ReportBody(), run.value().ReportBody());
}

}  // namespace
}  // namespace b2h
