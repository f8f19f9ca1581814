// PassManager tests: the pass table's completeness, preset and spec parsing,
// every single-pass ablation producing verifiable IR, and per-pass timings
// in pipeline order next to the DecompileStats the passes fill.
#include "decomp/pass_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ir/verifier.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"

namespace b2h::decomp {
namespace {

std::shared_ptr<const mips::SoftBinary> BuildBench(const std::string& name,
                                                   int opt_level = 1) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr) << name;
  auto binary = suite::BuildBinary(*bench, opt_level);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  return std::make_shared<const mips::SoftBinary>(std::move(binary).take());
}

TEST(PassTable, HoldsEveryPaperPassDescribed) {
  const std::vector<std::string> expected = {
      "reroll-loops",       "simplify-constants",    "remove-stack-ops",
      "inline-small-functions", "convert-ifs",       "promote-strength",
      "reduce-strength",    "reduce-operator-sizes",
  };
  ASSERT_EQ(AllPasses().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Pass& pass = AllPasses()[i];
    EXPECT_EQ(pass.name(), expected[i]);
    EXPECT_FALSE(pass.description().empty()) << pass.name();
    EXPECT_EQ(FindPass(expected[i]), &pass);
  }
  EXPECT_EQ(FindPass("no-such-pass"), nullptr);
}

TEST(PassManager, PresetNamesResolve) {
  for (const char* preset : {"default", "none"}) {
    auto manager = PassManager::Preset(preset);
    EXPECT_TRUE(manager.ok()) << preset;
  }
  EXPECT_FALSE(PassManager::Preset("bogus").ok());
}

TEST(PassManager, SpecParsing) {
  auto removed = PassManager::FromSpec("default,-simplify-constants");
  ASSERT_TRUE(removed.ok());
  for (const Pass* pass : removed.value().pipeline()) {
    EXPECT_NE(pass->name(), "simplify-constants");
  }

  auto explicit_list =
      PassManager::FromSpec("simplify-constants, reduce-operator-sizes");
  ASSERT_TRUE(explicit_list.ok());
  ASSERT_EQ(explicit_list.value().pipeline().size(), 2u);
  EXPECT_EQ(explicit_list.value().pipeline()[0]->name(), "simplify-constants");
  EXPECT_EQ(explicit_list.value().pipeline()[1]->name(),
            "reduce-operator-sizes");

  EXPECT_FALSE(PassManager::FromSpec("default,no-such-pass").ok());
  EXPECT_FALSE(PassManager::FromSpec("no-such-preset").ok());
  // A typo'd disable must not silently run the full pipeline.
  EXPECT_FALSE(PassManager::FromSpec("default,-no-such-pass").ok());
}

// Every single-pass ablation of the default pipeline still decompiles
// fir and crc at -O3 (rerolling and inlining fire there; crc has helper
// calls) into IR that passes the verifier.
TEST(PassManager, EveryDisableSpecDecompilesAndVerifies) {
  auto preset = PassManager::Preset("default");
  ASSERT_TRUE(preset.ok());
  std::vector<std::string> passes;
  for (const Pass* pass : preset.value().pipeline()) {
    if (std::find(passes.begin(), passes.end(), pass->name()) ==
        passes.end()) {
      passes.push_back(pass->name());
    }
  }
  ASSERT_EQ(passes.size(), 8u);  // the eight paper passes
  for (const char* bench : {"fir", "crc"}) {
    const auto binary = BuildBench(bench, 3);
    for (const std::string& pass : passes) {
      const std::string spec = "default,-" + pass;
      auto manager = PassManager::FromSpec(spec);
      ASSERT_TRUE(manager.ok()) << spec;
      // The pipeline's own verification is off here, so the explicit
      // check below is what catches a malformed module.
      auto program = manager.value().SetVerify(false).Run(binary);
      ASSERT_TRUE(program.ok())
          << bench << " with " << spec << ": " << program.status().message();
      const Status verified = ir::Verify(program.value().module);
      EXPECT_TRUE(verified.ok())
          << bench << " with " << spec << ": " << verified.message();
    }
  }
}

TEST(PassManager, PerPassStatsRoundTrip) {
  const auto binary = BuildBench("fir", 3);
  auto preset = PassManager::Preset("default");
  ASSERT_TRUE(preset.ok());
  auto program = preset.value().Run(binary);
  ASSERT_TRUE(program.ok());
  const auto& runs = program.value().pass_runs;
  ASSERT_EQ(runs.size(), preset.value().pipeline().size());

  // One timed run per pipeline entry, in pipeline order.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].pass, preset.value().pipeline()[i]->name());
    EXPECT_GE(runs[i].millis, 0.0);
  }
  // fir at -O3 actually exercises the interesting passes.
  const DecompileStats& stats = program.value().stats;
  EXPECT_GT(stats.constants_simplified, 0u);
  EXPECT_GT(stats.loops_rerolled, 0u);
}

TEST(PassManager, DecompiledProgramOwnsItsBinary) {
  // The old non-owning pointer dangled here: the Result (and with it the
  // caller's only handle on the binary) dies before the program is used.
  DecompiledProgram program = [] {
    auto binary = BuildBench("brev");
    auto decompiled = PassManager::Preset("default").value().Run(binary);
    EXPECT_TRUE(decompiled.ok());
    binary.reset();  // drop the caller's only handle
    return std::move(decompiled).take();
  }();
  ASSERT_NE(program.binary, nullptr);
  EXPECT_GT(program.binary->text.size(), 0u);
  EXPECT_FALSE(program.binary->symbols.empty());
}

TEST(PassManager, EmptyPipelineStillLiftsAndCleans) {
  const auto binary = BuildBench("brev");
  auto none = PassManager::Preset("none");
  ASSERT_TRUE(none.ok());
  auto program = none.value().Run(binary);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program.value().pass_runs.empty());
  EXPECT_GT(program.value().stats.lifted_instrs, 0u);
  EXPECT_GT(program.value().stats.final_instrs, 0u);
}

}  // namespace
}  // namespace b2h::decomp
