// Behavioral synthesis tests: resource library pricing, schedule legality
// (checked both on hand-built regions and property-style across the whole
// benchmark suite), chaining, pipelining II, binding/area, and VHDL shape.
#include "synth/synth.hpp"

#include <gtest/gtest.h>

#include "ir/dominators.hpp"
#include "ir/loops.hpp"
#include "mips/simulator.hpp"
#include "partition/candidates.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "testing_support.hpp"

namespace b2h::synth {
namespace {

using testing_support::DecompileWith;

TEST(ResourceLibrary, AreaScalesWithWidth) {
  const ResourceLibrary lib;
  EXPECT_LT(lib.FuGates(FuClass::kAddSub, 8),
            lib.FuGates(FuClass::kAddSub, 32));
  EXPECT_GT(lib.FuGates(FuClass::kDiv, 32),
            lib.FuGates(FuClass::kAddSub, 32));
  EXPECT_GT(lib.FuGates(FuClass::kMul, 32), lib.FuGates(FuClass::kMul, 16));
  EXPECT_EQ(lib.FuGates(FuClass::kNone, 32), 0.0);
}

TEST(ResourceLibrary, DelaysAreOrdered) {
  const ResourceLibrary lib;
  ir::Instr add;
  add.op = ir::Opcode::kAdd;
  add.width = 32;
  ir::Instr logic;
  logic.op = ir::Opcode::kAnd;
  logic.width = 32;
  ir::Instr mul;
  mul.op = ir::Opcode::kMul;
  mul.width = 32;
  EXPECT_LT(lib.OpDelayNs(logic), lib.OpDelayNs(add));
  EXPECT_LT(lib.OpDelayNs(add), lib.OpDelayNs(mul));
}

TEST(ResourceLibrary, ConstShiftsAreFree) {
  ir::Instr shift;
  shift.op = ir::Opcode::kShl;
  shift.operands = {ir::Value::Const(0), ir::Value::Const(4)};
  EXPECT_EQ(ClassifyOp(shift), FuClass::kNone);
  ir::Instr var_shift;
  var_shift.op = ir::Opcode::kShl;
  ir::Instr dummy;
  dummy.op = ir::Opcode::kInput;
  var_shift.operands = {ir::Value::Const(0), ir::Value::Of(&dummy)};
  EXPECT_EQ(ClassifyOp(var_shift), FuClass::kShift);
}

/// Decompile a benchmark and return its module + analyses for synthesis.
struct Prepared {
  mips::SoftBinary binary;
  decomp::DecompiledProgram program;
  mips::RunResult run;
};

Prepared Prepare(const std::string& name, int opt_level = 1) {
  const suite::Benchmark* bench = suite::FindBenchmark(name);
  EXPECT_NE(bench, nullptr);
  auto binary = suite::BuildBinary(*bench, opt_level);
  EXPECT_TRUE(binary.ok());
  Prepared prepared;
  prepared.binary = std::move(binary).take();
  mips::Simulator sim(prepared.binary);
  prepared.run = sim.Run();
  auto program =
      DecompileWith("default", prepared.binary, &prepared.run.profile);
  EXPECT_TRUE(program.ok()) << program.status().message();
  prepared.program = std::move(program).take();
  return prepared;
}

/// The innermost loop whose header runs most often, or null.
/// Whether no loop of `forest` nests inside `loop`.
bool IsInnermost(const ir::LoopForest& forest, const ir::Loop& loop) {
  for (const auto& other : forest.loops()) {
    if (other->parent == &loop) return false;
  }
  return true;
}

const ir::Loop* HottestInnermostLoop(const ir::LoopForest& forest) {
  const ir::Loop* hottest = nullptr;
  for (const auto& loop : forest.loops()) {
    if (!IsInnermost(forest, *loop)) continue;
    if (hottest == nullptr || loop->header_count > hottest->header_count) {
      hottest = loop.get();
    }
  }
  return hottest;
}

TEST(Schedule, FirInnerLoopPipelinesAtIiOne) {
  Prepared prepared = Prepare("fir");
  // Find the hottest innermost loop of the fir function.
  const ir::Function* fir = nullptr;
  for (const auto& function : prepared.program.module.functions) {
    if (function->name() == "fir") fir = function.get();
  }
  ASSERT_NE(fir, nullptr);
  const ir::DominatorTree dom(*fir);
  ir::LoopForest forest(*fir, dom);
  forest.AnnotateProfile();
  const ir::Loop* hottest = HottestInnermostLoop(forest);
  ASSERT_NE(hottest, nullptr);
  ASSERT_EQ(hottest->blocks.size(), 1u) << "rotated loops are single-block";

  const HwRegion region = ExtractLoopRegion(*fir, *hottest);
  EXPECT_TRUE(region.synthesizable);
  decomp::AliasAnalysis alias(*fir, &prepared.binary.symbols);
  const ResourceLibrary lib;
  const ScheduleOptions options;
  const RegionSchedule schedule = ScheduleRegion(region, &alias, lib, options);
  // Two loads per iteration on a dual-port BRAM: II = 1.
  EXPECT_EQ(schedule.pipeline_ii, 1);
  EXPECT_GE(schedule.pipeline_depth, 2);
  EXPECT_TRUE(VerifySchedule(region, schedule, lib, options).ok());
}

// Each error VerifySchedule can return on SSA-valid IR, made by editing the
// step table of a legal schedule of fir's inner loop.  ("chain order
// violation" needs a producer after its consumer in block order, which SSA
// rules out within a block.)
TEST(Schedule, VerifyRejectsIllegalSchedules) {
  Prepared prepared = Prepare("fir");
  const ir::Function* fir = nullptr;
  for (const auto& function : prepared.program.module.functions) {
    if (function->name() == "fir") fir = function.get();
  }
  ASSERT_NE(fir, nullptr);
  const ir::DominatorTree dom(*fir);
  ir::LoopForest forest(*fir, dom);
  forest.AnnotateProfile();
  const ir::Loop* hottest = HottestInnermostLoop(forest);
  ASSERT_NE(hottest, nullptr);
  const HwRegion region = ExtractLoopRegion(*fir, *hottest);
  decomp::AliasAnalysis alias(*fir, &prepared.binary.symbols);
  const ResourceLibrary lib;
  const ScheduleOptions options;
  const RegionSchedule schedule = ScheduleRegion(region, &alias, lib, options);
  ASSERT_TRUE(VerifySchedule(region, schedule, lib, options).ok());

  // A combinational producer and a consumer in the block, a load and a
  // reader of it, and two memory ops issued in one step.
  const ir::Instr* producer = nullptr;
  const ir::Instr* consumer = nullptr;
  const ir::Instr* load = nullptr;
  const ir::Instr* load_user = nullptr;
  std::vector<const ir::Instr*> mem_ops;
  for (const ir::Instr* instr : region.blocks.front()->instrs) {
    if (!IsBodyOp(instr)) continue;
    if (ClassifyOp(*instr) == FuClass::kMemPort) mem_ops.push_back(instr);
    for (const ir::Value& operand : instr->operands) {
      if (!operand.is_instr() || schedule.StepOf(operand.def) < 0) continue;
      if (lib.OpLatencyCycles(*operand.def) == 0 && consumer == nullptr) {
        producer = operand.def;
        consumer = instr;
      }
      if (operand.def->op == ir::Opcode::kLoad && load_user == nullptr) {
        load = operand.def;
        load_user = instr;
      }
    }
  }
  ASSERT_NE(consumer, nullptr);
  ASSERT_NE(load_user, nullptr);
  ASSERT_GE(mem_ops.size(), 2u);
  ASSERT_EQ(schedule.StepOf(mem_ops[0]), schedule.StepOf(mem_ops[1]))
      << "the dual-port schedule issues fir's two loads in one step";

  const auto verify = [&](const auto& edit, unsigned mem_ports) {
    RegionSchedule edited = schedule;
    edit(edited.steps);
    ScheduleOptions edited_options = options;
    edited_options.mem_ports = mem_ports;
    const Status status = VerifySchedule(region, edited, lib, edited_options);
    return status.ok() ? std::string("ok") : status.message();
  };
  EXPECT_EQ(verify([&](std::vector<int>& steps) { steps[consumer->id] = -1; },
                   options.mem_ports),
            "unscheduled instruction in " + region.name);
  EXPECT_EQ(verify(
                [&](std::vector<int>& steps) {
                  steps[producer->id] = steps[consumer->id] + 1;
                },
                options.mem_ports),
            "dependence violation in " + region.name);
  EXPECT_EQ(verify(
                [&](std::vector<int>& steps) {
                  steps[load->id] = steps[load_user->id];
                },
                options.mem_ports),
            "latency violation in " + region.name);
  EXPECT_EQ(verify([](std::vector<int>&) {}, 1),
            "resource overuse in " + region.name);
}

TEST(Schedule, ChainingRespectsClockPeriod) {
  Prepared prepared = Prepare("bcnt");
  const ir::Function* bcnt = nullptr;
  for (const auto& function : prepared.program.module.functions) {
    if (function->name() == "bcnt") bcnt = function.get();
  }
  ASSERT_NE(bcnt, nullptr);
  const HwRegion region = ExtractFunctionRegion(*bcnt);
  decomp::AliasAnalysis alias(*bcnt, &prepared.binary.symbols);
  const ResourceLibrary lib;

  ScheduleOptions tight;
  tight.clock_ns = 4.0;
  const RegionSchedule tight_schedule =
      ScheduleRegion(region, &alias, lib, tight);
  ScheduleOptions loose;
  loose.clock_ns = 40.0;
  const RegionSchedule loose_schedule =
      ScheduleRegion(region, &alias, lib, loose);
  // A longer clock period lets more operators chain into each step.
  EXPECT_LE(loose_schedule.total_states, tight_schedule.total_states);
  EXPECT_LE(tight_schedule.critical_path_ns, tight.clock_ns + 7.0);
  EXPECT_TRUE(VerifySchedule(region, tight_schedule, lib, tight).ok());
  EXPECT_TRUE(VerifySchedule(region, loose_schedule, lib, loose).ok());
}

TEST(Schedule, NoChainingIncreasesStates) {
  Prepared prepared = Prepare("brev");
  const ir::Function* brev = nullptr;
  for (const auto& function : prepared.program.module.functions) {
    if (function->name() == "brev") brev = function.get();
  }
  ASSERT_NE(brev, nullptr);
  const HwRegion region = ExtractFunctionRegion(*brev);
  decomp::AliasAnalysis alias(*brev, &prepared.binary.symbols);
  const ResourceLibrary lib;
  ScheduleOptions chained;
  ScheduleOptions unchained;
  unchained.enable_chaining = false;
  const auto with_chain = ScheduleRegion(region, &alias, lib, chained);
  const auto without_chain = ScheduleRegion(region, &alias, lib, unchained);
  EXPECT_LT(with_chain.total_states, without_chain.total_states);
}

TEST(Schedule, MemPortLimitRaisesIi) {
  Prepared prepared = Prepare("fir");
  const ir::Function* fir = nullptr;
  for (const auto& function : prepared.program.module.functions) {
    if (function->name() == "fir") fir = function.get();
  }
  ASSERT_NE(fir, nullptr);
  const ir::DominatorTree dom(*fir);
  ir::LoopForest forest(*fir, dom);
  forest.AnnotateProfile();
  const ir::Loop* hottest = HottestInnermostLoop(forest);
  ASSERT_NE(hottest, nullptr);
  const HwRegion region = ExtractLoopRegion(*fir, *hottest);
  decomp::AliasAnalysis alias(*fir, &prepared.binary.symbols);
  const ResourceLibrary lib;
  ScheduleOptions single_port;
  single_port.mem_ports = 1;
  const auto schedule = ScheduleRegion(region, &alias, lib, single_port);
  EXPECT_GE(schedule.pipeline_ii, 2);  // two accesses, one port
}

TEST(Area, ReportIsConsistent) {
  Prepared prepared = Prepare("fir");
  const ir::Function* fir = nullptr;
  for (const auto& function : prepared.program.module.functions) {
    if (function->name() == "fir") fir = function.get();
  }
  ASSERT_NE(fir, nullptr);
  const HwRegion region = ExtractFunctionRegion(*fir);
  decomp::AliasAnalysis alias(*fir, &prepared.binary.symbols);
  auto synthesized = Synthesize(region, &alias);
  ASSERT_TRUE(synthesized.ok()) << synthesized.status().message();
  const AreaReport& area = synthesized.value().area;
  EXPECT_GT(area.total_gates, 0.0);
  EXPECT_GT(area.registers, 0u);
  EXPECT_GT(area.fsm_states, 0u);
  EXPECT_GE(area.mult_blocks, 1u);  // the MAC multiplier
  const double parts = area.fu_gates + area.register_gates + area.mux_gates +
                       area.fsm_gates;
  EXPECT_NEAR(area.total_gates, parts * 1.12, parts * 0.01);
  const std::string summary = area.Summary();
  EXPECT_NE(summary.find("TOTAL"), std::string::npos);
  EXPECT_NE(summary.find("MULT18X18s"), std::string::npos);
}

TEST(Area, NarrowDatapathIsSmaller) {
  // Same structure, one narrowed by size reduction: area must not grow.
  Prepared with_reduction = Prepare("crc");
  mips::Simulator sim(with_reduction.binary);
  auto run = sim.Run();
  auto wide_program = DecompileWith("default,-reduce-operator-sizes",
                                    with_reduction.binary, &run.profile);
  ASSERT_TRUE(wide_program.ok());

  const auto synth_of = [&](const decomp::DecompiledProgram& program)
      -> double {
    const ir::Function* crc = nullptr;
    for (const auto& function : program.module.functions) {
      if (function->name() == "crc16") crc = function.get();
    }
    EXPECT_NE(crc, nullptr);
    const HwRegion region = ExtractFunctionRegion(*crc);
    auto synthesized = Synthesize(region, nullptr);
    EXPECT_TRUE(synthesized.ok());
    return synthesized.value().area.total_gates;
  };
  const double narrow_gates = synth_of(with_reduction.program);
  const double wide_gates = synth_of(wide_program.value());
  EXPECT_LE(narrow_gates, wide_gates);
}

TEST(Vhdl, EmitsWellFormedEntity) {
  Prepared prepared = Prepare("brev");
  const ir::Function* brev = nullptr;
  for (const auto& function : prepared.program.module.functions) {
    if (function->name() == "brev") brev = function.get();
  }
  ASSERT_NE(brev, nullptr);
  const HwRegion region = ExtractFunctionRegion(*brev);
  auto synthesized = Synthesize(region, nullptr);
  ASSERT_TRUE(synthesized.ok());
  const std::string& vhdl = synthesized.value().vhdl;
  EXPECT_NE(vhdl.find("entity hw_brev is"), std::string::npos);
  EXPECT_NE(vhdl.find("architecture rtl of hw_brev is"), std::string::npos);
  EXPECT_NE(vhdl.find("use ieee.numeric_std.all;"), std::string::npos);
  EXPECT_NE(vhdl.find("when S_IDLE =>"), std::string::npos);
  EXPECT_NE(vhdl.find("when S_DONE =>"), std::string::npos);
  EXPECT_NE(vhdl.find("rising_edge(clk)"), std::string::npos);
  EXPECT_NE(vhdl.find("mem_addr"), std::string::npos);
  // Balanced structure: one end per process/entity/architecture.
  EXPECT_NE(vhdl.find("end process;"), std::string::npos);
  EXPECT_NE(vhdl.find("end architecture rtl;"), std::string::npos);
}

TEST(Regions, CallMakesRegionUnsynthesizable) {
  // main calls the kernels: a whole-main region (with calls left after
  // inlining) must be rejected, not mis-synthesized.
  Prepared prepared = Prepare("fir");
  mips::Simulator sim(prepared.binary);
  auto run = sim.Run();
  auto program = DecompileWith("default,-inline-small-functions",
                               prepared.binary, &run.profile);
  ASSERT_TRUE(program.ok());
  const HwRegion region =
      ExtractFunctionRegion(*program.value().module.main);
  EXPECT_FALSE(region.synthesizable);
  auto synthesized = Synthesize(region, nullptr);
  EXPECT_FALSE(synthesized.ok());
  EXPECT_EQ(synthesized.status().kind(), ErrorKind::kUnsupported);
}

/// Property: for every working benchmark, every innermost loop the
/// partitioner could select yields a verifiable schedule.
class ScheduleLegality : public ::testing::TestWithParam<const char*> {};

TEST_P(ScheduleLegality, AllLoopsOfBenchmark) {
  Prepared prepared = Prepare(GetParam());
  const ResourceLibrary lib;
  const ScheduleOptions options;
  for (const auto& function : prepared.program.module.functions) {
    const ir::DominatorTree dom(*function);
    ir::LoopForest forest(*function, dom);
    forest.AnnotateProfile();
    decomp::AliasAnalysis alias(*function, &prepared.binary.symbols);
    for (const auto& loop : forest.loops()) {
      if (!IsInnermost(forest, *loop)) continue;
      const HwRegion region = ExtractLoopRegion(*function, *loop);
      if (!region.synthesizable) continue;
      const RegionSchedule schedule =
          ScheduleRegion(region, &alias, lib, options);
      const Status status = VerifySchedule(region, schedule, lib, options);
      EXPECT_TRUE(status.ok()) << region.name << ": " << status.message();
      EXPECT_LE(schedule.critical_path_ns, options.clock_ns + 7.0)
          << region.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ScheduleLegality,
    ::testing::Values("autcor00", "conven00", "rgbcmy01", "idct01",
                      "bitmnp01", "crc", "bcnt", "blit", "fir", "engine",
                      "g3fax", "adpcm_enc", "adpcm_dec", "g721_quan",
                      "jpeg_dct", "brev", "matmul", "checksum"),
    [](const auto& info) { return std::string(info.param); });

// Ports (VHDL entity, RTL simulation) follow a region's live values, so
// their order must not depend on heap addresses: every synthesized
// candidate of every working suite binary at -O0..-O3 lists its live-ins
// and live-outs by strictly ascending instruction id.
TEST(HwRegion, LiveValuesFollowInstructionIds) {
  const SynthOptions options;
  std::size_t regions = 0;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    for (int opt_level = 0; opt_level <= 3; ++opt_level) {
      const Prepared prepared = Prepare(bench->name, opt_level);
      const auto set = partition::CandidateSet::Scan(prepared.program,
                                                     prepared.run.profile);
      for (std::size_t id = 0; id < set.size(); ++id) {
        const auto& synthesized = set.Synthesize(id, options);
        if (!synthesized.ok()) continue;
        ++regions;
        const HwRegion& region = synthesized.value().region;
        for (const auto* values : {&region.live_ins, &region.live_outs}) {
          for (std::size_t i = 1; i < values->size(); ++i) {
            EXPECT_LT((*values)[i - 1]->id, (*values)[i]->id)
                << bench->name << " -O" << opt_level << " " << region.name;
          }
        }
      }
    }
  }
  EXPECT_GT(regions, 0u);
}

}  // namespace
}  // namespace b2h::synth
