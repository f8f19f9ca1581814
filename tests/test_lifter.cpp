// Lifter / CFG recovery tests: block discovery, SSA construction, the
// indirect-jump failure mode, function discovery through jal, profile
// annotation, and functions whose first instruction heads a loop.
#include "decomp/lifter.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "decomp/pass_manager.hpp"
#include "ir/interp.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "mips/assembler.hpp"
#include "mips/simulator.hpp"

namespace b2h::decomp {
namespace {

mips::SoftBinary Asm(const std::string& source) {
  auto binary = mips::Assemble(source);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  return std::move(binary).take();
}

TEST(Lifter, StraightLineCode) {
  const auto binary = Asm(R"(
    main:
      li $t0, 5
      addiu $t0, $t0, 3
      move $v0, $t0
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  EXPECT_TRUE(ir::Verify(module.value()).ok());
  EXPECT_EQ(module.value().functions.size(), 1u);
  const ir::Function* main = module.value().main;
  EXPECT_EQ(main->blocks().size(), 1u);
  EXPECT_EQ(main->name(), "main");
}

TEST(Lifter, BranchMakesDiamond) {
  const auto binary = Asm(R"(
    main:
      bgez $a0, pos
      subu $v0, $zero, $a0
      jr $ra
    pos:
      move $v0, $a0
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  const ir::Function* main = module.value().main;
  EXPECT_EQ(main->blocks().size(), 3u);
  const Status status = ir::Verify(*main);
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(Lifter, LoopGetsPhi) {
  const auto binary = Asm(R"(
    main:
      li $t0, 0
      li $t1, 0
    loop:
      addu $t1, $t1, $t0
      addiu $t0, $t0, 1
      slti $t2, $t0, 10
      bne $t2, $zero, loop
      move $v0, $t1
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  const ir::Function* main = module.value().main;
  std::size_t phis = 0;
  for (const auto& block : main->blocks()) {
    phis += block->Phis().size();
  }
  EXPECT_GE(phis, 2u);  // induction variable + accumulator
  EXPECT_TRUE(ir::Verify(*main).ok());
}

TEST(Lifter, IndirectJumpFailsRecovery) {
  const auto binary = Asm(R"(
    main:
      la $t0, main
      jr $t0
  )");
  auto module = Lift(binary);
  ASSERT_FALSE(module.ok());
  EXPECT_EQ(module.status().kind(), ErrorKind::kIndirectJump);
  EXPECT_NE(module.status().message().find("jr"), std::string::npos);
}

TEST(Lifter, JalrFailsRecovery) {
  const auto binary = Asm(R"(
    main:
      la $t0, main
      jalr $t0
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_FALSE(module.ok());
  EXPECT_EQ(module.status().kind(), ErrorKind::kIndirectJump);
}

TEST(Lifter, DiscoversCalleesThroughJal) {
  const auto binary = Asm(R"(
    main:
      li $a0, 4
      jal helper
      jr $ra
    helper:
      sll $v0, $a0, 1
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  EXPECT_EQ(module.value().functions.size(), 2u);
  const ir::Function* helper =
      module.value().FindByEntry(binary.symbols.at("helper"));
  ASSERT_NE(helper, nullptr);
  EXPECT_EQ(helper->name(), "helper");
  // main contains a call op referencing the helper entry.
  bool found_call = false;
  for (const auto& block : module.value().main->blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kCall) {
        found_call = true;
        EXPECT_EQ(instr->call_target, binary.symbols.at("helper"));
      }
    }
  }
  EXPECT_TRUE(found_call);
}

TEST(Lifter, MalformedBinaryFails) {
  mips::SoftBinary binary;
  binary.text = {0xFFFFFFFFu};  // undecodable
  auto module = Lift(binary);
  ASSERT_FALSE(module.ok());
  EXPECT_EQ(module.status().kind(), ErrorKind::kMalformedBinary);
}

TEST(Lifter, BranchOutsideTextFails) {
  mips::SoftBinary binary;
  // j 0x0800000 (far outside the one-instruction text segment)
  binary.text = {mips::Encode(
      {.op = mips::Op::kJ, .target = 0x0800000 >> 2})};
  auto module = Lift(binary);
  ASSERT_FALSE(module.ok());
  EXPECT_EQ(module.status().kind(), ErrorKind::kMalformedBinary);
}

TEST(Lifter, ProfileAnnotations) {
  const auto binary = Asm(R"(
    main:
      li $t0, 6
      li $v0, 0
    loop:
      addiu $v0, $v0, 2
      addiu $t0, $t0, -1
      bgtz $t0, loop
      jr $ra
  )");
  mips::Simulator sim(binary);
  const auto run = sim.Run();
  ASSERT_EQ(run.return_value, 12);

  LiftOptions options;
  options.profile = &run.profile;
  auto module = Lift(binary, options);
  ASSERT_TRUE(module.ok());
  const ir::Function* main = module.value().main;
  // Find the loop block and check counts: executes 6 times, 5 back edges.
  bool found = false;
  for (const auto& block : main->blocks()) {
    if (block->exec_count == 6) {
      found = true;
      EXPECT_EQ(block->taken_count + block->not_taken_count, 6u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lifter, HiLoRegistersFlowThroughMultDiv) {
  const auto binary = Asm(R"(
    main:
      li $t0, 100
      li $t1, 7
      div $t0, $t1
      mflo $t2
      mfhi $t3
      sll $t2, $t2, 8
      or $v0, $t2, $t3
      jr $ra
  )");
  auto lifted = Lift(binary);
  ASSERT_TRUE(lifted.ok());
  EXPECT_TRUE(ir::Verify(lifted.value()).ok());
}

// The loop heads the function: its back edge targets the first instruction.
constexpr const char* kEntryLoop = R"(
    main:
      addiu $v0, $v0, 1
      slt $t0, $v0, $a0
      bne $t0, $zero, main
      jr $ra
  )";

// The same loop as a leaf that main calls.
constexpr const char* kEntryLoopLeaf = R"(
    main:
      addiu $sp, $sp, -8
      sw $ra, 4($sp)
      jal count
      lw $ra, 4($sp)
      addiu $sp, $sp, 8
      jr $ra
    count:
      addiu $v0, $v0, 1
      slt $t0, $v0, $a0
      bne $t0, $zero, count
      jr $ra
  )";

constexpr std::int32_t kEntryLoopInputs[] = {5, 1, -3};

/// Interpreting `module` must give the simulator's result for every input;
/// a small step budget turns a loop that never sees its carried values into
/// a quick failure.
void ExpectInterpreterMatchesSimulator(const mips::SoftBinary& binary,
                                       const ir::Module& module) {
  for (const std::int32_t a0 : kEntryLoopInputs) {
    const std::int32_t args[] = {a0};
    mips::Simulator sim(binary);
    const auto run = sim.Run(args);
    ASSERT_EQ(run.reason, mips::HaltReason::kReturned) << run.fault_message;
    EXPECT_EQ(run.return_value, a0 > 1 ? a0 : 1) << "simulator, a0=" << a0;
    ir::InterpOptions options;
    options.max_steps = 100'000;
    ir::Interpreter interp(module, binary.data, options);
    const auto result = interp.Run(args);
    ASSERT_TRUE(result.ok) << "a0=" << a0 << ": " << result.error;
    EXPECT_EQ(result.return_value, run.return_value) << "IR, a0=" << a0;
  }
}

TEST(Lifter, FunctionsThatShareATailEachRecoverIt) {
  // CFG recovery walks `first`, then `second`, over the same text: the
  // second walk must reach the shared tail again.
  const auto binary = std::make_shared<const mips::SoftBinary>(Asm(R"(
    main:
      addiu $sp, $sp, -8
      sw $ra, 4($sp)
      jal first
      move $a0, $v0
      jal second
      lw $ra, 4($sp)
      addiu $sp, $sp, 8
      jr $ra
    first:
      addiu $v0, $a0, 1
      j tail
    second:
      addiu $v0, $a0, 2
      j tail
    tail:
      addu $v0, $v0, $v0
      jr $ra
  )"));
  auto lifted = Lift(*binary);
  ASSERT_TRUE(lifted.ok()) << lifted.status().message();
  ASSERT_TRUE(ir::Verify(lifted.value()).ok());
  for (const char* name : {"first", "second"}) {
    const ir::Function* function =
        lifted.value().FindByEntry(binary->symbols.at(name));
    ASSERT_NE(function, nullptr) << name;
    EXPECT_EQ(function->name(), name);
    bool has_tail = false;
    for (const auto& block : function->blocks()) {
      has_tail |= block->start_pc == binary->symbols.at("tail");
    }
    EXPECT_TRUE(has_tail) << ir::Print(*function);
  }

  const auto manager = PassManager::Preset("default");
  ASSERT_TRUE(manager.ok());
  const auto program = manager.value().Run(binary);
  ASSERT_TRUE(program.ok()) << program.status().message();
  for (const std::int32_t a0 : kEntryLoopInputs) {
    const std::int32_t args[] = {a0};
    mips::Simulator sim(*binary);
    const auto run = sim.Run(args);
    ASSERT_EQ(run.reason, mips::HaltReason::kReturned) << run.fault_message;
    EXPECT_EQ(run.return_value, ((a0 + 1) * 2 + 2) * 2);
    ir::Interpreter interp(program.value().module, binary->data);
    const auto result = interp.Run(args);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.return_value, run.return_value) << "a0=" << a0;
  }
}

TEST(Lifter, EntryLoopHeaderGetsAnEmptyEntryBlock) {
  const auto binary = Asm(kEntryLoop);
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok()) << module.status().message();
  const ir::Function& main = *module.value().main;
  const Status status = ir::Verify(main);
  ASSERT_TRUE(status.ok()) << status.message();
  // The entry block holds only the live-ins and falls into the loop, whose
  // header merges them with the values carried around the back edge.
  const ir::Block* entry = main.entry();
  EXPECT_EQ(entry->start_pc, 0u);
  EXPECT_TRUE(entry->preds.empty());
  ASSERT_EQ(entry->succs().size(), 1u);
  const ir::Block* header = entry->succs()[0];
  EXPECT_EQ(header->start_pc, binary.entry);
  EXPECT_EQ(header->preds.size(), 2u);
  EXPECT_EQ(header->Phis().size(), 1u) << ir::Print(main);  // $v0
}

TEST(Lifter, EntryLoopDecompilesToTheSimulatorsResult) {
  const auto manager = PassManager::Preset("default");
  ASSERT_TRUE(manager.ok());
  for (const char* source : {kEntryLoop, kEntryLoopLeaf}) {
    SCOPED_TRACE(source);
    const auto binary = std::make_shared<const mips::SoftBinary>(Asm(source));
    const auto program = manager.value().Run(binary);
    ASSERT_TRUE(program.ok()) << program.status().message();
    ExpectInterpreterMatchesSimulator(*binary, program.value().module);
  }
}

TEST(Lifter, EntryLoopLeafDecompilesAloneThroughLiftAt) {
  // The online partitioner lifts only the function around a hot loop.
  const auto binary = std::make_shared<const mips::SoftBinary>(
      Asm(kEntryLoopLeaf));
  const auto manager = PassManager::Preset("default");
  ASSERT_TRUE(manager.ok());
  const auto program =
      manager.value().RunAt(binary, binary->symbols.at("count"));
  ASSERT_TRUE(program.ok()) << program.status().message();
  EXPECT_EQ(program.value().module.main->name(), "count");
  ExpectInterpreterMatchesSimulator(*binary, program.value().module);
}

TEST(TrivialPhis, RemovedAfterLifting) {
  // A block with a single predecessor gets placeholder phis during lifting;
  // they must all be gone afterwards.
  const auto binary = Asm(R"(
    main:
      li $t0, 1
      b next
    next:
      move $v0, $t0
      jr $ra
  )");
  auto module = Lift(binary);
  ASSERT_TRUE(module.ok());
  for (const auto& block : module.value().main->blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kPhi) {
        EXPECT_GE(block->preds.size(), 2u)
            << "trivial phi survived in " << block->name;
      }
    }
  }
}

}  // namespace
}  // namespace b2h::decomp
