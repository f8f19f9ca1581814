// IR core tests: construction, CFG maintenance, dominators, loops,
// verifier diagnostics, printer, and the interpreter's edge semantics.
#include "ir/ir.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "decomp/pass_manager.hpp"
#include "ir/dominators.hpp"
#include "ir/interp.hpp"
#include "ir/loops.hpp"
#include "ir/printer.hpp"
#include "ir/ssa.hpp"
#include "ir/verifier.hpp"
#include "mips/assembler.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"

namespace b2h::ir {
namespace {

/// Build a diamond:  entry -> (left | right) -> merge(phi) -> ret.
struct Diamond {
  Function function{"diamond"};
  Block* entry;
  Block* left;
  Block* right;
  Block* merge;
  Instr* input;
  Instr* phi;

  Diamond() {
    entry = function.CreateBlock("entry", 0x100);
    left = function.CreateBlock("left", 0x110);
    right = function.CreateBlock("right", 0x120);
    merge = function.CreateBlock("merge", 0x130);

    input = function.Create(Opcode::kInput);
    input->input_index = 4;
    entry->Append(input);
    Instr* cmp = function.Emit(entry, Opcode::kGtS,
                               {Value::Of(input), Value::Const(0)});
    Instr* br = function.Create(Opcode::kCondBr);
    br->operands = {Value::Of(cmp)};
    br->target0 = left;
    br->target1 = right;
    entry->Append(br);

    Instr* doubled = function.Emit(left, Opcode::kAdd,
                                   {Value::Of(input), Value::Of(input)});
    Instr* br_left = function.Create(Opcode::kBr);
    br_left->target0 = merge;
    left->Append(br_left);

    Instr* negated = function.Emit(right, Opcode::kSub,
                                   {Value::Const(0), Value::Of(input)});
    Instr* br_right = function.Create(Opcode::kBr);
    br_right->target0 = merge;
    right->Append(br_right);

    function.RecomputeCfg();
    phi = function.Create(Opcode::kPhi);
    // Operand order must match merge->preds.
    std::vector<Value> phi_operands;
    for (Block* pred : merge->preds) {
      phi_operands.push_back(pred == left ? Value::Of(doubled)
                                          : Value::Of(negated));
    }
    phi->operands = phi_operands;
    merge->PrependPhi(phi);
    Instr* ret = function.Create(Opcode::kRet);
    ret->operands = {Value::Of(phi)};
    merge->Append(ret);
    function.RecomputeCfg();
  }
};

TEST(IrCore, DiamondIsWellFormed) {
  Diamond d;
  const Status status = Verify(d.function);
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(d.merge->preds.size(), 2u);
  EXPECT_EQ(d.entry->succs().size(), 2u);
  EXPECT_EQ(d.function.NumInstrs(), 9u);
}

TEST(IrCore, PrinterShowsStructure) {
  Diamond d;
  const std::string text = Print(d.function);
  EXPECT_NE(text.find("func diamond"), std::string::npos);
  EXPECT_NE(text.find("phi"), std::string::npos);
  EXPECT_NE(text.find("condbr"), std::string::npos);
  EXPECT_NE(text.find("input r4"), std::string::npos);
}

TEST(IrCore, RemoveDeadInstrs) {
  Diamond d;
  // Add an unused computation chain.
  Instr* dead1 = d.function.Emit(d.entry, Opcode::kAdd,
                                 {Value::Of(d.input), Value::Const(7)});
  d.function.Emit(d.entry, Opcode::kMul,
                  {Value::Of(dead1), Value::Const(3)});
  d.function.RecomputeCfg();
  const std::size_t removed = d.function.RemoveDeadInstrs();
  EXPECT_EQ(removed, 2u);
  EXPECT_TRUE(Verify(d.function).ok());
}

TEST(IrCore, ReplaceAllUsesFollowsChains) {
  Diamond d;
  // input -> the left arm's add -> const 9: every use of the input ends at
  // the constant, and both replaced instructions leave their blocks.
  Instr* doubled = d.left->instrs.front();
  d.function.ReplaceAllUses(
      {{d.input, Value::Of(doubled)}, {doubled, Value::Const(9)}});
  bool any_input_use = false;
  for (const auto& block : d.function.blocks()) {
    for (const Instr* instr : block->instrs) {
      for (const Value& operand : instr->operands) {
        if (operand.is_instr() && operand.def == d.input) {
          any_input_use = true;
        }
      }
    }
  }
  EXPECT_FALSE(any_input_use);
  // The replaced instructions left their blocks.
  EXPECT_EQ(std::count(d.entry->instrs.begin(), d.entry->instrs.end(),
                       d.input),
            0);
  EXPECT_EQ(std::count(d.left->instrs.begin(), d.left->instrs.end(), doubled),
            0);
  EXPECT_TRUE(d.phi->operands[d.merge->PredIndex(d.left)].is_const_value(9));
}

TEST(IrCore, OperandDefinedOutsideTheBlocksThrows) {
  // The side tables are indexed by the block-order numbering, so a use of
  // an instruction that left its block is an error, not a silent miss.
  Diamond d;
  d.entry->Remove(d.input);
  EXPECT_THROW(d.function.RemoveDeadInstrs(), InternalError);
  EXPECT_THROW(d.function.ReplaceAllUses({{d.phi, Value::Const(0)}}),
               InternalError);
}

TEST(IrCore, RemoveUnreachableBlocksFixesPhis) {
  Diamond d;
  // Make the branch unconditional to the left: right becomes unreachable.
  Instr* term = d.entry->terminator();
  term->op = Opcode::kBr;
  term->operands.clear();
  term->target0 = d.left;
  term->target1 = nullptr;
  term->width = 0;
  d.function.RemoveUnreachableBlocks();
  EXPECT_TRUE(Verify(d.function).ok());
  EXPECT_EQ(d.function.blocks().size(), 3u);
  EXPECT_EQ(d.phi->operands.size(), 1u);
}

TEST(IrCore, TakeOverKeepsPhiOperandsWithTheirBlocks) {
  // `early` sits before `left` in block order and takes over `right`'s
  // branch to the merge: the merge's preds go from [left, right] to
  // [early, left], and the operand that flowed in from `right` must now
  // flow in from `early`.
  Function function("takeover");
  Block* entry = function.CreateBlock("entry");
  Block* early = function.CreateBlock("early");
  Block* left = function.CreateBlock("left");
  Block* right = function.CreateBlock("right");
  Block* merge = function.CreateBlock("merge");
  Instr* input = function.Create(Opcode::kInput);
  input->input_index = 4;
  entry->Append(input);
  Instr* cmp =
      function.Emit(entry, Opcode::kGtS, {Value::Of(input), Value::Const(0)});
  Instr* branch = function.Create(Opcode::kCondBr);
  branch->operands = {Value::Of(cmp)};
  branch->target0 = left;
  branch->target1 = right;
  entry->Append(branch);
  for (Block* arm : {left, right}) {
    Instr* br = function.Create(Opcode::kBr);
    br->target0 = merge;
    arm->Append(br);
  }
  function.RecomputeCfg();
  ASSERT_EQ(merge->preds, (std::vector<Block*>{left, right}));
  Instr* phi = function.Create(Opcode::kPhi);
  phi->operands = {Value::Const(1), Value::Const(2)};
  merge->PrependPhi(phi);
  Instr* ret = function.Create(Opcode::kRet);
  ret->operands = {Value::Of(phi)};
  merge->Append(ret);
  function.RecomputeCfg();

  function.MoveTail(right, 0, early);
  Instr* to_early = function.Create(Opcode::kBr);
  to_early->target0 = early;
  right->Append(to_early);
  function.RecomputeCfg();

  ASSERT_EQ(merge->preds, (std::vector<Block*>{early, left}));
  EXPECT_TRUE(phi->operands[merge->PredIndex(early)].is_const_value(2));
  EXPECT_TRUE(phi->operands[merge->PredIndex(left)].is_const_value(1));
  EXPECT_TRUE(Verify(function).ok());
  Module module;
  module.main = &function;
  const std::vector<std::uint8_t> no_data;
  Interpreter positive(module, no_data);
  EXPECT_EQ(positive.Run(std::vector<std::int32_t>{5}).return_value, 1);
  Interpreter negative(module, no_data);
  EXPECT_EQ(negative.Run(std::vector<std::int32_t>{-5}).return_value, 2);
}

TEST(IrCore, PhiBlockGainingAnUnmatchedPredecessorThrows) {
  Diamond d;
  Block* extra = d.function.CreateBlock("extra");
  Instr* br = d.function.Create(Opcode::kBr);
  br->target0 = d.merge;
  extra->Append(br);
  EXPECT_THROW(d.function.RecomputeCfg(), InternalError);
}

TEST(Dominators, DiamondRelations) {
  Diamond d;
  const DominatorTree dom(d.function);
  EXPECT_TRUE(dom.Dominates(d.entry, d.merge));
  EXPECT_TRUE(dom.Dominates(d.entry, d.left));
  EXPECT_FALSE(dom.Dominates(d.left, d.merge));
  EXPECT_FALSE(dom.Dominates(d.merge, d.left));
  EXPECT_TRUE(dom.Dominates(d.merge, d.merge));
  EXPECT_TRUE(dom.StrictlyDominates(d.entry, d.merge));
  EXPECT_FALSE(dom.StrictlyDominates(d.merge, d.merge));
  EXPECT_EQ(dom.Idom(d.merge), d.entry);
  EXPECT_EQ(dom.Idom(d.left), d.entry);
  EXPECT_EQ(dom.Idom(d.entry), nullptr);
}

TEST(Dominators, LongChainOfBlocks) {
  // 200,000 blocks, each a `br` to the next, the last returning the entry's
  // input.  A post-order walk that recursed once per block overflowed the
  // stack here (a Release build died at 100,000 blocks).
  constexpr std::size_t kBlocks = 200'000;
  Function function("chain");
  std::vector<Block*> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks.push_back(function.CreateBlock("b" + std::to_string(i)));
  }
  Instr* input = function.Create(Opcode::kInput);
  blocks.front()->Append(input);
  for (std::size_t i = 0; i + 1 < kBlocks; ++i) {
    Instr* br = function.Create(Opcode::kBr);
    br->target0 = blocks[i + 1];
    blocks[i]->Append(br);
  }
  Instr* ret = function.Create(Opcode::kRet);
  ret->operands = {Value::Of(input)};
  blocks.back()->Append(ret);
  function.RecomputeCfg();

  const DominatorTree dom(function);
  ASSERT_EQ(dom.ReversePostOrder().size(), kBlocks);
  EXPECT_EQ(dom.ReversePostOrder().back(), blocks.back());
  EXPECT_EQ(dom.Idom(blocks.back()), blocks[kBlocks - 2]);
  EXPECT_TRUE(dom.Dominates(blocks.front(), blocks.back()));
  const LoopForest loops(function, dom);
  EXPECT_TRUE(loops.loops().empty());
  EXPECT_TRUE(Verify(function).ok());
}

/// Self-loop function: entry -> loop (self edge) -> exit.
struct LoopFunction {
  Function function{"looper"};
  Block* entry;
  Block* loop;
  Block* exit;
  Instr* phi = nullptr;

  LoopFunction() {
    entry = function.CreateBlock("entry", 0x200);
    loop = function.CreateBlock("loop", 0x210);
    exit = function.CreateBlock("exit", 0x220);

    Instr* enter = function.Create(Opcode::kBr);
    enter->target0 = loop;
    entry->Append(enter);

    // The phi joins the loop block once its operands exist (below).
    phi = function.Create(Opcode::kPhi);
    Instr* next = function.Emit(loop, Opcode::kAdd,
                                {Value::Of(phi), Value::Const(1)});
    Instr* cmp = function.Emit(loop, Opcode::kLtS,
                               {Value::Of(next), Value::Const(10)});
    Instr* br = function.Create(Opcode::kCondBr);
    br->operands = {Value::Of(cmp)};
    br->target0 = loop;
    br->target1 = exit;
    loop->Append(br);

    Instr* ret = function.Create(Opcode::kRet);
    ret->operands = {Value::Of(next)};
    exit->Append(ret);

    function.RecomputeCfg();
    // Phi operands in preds order: [entry -> 0, loop -> next].
    std::vector<Value> operands;
    for (Block* pred : loop->preds) {
      operands.push_back(pred == entry ? Value::Const(0) : Value::Of(next));
    }
    phi->operands = operands;
    loop->PrependPhi(phi);
    function.RecomputeCfg();
  }
};

TEST(Loops, DiscoversSelfLoop) {
  LoopFunction lf;
  ASSERT_TRUE(Verify(lf.function).ok());
  const DominatorTree dom(lf.function);
  LoopForest forest(lf.function, dom);
  ASSERT_EQ(forest.loops().size(), 1u);
  const Loop* loop = forest.loops().front().get();
  EXPECT_EQ(loop->header, lf.loop);
  EXPECT_EQ(loop->blocks.size(), 1u);
  EXPECT_TRUE(loop->Contains(lf.loop));
  EXPECT_FALSE(loop->Contains(lf.entry));
}

TEST(Loops, ProfileTripCount) {
  LoopFunction lf;
  lf.loop->exec_count = 10;
  lf.loop->taken_count = 9;       // back edges
  lf.loop->not_taken_count = 1;   // exit
  const DominatorTree dom(lf.function);
  LoopForest forest(lf.function, dom);
  forest.AnnotateProfile();
  const Loop* loop = forest.loops().front().get();
  EXPECT_EQ(loop->header_count, 10u);
  EXPECT_EQ(loop->entry_count, 1u);
}

TEST(Loops, HeadersComeOutInReversePostOrder) {
  // loops() order breaks candidate-scan ties (equal sw_cycles keep their
  // scan order), so it must follow the CFG, not the heap addresses of the
  // header blocks: e.g. g721_quan@O3 inlines one loop into main four times.
  const auto manager = decomp::PassManager::Preset("default");
  ASSERT_TRUE(manager.ok());
  std::size_t multi_loop_functions = 0;
  for (const suite::Benchmark* bench : suite::WorkingBenchmarks()) {
    for (int opt = 0; opt <= 3; ++opt) {
      auto built = suite::BuildBinary(*bench, opt);
      ASSERT_TRUE(built.ok()) << bench->name;
      const auto program = manager.value().Run(
          std::make_shared<const mips::SoftBinary>(std::move(built).take()));
      ASSERT_TRUE(program.ok()) << bench->name << "@O" << opt;
      for (const auto& function : program.value().module.functions) {
        const DominatorTree dom(*function);
        const LoopForest forest(*function, dom);
        if (forest.loops().size() >= 2) ++multi_loop_functions;
        int previous = -1;
        for (const auto& loop : forest.loops()) {
          const int position = dom.RpoIndex(loop->header);
          EXPECT_GT(position, previous)
              << bench->name << "@O" << opt << " " << function->name();
          previous = position;
        }
      }
    }
  }
  EXPECT_GT(multi_loop_functions, 0u);
}

TEST(Verifier, CatchesMissingTerminator) {
  Function function("broken");
  function.CreateBlock("entry", 0);
  const Status status = Verify(function);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesPhiArityMismatch) {
  LoopFunction lf;
  lf.phi->operands.pop_back();
  EXPECT_FALSE(Verify(lf.function).ok());
}

TEST(Verifier, CatchesUseBeforeDef) {
  Function function("order");
  Block* entry = function.CreateBlock("entry", 0);
  Instr* use = function.Create(Opcode::kAdd);
  Instr* def = function.Create(Opcode::kConst);
  def->imm = 1;
  use->operands = {Value::Of(def), Value::Const(1)};
  entry->Append(use);
  entry->Append(def);
  Instr* ret = function.Create(Opcode::kRet);
  entry->Append(ret);
  function.RecomputeCfg();
  const Status status = Verify(function);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("use before def"), std::string::npos);
}

/// Verify rejects `function` with a message that contains `what`.
void ExpectRejected(const Function& function, const std::string& what) {
  const Status status = Verify(function);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.message();
}

TEST(Verifier, CatchesStalePreds) {
  Diamond d;
  d.merge->preds.pop_back();
  ExpectRejected(d.function, "preds out of date");
}

TEST(Verifier, CatchesAStaleNumbering) {
  // The verifier's tables, and every pass's, are indexed by ids that
  // strictly increase in block order.
  Diamond d;
  std::swap(d.entry->instrs[0]->id, d.entry->instrs[1]->id);
  ExpectRejected(d.function, "numbering out of date");
}

TEST(Verifier, CatchesAnInstructionListedTwice) {
  Diamond d;
  d.left->instrs.insert(d.left->instrs.begin(), d.left->instrs.front());
  ExpectRejected(d.function, "instruction appears twice");
}

TEST(Verifier, CatchesAWrongParent) {
  Diamond d;
  d.left->instrs.front()->parent = d.right;
  ExpectRejected(d.function, "wrong parent");
}

TEST(Verifier, CatchesAnOperandWhoseDefinitionWasErased) {
  Diamond d;
  d.entry->Remove(d.input);
  ExpectRejected(d.function,
                 "operand defined by instruction outside function");
}

TEST(Verifier, CatchesAnOperandDefinedInAnotherFunction) {
  // The other diamond numbers its instructions alike, so its input has the
  // id of this diamond's input.
  Diamond d;
  Diamond other;
  ASSERT_EQ(other.input->id, d.input->id);
  d.left->instrs.front()->operands[0] = Value::Of(other.input);
  ExpectRejected(d.function,
                 "operand defined by instruction outside function");
}

TEST(Verifier, CatchesAnOperandDefinedInAnUnreachableBlock) {
  Diamond d;
  Block* dead = d.function.CreateBlock("dead", 0x140);
  Instr* value = d.function.Emit(dead, Opcode::kAdd,
                                 {Value::Const(1), Value::Const(2)});
  dead->Append(d.function.Create(Opcode::kRet));
  d.merge->terminator()->operands = {Value::Of(value)};
  d.function.RecomputeCfg();
  ExpectRejected(d.function, "operand defined in unreachable block");
}

TEST(Verifier, CatchesAPhiOperandThatDoesNotDominateItsEdge) {
  Diamond d;
  std::swap(d.phi->operands[0], d.phi->operands[1]);
  ExpectRejected(d.function, "phi operand does not dominate incoming edge");
}

TEST(Verifier, AcceptsAPhiOperandOverAnEdgeFromAnUnreachableBlock) {
  // The edge from `dead` never runs, so its operand need not dominate it,
  // and the dominator tree has no position for `dead`.
  Function function("dead_edge");
  Block* entry = function.CreateBlock("entry");
  Block* dead = function.CreateBlock("dead");
  Block* merge = function.CreateBlock("merge");
  Instr* input = function.Create(Opcode::kInput);
  input->input_index = 4;
  entry->Append(input);
  for (Block* from : {entry, dead}) {
    Instr* br = function.Create(Opcode::kBr);
    br->target0 = merge;
    from->Append(br);
  }
  function.RecomputeCfg();
  Instr* phi = function.Create(Opcode::kPhi);
  phi->operands = {Value::Of(input), Value::Of(input)};
  merge->PrependPhi(phi);
  Instr* ret = function.Create(Opcode::kRet);
  ret->operands = {Value::Of(phi)};
  merge->Append(ret);
  function.RecomputeCfg();
  const Status status = Verify(function);
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(Verifier, CatchesADefThatDoesNotDominateItsUse) {
  Diamond d;
  Instr* doubled = d.left->instrs.front();
  d.function.Emit(d.merge, Opcode::kAdd,
                  {Value::Of(doubled), Value::Const(1)});
  d.function.RecomputeCfg();
  ExpectRejected(d.function, "def does not dominate use");
}

TEST(Verifier, CatchesAnEdgeIntoTheEntryBlock) {
  // The entry block heads a loop: SSA construction would read the values it
  // carries as live-ins, and the interpreter enters it with no previous
  // block.
  Function function("entry_loop");
  Block* entry = function.CreateBlock("entry", 0x300);
  Block* exit = function.CreateBlock("exit", 0x310);
  Instr* input = function.Create(Opcode::kInput);
  input->input_index = 4;
  entry->Append(input);
  Instr* cmp = function.Emit(entry, Opcode::kGtS,
                             {Value::Of(input), Value::Const(0)});
  Instr* br = function.Create(Opcode::kCondBr);
  br->operands = {Value::Of(cmp)};
  br->target0 = entry;
  br->target1 = exit;
  entry->Append(br);
  Instr* ret = function.Create(Opcode::kRet);
  ret->operands = {Value::Of(input)};
  exit->Append(ret);
  function.RecomputeCfg();
  const Status status = Verify(function);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("entry block"), std::string::npos)
      << status.message();
}

TEST(SsaBuilder, JoinsGetPhisInReadOrderAndEntryValuesComeOnce) {
  // entry -> (left | right) -> merge; variable 0 is written in each arm,
  // variable 1 only ever read.
  Function function("ssa");
  Block* entry = function.CreateBlock("entry", 0x100);
  Block* left = function.CreateBlock("left", 0x110);
  Block* right = function.CreateBlock("right", 0x120);
  Block* merge = function.CreateBlock("merge", 0x130);
  std::vector<std::size_t> asked;
  Instr* live_in = nullptr;
  SsaBuilder ssa(function, 2, [&](std::size_t variable) {
    asked.push_back(variable);
    live_in = function.Create(Opcode::kInput);
    live_in->input_index = static_cast<std::uint16_t>(variable);
    entry->instrs.insert(entry->instrs.begin(), live_in);
    live_in->parent = entry;
    return Value::Of(live_in);
  });

  Instr* cmp = function.Emit(entry, Opcode::kGtS,
                             {ssa.Read(entry, 1), Value::Const(0)});
  Instr* branch = function.Create(Opcode::kCondBr);
  branch->operands = {Value::Of(cmp)};
  branch->target0 = left;
  branch->target1 = right;
  entry->Append(branch);
  ssa.Write(left, 0, Value::Const(1));
  ssa.Write(right, 0, Value::Const(2));
  for (Block* arm : {left, right}) {
    Instr* br = function.Create(Opcode::kBr);
    br->target0 = merge;
    arm->Append(br);
  }
  const Value first = ssa.Read(merge, 1);
  const Value second = ssa.Read(merge, 0);
  EXPECT_EQ(ssa.Read(merge, 0), second);
  Instr* sum = function.Emit(merge, Opcode::kAdd, {first, second});
  Instr* ret = function.Create(Opcode::kRet);
  ret->operands = {Value::Of(sum)};
  merge->Append(ret);

  function.RecomputeCfg();
  ssa.Seal();
  // Placeholders join their block in creation order, with one operand per
  // predecessor.  Variable 1 reaches the join through a placeholder in each
  // arm, which Seal() created and filled from the entry block's one live-in.
  const std::vector<Instr*> phis = merge->Phis();
  ASSERT_EQ(phis.size(), 2u);
  EXPECT_EQ(phis[0], first.def);
  EXPECT_EQ(phis[1], second.def);
  ASSERT_EQ(merge->preds.size(), 2u);
  for (std::size_t i = 0; i < merge->preds.size(); ++i) {
    const Instr* arm_phi = phis[0]->operands[i].def;
    ASSERT_NE(arm_phi, nullptr);
    EXPECT_EQ(arm_phi->parent, merge->preds[i]);
    EXPECT_EQ(arm_phi->operands, std::vector<Value>{Value::Of(live_in)});
    EXPECT_EQ(phis[1]->operands[i],
              Value::Const(merge->preds[i] == left ? 1 : 2));
  }
  EXPECT_EQ(asked, std::vector<std::size_t>{1});
  function.RecomputeCfg();
  const Status status = Verify(function);
  EXPECT_TRUE(status.ok()) << status.message();
  function.Cleanup();
  EXPECT_EQ(merge->Phis().size(), 1u);  // the trivial ones go
  EXPECT_TRUE(left->Phis().empty());
}

TEST(Interp, ExecutesDiamond) {
  Diamond d;
  // The module's `main` may reference an externally-owned function when the
  // program makes no calls (FindByEntry is never consulted).
  Module module;
  module.main = &d.function;
  std::vector<std::uint8_t> no_data;
  Interpreter positive(module, no_data);
  EXPECT_EQ(positive.Run(std::vector<std::int32_t>{21}).return_value, 42);
  Interpreter negative(module, no_data);
  EXPECT_EQ(negative.Run(std::vector<std::int32_t>{-7}).return_value, 7);
}

TEST(Interp, LoopRunsToBound) {
  LoopFunction lf;
  Module module;
  module.main = &lf.function;
  std::vector<std::uint8_t> no_data;
  Interpreter interp(module, no_data);
  const auto result = interp.Run();
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.return_value, 10);
}

TEST(Interp, StepBudgetStopsRunaways) {
  LoopFunction lf;
  // Make the loop infinite: compare against an unreachable bound.
  for (Instr* instr : lf.loop->instrs) {
    if (instr->op == Opcode::kLtS) instr->operands[1] = Value::Const(1 << 30);
  }
  Module module;
  module.main = &lf.function;
  InterpOptions options;
  options.max_steps = 1000;
  std::vector<std::uint8_t> no_data;
  Interpreter interp(module, no_data, options);
  const auto result = interp.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("budget"), std::string::npos);
}

TEST(Interp, LoadAtTopOfAddressSpaceFailsCleanly) {
  // 0xFFFFFFFC + 4 wraps to 0 in 32 bits, so an `addr + size <= end`
  // bounds check passes it; the Simulator reports a fault, and so must the
  // interpreter, on a binary that also has no .data segment.
  auto assembled = mips::Assemble(R"(
    main:
      li $t0, -4
      lw $v0, 0($t0)
      jr $ra
  )");
  ASSERT_TRUE(assembled.ok()) << assembled.status().message();
  const mips::SoftBinary& binary = assembled.value();
  ASSERT_TRUE(binary.data.empty());
  mips::Simulator simulator(binary);
  EXPECT_EQ(simulator.Run().reason, mips::HaltReason::kFault);

  const auto manager = decomp::PassManager::Preset("default");
  ASSERT_TRUE(manager.ok());
  const auto program =
      manager.value().Run(std::make_shared<const mips::SoftBinary>(binary));
  ASSERT_TRUE(program.ok()) << program.status().message();
  Interpreter interp(program.value().module, binary.data);
  const InterpResult result = interp.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("bad load address"), std::string::npos)
      << result.error;
}

}  // namespace
}  // namespace b2h::ir
