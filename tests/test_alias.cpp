// Alias / memory-region analysis tests.
#include "decomp/alias.hpp"

#include <gtest/gtest.h>

#include "decomp/lifter.hpp"
#include "decomp/passes.hpp"
#include "ir/dominators.hpp"
#include "ir/loops.hpp"
#include "mips/assembler.hpp"

namespace b2h::decomp {
namespace {

struct Lifted {
  mips::SoftBinary binary;
  ir::Module module;
};

Lifted LiftAsm(const std::string& source) {
  auto binary = mips::Assemble(source);
  EXPECT_TRUE(binary.ok()) << binary.status().message();
  auto module = Lift(binary.value());
  EXPECT_TRUE(module.ok()) << module.status().message();
  return {std::move(binary).take(), std::move(module).take()};
}

TEST(Alias, SeparatesDistinctArrays) {
  auto lifted = LiftAsm(R"(
    main:
      la $t0, arr_a
      la $t1, arr_b
      lw $t2, 0($t0)
      sw $t2, 4($t1)
      lw $v0, 8($t0)
      jr $ra
    .data
    arr_a: .word 1, 2, 3, 4
    arr_b: .word 0, 0, 0, 0
  )");
  ir::Function& main = *lifted.module.main;
  SimplifyConstants(main);
  AliasAnalysis alias(main, &lifted.binary.symbols);

  std::vector<const ir::Instr*> mems;
  for (const auto& block : main.blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kLoad ||
          instr->op == ir::Opcode::kStore) {
        mems.push_back(instr);
      }
    }
  }
  ASSERT_EQ(mems.size(), 3u);
  // load arr_a[0] and store arr_b[1] are in different regions.
  EXPECT_NE(alias.RegionIdOf(mems[0]), alias.RegionIdOf(mems[1]));
  EXPECT_FALSE(alias.MayAlias(mems[0], mems[1]));
  // Both arr_a accesses resolve to the same symbol region.
  EXPECT_EQ(alias.RegionIdOf(mems[0]), alias.RegionIdOf(mems[2]));
  EXPECT_TRUE(alias.MayAlias(mems[0], mems[2]));
  // Region carries the symbol name.
  const int region = alias.RegionIdOf(mems[0]);
  ASSERT_GE(region, 0);
  EXPECT_EQ(alias.regions()[static_cast<std::size_t>(region)].name, "arr_a");
}

TEST(Alias, AccessOfAnotherFunctionIsUnclassified) {
  // Two lifts of one program number their accesses alike: an access of the
  // second lift is no access of the first's function, whatever its id.
  const std::string source = R"(
    main:
      la $t0, arr_a
      la $t1, arr_b
      lw $t2, 0($t0)
      sw $t2, 4($t1)
      jr $ra
    .data
    arr_a: .word 1, 2, 3, 4
    arr_b: .word 0, 0, 0, 0
  )";
  const auto memory_ops = [](const ir::Function& function) {
    std::vector<const ir::Instr*> mems;
    for (const auto& block : function.blocks()) {
      for (const ir::Instr* instr : block->instrs) {
        if (instr->op == ir::Opcode::kLoad ||
            instr->op == ir::Opcode::kStore) {
          mems.push_back(instr);
        }
      }
    }
    return mems;
  };
  auto lifted = LiftAsm(source);
  auto other = LiftAsm(source);
  SimplifyConstants(*lifted.module.main);
  SimplifyConstants(*other.module.main);
  AliasAnalysis alias(*lifted.module.main, &lifted.binary.symbols);
  const auto mems = memory_ops(*lifted.module.main);
  const auto foreign = memory_ops(*other.module.main);
  ASSERT_EQ(mems.size(), 2u);
  ASSERT_EQ(foreign.size(), 2u);
  ASSERT_EQ(foreign[0]->id, mems[0]->id);
  ASSERT_GE(alias.RegionIdOf(mems[0]), 0);
  ASSERT_FALSE(alias.MayAlias(mems[0], mems[1]));
  EXPECT_EQ(alias.RegionIdOf(foreign[0]), -1);
  EXPECT_TRUE(alias.MayAlias(mems[1], foreign[0]));
}

TEST(Alias, VariableIndexStaysInArrayRegion) {
  auto lifted = LiftAsm(R"(
    main:
      la $t0, arr_a
      sll $t1, $a0, 2
      addu $t1, $t0, $t1
      lw $v0, 0($t1)       # arr_a[a0]
      la $t2, arr_b
      lw $t3, 0($t2)       # arr_b[0]
      addu $v0, $v0, $t3
      jr $ra
    .data
    arr_a: .word 1, 2, 3, 4
    arr_b: .word 9
  )");
  ir::Function& main = *lifted.module.main;
  SimplifyConstants(main);
  AliasAnalysis alias(main, &lifted.binary.symbols);
  std::vector<const ir::Instr*> loads;
  for (const auto& block : main.blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kLoad) loads.push_back(instr);
    }
  }
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_FALSE(alias.MayAlias(loads[0], loads[1]));
  const int region = alias.RegionIdOf(loads[0]);
  ASSERT_GE(region, 0);
  EXPECT_EQ(alias.regions()[static_cast<std::size_t>(region)].name, "arr_a");
}

TEST(Alias, StackAndGlobalsDisjoint) {
  auto lifted = LiftAsm(R"(
    main:
      addiu $sp, $sp, -8
      sw $a0, 0($sp)
      la $t0, g
      sw $a1, 0($t0)
      lw $v0, 0($sp)
      addiu $sp, $sp, 8
      jr $ra
    .data
    g: .word 0
  )");
  ir::Function& main = *lifted.module.main;
  SimplifyConstants(main);
  AliasAnalysis alias(main, &lifted.binary.symbols);
  std::vector<const ir::Instr*> mems;
  for (const auto& block : main.blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == ir::Opcode::kLoad ||
          instr->op == ir::Opcode::kStore) {
        mems.push_back(instr);
      }
    }
  }
  ASSERT_EQ(mems.size(), 3u);
  EXPECT_FALSE(alias.MayAlias(mems[0], mems[1]));  // stack vs global
  EXPECT_TRUE(alias.MayAlias(mems[0], mems[2]));   // both stack
}

TEST(Alias, RegionsInLoop) {
  auto lifted = LiftAsm(R"(
    main:
      la $s0, arr_a
      la $s1, arr_b
      li $t0, 0
    loop:
      sll $t1, $t0, 2
      addu $t2, $s0, $t1
      lw $t3, 0($t2)
      addu $t2, $s1, $t1
      sw $t3, 0($t2)
      addiu $t0, $t0, 1
      slti $t9, $t0, 4
      bne $t9, $zero, loop
      move $v0, $zero
      jr $ra
    .data
    arr_a: .word 1, 2, 3, 4
    arr_b: .word 0, 0, 0, 0
  )");
  ir::Function& main = *lifted.module.main;
  SimplifyConstants(main);
  main.RecomputeCfg();
  const ir::DominatorTree dom(main);
  ir::LoopForest forest(main, dom);
  ASSERT_EQ(forest.loops().size(), 1u);
  AliasAnalysis alias(main, &lifted.binary.symbols);
  const auto regions = alias.RegionsIn(*forest.loops().front());
  EXPECT_EQ(regions.size(), 2u);
}

}  // namespace
}  // namespace b2h::decomp
