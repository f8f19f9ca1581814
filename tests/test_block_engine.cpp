// Differential tests for the two execution engines.
//
// The trace run loop ExecEngine::kBlock (the default) must be
// observationally indistinguishable from the retained per-instruction
// reference interpreter (ExecEngine::kReference): bit-identical RunResult —
// return value, instruction/cycle totals, halt reason, fault message, and
// all four per-index profile vectors — plus, for RunInstrumented, an
// identical observer event stream: same events, same batch boundaries, and
// the same live profile visible inside every callback (observers snapshot
// the profile mid-run, so expansion points are part of the contract).
//
// Coverage: the whole benchmark suite (plain + instrumented), faults landing
// mid-trace (with and without pending trace counters), instruction budgets
// landing mid-trace (exhaustive small-budget sweep), randomized
// assembler-generated programs mixing loops, calls, wild/unaligned memory
// access, and every ALU class, plus the process-wide SharedBlockCache
// (single-flight pre-decode under construction races, warm-sweep reuse,
// eviction while a Simulator holds the entry).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "mips/assembler.hpp"
#include "mips/shared_cache.hpp"
#include "mips/simulator.hpp"
#include "suite/runner.hpp"
#include "suite/suite.hpp"
#include "support/serialize.hpp"

namespace b2h::mips {
namespace {

using support::Fnv1a64U64;

std::uint64_t ProfileHash(const ExecProfile& profile) {
  std::uint64_t h = support::kFnv1a64Basis;
  for (const auto& vec : {profile.instr_count, profile.cycle_count,
                          profile.branch_taken, profile.branch_not_taken}) {
    for (std::uint64_t v : vec) h = Fnv1a64U64(v, h);
  }
  h = Fnv1a64U64(profile.total_instructions, h);
  h = Fnv1a64U64(profile.total_cycles, h);
  return h;
}

void ExpectIdentical(const RunResult& block, const RunResult& reference) {
  EXPECT_EQ(block.return_value, reference.return_value);
  EXPECT_EQ(block.instructions, reference.instructions);
  EXPECT_EQ(block.cycles, reference.cycles);
  EXPECT_EQ(block.reason, reference.reason);
  EXPECT_EQ(block.fault_message, reference.fault_message);
  EXPECT_EQ(block.profile.total_instructions,
            reference.profile.total_instructions);
  EXPECT_EQ(block.profile.total_cycles, reference.profile.total_cycles);
  EXPECT_EQ(block.profile.instr_count, reference.profile.instr_count);
  EXPECT_EQ(block.profile.cycle_count, reference.profile.cycle_count);
  EXPECT_EQ(block.profile.branch_taken, reference.profile.branch_taken);
  EXPECT_EQ(block.profile.branch_not_taken,
            reference.profile.branch_not_taken);
}

/// Records everything an observer can see: the events of each batch, the
/// batch boundaries, and a digest of the live so-far state (cumulative
/// counters and the full profile) at each callback.
class RecordingObserver final : public RunObserver {
 public:
  struct Batch {
    std::vector<BranchEvent> events;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t profile_hash = 0;
  };

  void OnBackwardBranches(std::span<const BranchEvent> events,
                          const RunResult& so_far) override {
    Batch batch;
    batch.events.assign(events.begin(), events.end());
    batch.instructions = so_far.instructions;
    batch.cycles = so_far.cycles;
    batch.profile_hash = ProfileHash(so_far.profile);
    batches.push_back(std::move(batch));
  }

  std::vector<Batch> batches;
};

void ExpectSameObservations(const RecordingObserver& block,
                            const RecordingObserver& reference) {
  ASSERT_EQ(block.batches.size(), reference.batches.size());
  for (std::size_t i = 0; i < block.batches.size(); ++i) {
    const auto& a = block.batches[i];
    const auto& b = reference.batches[i];
    SCOPED_TRACE("batch " + std::to_string(i));
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].target_pc, b.events[e].target_pc) << "event " << e;
      EXPECT_EQ(a.events[e].from_pc, b.events[e].from_pc) << "event " << e;
    }
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.profile_hash, b.profile_hash);
  }
}

/// Runs the binary on both engines, plain and instrumented, and expects
/// kBlock to be bit-identical to the reference interpreter throughout.
void ExpectEnginesAgree(const SoftBinary& binary,
                        std::uint64_t max_instructions = 100'000'000) {
  Simulator reference(binary, {}, ExecEngine::kReference);
  const RunResult ref_plain = reference.Run({}, max_instructions);
  RecordingObserver ref_obs;
  const RunResult ref_hooked =
      reference.RunInstrumented({}, max_instructions, &ref_obs);
  Simulator sim(binary, {}, ExecEngine::kBlock);
  {
    SCOPED_TRACE("plain Run");
    ExpectIdentical(sim.Run({}, max_instructions), ref_plain);
  }
  {
    SCOPED_TRACE("RunInstrumented");
    RecordingObserver obs;
    ExpectIdentical(sim.RunInstrumented({}, max_instructions, &obs),
                    ref_hooked);
    ExpectSameObservations(obs, ref_obs);
  }
}

// ---------------------------------------------------------------------------
// Whole suite, plain + instrumented.

TEST(BlockEngine, WholeSuiteBitIdentical) {
  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    SCOPED_TRACE(bench.name);
    auto built = suite::BuildBinary(bench, 1);
    ASSERT_TRUE(built.ok()) << built.status().message();
    ExpectEnginesAgree(built.value());
  }
}

TEST(BlockEngine, InstrumentedMatchesPlainRun) {
  // The engine contract from PR 2, re-verified on the block engine: the
  // hook changes callbacks only, never the result.
  const suite::Benchmark* bench = suite::FindBenchmark("fir");
  ASSERT_NE(bench, nullptr);
  auto built = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(built.ok());
  Simulator sim(built.value());
  const RunResult plain = sim.Run();
  RecordingObserver observer;
  const RunResult hooked = sim.RunInstrumented({}, 100'000'000, &observer);
  ExpectIdentical(hooked, plain);
  EXPECT_FALSE(observer.batches.empty());
}

// ---------------------------------------------------------------------------
// Faults mid-block.

TEST(BlockEngine, FaultMidBlockIsBitIdentical) {
  // The sw faults in the middle of a straight-line block: the block engine
  // must charge exactly the completed prefix, like the reference does.
  auto binary = Assemble(R"(
    main:
      li $t0, 0x200
      addiu $t1, $zero, 7
      sw $t1, 0($t0)
      addiu $t2, $zero, 9
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  ExpectEnginesAgree(binary.value());
  Simulator sim(binary.value());
  const RunResult run = sim.Run();
  EXPECT_EQ(run.reason, HaltReason::kFault);
  EXPECT_NE(run.fault_message.find("store outside memory"), std::string::npos);
}

TEST(BlockEngine, FaultWithPendingBlockCountersIsBitIdentical) {
  // A hot loop runs first, so block counters are pending when the fault
  // expansion happens.
  auto binary = Assemble(R"(
    main:
      li $t0, 5
    loop:
      addiu $t0, $t0, -1
      bgtz $t0, loop
      li $t1, 0x200
      lw $v0, 0($t1)
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  ExpectEnginesAgree(binary.value());
}

TEST(BlockEngine, UnalignedFaultMidBlockIsBitIdentical) {
  auto binary = Assemble(R"(
    main:
      la $t0, buf
      lw $v0, 1($t0)
      addiu $v0, $v0, 1
      jr $ra
    .data
    buf: .word 1, 2
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  ExpectEnginesAgree(binary.value());
}

TEST(BlockEngine, FallthroughOffTextEndIsBitIdentical) {
  // No terminator at all: the straight-line run falls off the end of text.
  auto binary = Assemble("main:\n addiu $v0, $zero, 3\n addiu $v0, $v0, 4\n");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  ExpectEnginesAgree(binary.value());
  Simulator sim(binary.value());
  const RunResult run = sim.Run();
  EXPECT_EQ(run.reason, HaltReason::kFault);
  EXPECT_NE(run.fault_message.find("pc outside text"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Instruction budgets landing mid-block.

TEST(BlockEngine, BudgetSweepLandsMidBlockBitIdentical) {
  const suite::Benchmark* bench = suite::FindBenchmark("crc");
  ASSERT_NE(bench, nullptr);
  auto built = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(built.ok());
  // Every small budget in turn: this walks the budget boundary through
  // every offset of the early blocks, including 0 and exact block ends.
  for (std::uint64_t budget = 0; budget <= 96; ++budget) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectEnginesAgree(built.value(), budget);
  }
  // A few larger budgets land mid-run inside hot loops.
  for (std::uint64_t budget : {997u, 4999u, 20011u}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectEnginesAgree(built.value(), budget);
  }
}

// ---------------------------------------------------------------------------
// Randomized programs.

std::string RandomProgram(std::mt19937& rng) {
  const auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  std::ostringstream s;
  const int blocks = 4 + pick(6);
  s << "main:\n";
  s << "  move $s7, $ra\n";
  s << "  la $s0, buf\n";
  s << "  li $s1, " << (4 + pick(24)) << "\n";  // branch fuel: bounds loops
  for (int r = 0; r < 4; ++r) {
    s << "  li $t" << r << ", " << static_cast<std::int32_t>(rng()) << "\n";
  }
  for (int b = 0; b < blocks; ++b) {
    s << "L" << b << ":\n";
    const int body = 2 + pick(7);
    for (int i = 0; i < body; ++i) {
      const int a = pick(8);
      const int c = pick(8);
      const int d = pick(8);
      switch (pick(14)) {
        case 0: s << "  addu $t" << d << ", $t" << a << ", $t" << c << "\n"; break;
        case 1: s << "  subu $t" << d << ", $t" << a << ", $t" << c << "\n"; break;
        case 2: s << "  and $t" << d << ", $t" << a << ", $t" << c << "\n"; break;
        case 3: s << "  xor $t" << d << ", $t" << a << ", $t" << c << "\n"; break;
        case 4: s << "  sll $t" << d << ", $t" << a << ", " << pick(32) << "\n"; break;
        case 5: s << "  srav $t" << d << ", $t" << a << ", $t" << c << "\n"; break;
        case 6: s << "  addiu $t" << d << ", $t" << a << ", " << (pick(4096) - 2048) << "\n"; break;
        case 7: s << "  slti $t" << d << ", $t" << a << ", " << (pick(200) - 100) << "\n"; break;
        case 8: s << "  mult $t" << a << ", $t" << c << "\n  mflo $t" << d << "\n"; break;
        case 9: s << "  div $t" << a << ", $t" << c << "\n  mfhi $t" << d << "\n"; break;
        case 10: s << "  sw $t" << a << ", " << 4 * pick(60) << "($s0)\n"; break;
        case 11: s << "  lw $t" << d << ", " << 4 * pick(60) << "($s0)\n"; break;
        case 12: s << "  sb $t" << a << ", " << pick(250) << "($s0)\n"; break;
        case 13:
          if (pick(4) == 0) {
            // Wild access: address comes from a scrambled register, so this
            // usually faults mid-block (and occasionally doesn't — both
            // engines must simply agree).
            s << "  lw $t" << d << ", " << 4 * pick(8) << "($t" << a << ")\n";
          } else {
            s << "  lhu $t" << d << ", " << 2 * pick(120) << "($s0)\n";
          }
          break;
      }
    }
    // Terminator: fall through, a fuel-guarded branch (any direction), a
    // forward jump, or a call to the leaf helper.
    switch (pick(4)) {
      case 0:
        break;
      case 1:
        s << "  addiu $s1, $s1, -1\n";
        s << "  bgtz $s1, L" << pick(blocks) << "\n";
        break;
      case 2:
        if (b + 1 < blocks) s << "  j L" << (b + 1 + pick(blocks - b - 1)) << "\n";
        break;
      case 3:
        s << "  jal helper\n";
        break;
    }
  }
  s << "  move $ra, $s7\n";
  s << "  jr $ra\n";
  s << "helper:\n";
  s << "  addu $t9, $t9, $a0\n";
  s << "  jr $ra\n";
  s << ".data\n";
  s << "buf: .space 256\n";
  return s.str();
}

TEST(BlockEngine, RandomizedProgramsBitIdentical) {
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    const std::string source = RandomProgram(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + source);
    auto binary = Assemble(source);
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    // A tight budget makes non-terminating shapes deterministic and lands
    // mid-block often; a larger one lets most programs halt normally.
    ExpectEnginesAgree(binary.value(), 30'000);
    ExpectEnginesAgree(binary.value());
  }
}

// ---------------------------------------------------------------------------
// Computed dispatch: jump tables through jr, function tables through jalr.

/// A dispatch loop driving `targets` cases (a power of two) through a
/// table of code addresses built at runtime.  `call` picks the dispatch
/// style: jr into labeled cases that rejoin at a common point, or jalr to
/// leaf functions that return.  The indirect terminator sees one to eight
/// distinct targets, so every trace ending in jr or jalr takes a
/// data-dependent successor, all under the differential oracle.
std::string ComputedDispatchProgram(std::mt19937& rng, int targets, int iters,
                                    bool call) {
  std::ostringstream s;
  s << "main:\n";
  s << "  move $s7, $ra\n";
  s << "  la $s0, buf\n";
  for (int t = 0; t < targets; ++t) {
    s << "  la $t0, case" << t << "\n";
    s << "  sw $t0, " << 4 * t << "($s0)\n";
  }
  s << "  li $s1, " << iters << "\n";
  s << "  li $s2, " << static_cast<int>(rng() % 1024) << "\n";
  s << "  li $v0, 0\n";
  s << "loop:\n";
  // Scramble the selector, mask it to the table size, and dispatch.
  s << "  addiu $s2, $s2, " << (7 + static_cast<int>(rng() % 13)) << "\n";
  s << "  andi $t1, $s2, " << (targets - 1) << "\n";
  s << "  sll $t1, $t1, 2\n";
  s << "  addu $t1, $t1, $s0\n";
  s << "  lw $t1, 0($t1)\n";
  if (call) {
    s << "  jalr $t1\n";
  } else {
    s << "  jr $t1\n";
  }
  s << "join:\n";
  s << "  addiu $s1, $s1, -1\n";
  s << "  bgtz $s1, loop\n";
  s << "  move $ra, $s7\n";
  s << "  jr $ra\n";
  for (int t = 0; t < targets; ++t) {
    s << "case" << t << ":\n";
    s << "  addiu $v0, $v0, " << (t + 1) << "\n";
    s << "  xor $v0, $v0, $s2\n";
    if (call) {
      s << "  jr $ra\n";
    } else {
      s << "  j join\n";
    }
  }
  s << ".data\n";
  s << "buf: .space " << 4 * targets << "\n";
  return s.str();
}

TEST(BlockEngine, JumpTableDispatchBitIdentical) {
  // jr through a runtime-built jump table: one, two, four and eight
  // distinct targets.
  for (const int targets : {1, 2, 4, 8}) {
    std::mt19937 rng(static_cast<std::uint32_t>(100 + targets));
    const std::string source = ComputedDispatchProgram(rng, targets, 220,
                                                       /*call=*/false);
    SCOPED_TRACE("targets " + std::to_string(targets) + "\n" + source);
    auto binary = Assemble(source);
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    ExpectEnginesAgree(binary.value());
  }
}

TEST(BlockEngine, FunctionTableCallsBitIdentical) {
  // jalr through a function-pointer table: the link write and the indirect
  // return (jr $ra, itself a polymorphic exit back into the loop).
  for (const int targets : {1, 4, 8}) {
    std::mt19937 rng(static_cast<std::uint32_t>(200 + targets));
    const std::string source = ComputedDispatchProgram(rng, targets, 220,
                                                       /*call=*/true);
    SCOPED_TRACE("targets " + std::to_string(targets) + "\n" + source);
    auto binary = Assemble(source);
    ASSERT_TRUE(binary.ok()) << binary.status().message();
    ExpectEnginesAgree(binary.value());
  }
}

TEST(BlockEngine, JumpTableBudgetSweepBitIdentical) {
  // Budgets landing inside and right after the indirect-terminated
  // traces: the partial-trace accounting must stop at exactly the same
  // boundary as the reference interpreter.
  std::mt19937 rng(7);
  const std::string source =
      ComputedDispatchProgram(rng, 4, 220, /*call=*/false);
  auto binary = Assemble(source);
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  ExpectEnginesAgree(binary.value());
  for (std::uint64_t budget = 0; budget <= 64; ++budget) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectEnginesAgree(binary.value(), budget);
  }
  for (std::uint64_t budget : {463u, 1999u}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectEnginesAgree(binary.value(), budget);
  }
}

// ---------------------------------------------------------------------------
// Block-cache structure sanity.

TEST(BlockEngine, BlockCacheTracesAreWellFormed) {
  const suite::Benchmark* bench = suite::FindBenchmark("fir");
  ASSERT_NE(bench, nullptr);
  auto built = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(built.ok());
  Simulator sim(built.value());
  const BlockCache& cache = sim.blocks();
  ASSERT_EQ(cache.size(), built.value().text.size());
  const BlockSpan* spans = cache.spans();
  const PreInstr* instrs = cache.instrs();
  const SideExit* exits = cache.exits();
  bool saw_multi_exit = false;
  for (std::size_t i = 0; i < cache.size(); ++i) {
    const BlockSpan& span = spans[i];
    ASSERT_GE(span.len, 1u) << i;  // suite text decodes fully
    ASSERT_LE(span.len, BlockCache::kMaxTraceLen) << i;
    ASSERT_LE(i + span.len, cache.size()) << i;
    ASSERT_LE(span.exit_begin + span.exit_count, cache.total_side_exits())
        << i;
    saw_multi_exit |= span.exit_count > 0;
    // Walk the trace: conditional branches appear exactly at the side-exit
    // offsets (strictly increasing, with prefix_cycles equal to the static
    // cycle sum through the branch); a jump may only be the terminator.
    std::uint64_t cycles = 0;
    std::uint32_t next_exit = 0;
    for (std::uint32_t k = 0; k < span.len; ++k) {
      const Op op = instrs[i + k].op;
      cycles += instrs[i + k].cycles;
      if (IsBranch(op)) {
        ASSERT_LT(next_exit, span.exit_count) << i << "+" << k;
        const SideExit& se = exits[span.exit_begin + next_exit];
        EXPECT_EQ(se.offset, k) << i;
        EXPECT_EQ(se.prefix_cycles, cycles) << i << "+" << k;
        EXPECT_EQ(se.backward,
                  instrs[i + k].target < kTextBase + (i + k) * 4u)
            << i << "+" << k;
        ++next_exit;
      } else if (IsControl(op)) {
        EXPECT_EQ(k, span.len - 1) << i;  // jumps terminate the trace
        EXPECT_NE(span.term, TermKind::kFallthrough) << i;
      }
    }
    EXPECT_EQ(next_exit, span.exit_count) << i;
    EXPECT_EQ(span.cycles, cycles) << i;
  }
  // fir has loops with conditional branches, so multi-exit traces must
  // actually occur — otherwise this test exercises nothing.
  EXPECT_TRUE(saw_multi_exit);
}

// ---------------------------------------------------------------------------
// Process-wide shared pre-decode cache.

std::uint64_t ResultHash(const RunResult& result) {
  std::uint64_t h = ProfileHash(result.profile);
  h = Fnv1a64U64(static_cast<std::uint64_t>(result.return_value), h);
  h = Fnv1a64U64(result.instructions, h);
  h = Fnv1a64U64(result.cycles, h);
  return h;
}

TEST(SharedBlockCache, ConcurrentConstructionDoesOnePredecode) {
  // A program no other test assembles, so its (text, model) key is cold.
  auto binary = Assemble(R"(
    main:
      li $t0, 24683
      li $v0, 0
    loop:
      addiu $t0, $t0, -3
      xor $v0, $v0, $t0
      bgtz $t0, loop
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();

  SharedBlockCache& cache = SharedBlockCache::Global();
  const SharedBlockCache::Stats before = cache.stats();
  constexpr int kThreads = 8;
  std::vector<RunResult> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Simulator sim(binary.value());
        results[static_cast<std::size_t>(t)] = sim.Run();
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const SharedBlockCache::Stats after = cache.stats();
  // Single-flight: all eight construction races resolve to one pre-decode;
  // the other seven callers count as hits (waiting on the in-flight build).
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_GT(after.bytes, 0u);
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    EXPECT_EQ(results[static_cast<std::size_t>(t)].reason,
              HaltReason::kReturned);
    EXPECT_EQ(ResultHash(results[static_cast<std::size_t>(t)]),
              ResultHash(results[0]));
  }
}

TEST(SharedBlockCache, WarmSweepNeverRedecodes) {
  const suite::Benchmark* bench = suite::FindBenchmark("crc");
  ASSERT_NE(bench, nullptr);
  auto built = suite::BuildBinary(*bench, 1);
  ASSERT_TRUE(built.ok());
  {
    Simulator warmup(built.value());  // cold construction (at most one miss)
  }
  const SharedBlockCache::Stats before = SharedBlockCache::Global().stats();
  // A platform sweep over one binary with a shared cycle model — the RunMany
  // shape: every further Simulator must reuse the resident pre-decode.
  for (int platform = 0; platform < 6; ++platform) {
    Simulator sim(built.value());
    const RunResult run = sim.Run();
    EXPECT_EQ(run.reason, HaltReason::kReturned);
  }
  const SharedBlockCache::Stats after = SharedBlockCache::Global().stats();
  EXPECT_EQ(after.misses, before.misses);  // zero redundant pre-decodes
  EXPECT_EQ(after.hits - before.hits, 6u);
  // A different cycle model is a different key, though.
  CycleModel slow_mem;
  slow_mem.load_extra = 7;
  Simulator slow(built.value(), slow_mem);
  EXPECT_EQ(SharedBlockCache::Global().stats().misses, after.misses + 1);
}

TEST(SharedBlockCache, ClearWhileHeldStaysBitIdentical) {
  // Dropping an entry (Clear, or an LRU eviction) drops only the cache's
  // reference: a Simulator holding it keeps running on its shared_ptr, and
  // the next Obtain of the key rebuilds the pre-decode.  The program is a
  // key no other test assembles.  Eviction order is test_once_cache's.
  auto binary = Assemble(R"(
    main:
      li $t0, 4003
      li $v0, 0
    loop:
      addu $v0, $v0, $t0
      addiu $t0, $t0, -1
      bgtz $t0, loop
      jr $ra
  )");
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  Simulator reference(binary.value(), {}, ExecEngine::kReference);
  const RunResult want = reference.Run();
  Simulator sim(binary.value(), {}, ExecEngine::kBlock);
  ExpectIdentical(sim.Run(), want);

  SharedBlockCache& cache = SharedBlockCache::Global();
  cache.Clear();
  const SharedBlockCache::Stats after = cache.stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.bytes, 0u);

  // No dangling: the dropped tables stay alive through `sim`.
  ExpectIdentical(sim.Run(), want);
  ExpectIdentical(sim.Run(), want);

  // The cache no longer holds the key: the next Simulator re-decodes it.
  Simulator rebuilt(binary.value(), {}, ExecEngine::kBlock);
  EXPECT_EQ(cache.stats().misses, after.misses + 1);
  ExpectIdentical(rebuilt.Run(), want);
}

TEST(BlockEngine, RecyclingRunOverloadIsBitIdentical) {
  // The storage-recycling overload (used by the bench hot loop) must
  // produce byte-for-byte the same RunResult as a fresh Run, on both
  // engines, across repeated recycled runs.
  for (const suite::Benchmark& bench : suite::AllBenchmarks()) {
    SCOPED_TRACE(bench.name);
    auto built = suite::BuildBinary(bench, 1);
    ASSERT_TRUE(built.ok()) << built.status().message();
    Simulator reference(built.value(), {}, ExecEngine::kReference);
    const RunResult want = reference.Run();
    for (ExecEngine engine : {ExecEngine::kReference, ExecEngine::kBlock}) {
      Simulator sim(built.value(), {}, engine);
      RunResult recycled;
      for (int rep = 0; rep < 3; ++rep) {
        recycled = sim.Run({}, 100'000'000, std::move(recycled));
        ExpectIdentical(recycled, want);
      }
    }
  }
}

}  // namespace
}  // namespace b2h::mips
