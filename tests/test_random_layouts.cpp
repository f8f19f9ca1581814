// Seeded random-layout differential test: the decompiler must not depend on
// where the compiler put each block.  Each seed assembles a small program
// whose blocks sit in a random order in the text segment, joined by forward
// beq/bne/j edges, with counted backward loops and calls to one- and
// two-return leaf functions.  A second set of seeds makes every leaf, and
// sometimes main, start with a counted loop, so a function's first
// instruction heads a loop.  For several $a0 values, the MIPS simulator's
// result must equal the IR interpreter's result on the default pipeline's
// CDFG, and every function's dominator tree must match brute-force
// dominator sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "decomp/pass_manager.hpp"
#include "ir/interp.hpp"
#include "mips/assembler.hpp"
#include "mips/simulator.hpp"
#include "testing_support.hpp"

namespace b2h {
namespace {

constexpr unsigned kPrograms = 300;
/// The entry-loop programs draw from their own seeds, 1001-1300.
constexpr unsigned kEntryLoopSeedBase = 1000;
constexpr std::int32_t kInputs[] = {0, 1, 3, -4, 10};

/// A program generator over one seed.  Only std::mt19937's raw output is
/// used (its sequence is fixed by the standard; the distributions' are
/// not), so a seed names the same program everywhere.
class LayoutGenerator {
 public:
  /// With `entry_loops`, every leaf and sometimes main start with a
  /// counted loop.  Without it a seed draws the same program as ever.
  LayoutGenerator(unsigned seed, bool entry_loops)
      : rng_(seed), entry_loops_(entry_loops) {}

  std::string Generate() {
    const unsigned segments = 3 + Pick(4);
    const unsigned leaves = 1 + Pick(2);
    // The segments sit in a random order behind main's prologue, which
    // jumps to L0 when L0 is not placed first.
    std::vector<unsigned> order(segments);
    for (unsigned i = 0; i < segments; ++i) order[i] = i;
    for (unsigned i = segments - 1; i > 0; --i) {
      std::swap(order[i], order[Pick(i + 1)]);
    }
    std::vector<std::vector<std::string>> bodies(segments);
    for (unsigned i = 0; i < segments; ++i) {
      bodies[i] = Segment(i, segments, leaves);
    }

    std::ostringstream out;
    out << "main:\n";
    if (entry_loops_ && Pick(2) == 0) {
      // $s4 and $s6 start at zero; $s6 carries a sum out of the loop and
      // the prologue overwrites what the ALU step leaves in $s0-$s3.
      out << "  addiu $s4, $s4, 1\n"
          << "  " << Alu() << "\n"
          << "  addu $s6, $s6, " << Src() << "\n"
          << "  addu $s6, $s6, $a0\n"
          << "  slti $t0, $s4, " << 1 + Pick(4) << "\n"
          << "  bne $t0, $zero, main\n";
    }
    out << "  addiu $sp, $sp, -8\n"
        << "  sw $ra, 4($sp)\n"
        << "  move $s5, $a0\n"
        << "  addiu $s0, $a0, 1\n"
        << "  li $s1, 3\n"
        << "  li $s2, -2\n"
        << "  li $s3, 7\n";
    if (order[0] != 0) out << "  j L0\n";
    for (unsigned p = 0; p < segments; ++p) {
      const unsigned i = order[p];
      out << "L" << i << ":\n";
      for (const std::string& line : bodies[i]) out << "  " << line << "\n";
      // A segment that falls through to its logical successor says so
      // with a jump when that successor is not placed next.
      const bool falls_through = i + 1 < segments && !ends_in_jump_[i];
      if (falls_through && (p + 1 == segments || order[p + 1] != i + 1)) {
        out << "  j L" << i + 1 << "\n";
      }
    }
    for (unsigned leaf = 0; leaf < leaves; ++leaf) out << Leaf(leaf);
    return out.str();
  }

 private:
  unsigned Pick(unsigned n) { return static_cast<unsigned>(rng_() % n); }

  std::string Reg() { return "$s" + std::to_string(Pick(4)); }
  std::string Src() { return "$s" + std::to_string(Pick(6)); }

  std::string Alu() {
    const std::string d = Reg();
    switch (Pick(6)) {
      case 0:
        return "addiu " + d + ", " + Src() + ", " +
               std::to_string(static_cast<int>(Pick(17)) - 8);
      case 1: return "addu " + d + ", " + Src() + ", " + Src();
      case 2: return "subu " + d + ", " + Src() + ", " + Src();
      case 3: return "xor " + d + ", " + Src() + ", " + Src();
      case 4:
        return "sll " + d + ", " + Src() + ", " + std::to_string(1 + Pick(3));
      default: return "slt " + d + ", " + Src() + ", " + Src();
    }
  }

  std::vector<std::string> Segment(unsigned i, unsigned segments,
                                   unsigned leaves) {
    std::vector<std::string> lines;
    if (Pick(5) < 2) {
      lines.push_back("move $a0, " + Src());
      // An entry-loop leaf counts $a1 down, which bounds its trip count.
      if (entry_loops_) lines.push_back("andi $a1, " + Src() + ", 7");
      lines.push_back("jal F" + std::to_string(Pick(leaves)));
      lines.push_back("addu " + Reg() + ", " + Reg() + ", $v0");
    }
    for (unsigned n = 1 + Pick(2); n > 0; --n) lines.push_back(Alu());
    if (Pick(3) == 0) {
      // A counted loop: one self-looping block entered by fallthrough.
      const std::string label = "LL" + std::to_string(i);
      lines.push_back("li $s4, " + std::to_string(1 + Pick(4)));
      lines.push_back(label + ":");
      for (unsigned n = 1 + Pick(2); n > 0; --n) lines.push_back(Alu());
      lines.push_back("addiu $s4, $s4, -1");
      lines.push_back("bgtz $s4, " + label);
    }
    ends_in_jump_.push_back(false);
    if (i + 1 == segments) {
      lines.push_back("addu $v0, " + Src() + ", " + Src());
      lines.push_back("xor $v0, $v0, " + Src());
      if (entry_loops_) lines.push_back("addu $v0, $v0, $s6");
      lines.push_back("lw $ra, 4($sp)");
      lines.push_back("addiu $sp, $sp, 8");
      lines.push_back("jr $ra");
      ends_in_jump_.back() = true;
      return lines;
    }
    const std::string target =
        "L" + std::to_string(i + 1 + Pick(segments - i - 1));
    switch (Pick(3)) {
      case 0:  // fall through to the next segment
        break;
      case 1:
        lines.push_back("j " + target);
        ends_in_jump_.back() = true;
        break;
      default:
        lines.push_back("slti $t0, " + Src() + ", " +
                        std::to_string(static_cast<int>(Pick(9)) - 2));
        lines.push_back(std::string(Pick(2) == 0 ? "beq" : "bne") +
                        " $t0, $zero, " + target);
        break;
    }
    return lines;
  }

  std::string Leaf(unsigned leaf) {
    const std::string name = "F" + std::to_string(leaf);
    std::ostringstream out;
    out << name << ":\n";
    if (entry_loops_) {
      static const char* const kSteps[] = {
          "addiu $a0, $a0, 3", "sll $a0, $a0, 1", "xor $a0, $a0, $a1",
          "addu $a0, $a0, $a1"};
      out << "  " << kSteps[Pick(4)] << "\n"
          << "  addiu $a1, $a1, -1\n"
          << "  bgtz $a1, " << name << "\n";
    }
    if (Pick(2) == 0) {
      out << "  addiu $v0, $a0, " << Pick(9) << "\n"
          << "  sll $v0, $v0, " << Pick(3) << "\n"
          << "  jr $ra\n";
    } else {
      // Two returns.
      if (Pick(2) == 0) {
        out << "  beq $a0, $zero, " << name << "b\n";
      } else {
        out << "  bgtz $a0, " << name << "b\n";
      }
      out << "  subu $v0, $zero, $a0\n"
          << "  addiu $v0, $v0, " << Pick(5) << "\n"
          << "  jr $ra\n"
          << name << "b:\n"
          << "  addiu $v0, $a0, " << Pick(9) << "\n"
          << "  jr $ra\n";
    }
    return out.str();
  }

  std::mt19937 rng_;
  bool entry_loops_;
  std::vector<bool> ends_in_jump_;
};

/// Decompile the programs of seeds base + 1 .. base + kPrograms, check
/// their dominator trees, and compare the IR interpreter with the simulator
/// on each.
void ExpectLayoutsMatchTheSimulator(unsigned base, bool entry_loops) {
  const auto manager = decomp::PassManager::Preset("default");
  ASSERT_TRUE(manager.ok());
  unsigned failures = 0;
  for (unsigned seed = base + 1; seed <= base + kPrograms && failures < 3;
       ++seed) {
    const std::string source = LayoutGenerator(seed, entry_loops).Generate();
    auto assembled = mips::Assemble(source);
    ASSERT_TRUE(assembled.ok()) << "seed " << seed << ": "
                                << assembled.status().message() << "\n"
                                << source;
    const auto binary =
        std::make_shared<const mips::SoftBinary>(std::move(assembled).take());
    const auto program = manager.value().Run(binary);
    if (!program.ok()) {
      ADD_FAILURE() << "seed " << seed << ": " << program.status().message()
                    << "\n" << source;
      ++failures;
      continue;
    }
    testing_support::ExpectDominatorTreesMatchBruteForce(
        program.value().module, "seed " + std::to_string(seed));
    // One simulator and one interpreter serve every input: the programs
    // store only the return address, which each run writes before reading.
    mips::Simulator sim(*binary);
    ir::Interpreter interp(program.value().module, binary->data);
    for (const std::int32_t a0 : kInputs) {
      const std::int32_t args[] = {a0};
      const auto run = sim.Run(args);
      ASSERT_EQ(run.reason, mips::HaltReason::kReturned)
          << "seed " << seed << ": " << run.fault_message;
      const auto result = interp.Run(args);
      if (!result.ok || result.return_value != run.return_value) {
        ADD_FAILURE() << "seed " << seed << ", a0=" << a0 << ": simulator "
                      << run.return_value << ", IR " << result.return_value
                      << " " << result.error << "\n" << source;
        ++failures;
        break;
      }
    }
  }
}

TEST(RandomLayouts, DecompiledIrMatchesTheSimulator) {
  ExpectLayoutsMatchTheSimulator(0, false);
}

TEST(RandomLayouts, EntryLoopHeadersMatchTheSimulator) {
  ExpectLayoutsMatchTheSimulator(kEntryLoopSeedBase, true);
}

}  // namespace
}  // namespace b2h
