// Reference interpreter for the decompiled CDFG.
//
// This is the middle leg of the repo's co-simulation (DESIGN.md §5): the
// MIPS simulator executes the binary, this interpreter executes the
// decompiled IR, and the RTL simulator executes the synthesized circuit.
// All must produce the native C++ reference's result for every benchmark
// at every compiler optimization level — the strongest evidence that
// decompilation (including the aggressive passes: stack-op removal,
// strength promotion, loop rerolling) is semantics-preserving.
//
// What is shared and what stays independent: this interpreter, the RTL
// simulator and constant folding take each operator's value from one
// definition, ir::Evaluate (ir/eval.hpp), and load and store through
// mips::Memory::Load/Store.  The interpreter's own part is control flow:
// phis, branches, calls and the call stack.  The MIPS simulator and the
// C++ reference implement the platform's semantics on their own, so a
// wrong ir::Evaluate still shows up as a co-simulation mismatch.
//
// Widths: after operator size reduction each value carries a claimed bit
// width, and the interpreter keeps every result at that width
// (ir::FitToWidth), as a register of that width in the circuit would.
// Masking is not the identity: demanded-bits narrowing keeps only the low
// bits that every consumer observes, so a masked result is no fault.  An
// unsound width shows up as a result that differs from the simulator's.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "ir/ir.hpp"
#include "mips/memory.hpp"

namespace b2h::ir {

struct InterpOptions {
  std::uint64_t max_steps = 200'000'000;
};

struct InterpResult {
  std::int32_t return_value = 0;
  std::uint64_t steps = 0;  ///< executed non-phi IR operations
  bool ok = false;
  std::string error;
};

/// Runs over the MIPS platform's memory (mips/memory.hpp): `initial_data`
/// is the binary's .data image, and main's stack pointer starts just below
/// mips::kStackTop, as the simulator's does.  The module must pass
/// ir::Verify: each call keeps its values by Instr::id.
class Interpreter {
 public:
  Interpreter(const Module& module, std::span<const std::uint8_t> initial_data,
              InterpOptions options = {});

  [[nodiscard]] InterpResult Run(std::span<const std::int32_t> args = {});

 private:
  const Module& module_;
  InterpOptions options_;
  mips::Memory memory_;
};

}  // namespace b2h::ir
