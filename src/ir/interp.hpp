// Reference interpreter for the decompiled CDFG.
//
// This is the middle leg of the repo's three-way co-simulation (DESIGN.md §5):
// the MIPS simulator executes the binary, this interpreter executes the
// decompiled IR, and the RTL simulator executes the synthesized circuit.
// All three must produce identical results for every benchmark at every
// compiler optimization level — the strongest evidence that decompilation
// (including the aggressive passes: stack-op removal, strength promotion,
// loop rerolling) is semantics-preserving.
//
// Width checking: after operator size reduction each value carries a claimed
// bit width.  The interpreter masks every result to its claimed width; a
// sound analysis makes masking the identity, so any width-analysis bug shows
// up as a co-simulation mismatch (and is also counted in width_violations).
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
  std::uint64_t steps = 0;             ///< executed non-phi IR operations
  std::uint64_t width_violations = 0;  ///< results that did not fit widths
  bool ok = false;
  std::string error;
};

/// Runs over the MIPS platform's memory (mips/memory.hpp): `initial_data`
/// is the binary's .data image, and main's stack pointer starts just below
/// mips::kStackTop, as the simulator's does.
class Interpreter {
 public:
  Interpreter(const Module& module, std::span<const std::uint8_t> initial_data,
              InterpOptions options = {});

  [[nodiscard]] InterpResult Run(std::span<const std::int32_t> args = {});

  /// Inspect data memory after a run (for tests on array outputs).
  [[nodiscard]] std::uint32_t PeekWord(std::uint32_t addr) const;

 private:
  const Module& module_;
  InterpOptions options_;
  mips::Memory memory_;
};

}  // namespace b2h::ir
