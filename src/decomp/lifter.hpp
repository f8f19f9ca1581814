// Binary parsing, CFG recovery, and lifting to SSA IR.
//
// Implements the front half of the paper's decompilation flow (§2):
//   "Initially, binary parsing converts the software binary into an
//    instruction set independent representation.  Next, CDFG creation builds
//    a control/data flow graph for the application."
//
// Function discovery starts at the binary entry point and follows `jal`
// targets transitively (no symbol table needed).  Within each function, CFG
// recovery discovers basic-block leaders by following branch targets.
// An unresolvable indirect jump (`jr` to a non-return-address register, or
// `jalr`) aborts recovery with ErrorKind::kIndirectJump — exactly the
// failure mode the paper reports for two EEMBC benchmarks.
//
// Lifting produces SSA directly: machine registers are the variables of an
// ir::SsaBuilder (ir/ssa.hpp), whose entry-block reads become live-in
// `kInput`s and whose other block-entry reads become phi placeholders,
// filled once the CFG is complete (trivial phis are then removed).  No edge
// enters a lifted function's entry block: when a branch targets the
// function's first instruction, an empty entry block falls into it.
#pragma once

#include "ir/ir.hpp"
#include "mips/binary.hpp"
#include "mips/simulator.hpp"
#include "support/error.hpp"

namespace b2h::decomp {

struct LiftOptions {
  /// Optional profile; when present, blocks and branch edges are annotated
  /// with execution counts (consumed by the partitioner).
  const mips::ExecProfile* profile = nullptr;
};

/// Decompile `binary` into an SSA module.  Fails with kIndirectJump /
/// kMalformedBinary when CDFG recovery is impossible.
[[nodiscard]] Result<ir::Module> Lift(const mips::SoftBinary& binary,
                                      const LiftOptions& options = {});

/// Region-scoped lift for incremental (dynamic) decompilation: lift only the
/// function entered at `root_entry` plus its transitive callees, leaving the
/// rest of the binary untouched.  The returned module's `main` is the root
/// function.  Callees are included so the inlining pass can keep
/// helper-calling loops synthesizable, exactly as in a whole-binary lift.
[[nodiscard]] Result<ir::Module> LiftAt(const mips::SoftBinary& binary,
                                        std::uint32_t root_entry,
                                        const LiftOptions& options = {});

/// Static function-entry discovery without lifting: the binary entry point
/// plus every direct-call (`jal`) target found by scanning the text segment.
/// Sorted ascending.  A dynamic partitioner uses this to map a hot PC to the
/// entry of its enclosing function (greatest entry <= pc) without paying for
/// a whole-binary CFG recovery.
[[nodiscard]] std::vector<std::uint32_t> FunctionEntries(
    const mips::SoftBinary& binary);

}  // namespace b2h::decomp
