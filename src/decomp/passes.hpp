// Decompilation optimization passes (paper §2).
//
// Two families:
//   Instruction-set overhead removal — constant propagation / folding
//   (move-via-add-zero idioms), operator size reduction, strength reduction,
//   and stack operation removal.
//   Undoing compiler optimizations — strength promotion (shift/add chains
//   back into multiplications) and loop rerolling (roll unrolled loops back
//   up), plus function inlining so kernels containing small helper calls can
//   still be synthesized.
//
// Every pass is semantics-preserving; the three-way co-simulation suite
// (MIPS sim / IR interpreter / RTL sim) checks this across the benchmark
// suite at every compiler optimization level.
#pragma once

#include <cstddef>

#include "ir/ir.hpp"

namespace b2h::decomp {

/// Constant folding, algebraic identity simplification, copy propagation,
/// and constant branch folding, to a fixpoint.  Removes the register-move
/// idioms (`or rd, rs, $zero`, `addiu rd, rs, 0`) the instruction set forced
/// on the compiler.  Returns the number of instructions simplified away.
std::size_t SimplifyConstants(ir::Function& function);

struct StackRemovalStats {
  std::size_t slots_promoted = 0;
  std::size_t loads_removed = 0;
  std::size_t stores_removed = 0;
  bool aborted_unsafe = false;  ///< escape/aliasing made promotion unsafe
};

/// Promote stack slots (sp-relative spill/local accesses) to SSA values.
/// Safe only when every memory access is provably stack-slot or provably
/// not-stack; otherwise the pass is a no-op with aborted_unsafe set.
StackRemovalStats RemoveStackOperations(ir::Function& function);

struct SizeReductionStats {
  std::size_t narrowed = 0;       ///< instructions with width < 32 after
  std::size_t total_bits_saved = 0;
};

/// Operator size reduction: forward value-width analysis combined with
/// backward demanded-bits analysis; annotates every instruction with the
/// number of significant result bits (consumed by the synthesis area/delay
/// model).
SizeReductionStats ReduceOperatorSizes(ir::Function& function);

struct StrengthReductionStats {
  std::size_t muls_to_shifts = 0;
  std::size_t divs_to_shifts = 0;
  std::size_t rems_to_masks = 0;
};

/// Synthesis-oriented strength reduction: multiply/divide/remainder by
/// powers of two become shifts/masks (shifts by constants are free wiring in
/// hardware; dividers are enormous).  Signed division is only reduced when
/// the operand is provably non-negative, so run after ReduceOperatorSizes.
StrengthReductionStats ReduceStrength(ir::Function& function);

struct StrengthPromotionStats {
  std::size_t muls_recovered = 0;
};

/// Strength promotion: recognize shift/add/sub trees computing c*x (the
/// output of the software compiler's multiply strength reduction) and
/// collapse them back into a single multiplication so the synthesis tool can
/// choose the best hardware implementation.
StrengthPromotionStats PromoteStrength(ir::Function& function);

struct RerollStats {
  std::size_t loops_rerolled = 0;
  std::size_t unroll_factor = 0;  ///< factor of the last rerolled loop
  std::size_t ops_removed = 0;
};

/// Loop rerolling: detect loop bodies consisting of U isomorphic sections
/// produced by compiler loop unrolling and roll them back into a single
/// section with the induction step divided by U.
RerollStats RerollLoops(ir::Function& function);

struct InlineStats {
  std::size_t calls_inlined = 0;
};

struct IfConversionStats {
  std::size_t diamonds_converted = 0;
  std::size_t selects_created = 0;
};

/// If-conversion: side-effect-free branch diamonds/triangles with short
/// arms become selects, merging their blocks.  Loop bodies that collapse to
/// a single block become eligible for pipelining in synthesis.
IfConversionStats ConvertIfs(ir::Function& function);

/// Inline small leaf callees into their call sites so loops containing
/// helper calls remain synthesizable.  `module` provides callee lookup.
InlineStats InlineSmallFunctions(ir::Module& module);

}  // namespace b2h::decomp
