// What the decompilation pipeline produces: binary -> optimized, annotated
// CDFG.  decomp::PassManager (pass_manager.hpp) builds and runs the
// pipeline; its "default" preset runs, in order:
//
// Pass order (rationale):
//   1. Lift                 — CFG recovery + SSA construction
//   2. RerollLoops          — needs textually isomorphic sections, so it
//                             runs before any folding
//   3. SimplifyConstants    — IS-overhead removal (move idioms, folding)
//   4. RemoveStackOperations
//   5. SimplifyConstants    — cleanup enabled by promotion
//   6. InlineSmallFunctions — keeps helper-calling loops synthesizable
//   7. SimplifyConstants
//   8. ConvertIfs           — short branch diamonds become selects
//   9. SimplifyConstants
//  10. PromoteStrength      — shift/add chains -> mul (undo compiler opt)
//  11. ReduceStrength       — mul/div by 2^k -> shift/mask (for synthesis)
//  12. ReduceOperatorSizes  — width annotations for the area/delay model
//  13. final ir::Function::Cleanup + IR verification
//
// Every pass can be disabled individually (the ablation benchmark measures
// each one's contribution to synthesis quality).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "decomp/alias.hpp"
#include "decomp/passes.hpp"
#include "ir/ir.hpp"
#include "mips/binary.hpp"
#include "mips/simulator.hpp"
#include "support/error.hpp"

namespace b2h::decomp {

/// What the passes did, summed over the pipeline: the one record of pass
/// counters, printed by ToolchainRun::ReportBody() and read by the benches.
struct DecompileStats {
  std::size_t constants_simplified = 0;
  std::size_t stack_slots_promoted = 0;
  std::size_t stack_ops_removed = 0;
  std::size_t loops_rerolled = 0;
  std::size_t reroll_ops_removed = 0;
  std::size_t muls_recovered = 0;
  std::size_t strength_reduced = 0;
  std::size_t instrs_narrowed = 0;
  std::size_t bits_saved = 0;
  std::size_t calls_inlined = 0;
  std::size_t ifs_converted = 0;
  std::size_t lifted_instrs = 0;
  std::size_t final_instrs = 0;
};

/// Wall time of one executed pass instance (collected by the PassManager,
/// see pass_manager.hpp).
struct PassRunStats {
  std::string pass;
  double millis = 0.0;
};

/// A decompiled program with its analyses.  Shares ownership of the binary
/// it was decompiled from, so the program can outlive the caller's handle
/// (the old non-owning pointer dangled whenever the binary was a stack
/// object that went out of scope before the program).
struct DecompiledProgram {
  ir::Module module;
  DecompileStats stats;
  std::vector<PassRunStats> pass_runs;  ///< per-pass timing
  std::shared_ptr<const mips::SoftBinary> binary;
};

}  // namespace b2h::decomp
