// Structural and SSA well-formedness checks.  Run after lifting and after
// every decompilation pass in debug/test builds to catch pass bugs early.
#pragma once

#include "ir/ir.hpp"

namespace b2h::ir {

/// Returns OK or a description of the first violated invariant.
/// Checks: the numbering side tables are indexed by (block ids are
/// positions, instruction ids strictly increase in block order),
/// block/terminator structure, phi placement and arity, def-dominates-use
/// (including phi edge semantics), operand sanity, width ranges, CFG
/// pred/succ consistency, and that no edge enters the entry block.
[[nodiscard]] Status Verify(const Function& function);

/// Verifies every function in the module.
[[nodiscard]] Status Verify(const Module& module);

}  // namespace b2h::ir
