// What an IR operator computes, defined once for every executor of the IR:
// constant folding (decomp/constprop.cpp), the IR interpreter
// (ir/interp.hpp) and the RTL simulator (synth/rtl_sim.hpp).
//
// The rules are the platform's: 32-bit two's-complement arithmetic that
// wraps, shift amounts taken mod 32, and division that never traps
// (x / 0 = 0, x % 0 = x, INT32_MIN / -1 = INT32_MIN, INT32_MIN % -1 = 0).
// The MIPS simulator implements the same rules on its own
// (mips/exec_ops.inc), so co-simulation against it and the native C++
// reference still checks this file.
#pragma once

#include <cstdint>
#include <optional>

#include "ir/ir.hpp"

namespace b2h::ir {

/// The 32-bit result of `instr` on operand values `a`, `b`, `c` (those past
/// its operand count are ignored) for every operator whose result depends
/// on its operands alone: kConst, arithmetic, logic, shifts, comparisons,
/// kSelect, kSExt, kZExt and kTrunc.  Nullopt for kInput, kUndef, kLoad,
/// kStore, kPhi, kCall and the terminators, whose results come from the
/// executor's state.
[[nodiscard]] std::optional<std::int32_t> Evaluate(const Instr& instr,
                                                   std::int32_t a,
                                                   std::int32_t b,
                                                   std::int32_t c);

/// `value` as a register of `instr`'s claimed width (1..32) holds it: the
/// low `instr.width` bits, sign-extended when `instr.is_signed` and
/// zero-extended otherwise.
[[nodiscard]] std::int32_t FitToWidth(const Instr& instr, std::int32_t value);

}  // namespace b2h::ir
