// Virtex-II-calibrated resource library: area and delay for datapath
// operators as a function of operand width.
//
// The paper reports area in "equivalent logic gates" (the Xilinx gate-count
// convention for Virtex-II) produced by Xilinx ISE.  We cannot run ISE in
// this environment, so the library prices each operator class from
// datasheet-scale constants: a W-bit ripple/carry-chain adder occupies ~W
// LUT4s, an 18x18 multiply maps to a MULT18x18 hard block, wide shifts by
// variable amounts need log-depth mux stages, and constant shifts are free
// wiring.  Gate equivalents: 1 LUT4 ~= 12 gates, 1 FF ~= 8 gates (the
// conversion Xilinx used in its gate-count methodology).
//
// Delays approximate a Virtex-II -5 speed grade; they drive both operator
// chaining in the scheduler and the achievable-clock estimate.
#pragma once

#include <cstdint>

#include "ir/ir.hpp"

namespace b2h::synth {

/// Functional-unit classes the binder allocates.
enum class FuClass : std::uint8_t {
  kAddSub,    ///< adder/subtractor (also address adds)
  kMul,       ///< MULT18x18-based multiplier
  kDiv,       ///< iterative divider (multi-cycle)
  kLogic,     ///< and/or/xor/nor
  kShift,     ///< variable-amount barrel shifter
  kCompare,   ///< relational comparator
  kMemPort,   ///< BRAM port (load/store)
  kNone,      ///< free: constant shifts, extensions, phis, moves
};

[[nodiscard]] const char* ToString(FuClass cls) noexcept;

/// Classify an IR operation (kNone when it costs no logic).
[[nodiscard]] FuClass ClassifyOp(const ir::Instr& instr) noexcept;

struct ResourceLibrary {
  // --- conversion constants -------------------------------------------
  double gates_per_lut = 7.0;
  double gates_per_ff = 5.0;
  double gates_per_mult18 = 1500.0;  ///< hard multiplier, gate-equivalent

  // --- per-class area (LUTs as a function of width) --------------------
  [[nodiscard]] double FuLuts(FuClass cls, unsigned width) const;
  [[nodiscard]] double FuGates(FuClass cls, unsigned width) const;

  // --- delays (ns, combinational unless noted) --------------------------
  double add_base_ns = 1.2;
  double add_per_bit_ns = 0.045;   ///< carry chain
  double mul_ns = 6.2;             ///< MULT18x18 clock-to-out + routing
  double logic_ns = 0.9;
  double shift_var_ns = 2.8;       ///< barrel shifter
  double cmp_base_ns = 1.0;
  double cmp_per_bit_ns = 0.035;
  double bram_access_ns = 3.0;     ///< synchronous BRAM: full cycle anyway

  /// Latency in whole cycles for multi-cycle units (0 = combinational,
  /// chaining allowed subject to the delay budget).
  unsigned div_latency_cycles = 8;
  unsigned load_latency_cycles = 1;  ///< synchronous BRAM read

  [[nodiscard]] double OpDelayNs(const ir::Instr& instr) const;
  [[nodiscard]] unsigned OpLatencyCycles(const ir::Instr& instr) const;

  // --- registers / muxes / control ---------------------------------------
  [[nodiscard]] double RegisterGates(unsigned width) const {
    return gates_per_ff * width;
  }
  /// Gates for an n-input, w-bit multiplexer in front of a shared FU.
  [[nodiscard]] double MuxGates(unsigned inputs, unsigned width) const {
    if (inputs <= 1) return 0.0;
    return (inputs - 1) * width * 0.40 * gates_per_lut;
  }
  [[nodiscard]] double FsmGates(unsigned states) const {
    // One-hot state register plus next-state/output logic.
    return states * gates_per_ff + states * 1.2 * gates_per_lut;
  }
  /// Glue/control overhead applied to the datapath total.
  double control_overhead = 0.12;
};

}  // namespace b2h::synth
