// Superblock (multi-exit trace) pre-decode for the block-compiled engine.
//
// The per-instruction interpreter pays a decode lookup, a CyclesFor() call,
// a branch-target computation, and four profile-vector increments for every
// executed instruction.  All of that is static: it depends only on the text
// image and the cycle model, never on run-time state.  BlockCache hoists it
// to construction time:
//
//   * every decodable word becomes a PreInstr with its destination register
//     resolved (rd vs rt vs $ra), its branch/jump byte target precomputed,
//     and its *static* cycle cost folded in (base + load/mult/div extras;
//     taken_extra is included for jumps, which always pay it — only a
//     conditional branch's taken_extra is left to run time);
//
//   * every word index gets a BlockSpan: the multi-exit trace starting
//     there.  A trace is the straight-line run that continues *across*
//     conditional branches (each becomes a SideExit, taken at run time only
//     when its condition holds) and ends at a hard terminator — a direct or
//     indirect jump — or at an undecodable word, the end of text, or the
//     kMaxTraceLen cap (TermKind::kFallthrough: the next pc is simply the
//     word after the trace).  Spans are keyed by *entry index*, not by
//     leader, so overlapping runs from different entries (join points,
//     jr/jump-table targets, jal return addresses) each get their own
//     full-length trace without needing the entry set to be statically
//     derivable.
//
//   * every conditional branch inside a trace gets a SideExit record: its
//     offset, the summed static cycles of the prefix ending at it (so a
//     taken exit charges the run in O(1)), and whether the taken branch is
//     a backward latch (the event RunInstrumented reports).
//
// The engine then executes trace-at-a-time: one span lookup and one or two
// counter increments per executed trace, with per-index profile vectors
// reconstructed from the trace/side-exit counters only at observer flush
// points and at halt (see simulator.cpp).
//
// Construction is per-Simulator no longer: SharedBlockCache
// (mips/shared_cache.hpp) builds each (text bytes, cycle model) key once
// per process and hands out shared_ptr<const PredecodedProgram>.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mips/isa.hpp"

namespace b2h::mips {

/// Per-instruction-class cycle costs (single-issue in-order core).
struct CycleModel {
  unsigned base = 1;          ///< all instructions
  unsigned load_extra = 1;    ///< additional cycles for loads
  unsigned mult_extra = 2;    ///< additional cycles for mult/multu
  unsigned div_extra = 15;    ///< additional cycles for div/divu
  unsigned taken_extra = 1;   ///< additional cycles for taken branches/jumps

  [[nodiscard]] std::uint64_t CyclesFor(Op op, bool taken) const noexcept;

  [[nodiscard]] bool operator==(const CycleModel&) const = default;
};

/// A pre-decoded, pre-costed instruction.  Unlike Instr, the fields here are
/// *resolved for execution*: `dest` is the register the instruction writes
/// (0 = none), `target` is the byte address a branch/j/jal transfers to, and
/// `cycles` is the instruction's static cost under the simulator's cycle
/// model (everything except a conditional branch's taken_extra).
struct PreInstr {
  Op op = Op::kInvalid;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::uint8_t dest = 0;      ///< resolved write register; 0 = no GPR write
  std::uint8_t shamt = 0;
  std::uint8_t mem_size = 0;  ///< access width for loads/stores (1/2/4)
  std::int32_t imm = 0;
  std::uint32_t target = 0;   ///< branch/jump byte target (beq.., j, jal)
  std::uint32_t cycles = 0;   ///< static cycles (see struct comment)
};

/// How a trace ends when no side exit fires.  Conditional branches are
/// never hard terminators any more — they are SideExits inside the trace.
enum class TermKind : std::uint8_t {
  kFallthrough,  ///< undecodable word, text end, or the kMaxTraceLen cap:
                 ///< next pc is the word after the trace
  kJump,         ///< j
  kJal,          ///< jal (writes $ra)
  kJr,           ///< jr (target from rs at run time)
  kJalr,         ///< jalr (writes dest, target from rs)
};

/// A conditional branch inside a trace.  Not taken: execution continues to
/// the next trace instruction (the engine counts branch_not_taken at
/// expansion time).  Taken: the trace exits here; the run is charged
/// `prefix_cycles + taken_extra` and `offset + 1` instructions.
struct SideExit {
  std::uint32_t offset = 0;         ///< branch's instruction offset in trace
  std::uint32_t prefix_cycles = 0;  ///< static cycles of trace[0..offset]
  /// Taken branch is a latch-event candidate (target precedes the branch).
  bool backward = false;
};

/// The multi-exit trace starting at a given text-word index.  Side exits
/// for the trace live at exits()[exit_begin .. exit_begin + exit_count).
struct BlockSpan {
  std::uint32_t len = 0;      ///< instructions incl. terminator; 0 = entry
                              ///< word is undecodable (fault on entry)
  TermKind term = TermKind::kFallthrough;
  /// kJump terminator is a latch-event candidate: a direct `j` whose
  /// target precedes it (fires on every full-trace execution).
  bool backward_latch = false;
  std::uint32_t exit_count = 0;  ///< conditional branches inside the trace
  std::uint32_t exit_begin = 0;  ///< first SideExit index for this trace
  std::uint64_t cycles = 0;      ///< summed static cycles over the trace
};

class BlockCache {
 public:
  /// Traces stop growing at this many instructions; longer straight-line
  /// runs split into back-to-back kFallthrough traces.  Bounds per-exit
  /// prefix re-accounting and the side-exit table size.
  static constexpr std::uint32_t kMaxTraceLen = 64;

  BlockCache() = default;

  /// Pre-decode `decoded` (text words based at kTextBase; `decode_ok[i]`
  /// marks words Decode() accepted) under `model`.
  BlockCache(std::span<const Instr> decoded, const std::vector<bool>& decode_ok,
             const CycleModel& model);

  [[nodiscard]] const PreInstr* instrs() const noexcept {
    return instrs_.data();
  }
  [[nodiscard]] const BlockSpan* spans() const noexcept {
    return spans_.data();
  }
  [[nodiscard]] const SideExit* exits() const noexcept {
    return exits_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Total SideExit records across all traces (sizes the engine's per-run
  /// side-exit counter vector).
  [[nodiscard]] std::size_t total_side_exits() const noexcept {
    return exits_.size();
  }

  /// Approximate heap footprint (shared-cache byte accounting).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return instrs_.capacity() * sizeof(PreInstr) +
           spans_.capacity() * sizeof(BlockSpan) +
           exits_.capacity() * sizeof(SideExit);
  }

 private:
  std::vector<PreInstr> instrs_;
  std::vector<BlockSpan> spans_;
  std::vector<SideExit> exits_;
};

}  // namespace b2h::mips
