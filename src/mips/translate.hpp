// Tier 3 of the simulator: host-translated hot superblock traces.
//
// The block engine (tier 2, mips/exec_block_body.inc) executes pre-decoded
// PreInstrs trace-at-a-time but still returns to the dispatch loop after
// every trace — and pays a generic handler (dest-register check, immediate
// reload, branch-target recomputation) per instruction.  For hot traces
// that cost is pure overhead: everything about the trace is static except
// the register values.  This module compiles such traces into *fused host
// operation* streams (TransOp):
//
//   * constant materialization pairs (lui+ori / lui+addiu into the same
//     register, and lone lui) collapse into one kConst store;
//   * compare+branch (slt-family feeding beq/bne against $zero) and
//     decrement-and-branch (addiu feeding a branch on the same register)
//     collapse into one op with the side-exit record baked in;
//   * pure ALU writes to $zero are dropped (they have no architectural
//     effect; the trace-level accounting below still charges them);
//   * every side exit carries its precomputed instruction/cycle charge and
//     profile slot, so a taken branch commits accounting in O(1);
//   * the terminator is an op too, carrying the precomputed link value
//     (jal/jalr) and static successor (fallthrough/j/jal).
//
// The headline mechanism is **trace chaining through observed indirect
// targets**: while a trace is still executing in tier 2, its jr/jalr
// terminator records observed successor pcs in a lock-free per-entry
// observation table (TranslationBank::ObserveIndirect).  At promotion the
// translator bakes the most frequent targets into a small immutable inline
// cache (monomorphic fast path, kWays-bounded polymorphic fallback, a
// megamorphic flag that always yields to the dispatcher).  The translated
// runner (mips/exec_translate_body.inc) chains directly from trace to
// trace — through static successors, taken side exits, and IC-hit indirect
// jumps — without returning to the dispatch loop, so a hot state machine
// executes whole loop iterations inside one dispatcher entry.
//
// Promotion is profile-driven with hysteresis and a cap: an entry is
// translated when its *cumulative* dispatch count (across every run of the
// shared pre-decode) crosses kPromoteThreshold; once kMaxTraces traces
// exist for a program, further candidates reset their counters and must
// re-earn the threshold (so a capped bank is not probed on every
// dispatch).  Translations live in the TranslationBank hanging off the
// SharedBlockCache's PredecodedProgram — never mutated after publication,
// dropped only when the LRU evicts the whole entry (counted by
// sim.blockcache.evicted_translated; holders keep the closures alive
// through their shared_ptr, so eviction never dangles).
//
// Semantics are bit-identical to the reference interpreter by
// construction: fused ops preserve every architectural write, accounting
// reuses the trace/side-exit counters of tier 2, and the runner yields to
// the dispatcher whenever the remaining instruction budget cannot cover a
// whole trace (so fault/budget mid-trace demotion to per-instruction
// accounting is unchanged).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mips/block_cache.hpp"

namespace b2h::mips {
struct PredecodedProgram;
}  // namespace b2h::mips

namespace b2h::mips::translate {

// Fused host operations.  The tier-3 threaded dispatcher
// (mips/exec_translate_body.inc) builds its label table from this list;
// every op must have exactly one handler in mips/exec_translate_ops.inc.
#define B2H_TRANSLATE_OP_LIST(X)                                             \
  /* Shifts. */                                                              \
  X(kSll) X(kSrl) X(kSra) X(kSllv) X(kSrlv) X(kSrav)                         \
  /* HI/LO moves and multiply/divide. */                                     \
  X(kMfhi) X(kMthi) X(kMflo) X(kMtlo) X(kMult) X(kMultu) X(kDiv) X(kDivu)    \
  /* Three-register ALU. */                                                  \
  X(kAddu) X(kSubu) X(kAnd) X(kOr) X(kXor) X(kNor) X(kSlt) X(kSltu)          \
  /* Immediate ALU + fused constant materialization + fused mask-and-scale  \
     (andi feeding sll on the same register: jump-table index shapes). */    \
  X(kAddiu) X(kSlti) X(kSltiu) X(kAndi) X(kOri) X(kXori) X(kConst)           \
  X(kAndiSll)                                                                \
  /* Memory. */                                                              \
  X(kLb) X(kLh) X(kLw) X(kLbu) X(kLhu) X(kSb) X(kSh) X(kSw)                  \
  /* Side-exit branches (charges + profile slot baked in). */                \
  X(kBeq) X(kBne) X(kBlez) X(kBgtz) X(kBltz) X(kBgez)                        \
  /* Fused compare+branch against $zero (the slt result is still written). */\
  X(kSltBeqz) X(kSltBnez) X(kSltuBeqz) X(kSltuBnez)                          \
  X(kSltiBeqz) X(kSltiBnez) X(kSltiuBeqz) X(kSltiuBnez)                      \
  /* Fused add-immediate-and-branch on the updated register. */              \
  X(kAddiuBeqz) X(kAddiuBnez) X(kAddiuBlez) X(kAddiuBgtz)                    \
  X(kAddiuBltz) X(kAddiuBgez)                                                \
  /* Inline seam: commits the preceding segment's whole-trace accounting    \
     and falls through into the next segment's ops (static-successor        \
     inlining — see BuildTrace), yielding to the dispatcher when the        \
     remaining budget cannot cover the next segment whole. */               \
  X(kLink)                                                                  \
  /* Terminators (exactly one per trace, always the last op).  The LwJr /  \
     LwJalr forms fuse a jump-table load into the indirect terminator       \
     (`lw d ; jr d`): rt is the load's destination, imm its offset, and     \
     `off` stays at the load's trace offset so the fault path demotes       \
     with the load not yet complete. */                                     \
  X(kTermFall) X(kTermJump) X(kTermJal) X(kTermJr) X(kTermJalr)              \
  X(kTermLwJr) X(kTermLwJalr)

enum class TOp : std::uint8_t {
#define B2H_TRANSLATE_OP_ENUM(name) name,
  B2H_TRANSLATE_OP_LIST(B2H_TRANSLATE_OP_ENUM)
#undef B2H_TRANSLATE_OP_ENUM
};

inline constexpr std::size_t kTOpCount =
    static_cast<std::size_t>(TOp::kTermLwJalr) + 1;

/// One fused host operation (24 bytes).  Field meaning by kind:
///   * ALU/memory: rs/rt/dest/shamt/mem_size/imm as in PreInstr, except
///     dest != 0 is guaranteed for unconditional GPR writes (dead writes
///     were dropped) — only loads may carry dest == 0;
///   * branches (plain and fused): `target` is the taken byte target,
///     `aux` the global side-exit slot, `charge` the taken cycle charge
///     (prefix + taken_extra), `off` the branch's original trace offset
///     (so the taken path charges off+1 instructions), and `shamt` the
///     backward-latch flag for the instrumented event;
///   * terminators: `off` = len-1 (so the full-trace charge is off+1
///     instructions), `charge` the full-trace cycle charge (span.cycles),
///     `shamt` = span.backward_latch, `imm` the precomputed link value
///     (kTermJal/kTermJalr), `target` the static successor pc
///     (kTermFall/kTermJump/kTermJal), and `aux` the bank's inline-cache
///     ordinal (all indirect forms, patched at publication) — the runner
///     never touches the TransTrace header on the hot path.  The fused
///     kTermLwJr/kTermLwJalr forms put the load's base/destination/offset
///     in rs/rt/imm, the precomputed link value in `target`, and `off` at
///     the load's trace offset (full-trace charge = off+2 instructions);
///   * kLink (inline seam): `off`/`charge`/`shamt` commit the preceding
///     segment exactly as its terminator would, `target`/`imm`/`aux` are
///     the spliced successor's pc / word index / original length.
struct TransOp {
  TOp op = TOp::kTermFall;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::uint8_t dest = 0;
  std::uint8_t shamt = 0;
  std::uint8_t mem_size = 0;
  std::uint16_t off = 0;  ///< original offset of the (last fused) source op
  std::int32_t imm = 0;
  std::uint32_t target = 0;
  std::uint32_t aux = 0;
  std::uint32_t charge = 0;
};

/// Baked observed-successor cache for an indirect terminator.  Immutable
/// after translation (so it is shared across threads without locks): a
/// target observed only after promotion simply keeps falling back to the
/// dispatcher, where tier 2 counts it toward its own promotion.
struct InlineCache {
  static constexpr unsigned kWays = 4;
  std::array<std::uint32_t, kWays> target{};  ///< pcs inside text, hot first
  /// Original instruction count of each target's trace, copied from the
  /// span table at bake time (the pre-decode is immutable): the runner's
  /// whole-trace budget check on a chain hit reads it from the cache line
  /// it already has instead of the spans array.
  std::array<std::uint32_t, kWays> len{};
  std::uint8_t ways = 0;
  /// More distinct targets were observed than kWays can hold: never chain,
  /// always yield to the dispatcher (bounded polymorphic fallback).
  bool megamorphic = false;
};

/// A translated trace: the fused op stream plus the original trace's
/// accounting identity (entry index, original length, full-trace cycles).
struct TransTrace {
  std::uint32_t entry = 0;
  std::uint32_t len = 0;     ///< ORIGINAL instruction count (accounting)
  std::uint64_t cycles = 0;  ///< full-trace cycle charge (span.cycles)
  InlineCache ic;            ///< meaningful for kTermJr/kTermJalr only
  std::vector<TransOp> ops;

  [[nodiscard]] std::size_t bytes() const noexcept {
    return sizeof(*this) + ops.capacity() * sizeof(TransOp);
  }
};

/// Per-program translation state, owned by the PredecodedProgram the
/// SharedBlockCache shares across Simulators.  All hot-path methods are
/// lock-free; the promotion path serializes on a mutex.
class TranslationBank {
 public:
  /// Cumulative dispatches of an entry before it is translated.
  static constexpr std::uint32_t kPromoteThreshold = 64;
  /// Per-program translation cap (hysteresis: candidates rejected at the
  /// cap reset their counter and must re-earn the threshold).
  static constexpr std::uint32_t kMaxTraces = 512;
  /// Observation ways per indirect terminator — wider than
  /// InlineCache::kWays so megamorphism is detected, not truncated.
  static constexpr unsigned kObsWays = 8;

  TranslationBank(const BlockCache& blocks, std::size_t text_words);

  /// Translated op stream for `entry`, or nullptr.  The slot points at the
  /// first TransOp directly (not the TransTrace header): trace chaining is
  /// one dependent load away from dispatching, and everything the runner
  /// needs beyond the ops lives in the terminator op (charge, latch flag,
  /// inline-cache ordinal) or the already-resident span table (len for the
  /// budget check).  Acquire pairs with the release store in Promote so
  /// the ops and the referenced inline cache are safely published.
  [[nodiscard]] const TransOp* Ops(std::uint32_t entry) const noexcept {
    return slots_[entry].load(std::memory_order_acquire);
  }

  /// Baked inline cache by the ordinal a kTermJr/kTermJalr op carries in
  /// `aux`.  Fixed-capacity storage (one per translated trace at most), so
  /// concurrent Promote never moves entries under a reader.
  [[nodiscard]] const InlineCache& Ic(std::uint32_t ordinal) const noexcept {
    return ics_[ordinal];
  }

  /// Count one tier-2 dispatch of a not-yet-translated entry; true when
  /// the cumulative count just crossed the promotion threshold.
  [[nodiscard]] bool CountDispatch(std::uint32_t entry) noexcept {
    return hot_[entry].fetch_add(1, std::memory_order_relaxed) + 1 ==
           kPromoteThreshold;
  }

  /// Record an observed jr/jalr successor while the trace still runs in
  /// tier 2.  Lock-free; no-op for entries without an indirect terminator.
  void ObserveIndirect(std::uint32_t entry, std::uint32_t target) noexcept;

  [[nodiscard]] std::uint32_t translated_count() const noexcept {
    return translated_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t translated_bytes() const noexcept {
    return translated_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend void Promote(const PredecodedProgram& pre, std::uint32_t entry);
  friend TransTrace BuildTrace(const PredecodedProgram& pre,
                               std::uint32_t entry);

  /// Per-way observed (target, count) pairs for one indirect terminator.
  struct IcObs {
    std::array<std::atomic<std::uint32_t>, kObsWays> target{};
    std::array<std::atomic<std::uint32_t>, kObsWays> count{};
    std::atomic<std::uint32_t> overflow{0};
  };

  std::vector<std::atomic<const TransOp*>> slots_;
  std::vector<std::atomic<std::uint32_t>> hot_;
  /// Inline caches referenced by terminator `aux` ordinals.  At most one
  /// per translated trace, so kMaxTraces slots never fill; allocation is
  /// guarded by promote_mutex_, reads are wait-free.
  std::unique_ptr<InlineCache[]> ics_;
  std::uint32_t ic_count_ = 0;
  /// obs_index_[entry] indexes obs_, UINT32_MAX for traces whose
  /// terminator is not indirect (sized at construction, never resized).
  std::vector<std::uint32_t> obs_index_;
  std::vector<IcObs> obs_;

  std::mutex promote_mutex_;
  std::vector<std::unique_ptr<const TransTrace>> owned_;
  std::atomic<std::uint32_t> translated_count_{0};
  std::atomic<std::size_t> translated_bytes_{0};
};

/// Translate `entry`'s trace and publish it in the bank (no-op when the
/// slot is already filled or the cap is reached).  Called from the run
/// loop when CountDispatch crosses the threshold; thread-safe.
void Promote(const PredecodedProgram& pre, std::uint32_t entry);

/// Pure specializer (exposed for tests): fuse the trace at `entry` into a
/// TransTrace, baking the inline cache from `bank`'s observations.
[[nodiscard]] TransTrace BuildTrace(const PredecodedProgram& pre,
                                    std::uint32_t entry);

/// Fold one run's tier-3 tallies into the process-wide sim.translate.*
/// counters (called at every run exit, not per trace).
void AddRunStats(std::uint64_t entered, std::uint64_t indirect_chain_hits,
                 std::uint64_t indirect_chain_misses) noexcept;

/// Process-monotonic totals backing SharedBlockCache::Stats.
struct Totals {
  std::uint64_t promotions = 0;
  std::uint64_t capped = 0;       ///< promotions rejected at kMaxTraces
  std::uint64_t entered = 0;      ///< translated trace executions
  std::uint64_t indirect_chain_hits = 0;    ///< indirect exits chained (IC)
  std::uint64_t indirect_chain_misses = 0;  ///< indirect exits that fell back
};
[[nodiscard]] Totals GlobalTotals() noexcept;

}  // namespace b2h::mips::translate
