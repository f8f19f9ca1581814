#include "mips/translate.hpp"

#include <cstdint>

#include "mips/binary.hpp"
#include "mips/shared_cache.hpp"
#include "obs/obs.hpp"

namespace b2h::mips::translate {

namespace {

/// Registry-backed metrics, resolved once (same idiom as the shared
/// block cache's CacheMetrics).
struct TranslateMetrics {
  obs::Counter& promotions;
  obs::Counter& capped;
  obs::Counter& entered;
  obs::Counter& indirect_chain_hits;
  obs::Counter& indirect_chain_misses;

  static TranslateMetrics& Get() {
    auto& registry = obs::Registry::Global();
    static TranslateMetrics metrics{
        registry.counter("sim.translate.promotions"),
        registry.counter("sim.translate.capped"),
        registry.counter("sim.translate.entered"),
        registry.counter("sim.translate.indirect_chain_hits"),
        registry.counter("sim.translate.indirect_chain_misses")};
    return metrics;
  }
};

/// ALU ops whose only architectural effect is a GPR write: with dest == 0
/// they are dead and the translator drops them (the trace-level accounting
/// still charges them via the original span length/cycles).
bool IsPureAluWrite(Op op) noexcept {
  switch (op) {
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kMfhi:
    case Op::kMflo:
    case Op::kAdd:
    case Op::kAddu:
    case Op::kSub:
    case Op::kSubu:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kAddi:
    case Op::kAddiu:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kLui:
      return true;
    default:
      return false;
  }
}

/// 1:1 translation for non-fused, non-branch, non-terminator ops.  kAdd/
/// kSub/kAddi trap variants share the wrapping semantics of the unsigned
/// forms in this simulator, so they collapse onto one handler each.
TOp PlainTOp(Op op) noexcept {
  switch (op) {
    case Op::kSll:   return TOp::kSll;
    case Op::kSrl:   return TOp::kSrl;
    case Op::kSra:   return TOp::kSra;
    case Op::kSllv:  return TOp::kSllv;
    case Op::kSrlv:  return TOp::kSrlv;
    case Op::kSrav:  return TOp::kSrav;
    case Op::kMfhi:  return TOp::kMfhi;
    case Op::kMthi:  return TOp::kMthi;
    case Op::kMflo:  return TOp::kMflo;
    case Op::kMtlo:  return TOp::kMtlo;
    case Op::kMult:  return TOp::kMult;
    case Op::kMultu: return TOp::kMultu;
    case Op::kDiv:   return TOp::kDiv;
    case Op::kDivu:  return TOp::kDivu;
    case Op::kAdd:
    case Op::kAddu:  return TOp::kAddu;
    case Op::kSub:
    case Op::kSubu:  return TOp::kSubu;
    case Op::kAnd:   return TOp::kAnd;
    case Op::kOr:    return TOp::kOr;
    case Op::kXor:   return TOp::kXor;
    case Op::kNor:   return TOp::kNor;
    case Op::kSlt:   return TOp::kSlt;
    case Op::kSltu:  return TOp::kSltu;
    case Op::kAddi:
    case Op::kAddiu: return TOp::kAddiu;
    case Op::kSlti:  return TOp::kSlti;
    case Op::kSltiu: return TOp::kSltiu;
    case Op::kAndi:  return TOp::kAndi;
    case Op::kOri:   return TOp::kOri;
    case Op::kXori:  return TOp::kXori;
    case Op::kLb:    return TOp::kLb;
    case Op::kLh:    return TOp::kLh;
    case Op::kLw:    return TOp::kLw;
    case Op::kLbu:   return TOp::kLbu;
    case Op::kLhu:   return TOp::kLhu;
    case Op::kSb:    return TOp::kSb;
    case Op::kSh:    return TOp::kSh;
    case Op::kSw:    return TOp::kSw;
    case Op::kBeq:   return TOp::kBeq;
    case Op::kBne:   return TOp::kBne;
    case Op::kBlez:  return TOp::kBlez;
    case Op::kBgtz:  return TOp::kBgtz;
    case Op::kBltz:  return TOp::kBltz;
    case Op::kBgez:  return TOp::kBgez;
    default:         return TOp::kTermFall;  // unreachable by construction
  }
}

/// beq/bne restricted to (reg, $zero) — the fusable shape.  Returns the
/// tested register, or 0 when the branch is not of that shape.
std::uint8_t ZeroComparedReg(const PreInstr& br) noexcept {
  if (br.op != Op::kBeq && br.op != Op::kBne) return 0;
  if (br.rs != 0 && br.rt == 0) return br.rs;
  if (br.rs == 0 && br.rt != 0) return br.rt;
  return 0;
}

}  // namespace

TranslationBank::TranslationBank(const BlockCache& blocks,
                                 std::size_t text_words)
    : slots_(text_words),
      hot_(text_words),
      ics_(new InlineCache[kMaxTraces]),
      obs_index_(text_words, UINT32_MAX) {
  const BlockSpan* const spans = blocks.spans();
  std::uint32_t n = 0;
  for (std::size_t i = 0; i < text_words; ++i) {
    if (spans[i].len != 0 && (spans[i].term == TermKind::kJr ||
                              spans[i].term == TermKind::kJalr)) {
      obs_index_[i] = n++;
    }
  }
  obs_ = std::vector<IcObs>(n);
}

void TranslationBank::ObserveIndirect(std::uint32_t entry,
                                      std::uint32_t target) noexcept {
  if (target == 0) return;
  const std::uint32_t oi = obs_index_[entry];
  if (oi == UINT32_MAX) return;
  IcObs& o = obs_[oi];
  for (unsigned w = 0; w < kObsWays; ++w) {
    std::uint32_t cur = o.target[w].load(std::memory_order_relaxed);
    if (cur == 0 &&
        !o.target[w].compare_exchange_strong(cur, target,
                                             std::memory_order_relaxed)) {
      // Lost the claim race; `cur` now holds the winner's target.
    }
    if (cur == 0 || cur == target) {
      o.count[w].fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  o.overflow.fetch_add(1, std::memory_order_relaxed);
}

TransTrace BuildTrace(const PredecodedProgram& pre, std::uint32_t entry) {
  const BlockCache& blocks = pre.blocks;
  const PreInstr* const mops = blocks.instrs();
  const SideExit* const exits = blocks.exits();
  const std::uint32_t taken_extra = pre.model.taken_extra;

  TransTrace out;
  out.entry = entry;
  out.len = blocks.spans()[entry].len;
  out.cycles = blocks.spans()[entry].cycles;
  out.ops.reserve(out.len + 1);

  // Static-successor inlining: a segment ending in an unconditional direct
  // transfer (fallthrough or `j`) splices its successor's ops into the
  // same stream behind a kLink seam, up to kInlineMaxInstrs original
  // instructions and never revisiting a segment (loops chain through the
  // dispatcher instead, so the budget and promotion checks still see
  // them).  Each segment keeps its own accounting identity — the seam
  // commits the predecessor exactly as its terminator would have — so
  // profiles stay bit-identical with unspliced execution.
  constexpr std::uint32_t kInlineMaxInstrs = 64;
  constexpr unsigned kInlineMaxSegments = 8;
  std::array<std::uint32_t, kInlineMaxSegments> visited{};
  unsigned visited_n = 0;
  std::uint32_t total_len = 0;

  std::uint32_t seg = entry;
  for (;;) {
  const BlockSpan& span = blocks.spans()[seg];
  const std::uint32_t entry_pc = kTextBase + 4u * seg;
  visited[visited_n++] = seg;
  total_len += span.len;

  // Number of original instructions that are ordinary ops: for jump-kind
  // terminators the last instruction becomes the terminator TransOp; a
  // fallthrough trace keeps all of them and appends a synthetic one.
  const bool jump_term = span.term != TermKind::kFallthrough;
  const std::uint32_t body_len = jump_term ? span.len - 1 : span.len;

  std::uint32_t exit_j = 0;  // side-exit ordinal of the next branch seen
  // Fill the branch fields shared by plain and fused branch ops.
  const auto bake_branch = [&](TransOp& op, std::uint32_t k) {
    const std::uint32_t slot = span.exit_begin + exit_j;
    const SideExit& se = exits[slot];
    op.off = static_cast<std::uint16_t>(k);
    op.aux = slot;
    op.charge = se.prefix_cycles + taken_extra;
    op.shamt = se.backward ? 1 : 0;
    op.target = mops[seg + k].target;
    ++exit_j;
  };

  for (std::uint32_t k = 0; k < body_len; ++k) {
    const PreInstr& in = mops[seg + k];

    // Dead pure-ALU write: no architectural effect, drop it.
    if (in.dest == 0 && IsPureAluWrite(in.op)) continue;

    const bool has_next = k + 1 < body_len;
    const PreInstr* next = has_next ? &mops[seg + k + 1] : nullptr;

    // lui d / {ori|addiu} d, d, imm  →  one constant store.
    if (in.op == Op::kLui && in.dest != 0) {
      const auto high =
          static_cast<std::uint32_t>(static_cast<std::uint32_t>(in.imm) << 16);
      if (next != nullptr && next->dest == in.dest && next->rs == in.dest &&
          (next->op == Op::kOri || next->op == Op::kAddiu ||
           next->op == Op::kAddi)) {
        TransOp op;
        op.op = TOp::kConst;
        op.dest = in.dest;
        op.off = static_cast<std::uint16_t>(k + 1);
        op.imm = static_cast<std::int32_t>(
            next->op == Op::kOri
                ? (high | static_cast<std::uint32_t>(next->imm))
                : (high + static_cast<std::uint32_t>(next->imm)));
        out.ops.push_back(op);
        ++k;
        continue;
      }
      TransOp op;
      op.op = TOp::kConst;
      op.dest = in.dest;
      op.off = static_cast<std::uint16_t>(k);
      op.imm = static_cast<std::int32_t>(high);
      out.ops.push_back(op);
      continue;
    }

    // slt-family d / {beq|bne} d, $zero  →  compare-and-branch (the
    // compare result is still written to d before the branch decides).
    if (in.dest != 0 &&
        (in.op == Op::kSlt || in.op == Op::kSltu || in.op == Op::kSlti ||
         in.op == Op::kSltiu) &&
        next != nullptr && ZeroComparedReg(*next) == in.dest) {
      const bool on_zero = next->op == Op::kBeq;  // beq d,$0: taken iff !cmp
      TransOp op;
      switch (in.op) {
        case Op::kSlt:
          op.op = on_zero ? TOp::kSltBeqz : TOp::kSltBnez;
          break;
        case Op::kSltu:
          op.op = on_zero ? TOp::kSltuBeqz : TOp::kSltuBnez;
          break;
        case Op::kSlti:
          op.op = on_zero ? TOp::kSltiBeqz : TOp::kSltiBnez;
          break;
        default:
          op.op = on_zero ? TOp::kSltiuBeqz : TOp::kSltiuBnez;
          break;
      }
      op.rs = in.rs;
      op.rt = in.rt;
      op.dest = in.dest;
      op.imm = in.imm;
      bake_branch(op, k + 1);
      out.ops.push_back(op);
      ++k;
      continue;
    }

    // addiu d / branch testing d  →  add-and-branch on the updated value.
    if (in.dest != 0 && (in.op == Op::kAddiu || in.op == Op::kAddi) &&
        next != nullptr) {
      TOp fused = TOp::kTermFall;
      if (const std::uint8_t z = ZeroComparedReg(*next);
          z == in.dest) {
        fused = next->op == Op::kBeq ? TOp::kAddiuBeqz : TOp::kAddiuBnez;
      } else if (next->rs == in.dest) {
        switch (next->op) {
          case Op::kBlez: fused = TOp::kAddiuBlez; break;
          case Op::kBgtz: fused = TOp::kAddiuBgtz; break;
          case Op::kBltz: fused = TOp::kAddiuBltz; break;
          case Op::kBgez: fused = TOp::kAddiuBgez; break;
          default: break;
        }
      }
      if (fused != TOp::kTermFall) {
        TransOp op;
        op.op = fused;
        op.rs = in.rs;
        op.dest = in.dest;
        op.imm = in.imm;
        bake_branch(op, k + 1);
        out.ops.push_back(op);
        ++k;
        continue;
      }
    }

    // andi d / sll d, d, shamt  →  one mask-and-scale op (the jump-table
    // index computation heading switch01/state02-shaped dispatch).
    if (in.op == Op::kAndi && in.dest != 0 && next != nullptr &&
        next->op == Op::kSll && next->dest == in.dest &&
        next->rt == in.dest) {
      TransOp op;
      op.op = TOp::kAndiSll;
      op.rs = in.rs;
      op.dest = in.dest;
      op.imm = in.imm;
      op.shamt = next->shamt;
      op.off = static_cast<std::uint16_t>(k + 1);
      out.ops.push_back(op);
      ++k;
      continue;
    }

    // kConst d just emitted / addu d, {d,s}  →  the add of a constant base
    // commutes into one add-immediate (la+addu of a jump-table base).  Any
    // ops between the two in the original text were dropped dead writes, so
    // the intermediate d==C state is unobservable (no faulting op between).
    if ((in.op == Op::kAddu || in.op == Op::kAdd) && in.dest != 0 &&
        !out.ops.empty() && out.ops.back().op == TOp::kConst &&
        out.ops.back().dest == in.dest) {
      const std::uint8_t other =
          in.rs == in.dest ? in.rt : (in.rt == in.dest ? in.rs : 0xFF);
      if (other != 0xFF && other != in.dest) {
        TransOp& prev = out.ops.back();
        prev.op = TOp::kAddiu;
        prev.rs = other;  // prev.imm already holds the constant base
        prev.off = static_cast<std::uint16_t>(k);
        continue;
      }
    }

    // Everything else translates 1:1.
    TransOp op;
    op.op = PlainTOp(in.op);
    op.rs = in.rs;
    op.rt = in.rt;
    op.dest = in.dest;
    op.shamt = in.shamt;
    op.mem_size = in.mem_size;
    op.imm = in.imm;
    op.target = in.target;
    op.off = static_cast<std::uint16_t>(k);
    if (IsBranch(in.op)) bake_branch(op, k);  // overwrites shamt/off/target
    out.ops.push_back(op);
  }

  // Unconditional direct transfer whose successor fits the splice budget:
  // emit a kLink seam and keep translating at the successor instead of
  // terminating the stream.
  if (span.term == TermKind::kFallthrough || span.term == TermKind::kJump) {
    const std::uint32_t succ_pc = span.term == TermKind::kFallthrough
                                      ? entry_pc + 4u * span.len
                                      : mops[seg + span.len - 1].target;
    const std::uint32_t succ = (succ_pc - kTextBase) / 4u;
    bool splice = succ_pc >= kTextBase && succ < pre.text.size() &&
                  blocks.spans()[succ].len != 0 &&
                  visited_n < kInlineMaxSegments &&
                  total_len + blocks.spans()[succ].len <= kInlineMaxInstrs;
    for (unsigned v = 0; splice && v < visited_n; ++v) {
      splice = visited[v] != succ;
    }
    if (splice) {
      TransOp link;
      link.op = TOp::kLink;
      link.off = static_cast<std::uint16_t>(span.len - 1);
      link.charge = static_cast<std::uint32_t>(span.cycles);
      link.shamt = span.backward_latch ? 1 : 0;
      link.target = succ_pc;
      link.imm = static_cast<std::int32_t>(succ);
      link.aux = blocks.spans()[succ].len;
      out.ops.push_back(link);
      seg = succ;
      continue;
    }
  }

  // Terminator op: carries the full-trace charge inline (off+1 original
  // instructions, `charge` = span.cycles) so the runner commits a complete
  // trace without touching the TransTrace header; `off` also positions the
  // latch event and fault mapping.  With spliced segments each kLink seam
  // played this role for its own segment, so the terminator charges only
  // the final one.
  TransOp term;
  term.off = static_cast<std::uint16_t>(span.len - 1);
  term.charge = static_cast<std::uint32_t>(span.cycles);
  term.shamt = span.backward_latch ? 1 : 0;
  switch (span.term) {
    case TermKind::kFallthrough:
      term.op = TOp::kTermFall;
      term.target = entry_pc + 4u * span.len;
      break;
    case TermKind::kJump:
      term.op = TOp::kTermJump;
      term.target = mops[seg + span.len - 1].target;
      break;
    case TermKind::kJal:
      term.op = TOp::kTermJal;
      term.dest = mops[seg + span.len - 1].dest;
      term.target = mops[seg + span.len - 1].target;
      term.imm = static_cast<std::int32_t>(entry_pc + 4u * (span.len - 1) + 4u);
      break;
    case TermKind::kJr:
      term.op = TOp::kTermJr;
      term.rs = mops[seg + span.len - 1].rs;
      break;
    case TermKind::kJalr:
      term.op = TOp::kTermJalr;
      term.rs = mops[seg + span.len - 1].rs;
      term.dest = mops[seg + span.len - 1].dest;
      term.imm = static_cast<std::int32_t>(entry_pc + 4u * (span.len - 1) + 4u);
      break;
  }

  // lw feeding the indirect terminator (`lw d ; jr d` — jump-table and
  // function-pointer dispatch; also the jalr form): fuse the load into the
  // terminator so the hottest seam of computed-dispatch code costs one
  // handler, not two.  kLw always translates 1:1 (never dropped or
  // consumed by another fusion), so ops.back() is that load.  The load
  // keeps its fault semantics: `off` stays at the load's offset, so the
  // demotion path charges only the instructions before it, and the
  // full-trace commit charges off+2.
  if ((term.op == TOp::kTermJr || term.op == TOp::kTermJalr) &&
      span.len >= 2 && !span.backward_latch && term.rs != 0 &&
      mops[seg + span.len - 2].op == Op::kLw &&
      mops[seg + span.len - 2].dest == term.rs) {
    const TransOp lw = out.ops.back();
    out.ops.pop_back();
    TransOp fused;
    fused.op = term.op == TOp::kTermJr ? TOp::kTermLwJr : TOp::kTermLwJalr;
    fused.rs = lw.rs;
    fused.rt = lw.dest;
    fused.imm = lw.imm;
    fused.dest = term.dest;  // jalr link register (0 for jr)
    fused.target = static_cast<std::uint32_t>(term.imm);  // precomputed link
    fused.off = lw.off;
    fused.charge = term.charge;
    term = fused;
  }
  out.ops.push_back(term);

  // Bake the inline cache from the tier-2 observations of the *final*
  // segment (its jr/jalr is the instruction the stream ends in): chainable
  // (in-text) targets ordered hottest-first.  More distinct chainable
  // targets than the cache holds — or overflow past the observation ways —
  // marks the exit megamorphic and it always yields to the dispatcher.
  if (span.term == TermKind::kJr || span.term == TermKind::kJalr) {
    const TranslationBank& bank = *pre.bank;
    const std::uint32_t oi = bank.obs_index_[seg];
    if (oi != UINT32_MAX) {
      const TranslationBank::IcObs& o = bank.obs_[oi];
      struct Way {
        std::uint32_t target;
        std::uint32_t count;
      };
      std::array<Way, TranslationBank::kObsWays> seen{};
      unsigned chainable = 0;
      for (unsigned w = 0; w < TranslationBank::kObsWays; ++w) {
        const std::uint32_t target =
            o.target[w].load(std::memory_order_relaxed);
        if (target == 0) continue;
        const std::uint32_t word = (target - kTextBase) / 4u;
        if (target < kTextBase || word >= pre.text.size()) continue;
        seen[chainable++] = {target, o.count[w].load(std::memory_order_relaxed)};
      }
      // Hottest first.  At most kObsWays entries, so a stable insertion
      // sort (std::sort's inlined introsort trips GCC 12 -Warray-bounds).
      for (unsigned i = 1; i < chainable; ++i) {
        const Way way = seen[i];
        unsigned j = i;
        for (; j > 0 && seen[j - 1].count < way.count; --j) {
          seen[j] = seen[j - 1];
        }
        seen[j] = way;
      }
      if (chainable > InlineCache::kWays ||
          o.overflow.load(std::memory_order_relaxed) != 0) {
        out.ic.megamorphic = true;
      } else {
        out.ic.ways = static_cast<std::uint8_t>(chainable);
        for (unsigned w = 0; w < chainable; ++w) {
          out.ic.target[w] = seen[w].target;
          out.ic.len[w] =
              blocks.spans()[(seen[w].target - kTextBase) / 4u].len;
        }
      }
    }
  }
  return out;
  }  // segment splice loop
}

void Promote(const PredecodedProgram& pre, std::uint32_t entry) {
  TranslationBank& bank = *pre.bank;
  const std::lock_guard<std::mutex> lock(bank.promote_mutex_);
  if (bank.slots_[entry].load(std::memory_order_relaxed) != nullptr) return;
  if (bank.translated_count_.load(std::memory_order_relaxed) >=
      TranslationBank::kMaxTraces) {
    // Hysteresis at the cap: the candidate re-earns the threshold before
    // the (always-failing) promotion path is probed again.
    bank.hot_[entry].store(0, std::memory_order_relaxed);
    TranslateMetrics::Get().capped.Add();
    return;
  }
  obs::ScopedSpan span("sim.translate.promote", "sim");
  TransTrace built = BuildTrace(pre, entry);
  span.Arg("entry", static_cast<std::uint64_t>(entry))
      .Arg("len", static_cast<std::uint64_t>(built.len))
      .Arg("ops", static_cast<std::uint64_t>(built.ops.size()))
      .Arg("ic_ways", static_cast<std::uint64_t>(built.ic.ways));
  // Indirect terminators reference their baked inline cache by ordinal
  // (fixed-capacity bank storage: at most one IC per trace, never moved
  // under a reader).  Patched before publication, immutable after.
  TransOp& term = built.ops.back();
  if (term.op == TOp::kTermJr || term.op == TOp::kTermJalr ||
      term.op == TOp::kTermLwJr || term.op == TOp::kTermLwJalr) {
    const std::uint32_t ordinal = bank.ic_count_++;
    bank.ics_[ordinal] = built.ic;
    term.aux = ordinal;
  }
  auto trace = std::make_unique<const TransTrace>(std::move(built));
  bank.translated_bytes_.fetch_add(trace->bytes(),
                                   std::memory_order_relaxed);
  const TransOp* const ops = trace->ops.data();
  bank.owned_.push_back(std::move(trace));
  bank.slots_[entry].store(ops, std::memory_order_release);
  bank.translated_count_.fetch_add(1, std::memory_order_relaxed);
  TranslateMetrics::Get().promotions.Add();
}

void AddRunStats(std::uint64_t entered, std::uint64_t indirect_chain_hits,
                 std::uint64_t indirect_chain_misses) noexcept {
  TranslateMetrics& metrics = TranslateMetrics::Get();
  if (entered != 0) metrics.entered.Add(entered);
  if (indirect_chain_hits != 0) {
    metrics.indirect_chain_hits.Add(indirect_chain_hits);
  }
  if (indirect_chain_misses != 0) {
    metrics.indirect_chain_misses.Add(indirect_chain_misses);
  }
}

Totals GlobalTotals() noexcept {
  TranslateMetrics& metrics = TranslateMetrics::Get();
  Totals t;
  t.promotions = metrics.promotions.Value();
  t.capped = metrics.capped.Value();
  t.entered = metrics.entered.Value();
  t.indirect_chain_hits = metrics.indirect_chain_hits.Value();
  t.indirect_chain_misses = metrics.indirect_chain_misses.Value();
  return t;
}

}  // namespace b2h::mips::translate
