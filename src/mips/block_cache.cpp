#include "mips/block_cache.hpp"

#include "mips/binary.hpp"

namespace b2h::mips {

std::uint64_t CycleModel::CyclesFor(Op op, bool taken) const noexcept {
  std::uint64_t cycles = base;
  if (IsLoad(op)) cycles += load_extra;
  if (op == Op::kMult || op == Op::kMultu) cycles += mult_extra;
  if (op == Op::kDiv || op == Op::kDivu) cycles += div_extra;
  if ((IsBranch(op) && taken) || IsDirectJump(op) || IsIndirectJump(op)) {
    cycles += taken_extra;
  }
  return cycles;
}

namespace {

std::uint8_t DestRegister(const Instr& in) {
  switch (in.op) {
    // R-type writers.
    case Op::kSll: case Op::kSrl: case Op::kSra:
    case Op::kSllv: case Op::kSrlv: case Op::kSrav:
    case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
    case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
    case Op::kSlt: case Op::kSltu:
    case Op::kMfhi: case Op::kMflo:
    case Op::kJalr:
      return in.rd;
    // I-type writers.
    case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu:
    case Op::kAndi: case Op::kOri: case Op::kXori: case Op::kLui:
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      return in.rt;
    case Op::kJal:
      return kRa;
    default:
      return 0;
  }
}

std::uint8_t MemSize(Op op) {
  switch (op) {
    case Op::kLw: case Op::kSw: return 4;
    case Op::kLh: case Op::kLhu: case Op::kSh: return 2;
    case Op::kLb: case Op::kLbu: case Op::kSb: return 1;
    default: return 0;
  }
}

/// Hard-terminator classification; conditional branches are SideExits, not
/// terminators, and must be handled before calling this.
TermKind TermKindOf(Op op) {
  switch (op) {
    case Op::kJ: return TermKind::kJump;
    case Op::kJal: return TermKind::kJal;
    case Op::kJr: return TermKind::kJr;
    case Op::kJalr: return TermKind::kJalr;
    default: return TermKind::kFallthrough;
  }
}

}  // namespace

BlockCache::BlockCache(std::span<const Instr> decoded,
                       const std::vector<bool>& decode_ok,
                       const CycleModel& model) {
  const std::size_t n = decoded.size();
  instrs_.resize(n);
  spans_.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    if (!decode_ok[i]) continue;  // span stays {len=0}: fault on entry
    const Instr& in = decoded[i];
    const std::uint32_t pc = kTextBase + static_cast<std::uint32_t>(i) * 4u;
    PreInstr& m = instrs_[i];
    m.op = in.op;
    m.rs = in.rs;
    m.rt = in.rt;
    m.dest = DestRegister(in);
    m.shamt = in.shamt;
    m.mem_size = MemSize(in.op);
    m.imm = in.imm;
    if (IsBranch(in.op)) {
      m.target = BranchTarget(pc, in);
    } else if (IsDirectJump(in.op)) {
      m.target = JumpTarget(pc, in);
    }
    // Static cost: everything CyclesFor charges except a conditional
    // branch's taken_extra (jumps always pay it, so it folds in here).
    m.cycles = static_cast<std::uint32_t>(
        model.CyclesFor(in.op, /*taken=*/false));
  }

  // Traces, by forward walk from every decodable entry: extend across
  // conditional branches (recording a SideExit each) until a jump, an
  // undecodable word, the end of text, or the kMaxTraceLen cap.  Spans
  // overlap freely — each entry owns a full trace and its own side-exit
  // slice, so per-(entry, exit) execution counters are a flat array.
  for (std::size_t i = 0; i < n; ++i) {
    if (!decode_ok[i]) continue;  // span stays {len=0}: fault on entry
    BlockSpan& span = spans_[i];
    span.exit_begin = static_cast<std::uint32_t>(exits_.size());
    std::uint64_t cycles = 0;
    std::size_t j = i;
    while (true) {
      if (j == n || !decode_ok[j]) {
        // Runs off the decodable text: the fall-through pc faults at the
        // top of the engine loop ("undecodable instruction" / "pc outside
        // text segment"), exactly as the reference engine would.
        span.term = TermKind::kFallthrough;
        break;
      }
      const PreInstr& m = instrs_[j];
      cycles += m.cycles;
      const std::uint32_t pc = kTextBase + static_cast<std::uint32_t>(j) * 4u;
      if (IsBranch(m.op)) {
        exits_.push_back({static_cast<std::uint32_t>(j - i),
                          static_cast<std::uint32_t>(cycles),
                          m.target < pc});
      } else {
        const TermKind kind = TermKindOf(m.op);
        if (kind != TermKind::kFallthrough) {
          span.term = kind;
          span.backward_latch = kind == TermKind::kJump && m.target < pc;
          ++j;
          break;
        }
      }
      ++j;
      if (j - i == kMaxTraceLen) {
        span.term = TermKind::kFallthrough;
        break;
      }
    }
    span.len = static_cast<std::uint32_t>(j - i);
    span.cycles = cycles;
    span.exit_count =
        static_cast<std::uint32_t>(exits_.size()) - span.exit_begin;
  }
}

}  // namespace b2h::mips
