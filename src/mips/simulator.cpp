#include "mips/simulator.hpp"

#include <array>
#include <cstring>
#include <sstream>

#include "obs/obs.hpp"
#include "support/bits.hpp"
#include "support/error.hpp"

namespace b2h::mips {

namespace {

/// Tracing for a whole simulated run: engine + throughput args attach when
/// the tracer is on; when off this is one relaxed atomic load per Run.
void FinishRunSpan(obs::ScopedSpan& span, ExecEngine engine,
                   const RunResult& result) {
  if (!span.armed()) return;
  const double ms = span.Millis();
  span.Arg("engine", engine == ExecEngine::kReference ? "reference" : "block")
      .Arg("instructions", result.instructions)
      .Arg("instr_per_sec",
           ms > 0.0 ? static_cast<double>(result.instructions) * 1e3 / ms
                    : 0.0);
}

}  // namespace

Simulator::Simulator(const SoftBinary& binary, CycleModel model,
                     ExecEngine engine)
    : binary_(binary),
      model_(model),
      engine_(engine),
      pre_(SharedBlockCache::Global().Obtain(binary, model)),
      memory_(binary.data) {}

std::uint32_t Simulator::PeekWord(std::uint32_t addr) const {
  const std::uint8_t* p = MemPtr(addr, 4);
  Check(p != nullptr, "PeekWord: address outside memory");
  std::uint32_t value;
  std::memcpy(&value, p, 4);
  return value;
}

void Simulator::PokeWord(std::uint32_t addr, std::uint32_t value) {
  std::uint8_t* p = MemPtr(addr, 4);
  Check(p != nullptr, "PokeWord: address outside memory");
  std::memcpy(p, &value, 4);
}

// ---------------------------------------------------------------------------
// The trace run loop.  Its body lives in exec_block_body.inc, with the op
// semantics in exec_ops.inc.
// ---------------------------------------------------------------------------

template <bool kInstrumented>
RunResult Simulator::ExecBlock(std::span<const std::int32_t> args,
                               std::uint64_t max_instructions,
                               RunObserver* observer) {
#include "mips/exec_block_body.inc"
}

template <bool kInstrumented>
RunResult Simulator::ExecReference(std::span<const std::int32_t> args,
                                   std::uint64_t max_instructions,
                                   RunObserver* observer) {
  RunResult result = TakeRecycle();
  result.profile.instr_count.assign(binary_.text.size(), 0);
  result.profile.cycle_count.assign(binary_.text.size(), 0);
  result.profile.branch_taken.assign(binary_.text.size(), 0);
  result.profile.branch_not_taken.assign(binary_.text.size(), 0);

  const std::vector<Instr>& decoded = pre_->decoded;
  const std::vector<bool>& decode_ok = pre_->decode_ok;

  std::array<std::int32_t, 32> regs{};
  std::int32_t hi = 0;
  std::int32_t lo = 0;
  regs[kSp] = static_cast<std::int32_t>(kStackTop - 64);
  regs[kRa] = static_cast<std::int32_t>(kHaltAddress);
  for (std::size_t i = 0; i < args.size() && i < 4; ++i) {
    regs[kA0 + i] = args[i];
  }

  std::uint32_t pc = binary_.entry;
  // Latch-event batch buffer (one observer call per kBranchBatch events or
  // per kFlushIntervalInstrs instructions, whichever comes first).
  [[maybe_unused]] std::array<BranchEvent, kBranchBatch> events;
  [[maybe_unused]] std::size_t event_count = 0;
  [[maybe_unused]] std::uint64_t next_flush_at = kFlushIntervalInstrs;
  const auto flush_events = [&] {
    if constexpr (kInstrumented) {
      if (event_count > 0) {
        result.profile.total_instructions = result.instructions;
        result.profile.total_cycles = result.cycles;
        observer->OnBackwardBranches({events.data(), event_count}, result);
        event_count = 0;
      }
      next_flush_at = result.instructions + kFlushIntervalInstrs;
    }
  };
  const auto fault = [&](const std::string& message) {
    flush_events();
    result.reason = HaltReason::kFault;
    std::ostringstream out;
    out << "fault at pc=0x" << std::hex << pc << ": " << message;
    result.fault_message = out.str();
    result.profile.total_instructions = result.instructions;
    result.profile.total_cycles = result.cycles;
    return result;
  };

  while (result.instructions < max_instructions) {
    if (pc == kHaltAddress) {
      flush_events();
      result.reason = HaltReason::kReturned;
      result.return_value = regs[kV0];
      result.profile.total_instructions = result.instructions;
      result.profile.total_cycles = result.cycles;
      return result;
    }
    if (!binary_.ContainsText(pc)) return fault("pc outside text segment");
    const std::size_t index = (pc - kTextBase) / 4u;
    if (!decode_ok[index]) return fault("undecodable instruction");
    const Instr& in = decoded[index];

    std::uint32_t next_pc = pc + 4;
    bool taken = false;
    const auto rs = static_cast<std::uint32_t>(regs[in.rs]);
    const auto rt = static_cast<std::uint32_t>(regs[in.rt]);
    const auto srs = regs[in.rs];
    const auto srt = regs[in.rt];
    std::int32_t write_value = 0;
    std::uint8_t write_reg = 0;  // 0 = no write ($zero is never written)

    switch (in.op) {
      case Op::kSll:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rt << in.shamt); break;
      case Op::kSrl:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rt >> in.shamt); break;
      case Op::kSra:  write_reg = in.rd; write_value = srt >> in.shamt; break;
      case Op::kSllv: write_reg = in.rd; write_value = static_cast<std::int32_t>(rt << (rs & 31u)); break;
      case Op::kSrlv: write_reg = in.rd; write_value = static_cast<std::int32_t>(rt >> (rs & 31u)); break;
      case Op::kSrav: write_reg = in.rd; write_value = srt >> (rs & 31u); break;
      case Op::kAdd: case Op::kAddu:
        write_reg = in.rd; write_value = static_cast<std::int32_t>(rs + rt); break;
      case Op::kSub: case Op::kSubu:
        write_reg = in.rd; write_value = static_cast<std::int32_t>(rs - rt); break;
      case Op::kAnd:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rs & rt); break;
      case Op::kOr:   write_reg = in.rd; write_value = static_cast<std::int32_t>(rs | rt); break;
      case Op::kXor:  write_reg = in.rd; write_value = static_cast<std::int32_t>(rs ^ rt); break;
      case Op::kNor:  write_reg = in.rd; write_value = static_cast<std::int32_t>(~(rs | rt)); break;
      case Op::kSlt:  write_reg = in.rd; write_value = srs < srt ? 1 : 0; break;
      case Op::kSltu: write_reg = in.rd; write_value = rs < rt ? 1 : 0; break;
      case Op::kMfhi: write_reg = in.rd; write_value = hi; break;
      case Op::kMflo: write_reg = in.rd; write_value = lo; break;
      case Op::kMthi: hi = srs; break;
      case Op::kMtlo: lo = srs; break;
      case Op::kMult: {
        const std::int64_t product =
            static_cast<std::int64_t>(srs) * static_cast<std::int64_t>(srt);
        lo = static_cast<std::int32_t>(product & 0xFFFF'FFFF);
        hi = static_cast<std::int32_t>(product >> 32);
        break;
      }
      case Op::kMultu: {
        const std::uint64_t product =
            static_cast<std::uint64_t>(rs) * static_cast<std::uint64_t>(rt);
        lo = static_cast<std::int32_t>(product & 0xFFFF'FFFF);
        hi = static_cast<std::int32_t>(product >> 32);
        break;
      }
      case Op::kDiv:
        if (srt == 0) {
          lo = 0; hi = srs;
        } else if (srs == INT32_MIN && srt == -1) {
          lo = INT32_MIN; hi = 0;
        } else {
          lo = srs / srt; hi = srs % srt;
        }
        break;
      case Op::kDivu:
        if (rt == 0) {
          lo = 0; hi = srs;
        } else {
          lo = static_cast<std::int32_t>(rs / rt);
          hi = static_cast<std::int32_t>(rs % rt);
        }
        break;
      case Op::kAddi: case Op::kAddiu:
        write_reg = in.rt;
        write_value = static_cast<std::int32_t>(rs + static_cast<std::uint32_t>(in.imm));
        break;
      case Op::kSlti:  write_reg = in.rt; write_value = srs < in.imm ? 1 : 0; break;
      case Op::kSltiu:
        write_reg = in.rt;
        write_value = rs < static_cast<std::uint32_t>(in.imm) ? 1 : 0;
        break;
      case Op::kAndi: write_reg = in.rt; write_value = static_cast<std::int32_t>(rs & static_cast<std::uint32_t>(in.imm)); break;
      case Op::kOri:  write_reg = in.rt; write_value = static_cast<std::int32_t>(rs | static_cast<std::uint32_t>(in.imm)); break;
      case Op::kXori: write_reg = in.rt; write_value = static_cast<std::int32_t>(rs ^ static_cast<std::uint32_t>(in.imm)); break;
      case Op::kLui:  write_reg = in.rt; write_value = static_cast<std::int32_t>(static_cast<std::uint32_t>(in.imm) << 16); break;
      case Op::kLb: case Op::kLbu: case Op::kLh: case Op::kLhu: case Op::kLw: {
        const std::uint32_t addr = rs + static_cast<std::uint32_t>(in.imm);
        const unsigned size = in.op == Op::kLw ? 4 : (in.op == Op::kLh || in.op == Op::kLhu) ? 2 : 1;
        if ((addr & (size - 1)) != 0) return fault("unaligned load");
        // Word loads from .text are allowed (jump tables / constant pools).
        std::uint32_t raw = 0;
        if (in.op == Op::kLw && binary_.ContainsText(addr)) {
          raw = binary_.WordAt(addr);
        } else {
          const std::uint8_t* p = MemPtr(addr, size);
          if (p == nullptr) return fault("load outside memory");
          for (unsigned b = 0; b < size; ++b) raw |= static_cast<std::uint32_t>(p[b]) << (8 * b);
        }
        write_reg = in.rt;
        switch (in.op) {
          case Op::kLb:  write_value = SignExtend(raw, 8); break;
          case Op::kLbu: write_value = static_cast<std::int32_t>(raw & 0xFFu); break;
          case Op::kLh:  write_value = SignExtend(raw, 16); break;
          case Op::kLhu: write_value = static_cast<std::int32_t>(raw & 0xFFFFu); break;
          default:       write_value = static_cast<std::int32_t>(raw); break;
        }
        break;
      }
      case Op::kSb: case Op::kSh: case Op::kSw: {
        const std::uint32_t addr = rs + static_cast<std::uint32_t>(in.imm);
        const unsigned size = in.op == Op::kSw ? 4 : in.op == Op::kSh ? 2 : 1;
        if ((addr & (size - 1)) != 0) return fault("unaligned store");
        std::uint8_t* p = MemPtr(addr, size);
        if (p == nullptr) return fault("store outside memory");
        for (unsigned b = 0; b < size; ++b) p[b] = static_cast<std::uint8_t>((rt >> (8 * b)) & 0xFFu);
        break;
      }
      case Op::kBeq:  taken = srs == srt; break;
      case Op::kBne:  taken = srs != srt; break;
      case Op::kBlez: taken = srs <= 0; break;
      case Op::kBgtz: taken = srs > 0; break;
      case Op::kBltz: taken = srs < 0; break;
      case Op::kBgez: taken = srs >= 0; break;
      case Op::kJ:    next_pc = JumpTarget(pc, in); break;
      case Op::kJal:
        write_reg = kRa;
        write_value = static_cast<std::int32_t>(pc + 4);
        next_pc = JumpTarget(pc, in);
        break;
      case Op::kJr:   next_pc = rs; break;
      case Op::kJalr:
        write_reg = in.rd;
        write_value = static_cast<std::int32_t>(pc + 4);
        next_pc = rs;
        break;
      case Op::kInvalid:
        return fault("invalid instruction");
    }

    if (IsBranch(in.op)) {
      if (taken) {
        next_pc = BranchTarget(pc, in);
        ++result.profile.branch_taken[index];
      } else {
        ++result.profile.branch_not_taken[index];
      }
    }
    if (write_reg != 0) regs[write_reg] = write_value;

    const std::uint64_t cycles = model_.CyclesFor(in.op, taken);
    ++result.profile.instr_count[index];
    result.profile.cycle_count[index] += cycles;
    ++result.instructions;
    result.cycles += cycles;
    if constexpr (kInstrumented) {
      // Loop-latch observation: a taken conditional branch or direct j to a
      // lower address.  jal/jr/jalr (calls and returns) never trigger.
      // `taken` is only ever set by conditional-branch opcodes, so it
      // subsumes the IsBranch() test — no out-of-line call on this path.
      if (next_pc < pc && (taken || in.op == Op::kJ)) [[unlikely]] {
        events[event_count++] = {next_pc, pc};
        if (event_count == kBranchBatch ||
            result.instructions >= next_flush_at) {
          flush_events();
        }
      }
    }
    pc = next_pc;
  }
  flush_events();
  result.reason = HaltReason::kMaxInstructions;
  result.fault_message = "instruction budget exhausted";
  result.profile.total_instructions = result.instructions;
  result.profile.total_cycles = result.cycles;
  return result;
}

RunResult Simulator::TakeRecycle() noexcept {
  RunResult result = std::move(recycle_);
  result.return_value = 0;
  result.instructions = 0;
  result.cycles = 0;
  result.reason = HaltReason::kFault;
  result.fault_message.clear();
  result.profile.total_instructions = 0;
  result.profile.total_cycles = 0;
  return result;
}

RunResult Simulator::Run(std::span<const std::int32_t> args,
                         std::uint64_t max_instructions, RunResult&& recycle) {
  recycle_ = std::move(recycle);
  return Run(args, max_instructions);
}

template <bool kInstrumented>
RunResult Simulator::Exec(std::span<const std::int32_t> args,
                          std::uint64_t max_instructions,
                          RunObserver* observer) {
  if (engine_ == ExecEngine::kReference) {
    return ExecReference<kInstrumented>(args, max_instructions, observer);
  }
  return ExecBlock<kInstrumented>(args, max_instructions, observer);
}

RunResult Simulator::Run(std::span<const std::int32_t> args,
                         std::uint64_t max_instructions) {
  obs::ScopedSpan span("sim.run", "sim");
  RunResult result = Exec<false>(args, max_instructions, nullptr);
  FinishRunSpan(span, engine_, result);
  return result;
}

RunResult Simulator::RunInstrumented(std::span<const std::int32_t> args,
                                     std::uint64_t max_instructions,
                                     RunObserver* observer) {
  obs::ScopedSpan span("sim.run_instrumented", "sim");
  RunResult result = observer == nullptr
                         ? Exec<false>(args, max_instructions, nullptr)
                         : Exec<true>(args, max_instructions, observer);
  FinishRunSpan(span, engine_, result);
  return result;
}

}  // namespace b2h::mips
