#include "synth/rtl_sim.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "support/bits.hpp"

namespace b2h::synth {
namespace {

using ir::Opcode;

/// Cycle budget of one Run: a region that has not returned by then fails.
constexpr std::uint64_t kMaxFsmCycles = 500'000'000;

}  // namespace

RtlSimulator::RtlSimulator(const HwRegion& region,
                           const RegionSchedule& schedule,
                           std::span<const std::uint8_t> initial_data)
    : region_(region), schedule_(schedule), memory_(initial_data) {}

std::uint32_t RtlSimulator::PeekWord(std::uint32_t addr) const {
  const std::uint8_t* p = memory_.At(addr, 4);
  Check(p != nullptr, "RtlSimulator::PeekWord outside memory");
  std::uint32_t value;
  std::memcpy(&value, p, 4);
  return value;
}

RtlResult RtlSimulator::Run(
    const std::map<const ir::Instr*, std::int32_t>& live_in_values,
    const std::map<unsigned, std::int32_t>& inputs) {
  RtlResult result;
  const auto fail = [&](const std::string& message) {
    result.ok = false;
    result.error = message;
    return result;
  };

  // Register file: values produced by instructions.  Availability tracking
  // enforces schedule legality during execution.
  std::unordered_map<const ir::Instr*, std::int32_t> values;
  for (const auto& [instr, value] : live_in_values) values[instr] = value;

  const ir::Block* block = region_.blocks.front();
  const ir::Block* prev_block = nullptr;

  while (true) {
    if (result.fsm_cycles >= kMaxFsmCycles) {
      return fail("rtl: cycle budget exhausted");
    }
    const BlockSchedule* bs = schedule_.ForBlock(block);
    if (bs == nullptr) return fail("rtl: control left the region unexpectedly");

    // Phi update at block entry (parallel register load).
    if (!block->instrs.empty() &&
        block->instrs.front()->op == Opcode::kPhi) {
      std::vector<std::pair<const ir::Instr*, std::int32_t>> staged;
      for (const ir::Instr* phi : block->Phis()) {
        std::size_t index = SIZE_MAX;
        if (prev_block != nullptr) {
          for (std::size_t i = 0; i < block->preds.size(); ++i) {
            if (block->preds[i] == prev_block) {
              index = i;
              break;
            }
          }
        } else {
          // Region entry: use the (unique) predecessor outside the region.
          for (std::size_t i = 0; i < block->preds.size(); ++i) {
            if (!region_.Contains(block->preds[i])) {
              index = i;
              break;
            }
          }
        }
        if (index == SIZE_MAX || index >= phi->operands.size()) {
          return fail("rtl: unresolved phi input");
        }
        const ir::Value& operand = phi->operands[index];
        std::int32_t value = 0;
        if (operand.is_const()) {
          value = operand.imm;
        } else {
          const auto it = values.find(operand.def);
          if (it == values.end()) return fail("rtl: phi reads unknown value");
          value = it->second;
        }
        staged.emplace_back(phi, value);
      }
      for (const auto& [phi, value] : staged) values[phi] = value;
    }

    // Execute body ops in (step, chain position) order.
    std::vector<const ir::Instr*> order;
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == Opcode::kPhi || instr->is_terminator()) continue;
      order.push_back(instr);
    }
    std::sort(order.begin(), order.end(),
              [&](const ir::Instr* a, const ir::Instr* b) {
                const int sa = bs->step_of.at(a);
                const int sb = bs->step_of.at(b);
                if (sa != sb) return sa < sb;
                return bs->chain_pos.at(a) < bs->chain_pos.at(b);
              });

    const auto read = [&](const ir::Value& operand,
                          std::int32_t& out) -> bool {
      if (operand.is_const()) {
        out = operand.imm;
        return true;
      }
      const auto it = values.find(operand.def);
      if (it == values.end()) {
        // kInput ports of function regions.
        if (operand.def->op == Opcode::kInput) {
          const auto in = inputs.find(operand.def->input_index);
          out = in == inputs.end() ? 0 : in->second;
          return true;
        }
        if (operand.def->op == Opcode::kUndef) {
          out = 0;
          return true;
        }
        return false;
      }
      out = it->second;
      return true;
    };

    for (const ir::Instr* instr : order) {
      std::int32_t a = 0;
      std::int32_t b = 0;
      std::int32_t c = 0;
      if (!instr->operands.empty() && !read(instr->operands[0], a)) {
        return fail("rtl: operand not yet available (schedule bug)");
      }
      if (instr->operands.size() > 1 && !read(instr->operands[1], b)) {
        return fail("rtl: operand not yet available (schedule bug)");
      }
      if (instr->operands.size() > 2 && !read(instr->operands[2], c)) {
        return fail("rtl: operand not yet available (schedule bug)");
      }
      const auto ua = static_cast<std::uint32_t>(a);
      const auto ub = static_cast<std::uint32_t>(b);
      std::int32_t out = 0;
      switch (instr->op) {
        case Opcode::kInput: {
          const auto in = inputs.find(instr->input_index);
          out = in == inputs.end() ? 0 : in->second;
          break;
        }
        case Opcode::kConst: out = instr->imm; break;
        case Opcode::kUndef: out = 0; break;
        case Opcode::kAdd: out = static_cast<std::int32_t>(ua + ub); break;
        case Opcode::kSub: out = static_cast<std::int32_t>(ua - ub); break;
        case Opcode::kMul: out = static_cast<std::int32_t>(ua * ub); break;
        case Opcode::kMulHiS:
          out = static_cast<std::int32_t>(
              (static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b)) >>
              32);
          break;
        case Opcode::kMulHiU:
          out = static_cast<std::int32_t>(
              (static_cast<std::uint64_t>(ua) *
               static_cast<std::uint64_t>(ub)) >> 32);
          break;
        case Opcode::kDivS:
          out = b == 0 ? 0 : (a == INT32_MIN && b == -1) ? INT32_MIN : a / b;
          break;
        case Opcode::kDivU:
          out = b == 0 ? 0 : static_cast<std::int32_t>(ua / ub);
          break;
        case Opcode::kRemS:
          out = b == 0 ? a : (a == INT32_MIN && b == -1) ? 0 : a % b;
          break;
        case Opcode::kRemU:
          out = b == 0 ? a : static_cast<std::int32_t>(ua % ub);
          break;
        case Opcode::kAnd: out = static_cast<std::int32_t>(ua & ub); break;
        case Opcode::kOr:  out = static_cast<std::int32_t>(ua | ub); break;
        case Opcode::kXor: out = static_cast<std::int32_t>(ua ^ ub); break;
        case Opcode::kNor: out = static_cast<std::int32_t>(~(ua | ub)); break;
        case Opcode::kShl: out = static_cast<std::int32_t>(ua << (ub & 31u)); break;
        case Opcode::kShrL: out = static_cast<std::int32_t>(ua >> (ub & 31u)); break;
        case Opcode::kShrA: out = a >> (ub & 31u); break;
        case Opcode::kEq:  out = a == b; break;
        case Opcode::kNe:  out = a != b; break;
        case Opcode::kLtS: out = a < b; break;
        case Opcode::kLtU: out = ua < ub; break;
        case Opcode::kLeS: out = a <= b; break;
        case Opcode::kLeU: out = ua <= ub; break;
        case Opcode::kGtS: out = a > b; break;
        case Opcode::kGtU: out = ua > ub; break;
        case Opcode::kGeS: out = a >= b; break;
        case Opcode::kGeU: out = ua >= ub; break;
        case Opcode::kSelect: out = a != 0 ? b : c; break;
        case Opcode::kSExt: out = SignExtend(ua, instr->ext_from); break;
        case Opcode::kZExt:
          out = static_cast<std::int32_t>(ua & LowMask(instr->ext_from));
          break;
        case Opcode::kTrunc:
          out = static_cast<std::int32_t>(ua & LowMask(instr->width));
          break;
        case Opcode::kLoad: {
          const unsigned size = instr->mem_bytes;
          std::uint8_t* p = memory_.At(ua, size);
          if (p == nullptr || (ua & (size - 1)) != 0) {
            return fail("rtl: bad load address");
          }
          std::uint32_t raw = 0;
          for (unsigned i = 0; i < size; ++i) {
            raw |= static_cast<std::uint32_t>(p[i]) << (8 * i);
          }
          out = size < 4 ? (instr->mem_signed
                                ? SignExtend(raw, size * 8)
                                : static_cast<std::int32_t>(raw))
                         : static_cast<std::int32_t>(raw);
          break;
        }
        case Opcode::kStore: {
          const unsigned size = instr->mem_bytes;
          std::uint8_t* p = memory_.At(ua, size);
          if (p == nullptr || (ua & (size - 1)) != 0) {
            return fail("rtl: bad store address");
          }
          for (unsigned i = 0; i < size; ++i) {
            p[i] = static_cast<std::uint8_t>((ub >> (8 * i)) & 0xFFu);
          }
          break;
        }
        case Opcode::kPhi:
        case Opcode::kBr:
        case Opcode::kCondBr:
        case Opcode::kRet:
        case Opcode::kCall:
          return fail("rtl: unexpected op in datapath order");
      }
      if (instr->width > 0) {
        // Registers are sized to the claimed width.
        if (instr->width < 32) {
          const auto raw = static_cast<std::uint32_t>(out);
          out = instr->is_signed
                    ? SignExtend(raw, instr->width)
                    : static_cast<std::int32_t>(raw & LowMask(instr->width));
        }
        values[instr] = out;
      }
    }

    result.fsm_cycles += static_cast<std::uint64_t>(bs->num_steps);

    // Terminator: FSM transition.
    const ir::Instr* term = block->terminator();
    const ir::Block* next = nullptr;
    if (term->op == Opcode::kRet) {
      if (!term->operands.empty()) {
        std::int32_t value = 0;
        if (!read(term->operands[0], value)) {
          return fail("rtl: ret reads unknown value");
        }
        result.return_value = value;
      }
      break;
    }
    if (term->op == Opcode::kBr) {
      next = term->target0;
    } else if (term->op == Opcode::kCondBr) {
      std::int32_t cond = 0;
      if (!read(term->operands[0], cond)) {
        return fail("rtl: branch reads unknown value");
      }
      next = cond != 0 ? term->target0 : term->target1;
    } else {
      return fail("rtl: bad terminator");
    }
    if (!region_.Contains(next)) break;  // region exit -> done
    prev_block = block;
    block = next;
  }

  for (const ir::Instr* out : region_.live_outs) {
    const auto it = values.find(out);
    if (it != values.end()) result.live_out_values[out] = it->second;
  }
  result.ok = true;
  return result;
}

}  // namespace b2h::synth
