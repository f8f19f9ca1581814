#include "synth/rtl_sim.hpp"

#include <algorithm>
#include <unordered_map>

#include "ir/eval.hpp"

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
      if (!IsBodyOp(instr)) continue;
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
      std::int32_t operand[3] = {};
      for (std::size_t i = 0; i < instr->operands.size() && i < 3; ++i) {
        if (!read(instr->operands[i], operand[i])) {
          return fail("rtl: operand not yet available (schedule bug)");
        }
      }
      const auto [a, b, c] = operand;
      std::int32_t out = 0;
      switch (instr->op) {
        case Opcode::kInput: {
          const auto in = inputs.find(instr->input_index);
          out = in == inputs.end() ? 0 : in->second;
          break;
        }
        case Opcode::kUndef: break;
        case Opcode::kLoad: {
          const auto loaded = memory_.Load(static_cast<std::uint32_t>(a),
                                           instr->mem_bytes,
                                           instr->mem_signed);
          if (!loaded.has_value()) return fail("rtl: bad load address");
          out = *loaded;
          break;
        }
        case Opcode::kStore:
          if (!memory_.Store(static_cast<std::uint32_t>(a), instr->mem_bytes,
                             static_cast<std::uint32_t>(b))) {
            return fail("rtl: bad store address");
          }
          break;
        case Opcode::kPhi:
        case Opcode::kBr:
        case Opcode::kCondBr:
        case Opcode::kRet:
        case Opcode::kCall:
          return fail("rtl: unexpected op in datapath order");
        default:
          // Every other operator's value depends on its operands alone.
          out = ir::Evaluate(*instr, a, b, c).value();
          break;
      }
      // Registers are sized to the claimed width.
      if (instr->width > 0) values[instr] = ir::FitToWidth(*instr, out);
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
