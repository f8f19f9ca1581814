#include "synth/rtl_sim.hpp"

#include <optional>
#include <vector>

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

RtlResult RtlSimulator::Run(const std::map<unsigned, std::int32_t>& inputs) {
  RtlResult result;
  const auto fail = [&](const std::string& message) {
    result.ok = false;
    result.error = message;
    return result;
  };
  if (!region_.live_ins.empty()) {
    return fail("rtl: " + region_.name +
                " has live-in values and the model has no input ports");
  }

  // Each region block's schedule, indexed by Block::id (null outside the
  // region).
  std::vector<const BlockSchedule*> block_schedule(
      region_.function->blocks().size(), nullptr);
  for (const BlockSchedule& bs : schedule_.blocks) {
    block_schedule[bs.block->id] = &bs;
  }
  // Register file indexed by Instr::id: the values produced so far.
  // Availability tracking enforces schedule legality during execution.
  std::vector<std::optional<std::int32_t>> values(schedule_.steps.size());

  const ir::Block* block = region_.blocks.front();
  const ir::Block* prev_block = nullptr;

  while (true) {
    if (result.fsm_cycles >= kMaxFsmCycles) {
      return fail("rtl: cycle budget exhausted");
    }
    const BlockSchedule& bs = *block_schedule[block->id];

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
          const auto& produced = values[operand.def->id];
          if (!produced) return fail("rtl: phi reads unknown value");
          value = *produced;
        }
        staged.emplace_back(phi, value);
      }
      for (const auto& [phi, value] : staged) values[phi->id] = value;
    }

    const auto read = [&](const ir::Value& operand,
                          std::int32_t& out) -> bool {
      if (operand.is_const()) {
        out = operand.imm;
        return true;
      }
      const auto& produced = values[operand.def->id];
      if (!produced) {
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
      out = *produced;
      return true;
    };

    // Execute body ops step by step, a step's ops in issue (block) order.
    for (int step = 0; step < bs.num_steps; ++step) {
      for (const ir::Instr* instr : block->instrs) {
        if (schedule_.StepOf(instr) != step) continue;
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
            if (!memory_.Store(static_cast<std::uint32_t>(a),
                               instr->mem_bytes,
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
        if (instr->width > 0) values[instr->id] = ir::FitToWidth(*instr, out);
      }
    }

    result.fsm_cycles += static_cast<std::uint64_t>(bs.num_steps);

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
    if (block_schedule[next->id] == nullptr) break;  // region exit -> done
    prev_block = block;
    block = next;
  }
  result.ok = true;
  return result;
}

}  // namespace b2h::synth
