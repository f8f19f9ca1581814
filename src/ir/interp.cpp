#include "ir/interp.hpp"

#include <array>
#include <optional>
#include <vector>

#include "ir/eval.hpp"

namespace b2h::ir {
namespace {

/// MIPS register numbers the call convention uses.
constexpr std::uint16_t kRegA0 = 4;
constexpr std::uint16_t kRegSp = 29;

}  // namespace

Interpreter::Interpreter(const Module& module,
                         std::span<const std::uint8_t> initial_data,
                         InterpOptions options)
    : module_(module), options_(options), memory_(initial_data) {}

InterpResult Interpreter::Run(std::span<const std::int32_t> args) {
  InterpResult result;
  if (module_.main == nullptr) {
    result.error = "module has no main";
    return result;
  }

  // Explicit call stack (recursion depth bounded only by memory).
  struct Activation {
    std::vector<std::optional<std::int32_t>> values;  ///< by Instr::id
    const Block* block = nullptr;
    const Block* prev_block = nullptr;
    std::size_t next_instr = 0;
    const Instr* pending_call = nullptr;  // call awaiting return value
    std::array<std::int32_t, 5> inputs{};  // a0..a3, sp
  };
  std::vector<Activation> stack;

  const auto enter = [&](const Function* function,
                         std::array<std::int32_t, 5> inputs) {
    Activation activation;
    activation.block = function->entry();
    activation.inputs = inputs;
    // Ids strictly increase in block order, so the last is the largest.
    activation.values.resize(static_cast<std::size_t>(
        function->blocks().back()->terminator()->id + 1));
    stack.push_back(std::move(activation));
  };

  std::array<std::int32_t, 5> main_inputs{};
  for (std::size_t i = 0; i < args.size() && i < 4; ++i) {
    main_inputs[i] = args[i];
  }
  main_inputs[4] = static_cast<std::int32_t>(mips::kStackTop - 64);
  enter(module_.main, main_inputs);

  std::int32_t last_return = 0;

  const auto value_of = [&](Activation& act, const Value& v) -> std::int32_t {
    if (v.is_const()) return v.imm;
    Check(v.is_instr(), "interp: none operand");
    const auto id = static_cast<std::size_t>(v.def->id);
    Check(id < act.values.size() && act.values[id].has_value(),
          "interp: use of unevaluated value");
    return *act.values[id];
  };

  while (!stack.empty()) {
    if (result.steps >= options_.max_steps) {
      result.error = "interpreter step budget exhausted";
      return result;
    }
    Activation& act = stack.back();

    // Block entry: evaluate phis simultaneously.
    if (act.next_instr == 0 && !act.block->instrs.empty() &&
        act.block->instrs.front()->op == Opcode::kPhi &&
        act.pending_call == nullptr) {
      std::vector<std::pair<const Instr*, std::int32_t>> staged;
      const std::size_t pred_index =
          act.block->PredIndex(act.prev_block);
      for (const Instr* phi : act.block->Phis()) {
        staged.emplace_back(phi,
                            value_of(act, phi->operands[pred_index]));
      }
      for (const auto& [phi, value] : staged) act.values.at(phi->id) = value;
      act.next_instr = staged.size();
    }

    if (act.next_instr >= act.block->instrs.size()) {
      result.error = "interp: fell off block without terminator";
      return result;
    }
    const Instr* in = act.block->instrs[act.next_instr];

    // Resume after a call: store the callee's return value.
    if (act.pending_call != nullptr) {
      act.values.at(act.pending_call->id) = last_return;
      act.pending_call = nullptr;
      ++act.next_instr;
      continue;
    }

    const auto operand = [&](std::size_t i) {
      return i < in->operands.size() ? value_of(act, in->operands[i]) : 0;
    };

    std::int32_t out = 0;
    bool advanced = false;

    switch (in->op) {
      case Opcode::kInput:
        if (in->input_index >= kRegA0 && in->input_index < kRegA0 + 4) {
          out = act.inputs[in->input_index - kRegA0];
        } else if (in->input_index == kRegSp) {
          out = act.inputs[4];
        }
        break;
      case Opcode::kUndef: break;
      case Opcode::kLoad: {
        const auto loaded = memory_.Load(static_cast<std::uint32_t>(operand(0)),
                                         in->mem_bytes, in->mem_signed);
        if (!loaded.has_value()) {
          result.error = "interp: bad load address";
          return result;
        }
        out = *loaded;
        break;
      }
      case Opcode::kStore:
        if (!memory_.Store(static_cast<std::uint32_t>(operand(0)),
                           in->mem_bytes,
                           static_cast<std::uint32_t>(operand(1)))) {
          result.error = "interp: bad store address";
          return result;
        }
        break;
      case Opcode::kPhi:
        // Handled at block entry; reaching one here means none were staged
        // (single-pred blocks with stale phis) — evaluate directly.
        out = value_of(
            act, in->operands[act.block->PredIndex(act.prev_block)]);
        break;
      case Opcode::kBr:
        act.prev_block = act.block;
        act.block = in->target0;
        act.next_instr = 0;
        advanced = true;
        break;
      case Opcode::kCondBr: {
        const bool taken = operand(0) != 0;
        act.prev_block = act.block;
        act.block = taken ? in->target0 : in->target1;
        act.next_instr = 0;
        advanced = true;
        break;
      }
      case Opcode::kRet:
        last_return = operand(0);
        stack.pop_back();
        advanced = true;
        break;
      case Opcode::kCall: {
        const Function* callee = module_.FindByEntry(in->call_target);
        if (callee == nullptr) {
          result.error = "interp: call to unknown function";
          return result;
        }
        std::array<std::int32_t, 5> inputs{};
        for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = operand(i);
        act.pending_call = in;
        ++result.steps;
        enter(callee, inputs);
        advanced = true;
        break;
      }
      default:
        // Every other operator's value depends on its operands alone.
        out = Evaluate(*in, operand(0), operand(1), operand(2)).value();
        break;
    }

    if (advanced) {
      if (in->op != Opcode::kCall) ++result.steps;
      continue;
    }

    // A value is kept at its claimed width, as the circuit's register is.
    if (in->width > 0) act.values.at(in->id) = FitToWidth(*in, out);
    if (in->op != Opcode::kPhi) ++result.steps;
    ++act.next_instr;
  }

  result.ok = true;
  result.return_value = last_return;
  return result;
}

}  // namespace b2h::ir
