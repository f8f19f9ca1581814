#include "ir/interp.hpp"

#include <array>
#include <cstring>
#include <unordered_map>

#include "support/bits.hpp"

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

std::uint32_t Interpreter::PeekWord(std::uint32_t addr) const {
  const std::uint8_t* p = memory_.At(addr, 4);
  Check(p != nullptr, "Interpreter::PeekWord outside memory");
  std::uint32_t value;
  std::memcpy(&value, p, 4);
  return value;
}

InterpResult Interpreter::Run(std::span<const std::int32_t> args) {
  InterpResult result;
  if (module_.main == nullptr) {
    result.error = "module has no main";
    return result;
  }

  // Explicit call stack (recursion depth bounded only by memory).
  struct Activation {
    const Function* function;
    std::unordered_map<const Instr*, std::int32_t> values;
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
    activation.function = function;
    activation.block = function->entry();
    activation.inputs = inputs;
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
    const auto it = act.values.find(v.def);
    Check(it != act.values.end(), "interp: use of unevaluated value");
    return it->second;
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
      for (const auto& [phi, value] : staged) act.values[phi] = value;
      act.next_instr = staged.size();
    }

    if (act.next_instr >= act.block->instrs.size()) {
      result.error = "interp: fell off block without terminator";
      return result;
    }
    const Instr* in = act.block->instrs[act.next_instr];

    // Resume after a call: store the callee's return value.
    if (act.pending_call != nullptr) {
      act.values[act.pending_call] = last_return;
      act.pending_call = nullptr;
      ++act.next_instr;
      continue;
    }

    const auto operand = [&](std::size_t i) {
      return value_of(act, in->operands[i]);
    };
    const auto uoperand = [&](std::size_t i) {
      return static_cast<std::uint32_t>(operand(i));
    };

    std::int32_t out = 0;
    bool produces = in->width > 0;
    bool advanced = false;

    switch (in->op) {
      case Opcode::kInput:
        if (in->input_index >= kRegA0 && in->input_index < kRegA0 + 4) {
          out = act.inputs[in->input_index - kRegA0];
        } else if (in->input_index == kRegSp) {
          out = act.inputs[4];
        } else {
          out = 0;
        }
        break;
      case Opcode::kConst: out = in->imm; break;
      case Opcode::kUndef: out = 0; break;
      case Opcode::kAdd: out = static_cast<std::int32_t>(uoperand(0) + uoperand(1)); break;
      case Opcode::kSub: out = static_cast<std::int32_t>(uoperand(0) - uoperand(1)); break;
      case Opcode::kMul: out = static_cast<std::int32_t>(uoperand(0) * uoperand(1)); break;
      case Opcode::kMulHiS:
        out = static_cast<std::int32_t>(
            (static_cast<std::int64_t>(operand(0)) *
             static_cast<std::int64_t>(operand(1))) >> 32);
        break;
      case Opcode::kMulHiU:
        out = static_cast<std::int32_t>(
            (static_cast<std::uint64_t>(uoperand(0)) *
             static_cast<std::uint64_t>(uoperand(1))) >> 32);
        break;
      case Opcode::kDivS: {
        const std::int32_t a = operand(0), b = operand(1);
        out = b == 0 ? 0 : (a == INT32_MIN && b == -1) ? INT32_MIN : a / b;
        break;
      }
      case Opcode::kDivU: {
        const std::uint32_t a = uoperand(0), b = uoperand(1);
        out = b == 0 ? 0 : static_cast<std::int32_t>(a / b);
        break;
      }
      case Opcode::kRemS: {
        const std::int32_t a = operand(0), b = operand(1);
        out = b == 0 ? a : (a == INT32_MIN && b == -1) ? 0 : a % b;
        break;
      }
      case Opcode::kRemU: {
        const std::uint32_t a = uoperand(0), b = uoperand(1);
        out = b == 0 ? operand(0) : static_cast<std::int32_t>(a % b);
        break;
      }
      case Opcode::kAnd: out = static_cast<std::int32_t>(uoperand(0) & uoperand(1)); break;
      case Opcode::kOr:  out = static_cast<std::int32_t>(uoperand(0) | uoperand(1)); break;
      case Opcode::kXor: out = static_cast<std::int32_t>(uoperand(0) ^ uoperand(1)); break;
      case Opcode::kNor: out = static_cast<std::int32_t>(~(uoperand(0) | uoperand(1))); break;
      case Opcode::kShl: out = static_cast<std::int32_t>(uoperand(0) << (uoperand(1) & 31u)); break;
      case Opcode::kShrL: out = static_cast<std::int32_t>(uoperand(0) >> (uoperand(1) & 31u)); break;
      case Opcode::kShrA: out = operand(0) >> (uoperand(1) & 31u); break;
      case Opcode::kEq:  out = operand(0) == operand(1); break;
      case Opcode::kNe:  out = operand(0) != operand(1); break;
      case Opcode::kLtS: out = operand(0) < operand(1); break;
      case Opcode::kLtU: out = uoperand(0) < uoperand(1); break;
      case Opcode::kLeS: out = operand(0) <= operand(1); break;
      case Opcode::kLeU: out = uoperand(0) <= uoperand(1); break;
      case Opcode::kGtS: out = operand(0) > operand(1); break;
      case Opcode::kGtU: out = uoperand(0) > uoperand(1); break;
      case Opcode::kGeS: out = operand(0) >= operand(1); break;
      case Opcode::kGeU: out = uoperand(0) >= uoperand(1); break;
      case Opcode::kSelect: out = operand(0) != 0 ? operand(1) : operand(2); break;
      case Opcode::kSExt: out = SignExtend(uoperand(0), in->ext_from); break;
      case Opcode::kZExt: out = static_cast<std::int32_t>(uoperand(0) & LowMask(in->ext_from)); break;
      case Opcode::kTrunc: out = static_cast<std::int32_t>(uoperand(0) & LowMask(in->width)); break;
      case Opcode::kLoad: {
        const std::uint32_t addr = uoperand(0);
        const unsigned size = in->mem_bytes;
        const std::uint8_t* p = memory_.At(addr, size);
        if (p == nullptr || (addr & (size - 1)) != 0) {
          result.error = "interp: bad load address";
          return result;
        }
        std::uint32_t raw = 0;
        for (unsigned b = 0; b < size; ++b) raw |= static_cast<std::uint32_t>(p[b]) << (8 * b);
        if (size < 4) {
          out = in->mem_signed ? SignExtend(raw, size * 8)
                               : static_cast<std::int32_t>(raw);
        } else {
          out = static_cast<std::int32_t>(raw);
        }
        break;
      }
      case Opcode::kStore: {
        const std::uint32_t addr = uoperand(0);
        const std::uint32_t value = uoperand(1);
        const unsigned size = in->mem_bytes;
        std::uint8_t* p = memory_.At(addr, size);
        if (p == nullptr || (addr & (size - 1)) != 0) {
          result.error = "interp: bad store address";
          return result;
        }
        for (unsigned b = 0; b < size; ++b) p[b] = static_cast<std::uint8_t>((value >> (8 * b)) & 0xFFu);
        produces = false;
        break;
      }
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
        last_return = in->operands.empty() ? 0 : operand(0);
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
        for (std::size_t i = 0; i < in->operands.size() && i < 5; ++i) {
          inputs[i] = operand(i);
        }
        act.pending_call = in;
        ++result.steps;
        enter(callee, inputs);
        advanced = true;
        break;
      }
    }

    if (advanced) {
      if (in->op != Opcode::kCall) ++result.steps;
      continue;
    }

    if (produces) {
      // Mask to the claimed width; count violations (soundness check for
      // the operator size reduction pass).
      std::int32_t masked = out;
      if (in->width < 32) {
        const std::uint32_t raw = static_cast<std::uint32_t>(out);
        masked = in->is_signed
                     ? SignExtend(raw, in->width)
                     : static_cast<std::int32_t>(raw & LowMask(in->width));
        if (masked != out) ++result.width_violations;
      }
      act.values[in] = masked;
    }
    if (in->op != Opcode::kPhi) ++result.steps;
    ++act.next_instr;
  }

  result.ok = true;
  result.return_value = last_return;
  return result;
}

}  // namespace b2h::ir
