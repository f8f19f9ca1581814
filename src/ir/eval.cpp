#include "ir/eval.hpp"

#include "support/bits.hpp"

namespace b2h::ir {

std::optional<std::int32_t> Evaluate(const Instr& instr, std::int32_t a,
                                     std::int32_t b, std::int32_t c) {
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  const auto wrap = [](std::uint32_t v) {
    return static_cast<std::int32_t>(v);
  };
  switch (instr.op) {
    case Opcode::kConst: return instr.imm;
    case Opcode::kAdd: return wrap(ua + ub);
    case Opcode::kSub: return wrap(ua - ub);
    case Opcode::kMul: return wrap(ua * ub);
    case Opcode::kMulHiS:
      return static_cast<std::int32_t>(
          (static_cast<std::int64_t>(a) * static_cast<std::int64_t>(b)) >> 32);
    case Opcode::kMulHiU:
      return static_cast<std::int32_t>(
          (static_cast<std::uint64_t>(ua) * static_cast<std::uint64_t>(ub)) >>
          32);
    case Opcode::kDivS:
      return b == 0 ? 0 : (a == INT32_MIN && b == -1) ? INT32_MIN : a / b;
    case Opcode::kDivU: return b == 0 ? 0 : wrap(ua / ub);
    case Opcode::kRemS:
      return b == 0 ? a : (a == INT32_MIN && b == -1) ? 0 : a % b;
    case Opcode::kRemU: return b == 0 ? a : wrap(ua % ub);
    case Opcode::kAnd: return wrap(ua & ub);
    case Opcode::kOr:  return wrap(ua | ub);
    case Opcode::kXor: return wrap(ua ^ ub);
    case Opcode::kNor: return wrap(~(ua | ub));
    case Opcode::kShl:  return wrap(ua << (ub & 31u));
    case Opcode::kShrL: return wrap(ua >> (ub & 31u));
    case Opcode::kShrA: return a >> (ub & 31u);
    case Opcode::kEq:  return a == b;
    case Opcode::kNe:  return a != b;
    case Opcode::kLtS: return a < b;
    case Opcode::kLtU: return ua < ub;
    case Opcode::kLeS: return a <= b;
    case Opcode::kLeU: return ua <= ub;
    case Opcode::kGtS: return a > b;
    case Opcode::kGtU: return ua > ub;
    case Opcode::kGeS: return a >= b;
    case Opcode::kGeU: return ua >= ub;
    case Opcode::kSelect: return a != 0 ? b : c;
    case Opcode::kSExt: return SignExtend(ua, instr.ext_from);
    case Opcode::kZExt: return wrap(ua & LowMask(instr.ext_from));
    case Opcode::kTrunc: return wrap(ua & LowMask(instr.width));
    case Opcode::kInput:
    case Opcode::kUndef:
    case Opcode::kLoad:
    case Opcode::kStore:
    case Opcode::kPhi:
    case Opcode::kBr:
    case Opcode::kCondBr:
    case Opcode::kRet:
    case Opcode::kCall:
      return std::nullopt;
  }
  return std::nullopt;
}

std::int32_t FitToWidth(const Instr& instr, std::int32_t value) {
  const auto raw = static_cast<std::uint32_t>(value);
  if (instr.is_signed) return SignExtend(raw, instr.width);
  return static_cast<std::int32_t>(raw & LowMask(instr.width));
}

}  // namespace b2h::ir
