#include "ir/verifier.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "ir/dominators.hpp"

namespace b2h::ir {
namespace {

std::size_t ExpectedOperands(const Instr& instr) {
  switch (instr.op) {
    case Opcode::kInput: case Opcode::kConst: case Opcode::kUndef:
      return 0;
    case Opcode::kSExt: case Opcode::kZExt: case Opcode::kTrunc:
      return 1;
    case Opcode::kLoad: case Opcode::kBr:
      return instr.op == Opcode::kLoad ? 1 : 0;
    case Opcode::kStore:
      return 2;
    case Opcode::kSelect:
      return 3;
    case Opcode::kCondBr:
      return 1;
    case Opcode::kPhi: case Opcode::kRet: case Opcode::kCall:
      return SIZE_MAX;  // variable
    default:
      return 2;  // binary ops
  }
}

Status Fail(const Function& function, const Block* block, const Instr* instr,
            const std::string& what) {
  std::ostringstream out;
  out << "verify " << function.name();
  if (block != nullptr) out << " block " << block->name;
  if (instr != nullptr) out << " instr %" << instr->id << " "
                            << OpcodeName(instr->op);
  out << ": " << what;
  return Status::Error(ErrorKind::kUnsupported, out.str());
}

}  // namespace

Status Verify(const Function& function) {
  if (function.blocks().empty()) {
    return Fail(function, nullptr, nullptr, "function has no blocks");
  }

  // Pred/succ consistency and structural checks.
  std::unordered_map<const Block*, std::vector<const Block*>> expected_preds;
  std::unordered_set<const Instr*> all_instrs;
  for (const auto& block : function.blocks()) {
    if (!block->has_terminator()) {
      return Fail(function, block.get(), nullptr, "missing terminator");
    }
    bool seen_non_phi = false;
    for (std::size_t i = 0; i < block->instrs.size(); ++i) {
      const Instr* instr = block->instrs[i];
      if (instr->parent != block.get()) {
        return Fail(function, block.get(), instr, "wrong parent");
      }
      if (!all_instrs.insert(instr).second) {
        return Fail(function, block.get(), instr, "instruction appears twice");
      }
      if (instr->op == Opcode::kPhi) {
        if (seen_non_phi) {
          return Fail(function, block.get(), instr, "phi after non-phi");
        }
      } else {
        seen_non_phi = true;
      }
      if (instr->is_terminator() && i + 1 != block->instrs.size()) {
        return Fail(function, block.get(), instr, "terminator not last");
      }
      const std::size_t expected = ExpectedOperands(*instr);
      if (expected != SIZE_MAX && instr->operands.size() != expected) {
        return Fail(function, block.get(), instr, "bad operand count");
      }
      if (instr->op == Opcode::kRet && instr->operands.size() > 1) {
        return Fail(function, block.get(), instr, "ret operand count");
      }
      if (instr->width > 32) {
        return Fail(function, block.get(), instr, "width > 32");
      }
      for (const Value& operand : instr->operands) {
        if (operand.is_none()) {
          return Fail(function, block.get(), instr, "none operand");
        }
        if (operand.is_instr() && operand.def->width == 0) {
          return Fail(function, block.get(), instr,
                      "operand has no result (width 0)");
        }
      }
      if (instr->op == Opcode::kBr || instr->op == Opcode::kCondBr) {
        if (instr->target0 == nullptr) {
          return Fail(function, block.get(), instr, "missing target0");
        }
        if (instr->op == Opcode::kCondBr && instr->target1 == nullptr) {
          return Fail(function, block.get(), instr, "missing target1");
        }
      }
    }
    for (const Block* succ : block->succs()) {
      expected_preds[succ].push_back(block.get());
    }
  }
  for (const auto& block : function.blocks()) {
    auto expected = expected_preds[block.get()];
    std::vector<const Block*> actual(block->preds.begin(),
                                     block->preds.end());
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      return Fail(function, block.get(), nullptr,
                  "preds out of date (run RecomputeCfg)");
    }
  }
  // SSA construction (ir/ssa.hpp) reads a variable in the entry block as
  // its live-in, and the interpreter enters that block from no predecessor.
  if (!function.entry()->preds.empty()) {
    return Fail(function, function.entry(), nullptr,
                "an edge enters the entry block");
  }

  // Phi arity matches preds.
  for (const auto& block : function.blocks()) {
    for (const Instr* phi : block->Phis()) {
      if (phi->operands.size() != block->preds.size()) {
        return Fail(function, block.get(), phi,
                    "phi operand count != predecessor count");
      }
    }
  }

  // Def-dominates-use over reachable blocks.
  const DominatorTree dom(function);
  std::unordered_set<const Block*> reachable(dom.ReversePostOrder().begin(),
                                             dom.ReversePostOrder().end());
  // Map instruction -> position for same-block ordering checks.
  std::unordered_map<const Instr*, std::size_t> position;
  for (const auto& block : function.blocks()) {
    for (std::size_t i = 0; i < block->instrs.size(); ++i) {
      position[block->instrs[i]] = i;
    }
  }
  for (const Block* block : dom.ReversePostOrder()) {
    for (const Instr* instr : block->instrs) {
      for (std::size_t oi = 0; oi < instr->operands.size(); ++oi) {
        const Value& operand = instr->operands[oi];
        if (!operand.is_instr()) continue;
        const Instr* def = operand.def;
        if (all_instrs.count(def) == 0) {
          return Fail(function, block, instr,
                      "operand defined by instruction outside function");
        }
        const Block* def_block = def->parent;
        if (reachable.count(def_block) == 0) {
          return Fail(function, block, instr,
                      "operand defined in unreachable block");
        }
        if (instr->op == Opcode::kPhi) {
          const Block* pred = block->preds[oi];
          if (!dom.Dominates(def_block, pred)) {
            return Fail(function, block, instr,
                        "phi operand does not dominate incoming edge");
          }
        } else if (def_block == block) {
          if (position[def] >= position[instr]) {
            return Fail(function, block, instr,
                        "use before def within block");
          }
        } else if (!dom.StrictlyDominates(def_block, block)) {
          return Fail(function, block, instr, "def does not dominate use");
        }
      }
    }
  }
  return Status::Ok();
}

Status Verify(const Module& module) {
  for (const auto& function : module.functions) {
    if (Status status = Verify(*function); !status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace b2h::ir
