#include "ir/verifier.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

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
  const auto& blocks = function.blocks();
  if (blocks.empty()) {
    return Fail(function, nullptr, nullptr, "function has no blocks");
  }

  // The numbering the tables here are indexed by: block ids are positions,
  // and instruction ids strictly increase in block order (erasing leaves
  // gaps).  by_id holds each instruction at its id, up to the last seen.
  std::vector<const Instr*> by_id;
  by_id.reserve(function.NumInstrs());
  std::vector<std::vector<const Block*>> expected_preds(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b]->id != static_cast<int>(b)) {
      return Fail(function, blocks[b].get(), nullptr,
                  "numbering out of date (run Renumber)");
    }
  }
  for (const auto& block : blocks) {
    if (!block->has_terminator()) {
      return Fail(function, block.get(), nullptr, "missing terminator");
    }
    bool seen_non_phi = false;
    for (std::size_t i = 0; i < block->instrs.size(); ++i) {
      const Instr* instr = block->instrs[i];
      if (instr->parent != block.get()) {
        return Fail(function, block.get(), instr, "wrong parent");
      }
      const auto id = static_cast<std::size_t>(instr->id);
      if (id < by_id.size() && by_id[id] == instr) {
        return Fail(function, block.get(), instr, "instruction appears twice");
      }
      if (instr->id < 0 || id < by_id.size()) {
        return Fail(function, block.get(), instr,
                    "numbering out of date (run Renumber)");
      }
      by_id.resize(id, nullptr);
      by_id.push_back(instr);
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
      const auto succ_id = static_cast<std::size_t>(succ->id);
      if (succ_id >= blocks.size() || blocks[succ_id].get() != succ) {
        return Fail(function, block.get(), block->terminator(),
                    "branch target outside function");
      }
      expected_preds[succ_id].push_back(block.get());
    }
  }
  // Compared as multisets (MoveTail leaves preds out of block order), by
  // address: a stale pred may be a block that no longer exists.
  for (const auto& block : blocks) {
    auto& expected = expected_preds[static_cast<std::size_t>(block->id)];
    std::vector<const Block*> actual(block->preds.begin(),
                                     block->preds.end());
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      return Fail(function, block.get(), nullptr,
                  "preds out of date (run RecomputeCfg)");
    }
    for (const Instr* phi : block->Phis()) {
      if (phi->operands.size() != block->preds.size()) {
        return Fail(function, block.get(), phi,
                    "phi operand count != predecessor count");
      }
    }
  }
  // SSA construction (ir/ssa.hpp) reads a variable in the entry block as
  // its live-in, and the interpreter enters that block from no predecessor.
  if (!function.entry()->preds.empty()) {
    return Fail(function, function.entry(), nullptr,
                "an edge enters the entry block");
  }

  // Def-dominates-use over reachable blocks; within a block, ids give the
  // order.
  const DominatorTree dom(function);
  std::vector<char> reachable(blocks.size(), 0);  // by Block::id
  for (const Block* block : dom.ReversePostOrder()) reachable[block->id] = 1;
  for (const Block* block : dom.ReversePostOrder()) {
    for (const Instr* instr : block->instrs) {
      for (std::size_t oi = 0; oi < instr->operands.size(); ++oi) {
        const Value& operand = instr->operands[oi];
        if (!operand.is_instr()) continue;
        const Instr* def = operand.def;
        const auto def_id = static_cast<std::size_t>(def->id);
        if (def_id >= by_id.size() || by_id[def_id] != def) {
          return Fail(function, block, instr,
                      "operand defined by instruction outside function");
        }
        const Block* def_block = def->parent;
        if (reachable[def_block->id] == 0) {
          return Fail(function, block, instr,
                      "operand defined in unreachable block");
        }
        if (instr->op == Opcode::kPhi) {
          // An edge from an unreachable block never runs.
          const Block* pred = block->preds[oi];
          if (reachable[pred->id] != 0 && !dom.Dominates(def_block, pred)) {
            return Fail(function, block, instr,
                        "phi operand does not dominate incoming edge");
          }
        } else if (def_block == block) {
          if (def->id >= instr->id) {
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
