#include "ir/ir.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace b2h::ir {
namespace {

/// CFG rebuilds, summed over functions: a deterministic work count for a
/// fixed decompile mix.
obs::Counter& CfgRecomputesCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().counter("decomp.cfg_recomputes");
  return counter;
}

}  // namespace

const char* OpcodeName(Opcode op) noexcept {
  switch (op) {
    case Opcode::kInput: return "input";
    case Opcode::kConst: return "const";
    case Opcode::kUndef: return "undef";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kMulHiS: return "mulhis";
    case Opcode::kMulHiU: return "mulhiu";
    case Opcode::kDivS: return "divs";
    case Opcode::kDivU: return "divu";
    case Opcode::kRemS: return "rems";
    case Opcode::kRemU: return "remu";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kNor: return "nor";
    case Opcode::kShl: return "shl";
    case Opcode::kShrL: return "shrl";
    case Opcode::kShrA: return "shra";
    case Opcode::kEq: return "eq";
    case Opcode::kNe: return "ne";
    case Opcode::kLtS: return "lts";
    case Opcode::kLtU: return "ltu";
    case Opcode::kLeS: return "les";
    case Opcode::kLeU: return "leu";
    case Opcode::kGtS: return "gts";
    case Opcode::kGtU: return "gtu";
    case Opcode::kGeS: return "ges";
    case Opcode::kGeU: return "geu";
    case Opcode::kSelect: return "select";
    case Opcode::kSExt: return "sext";
    case Opcode::kZExt: return "zext";
    case Opcode::kTrunc: return "trunc";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kPhi: return "phi";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "condbr";
    case Opcode::kRet: return "ret";
    case Opcode::kCall: return "call";
  }
  return "?";
}

bool IsTerminator(Opcode op) noexcept {
  return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kRet;
}

bool IsComparison(Opcode op) noexcept {
  switch (op) {
    case Opcode::kEq: case Opcode::kNe: case Opcode::kLtS: case Opcode::kLtU:
    case Opcode::kLeS: case Opcode::kLeU: case Opcode::kGtS:
    case Opcode::kGtU: case Opcode::kGeS: case Opcode::kGeU:
      return true;
    default:
      return false;
  }
}

bool IsCommutative(Opcode op) noexcept {
  switch (op) {
    case Opcode::kAdd: case Opcode::kMul: case Opcode::kAnd: case Opcode::kOr:
    case Opcode::kXor: case Opcode::kNor: case Opcode::kEq: case Opcode::kNe:
    case Opcode::kMulHiS: case Opcode::kMulHiU:
      return true;
    default:
      return false;
  }
}

bool HasSideEffects(Opcode op) noexcept {
  return op == Opcode::kStore || op == Opcode::kCall || IsTerminator(op);
}

Successors Block::succs() const {
  Successors out;
  if (!has_terminator()) return out;
  const Instr* term = instrs.back();
  if (term->op == Opcode::kBr) {
    out.slots_[out.size_++] = term->target0;
  } else if (term->op == Opcode::kCondBr) {
    out.slots_[out.size_++] = term->target0;
    out.slots_[out.size_++] = term->target1;
  }
  return out;
}

Instr* Block::terminator() const {
  Check(has_terminator(), "Block has no terminator");
  return instrs.back();
}

bool Block::has_terminator() const {
  return !instrs.empty() && instrs.back()->is_terminator();
}

void Block::Append(Instr* instr) {
  Check(instr != nullptr, "Block::Append(nullptr)");
  instr->parent = this;
  if (has_terminator() && !instr->is_terminator()) {
    instrs.insert(instrs.end() - 1, instr);
  } else {
    instrs.push_back(instr);
  }
}

void Block::PrependPhi(Instr* phi) {
  Check(phi != nullptr && phi->op == Opcode::kPhi, "PrependPhi: not a phi");
  phi->parent = this;
  auto it = instrs.begin();
  while (it != instrs.end() && (*it)->op == Opcode::kPhi) ++it;
  instrs.insert(it, phi);
}

void Block::Remove(const Instr* instr) {
  const auto it = std::find(instrs.begin(), instrs.end(), instr);
  Check(it != instrs.end(), "Block::Remove: instruction not in block");
  instrs.erase(it);
}

std::size_t Block::PredIndex(const Block* pred) const {
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == pred) return i;
  }
  throw InternalError("Block::PredIndex: not a predecessor");
}

std::size_t Block::BodySize() const {
  std::size_t count = 0;
  for (const Instr* instr : instrs) {
    if (instr->op != Opcode::kPhi) ++count;
  }
  return count;
}

std::vector<Instr*> Block::Phis() const {
  std::vector<Instr*> phis;
  for (Instr* instr : instrs) {
    if (instr->op != Opcode::kPhi) break;
    phis.push_back(instr);
  }
  return phis;
}

std::size_t Function::NumInstrs() const {
  std::size_t count = 0;
  for (const auto& block : blocks_) count += block->instrs.size();
  return count;
}

Block* Function::CreateBlock(std::string name, std::uint32_t start_pc) {
  auto block = std::make_unique<Block>();
  block->name = std::move(name);
  block->start_pc = start_pc;
  block->parent = this;
  block->id = static_cast<int>(blocks_.size());
  blocks_.push_back(std::move(block));
  return blocks_.back().get();
}

Instr* Function::Create(Opcode op) {
  auto instr = std::make_unique<Instr>();
  instr->op = op;
  if (IsComparison(op)) {
    instr->width = 1;
    instr->is_signed = false;  // 0 or 1, as `slt` leaves it in a register
  }
  if (IsTerminator(op) || op == Opcode::kStore) instr->width = 0;
  pool_.push_back(std::move(instr));
  return pool_.back().get();
}

Instr* Function::Emit(Block* block, Opcode op, std::vector<Value> operands,
                      std::uint8_t width) {
  Instr* instr = Create(op);
  instr->operands = std::move(operands);
  if (!IsComparison(op) && !IsTerminator(op) && op != Opcode::kStore) {
    instr->width = width;
  }
  block->Append(instr);
  return instr;
}

void Function::RecomputeCfg() {
  CfgRecomputesCounter().Add();
  // Keep the old preds of every block with phis: they say which block each
  // operand flows in from.
  std::vector<std::pair<Block*, std::vector<Block*>>> phi_blocks;
  for (auto& block : blocks_) {
    if (!block->instrs.empty() && block->instrs.front()->is(Opcode::kPhi)) {
      phi_blocks.emplace_back(block.get(), std::move(block->preds));
    }
    block->preds.clear();
  }
  for (auto& block : blocks_) {
    for (Block* succ : block->succs()) succ->preds.push_back(block.get());
  }
  for (auto& [block, old_preds] : phi_blocks) {
    if (block->preds == old_preds) continue;
    // New slot i takes the operand of the first unclaimed old slot of the
    // same block; old slots nobody claims belonged to vanished edges.
    std::vector<std::size_t> from(block->preds.size());
    std::vector<bool> claimed(old_preds.size(), false);
    for (std::size_t i = 0; i < block->preds.size(); ++i) {
      std::size_t j = 0;
      while (j < old_preds.size() &&
             (claimed[j] || old_preds[j] != block->preds[i])) {
        ++j;
      }
      if (j == old_preds.size()) {
        throw InternalError("RecomputeCfg: " + block->name +
                            " gained predecessor " + block->preds[i]->name +
                            " that no phi operand flows in from");
      }
      claimed[j] = true;
      from[i] = j;
    }
    for (Instr* phi : block->Phis()) {
      Check(phi->operands.size() == old_preds.size(),
            "RecomputeCfg: phi operand count != predecessor count");
      std::vector<Value> operands;
      operands.reserve(from.size());
      for (std::size_t j : from) operands.push_back(phi->operands[j]);
      phi->operands = std::move(operands);
    }
  }
  Renumber();
}

std::vector<Instr*> Function::Renumber() {
  std::vector<Instr*> by_id;
  by_id.reserve(NumInstrs());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b]->id = static_cast<int>(b);
    for (Instr* instr : blocks_[b]->instrs) {
      instr->id = static_cast<int>(by_id.size());
      by_id.push_back(instr);
    }
  }
  return by_id;
}

std::size_t IdIn(const std::vector<Instr*>& by_id, const Instr* def) {
  // A negative id converts to a value past any table.
  const auto id = static_cast<std::size_t>(def->id);
  Check(id < by_id.size() && by_id[id] == def,
        "operand defined outside the function's numbered blocks");
  return id;
}

void Function::MoveTail(Block* from, std::size_t first, Block* heir) {
  Check(first < from->instrs.size() && from->has_terminator(),
        "MoveTail: the moved tail must end in a terminator");
  Check(!heir->has_terminator(), "MoveTail: heir already has a terminator");
  const auto tail = from->instrs.begin() + static_cast<std::ptrdiff_t>(first);
  for (auto it = tail; it != from->instrs.end(); ++it) {
    (*it)->parent = heir;
    heir->instrs.push_back(*it);
  }
  from->instrs.erase(tail, from->instrs.end());
  for (Block* succ : heir->succs()) {
    std::replace(succ->preds.begin(), succ->preds.end(), from, heir);
  }
}

void Function::ReplaceAllUses(const Replacements& replacements) {
  if (replacements.empty()) return;
  const std::vector<Instr*> by_id = Renumber();
  std::vector<Value> replacement(by_id.size());  // kNone: kept
  for (const auto& [instr, value] : replacements) {
    Check(!value.is_none(), "ReplaceAllUses: replacement without a value");
    replacement[IdIn(by_id, instr)] = value;
  }
  const auto chase = [&](Value value) {
    // Follow replacement chains (bounded by their count to catch cycles).
    std::size_t hops = 0;
    while (value.is_instr()) {
      const Value& next = replacement[IdIn(by_id, value.def)];
      if (next.is_none()) break;
      value = next;
      Check(++hops <= replacements.size() + 1,
            "ReplaceAllUses: replacement cycle");
    }
    return value;
  };
  for (auto& block : blocks_) {
    std::erase_if(block->instrs, [&replacement](const Instr* instr) {
      return !replacement[static_cast<std::size_t>(instr->id)].is_none();
    });
    for (Instr* instr : block->instrs) {
      for (Value& operand : instr->operands) operand = chase(operand);
    }
  }
}

std::size_t Function::RemoveDeadInstrs() {
  // Mark: roots are side-effecting instructions; sweep everything else that
  // is not transitively used by a root.
  const std::vector<Instr*> by_id = Renumber();
  std::vector<char> live(by_id.size(), 0);
  std::vector<const Instr*> work;
  for (const Instr* instr : by_id) {
    if (HasSideEffects(instr->op)) {
      live[static_cast<std::size_t>(instr->id)] = 1;
      work.push_back(instr);
    }
  }
  while (!work.empty()) {
    const Instr* instr = work.back();
    work.pop_back();
    for (const Value& operand : instr->operands) {
      if (!operand.is_instr()) continue;
      char& mark = live[IdIn(by_id, operand.def)];
      if (mark == 0) {
        mark = 1;
        work.push_back(operand.def);
      }
    }
  }
  std::size_t removed = 0;
  for (auto& block : blocks_) {
    removed += std::erase_if(block->instrs, [&live](const Instr* instr) {
      return live[static_cast<std::size_t>(instr->id)] == 0;
    });
  }
  return removed;
}

std::size_t Function::EliminateTrivialPhis() {
  std::size_t removed = 0;
  Replacements replacements;
  while (true) {
    replacements.clear();
    for (const auto& block : blocks_) {
      for (Instr* phi : block->instrs) {
        if (!phi->is(Opcode::kPhi)) break;
        Value unique = Value::None();
        bool trivial = true;
        for (const Value& operand : phi->operands) {
          if (operand.is_instr() && operand.def == phi) continue;  // self
          if (unique.is_none()) {
            unique = operand;
          } else if (!(unique == operand)) {
            trivial = false;
            break;
          }
        }
        if (trivial && !unique.is_none()) {
          replacements.emplace_back(phi, unique);
        }
      }
    }
    if (replacements.empty()) return removed;
    ReplaceAllUses(replacements);
    removed += replacements.size();
  }
}

void Function::RemoveUnreachableBlocks() {
  // Block ids are positions in blocks_ (CreateBlock appends, and every
  // removal ends in RecomputeCfg).
  std::vector<char> reachable(blocks_.size(), 0);
  std::vector<Block*> work{entry()};
  reachable[static_cast<std::size_t>(entry()->id)] = 1;
  while (!work.empty()) {
    Block* block = work.back();
    work.pop_back();
    for (Block* succ : block->succs()) {
      char& mark = reachable[static_cast<std::size_t>(succ->id)];
      if (mark == 0) {
        mark = 1;
        work.push_back(succ);
      }
    }
  }
  std::erase_if(blocks_, [&reachable](const std::unique_ptr<Block>& block) {
    return reachable[static_cast<std::size_t>(block->id)] == 0;
  });
  RecomputeCfg();
}

void Function::Cleanup() {
  RemoveUnreachableBlocks();
  EliminateTrivialPhis();
  RemoveDeadInstrs();
  RecomputeCfg();
}

std::size_t Function::CountOps() const {
  std::size_t count = 0;
  for (const auto& block : blocks_) {
    for (const Instr* instr : block->instrs) {
      if (!instr->is_terminator() && instr->op != Opcode::kPhi) ++count;
    }
  }
  return count;
}

}  // namespace b2h::ir
