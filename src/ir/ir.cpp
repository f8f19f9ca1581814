#include "ir/ir.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

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

std::vector<Block*> Block::succs() const {
  const Instr* term = has_terminator() ? instrs.back() : nullptr;
  std::vector<Block*> out;
  if (term == nullptr) return out;
  if (term->op == Opcode::kBr) {
    out.push_back(term->target0);
  } else if (term->op == Opcode::kCondBr) {
    out.push_back(term->target0);
    out.push_back(term->target1);
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
  int block_id = 0;
  int instr_id = 0;
  for (auto& block : blocks_) {
    block->id = block_id++;
    for (Instr* instr : block->instrs) instr->id = instr_id++;
  }
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

void Function::ReplaceAllUses(
    const std::unordered_map<const Instr*, Value>& map) {
  if (map.empty()) return;
  const auto chase = [&map](Value value) {
    // Follow replacement chains (bounded by map size to catch cycles).
    std::size_t hops = 0;
    while (value.is_instr()) {
      const auto it = map.find(value.def);
      if (it == map.end()) break;
      value = it->second;
      Check(++hops <= map.size() + 1, "ReplaceAllUses: replacement cycle");
    }
    return value;
  };
  for (auto& block : blocks_) {
    std::erase_if(block->instrs, [&map](const Instr* instr) {
      return map.count(instr) != 0;
    });
    for (Instr* instr : block->instrs) {
      for (Value& operand : instr->operands) operand = chase(operand);
    }
  }
}

std::size_t Function::RemoveDeadInstrs() {
  // Mark: roots are side-effecting instructions; sweep everything else that
  // is not transitively used by a root.
  std::unordered_set<const Instr*> live;
  std::deque<const Instr*> work;
  for (const auto& block : blocks_) {
    for (const Instr* instr : block->instrs) {
      if (HasSideEffects(instr->op)) {
        live.insert(instr);
        work.push_back(instr);
      }
    }
  }
  while (!work.empty()) {
    const Instr* instr = work.front();
    work.pop_front();
    for (const Value& operand : instr->operands) {
      if (operand.is_instr() && live.insert(operand.def).second) {
        work.push_back(operand.def);
      }
    }
  }
  std::size_t removed = 0;
  for (auto& block : blocks_) {
    auto& instrs = block->instrs;
    const auto new_end = std::remove_if(
        instrs.begin(), instrs.end(),
        [&live](const Instr* instr) { return live.count(instr) == 0; });
    removed += static_cast<std::size_t>(std::distance(new_end, instrs.end()));
    instrs.erase(new_end, instrs.end());
  }
  return removed;
}

std::size_t Function::EliminateTrivialPhis() {
  std::size_t removed = 0;
  while (true) {
    std::unordered_map<const Instr*, Value> replacements;
    for (const auto& block : blocks_) {
      for (Instr* phi : block->Phis()) {
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
        if (trivial && !unique.is_none()) replacements[phi] = unique;
      }
    }
    if (replacements.empty()) return removed;
    ReplaceAllUses(replacements);
    removed += replacements.size();
  }
}

void Function::RemoveUnreachableBlocks() {
  std::unordered_set<const Block*> reachable;
  std::deque<Block*> work{entry()};
  reachable.insert(entry());
  while (!work.empty()) {
    Block* block = work.front();
    work.pop_front();
    for (Block* succ : block->succs()) {
      if (reachable.insert(succ).second) work.push_back(succ);
    }
  }
  blocks_.erase(std::remove_if(blocks_.begin(), blocks_.end(),
                               [&reachable](const auto& block) {
                                 return reachable.count(block.get()) == 0;
                               }),
                blocks_.end());
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
