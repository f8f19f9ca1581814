#include "ir/ssa.hpp"

#include <utility>

namespace b2h::ir {

SsaBuilder::SsaBuilder(Function& function, std::size_t num_variables,
                       AtEntry at_entry)
    : function_(function),
      num_variables_(num_variables),
      at_entry_(std::move(at_entry)),
      values_(function.blocks().size() * num_variables) {}

std::size_t SsaBuilder::Index(const Block* block, std::size_t variable) const {
  const auto id = static_cast<std::size_t>(block->id);
  Check(variable < num_variables_ && id * num_variables_ < values_.size(),
        "SsaBuilder: block or variable out of range");
  return id * num_variables_ + variable;
}

void SsaBuilder::Write(const Block* block, std::size_t variable,
                       Value value) {
  values_[Index(block, variable)] = value;
}

Value SsaBuilder::Read(Block* block, std::size_t variable) {
  const std::size_t index = Index(block, variable);
  if (!values_[index].is_none()) return values_[index];
  if (block == function_.entry()) {
    values_[index] = at_entry_(variable);
  } else {
    // Recorded before it is filled, so a cycle back to this block reads it.
    Instr* phi = function_.Create(Opcode::kPhi);
    phi->src_pc = block->start_pc;
    placeholders_.emplace_back(phi, block, variable);
    values_[index] = Value::Of(phi);
  }
  return values_[index];
}

void SsaBuilder::Seal() {
  // Filling one placeholder can create more, so walk the list by index.
  for (std::size_t i = 0; i < placeholders_.size(); ++i) {
    const auto [phi, block, variable] = placeholders_[i];
    block->PrependPhi(phi);
    phi->operands.reserve(block->preds.size());
    for (Block* pred : block->preds) {
      phi->operands.push_back(Read(pred, variable));
    }
  }
  placeholders_.clear();
}

}  // namespace b2h::ir
