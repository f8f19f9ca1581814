// SSA construction for numbered variables: the lifter's machine registers
// (CDFG creation, paper §2) and the stack slots that stack operation removal
// promotes.
//
// A pass walks each block in order and hands the builder every write and
// read of a variable.  A read with no earlier write in its block is the
// variable's value on block entry: `at_entry(variable)` in the function's
// entry block, and a placeholder phi anywhere else.  Once every block is
// walked and the predecessor lists are current, Seal() puts the
// placeholders into their blocks in creation order and fills each from its
// predecessors' exit values, which may create further placeholders.
// Placeholders that turn out trivial are left to Function::Cleanup().
//
// The entry rule holds only if no edge enters the entry block, which
// ir::Verify enforces.
#pragma once

#include <cstddef>
#include <functional>
#include <tuple>
#include <vector>

#include "ir/ir.hpp"

namespace b2h::ir {

class SsaBuilder {
 public:
  using AtEntry = std::function<Value(std::size_t variable)>;

  /// Per-block state is indexed by Block::id, which must number
  /// `function`'s blocks densely (as CreateBlock and RecomputeCfg do) and
  /// stay put until Seal().  `at_entry` is asked at most once per variable.
  SsaBuilder(Function& function, std::size_t num_variables, AtEntry at_entry);

  void Write(const Block* block, std::size_t variable, Value value);
  /// The variable's current value in `block`: its last write, else its
  /// value on block entry.
  [[nodiscard]] Value Read(Block* block, std::size_t variable);
  /// Place and fill every placeholder phi.  Needs current preds.
  void Seal();

 private:
  [[nodiscard]] std::size_t Index(const Block* block,
                                  std::size_t variable) const;

  Function& function_;
  std::size_t num_variables_;
  AtEntry at_entry_;
  std::vector<Value> values_;  ///< [Block::id * num_variables + variable]
  std::vector<std::tuple<Instr*, Block*, std::size_t>> placeholders_;
};

}  // namespace b2h::ir
