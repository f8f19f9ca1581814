// Control structure recovery (paper §2): "Control structure recovery
// analyzes the CDFG and determines high-level control structures, such as
// loops and if statements."
//
// RecoverStructure counts the loops, if-thens and if-then-elses of one
// function and renders them as indented pseudo-code.  It backs the paper's
// claim that "our approach recovered almost all the relevant high-level
// constructs successfully" (the stats below); the flow itself does not call
// it.  The loops the partitioner selects come from ir::LoopForest
// (ir/loops.hpp), and synthesis schedules each region from the CDFG.
#pragma once

#include <string>

#include "ir/ir.hpp"

namespace b2h::decomp {

struct StructureInfo {
  std::size_t loops = 0;
  std::size_t ifs = 0;       ///< if-then (one conditional arm)
  std::size_t if_elses = 0;  ///< if-then-else (two arms, one join)
  std::size_t unstructured_branches = 0;  ///< branches fitting neither form
  std::size_t total_blocks = 0;
  std::string pseudo;  ///< indented pseudo-code rendering

  [[nodiscard]] double StructuredFraction() const {
    const std::size_t total = ifs + if_elses + unstructured_branches;
    return total == 0
               ? 1.0
               : static_cast<double>(ifs + if_elses) /
                     static_cast<double>(total);
  }
};

[[nodiscard]] StructureInfo RecoverStructure(const ir::Function& function);

}  // namespace b2h::decomp
