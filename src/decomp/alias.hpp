// Memory region / alias analysis.
//
// Paper §3, step two: "we use alias information to find regions of code that
// access the same memory locations as the loops in the hardware partition."
// At the binary level an array is identified by the constant base address
// appearing in its access expressions; when the binary carries data symbols
// (our assembler records them) bases are resolved to the containing symbol
// so that a[0] and a[i] land in the same region.
//
// The analysis also feeds behavioral synthesis: memory accesses in provably
// different regions need no dependence edge, which is what lets the
// scheduler overlap loads from one array with stores to another.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "ir/loops.hpp"

namespace b2h::decomp {

struct MemRegion {
  enum class Kind : std::uint8_t { kGlobal, kParam, kStack, kUnknown };
  Kind kind = Kind::kUnknown;
  std::uint64_t key = 0;   ///< base address / defining instr id
  std::string name;        ///< symbol name when known
};

class AliasAnalysis {
 public:
  /// `data_symbols` (optional): label -> address map from the binary.
  /// Reads the function's numbering (Instr::id) and never renumbers: a
  /// finished program is shared between threads.
  AliasAnalysis(const ir::Function& function,
                const std::map<std::string, std::uint32_t>* data_symbols);

  [[nodiscard]] const std::vector<MemRegion>& regions() const {
    return regions_;
  }
  /// Region index of a load/store, or -1 when unclassifiable or not an
  /// access of the analysed function.
  [[nodiscard]] int RegionIdOf(const ir::Instr* instr) const;

  /// Region ids touched by any load/store in `loop`.
  [[nodiscard]] std::set<int> RegionsIn(const ir::Loop& loop) const;

  /// Conservative: may the two memory operations access the same location?
  [[nodiscard]] bool MayAlias(const ir::Instr* a, const ir::Instr* b) const;

 private:
  int ClassifyAddress(const ir::Value& addr);
  int InternRegion(MemRegion region);

  const ir::Function& function_;
  std::vector<std::pair<std::uint32_t, std::string>> sorted_symbols_;
  std::vector<MemRegion> regions_;
  std::vector<int> region_of_;  ///< by Instr::id; -1 unclassified
};

}  // namespace b2h::decomp
