#include "decomp/alias.hpp"

#include <algorithm>
#include <optional>

#include "mips/binary.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

/// Globals live in the data segment of the platform's memory map.
bool InDataSegment(std::uint64_t addr) {
  return addr >= mips::kDataBase &&
         addr - mips::kDataBase < mips::kDataSegmentSize;
}

/// Additive decomposition of an address expression: constant part plus
/// non-constant leaves (looking through adds/subs only).
struct Decomposition {
  std::int64_t const_sum = 0;
  std::vector<const ir::Instr*> leaves;
  bool ok = true;
};

void Decompose(const Value& value, Decomposition& out, int sign, int depth) {
  if (depth > 16) {
    out.ok = false;
    return;
  }
  if (value.is_const()) {
    out.const_sum += sign * static_cast<std::int64_t>(
                                static_cast<std::uint32_t>(value.imm));
    return;
  }
  const ir::Instr* def = value.def;
  if (def->op == Opcode::kAdd) {
    Decompose(def->operands[0], out, sign, depth + 1);
    Decompose(def->operands[1], out, sign, depth + 1);
    return;
  }
  if (def->op == Opcode::kSub) {
    Decompose(def->operands[0], out, sign, depth + 1);
    Decompose(def->operands[1], out, -sign, depth + 1);
    return;
  }
  out.leaves.push_back(def);
}

}  // namespace

AliasAnalysis::AliasAnalysis(
    const ir::Function& function,
    const std::map<std::string, std::uint32_t>* data_symbols)
    : function_(function) {
  if (data_symbols != nullptr) {
    for (const auto& [name, addr] : *data_symbols) {
      if (InDataSegment(addr)) {
        sorted_symbols_.emplace_back(addr, name);
      }
    }
    std::sort(sorted_symbols_.begin(), sorted_symbols_.end());
  }
  // Ids strictly increase in block order, so the last is the largest.
  const int last_id = function.blocks().back()->terminator()->id;
  region_of_.assign(static_cast<std::size_t>(last_id + 1), -1);
  for (const auto& block : function.blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op != Opcode::kLoad && instr->op != Opcode::kStore) continue;
      region_of_.at(static_cast<std::size_t>(instr->id)) =
          ClassifyAddress(instr->operands[0]);
    }
  }
}

int AliasAnalysis::InternRegion(MemRegion region) {
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].kind == region.kind && regions_[i].key == region.key) {
      return static_cast<int>(i);
    }
  }
  regions_.push_back(std::move(region));
  return static_cast<int>(regions_.size()) - 1;
}

int AliasAnalysis::ClassifyAddress(const Value& addr) {
  Decomposition decomp;
  Decompose(addr, decomp, 1, 0);
  if (!decomp.ok) return -1;

  const auto base = static_cast<std::uint64_t>(decomp.const_sum);
  // Global array: constant base inside the data segment.
  if (decomp.const_sum > 0 && InDataSegment(base)) {
    MemRegion region;
    region.kind = MemRegion::Kind::kGlobal;
    region.key = base;
    // Resolve to the containing data symbol when available.
    if (!sorted_symbols_.empty()) {
      auto it = std::upper_bound(
          sorted_symbols_.begin(), sorted_symbols_.end(),
          std::make_pair(static_cast<std::uint32_t>(base),
                         std::string("\xff")));
      if (it != sorted_symbols_.begin()) {
        --it;
        region.key = it->first;
        region.name = it->second;
      }
    }
    return InternRegion(std::move(region));
  }
  // Stack access: base derived from the sp input.
  for (const ir::Instr* leaf : decomp.leaves) {
    if (leaf->op == Opcode::kInput && leaf->input_index == 29) {
      MemRegion region;
      region.kind = MemRegion::Kind::kStack;
      region.key = 0;
      region.name = "<stack>";
      return InternRegion(std::move(region));
    }
  }
  // Parameter-relative: a single non-constant leaf that is a function input
  // or call result acts as the array base (arrays passed as arguments).
  if (decomp.leaves.size() == 1 &&
      (decomp.leaves[0]->op == Opcode::kInput ||
       decomp.leaves[0]->op == Opcode::kCall)) {
    MemRegion region;
    region.kind = MemRegion::Kind::kParam;
    region.key = static_cast<std::uint64_t>(decomp.leaves[0]->id);
    region.name = "<param>";
    return InternRegion(std::move(region));
  }
  return -1;
}

int AliasAnalysis::RegionIdOf(const ir::Instr* instr) const {
  const auto id = static_cast<std::size_t>(instr->id);
  const bool ours =
      instr->parent != nullptr && instr->parent->parent == &function_;
  return ours && id < region_of_.size() ? region_of_[id] : -1;
}

std::set<int> AliasAnalysis::RegionsIn(const ir::Loop& loop) const {
  std::set<int> out;
  for (const ir::Block* block : loop.blocks) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op != Opcode::kLoad && instr->op != Opcode::kStore) continue;
      out.insert(RegionIdOf(instr));
    }
  }
  return out;
}

bool AliasAnalysis::MayAlias(const ir::Instr* a, const ir::Instr* b) const {
  const int ra = RegionIdOf(a);
  const int rb = RegionIdOf(b);
  if (ra < 0 || rb < 0) return true;  // unknown: conservative
  return ra == rb;
}

}  // namespace b2h::decomp
