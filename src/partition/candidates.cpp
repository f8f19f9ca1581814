#include "partition/candidates.hpp"

#include <algorithm>
#include <utility>

#include "ir/dominators.hpp"
#include "ir/loops.hpp"
#include "support/error.hpp"

namespace b2h::partition {

namespace {

/// Functions reachable from main via surviving calls, flagged by position
/// in Module::functions (inlined-away callees would otherwise be
/// double-counted: their blocks share binary addresses with the inlined
/// copies).
std::vector<char> ReachableFunctions(const ir::Module& module) {
  const auto& functions = module.functions;
  std::vector<char> reachable(functions.size(), 0);
  std::vector<const ir::Function*> work{module.main};
  while (!work.empty()) {
    const ir::Function* function = work.back();
    work.pop_back();
    const auto it = std::find_if(
        functions.begin(), functions.end(),
        [function](const auto& entry) { return entry.get() == function; });
    if (it == functions.end() ||
        std::exchange(reachable[it - functions.begin()], 1) != 0) {
      continue;
    }
    for (const auto& block : function->blocks()) {
      for (const ir::Instr* instr : block->instrs) {
        if (instr->op != ir::Opcode::kCall) continue;
        const ir::Function* callee = module.FindByEntry(instr->call_target);
        if (callee != nullptr) work.push_back(callee);
      }
    }
  }
  return reachable;
}

std::vector<std::uint32_t> BlockLeaders(
    const std::vector<const ir::Block*>& blocks) {
  std::vector<std::uint32_t> leaders;
  leaders.reserve(blocks.size());
  for (const ir::Block* block : blocks) leaders.push_back(block->start_pc);
  return leaders;
}

// Bitset rows over candidate ids (see CandidateSet::overlap_row).
void SetBit(std::span<std::uint64_t> row, std::size_t bit) {
  row[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

bool Intersects(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

}  // namespace

CandidateSet CandidateSet::Scan(const decomp::DecompiledProgram& program,
                                const mips::ExecProfile& profile) {
  CandidateSet set;
  set.total_sw_cycles_ = profile.total_cycles;

  // All block leaders in the module (for PC -> block attribution).
  std::vector<std::uint32_t> all_leaders;
  for (const auto& function : program.module.functions) {
    for (const auto& block : function->blocks()) {
      all_leaders.push_back(block->start_pc);
    }
  }

  const std::vector<char> reachable = ReachableFunctions(program.module);
  for (std::size_t f = 0; f < program.module.functions.size(); ++f) {
    if (reachable[f] == 0) continue;
    const auto& function = program.module.functions[f];
    FunctionAnalyses analyses;
    analyses.function = function.get();
    analyses.dom = std::make_unique<ir::DominatorTree>(*function);
    analyses.forest =
        std::make_unique<ir::LoopForest>(*function, *analyses.dom);
    analyses.forest->AnnotateProfile();
    analyses.alias = std::make_unique<decomp::AliasAnalysis>(
        *function,
        program.binary != nullptr ? &program.binary->symbols : nullptr);

    for (const auto& loop : analyses.forest->loops()) {
      // Whole loop nests are candidates too: when an inner loop is entered
      // many times, moving the enclosing loop avoids paying the kernel
      // start/stop handshake per entry (the paper moves "loops", nesting
      // included).  Overlapping selections are excluded at selection time.
      Candidate candidate;
      candidate.function = function.get();
      candidate.loop = loop.get();
      candidate.region = synth::ExtractLoopRegion(*function, *loop);
      candidate.sw_cycles = RegionSwCycles(
          profile, all_leaders, BlockLeaders(candidate.region.blocks));
      candidate.invocations = std::max<std::uint64_t>(1, loop->entry_count);
      candidate.alias_regions = analyses.alias->RegionsIn(*loop);
      if (program.binary != nullptr) {
        candidate.comm_words = ArrayFootprintWords(
            *analyses.alias, candidate.alias_regions, *program.binary);
      }
      for (const ir::Block* block : candidate.region.blocks) {
        std::uint64_t mem_ops = 0;
        for (const ir::Instr* instr : block->instrs) {
          if (instr->op == ir::Opcode::kLoad ||
              instr->op == ir::Opcode::kStore) {
            ++mem_ops;
          }
        }
        candidate.mem_accesses += mem_ops * block->exec_count;
      }
      set.candidates_.push_back(std::move(candidate));
    }
    set.analyses_.push_back(std::move(analyses));
  }

  std::stable_sort(set.candidates_.begin(), set.candidates_.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.sw_cycles > b.sw_cycles;
                   });
  for (const Candidate& candidate : set.candidates_) {
    // Count outermost loops only: nested candidates overlap their parents.
    if (candidate.loop->parent == nullptr) {
      set.loop_cycles_total_ += candidate.sw_cycles;
    }
  }
  set.loop_coverage_ =
      profile.total_cycles > 0
          ? static_cast<double>(set.loop_cycles_total_) /
                static_cast<double>(profile.total_cycles)
          : 0.0;

  // Relation tables: every pair of candidates holding a common block
  // overlaps, and every pair of one function's candidates touching a common
  // alias region shares an array.  Sorting (key, candidate) pairs puts each
  // key's holders next to each other.
  const std::size_t count = set.candidates_.size();
  set.row_words_ = (count + 63) / 64;
  set.overlap_rows_.assign(count * set.row_words_, 0);
  set.array_rows_.assign(count * set.row_words_, 0);
  using Key = std::pair<std::uintptr_t, int>;
  std::vector<std::pair<Key, std::size_t>> blocks;
  std::vector<std::pair<Key, std::size_t>> arrays;
  for (std::size_t id = 0; id < count; ++id) {
    const Candidate& candidate = set.candidates_[id];
    for (const ir::Block* block : candidate.region.blocks) {
      blocks.push_back({{reinterpret_cast<std::uintptr_t>(block), 0}, id});
    }
    for (int region : candidate.alias_regions) {
      arrays.push_back(
          {{reinterpret_cast<std::uintptr_t>(candidate.function), region},
           id});
    }
  }
  const auto relate = [&set](std::vector<std::uint64_t>& rows,
                             std::vector<std::pair<Key, std::size_t>>& keyed) {
    std::sort(keyed.begin(), keyed.end());
    std::size_t end = 0;
    for (std::size_t begin = 0; begin < keyed.size(); begin = end) {
      while (end < keyed.size() && keyed[end].first == keyed[begin].first) {
        ++end;
      }
      for (std::size_t a = begin; a < end; ++a) {
        const std::span<std::uint64_t> row(
            rows.data() + keyed[a].second * set.row_words_, set.row_words_);
        for (std::size_t b = begin; b < end; ++b) SetBit(row, keyed[b].second);
      }
    }
  };
  relate(set.overlap_rows_, blocks);
  relate(set.array_rows_, arrays);

  set.memo_ = std::make_unique<SynthesisMemo>(count);
  return set;
}

const decomp::AliasAnalysis& CandidateSet::alias_for(
    const ir::Function* function) const {
  for (const FunctionAnalyses& analyses : analyses_) {
    if (analyses.function == function) return *analyses.alias;
  }
  Check(false, "CandidateSet: no alias analysis for function");
  __builtin_unreachable();
}

const Result<synth::SynthesizedRegion>& CandidateSet::Synthesize(
    std::size_t id, const synth::SynthOptions& options) const {
  Check(id < candidates_.size(), "CandidateSet::Synthesize: bad id");
  // Slots are allocated at scan time and written once, so the reference
  // stays valid; only callers of this same candidate wait here.
  SynthesisMemo::Slot& slot = memo_->slots[id];
  std::call_once(slot.once, [&] {
    try {
      const Candidate& candidate = candidates_[id];
      slot.result = synth::Synthesize(candidate.region,
                                      &alias_for(candidate.function), options);
      memo_->runs.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      slot.error = std::current_exception();
    }
  });
  if (slot.error) std::rethrow_exception(slot.error);
  return *slot.result;
}

std::size_t CandidateSet::synthesis_runs() const {
  return memo_->runs.load(std::memory_order_relaxed);
}

// ---------------------------------------------------- CandidateSetPool

std::shared_ptr<const CandidateSet> ObtainCandidates(
    const decomp::DecompiledProgram& program, const mips::ExecProfile& profile,
    std::shared_ptr<const CandidateSet> shared) {
  if (shared != nullptr) return shared;
  return std::make_shared<const CandidateSet>(
      CandidateSet::Scan(program, profile));
}

CandidateSetPool::CandidateSetPool()
    : sets_(kMaxEntries, {}, [this](const Pooled& evicted, std::size_t) {
        retired_synthesis_runs_ += evicted.set.synthesis_runs();
      }) {}

std::shared_ptr<const CandidateSet> CandidateSetPool::Obtain(
    const std::string& key,
    std::shared_ptr<const decomp::DecompiledProgram> program,
    const mips::ExecProfile& profile) {
  Check(program != nullptr, "CandidateSetPool::Obtain: null program");
  const auto pooled = sets_.Obtain({key, program.get()}, [&] {
    return std::make_shared<const Pooled>(
        Pooled{program, CandidateSet::Scan(*program, profile)});
  });
  return {pooled, &pooled->set};
}

CandidateSetPool::Stats CandidateSetPool::stats() const {
  const auto cache = sets_.stats();
  Stats stats;
  stats.scans = cache.builds;
  stats.hits = cache.hits;
  stats.entries = cache.entries;
  stats.synthesis_runs = retired_synthesis_runs_;
  for (const auto& pooled : sets_.Values()) {
    stats.synthesis_runs += pooled->set.synthesis_runs();
  }
  return stats;
}

void CandidateSetPool::Clear() { sets_.Clear(); }

// ------------------------------------------------------- SelectionState

SelectionState::SelectionState(const CandidateSet& set,
                               const Platform& platform,
                               const PartitionOptions& options)
    : set_(set),
      platform_(platform),
      options_(options),
      selected_(set.size(), false),
      chosen_row_(set.row_words(), 0),
      area_budget_(platform.fpga.budget_gates()) {}

void SelectionState::AppendRejection(std::string reason) {
  result_.rejected.push_back(std::move(reason));
}

bool SelectionState::TrySelect(std::size_t id, SelectedBy reason) {
  Check(id < set_.size(), "SelectionState::TrySelect: bad id");
  const Candidate& candidate = set_.candidates()[id];
  if (selected_[id]) return false;
  // A region nested inside (or containing) an already-selected region is
  // already covered by that hardware.
  if (Intersects(set_.overlap_row(id), chosen_row_)) {
    selected_[id] = true;  // subsumed
    return false;
  }
  const auto& synthesized = set_.Synthesize(id, options_.synth);
  if (!synthesized.ok()) {
    result_.rejected.push_back(candidate.region.name + ": " +
                               synthesized.status().message());
    return false;
  }
  if (area_used_ + synthesized.value().area.total_gates > area_budget_) {
    result_.rejected.push_back(candidate.region.name +
                               ": area constraint violated");
    return false;
  }
  // Hardware suitability (paper §3, third step only): a greedy addition
  // must pay off even with worst-case (non-resident) memory traffic.
  // Step-1 kernels are selected purely by frequency, as in the paper; the
  // alias step then fixes their memory placement.  Search strategies
  // (kOptimal / kAnnealing) gate profitability through their objective.
  if (reason == SelectedBy::kGreedy) {
    const double fpga_hz =
        std::min(synthesized.value().clock_mhz, platform_.fpga.clock_mhz_cap) *
        1e6;
    const double hw_seconds =
        (static_cast<double>(synthesized.value().hw_cycles) +
         static_cast<double>(candidate.invocations) *
             platform_.comm.setup_cycles +
         static_cast<double>(candidate.mem_accesses) *
             platform_.comm.bus_penalty_cycles) /
        fpga_hz;
    const double sw_seconds = static_cast<double>(candidate.sw_cycles) /
                              (platform_.cpu.clock_mhz * 1e6);
    if (hw_seconds >= sw_seconds) {
      result_.rejected.push_back(candidate.region.name +
                                 ": not profitable in hardware");
      return false;
    }
  }
  SelectedRegion selected;
  selected.synthesized = synthesized.value();
  // The loop analysis lives only for the duration of the partitioning
  // call; the stored region must not carry a pointer into it.  The loop's
  // identity survives as region.blocks.front()->start_pc (the header
  // leader).
  selected.synthesized.region.loop = nullptr;
  selected.selected_by = reason;
  selected.sw_cycles = candidate.sw_cycles;
  selected.invocations = candidate.invocations;
  selected.comm_words = candidate.comm_words;
  selected.mem_accesses = candidate.mem_accesses;
  selected.alias_regions.assign(candidate.alias_regions.begin(),
                                candidate.alias_regions.end());
  area_used_ += selected.synthesized.area.total_gates;
  result_.hw.push_back(std::move(selected));
  selected_[id] = true;
  chosen_.push_back(id);
  SetBit(chosen_row_, id);
  return true;
}

void SelectionState::MarkCovered() {
  for (std::size_t id = 0; id < set_.size(); ++id) {
    if (!selected_[id] && Intersects(set_.overlap_row(id), chosen_row_)) {
      selected_[id] = true;
    }
  }
}

void SelectionState::ComputeResidency() {
  // Arrays shared only among hardware kernels become FPGA-resident: no
  // DMA per invocation.  An array also touched by software code that
  // remains on the CPU must stay in main memory.
  std::vector<std::uint64_t> software(set_.row_words(), 0);
  for (std::size_t id = 0; id < set_.size(); ++id) {
    if (!selected_[id]) SetBit(software, id);
  }
  for (std::size_t k = 0; k < chosen_.size(); ++k) {
    SelectedRegion& selected = result_.hw[k];  // committed with chosen_[k]
    selected.arrays_resident = !selected.alias_regions.empty() &&
                               !Intersects(set_.array_row(chosen_[k]),
                                           software);
  }
}

PartitionResult SelectionState::Take() {
  result_.area_used_gates = area_used_;
  result_.area_budget_gates = area_budget_;
  result_.total_sw_cycles = set_.total_sw_cycles();
  result_.loop_coverage = set_.loop_coverage();
  return std::move(result_);
}

// ------------------------------------------------ search-strategy helpers

std::vector<std::size_t> GreedyChosenSubset(const CandidateSet& set,
                                            const Platform& platform,
                                            const PartitionOptions& options) {
  SelectionState greedy(set, platform, options);
  PaperGreedySelect(set, greedy);
  std::vector<std::size_t> chosen = greedy.chosen();
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

ViableCandidates FilterViableCandidates(const CandidateSet& set,
                                        const Platform& platform,
                                        const PartitionOptions& options) {
  ViableCandidates viable;
  const double budget = platform.fpga.budget_gates();
  for (std::size_t id = 0; id < set.size(); ++id) {
    const Candidate& candidate = set.candidates()[id];
    if (candidate.sw_cycles == 0) continue;
    const auto& synthesized = set.Synthesize(id, options.synth);
    if (!synthesized.ok()) {
      viable.infeasible_reasons.push_back(candidate.region.name + ": " +
                                          synthesized.status().message());
      continue;
    }
    if (synthesized.value().area.total_gates > budget) {
      viable.infeasible_reasons.push_back(candidate.region.name +
                                          ": area constraint violated");
      continue;
    }
    viable.ids.push_back(id);
  }
  return viable;
}

PartitionResult CommitSubset(const CandidateSet& set, const Platform& platform,
                             const PartitionOptions& options,
                             const std::vector<std::size_t>& subset,
                             SelectedBy reason, const ViableCandidates& viable,
                             const std::string& excluded_reason,
                             std::vector<std::string> extra_rejections) {
  SelectionState state(set, platform, options);
  for (std::size_t id : subset) {
    const bool committed = state.TrySelect(id, reason);
    Check(committed, "CommitSubset: winning subset failed to commit");
  }
  state.MarkCovered();
  state.ComputeResidency();
  for (std::size_t id : viable.ids) {
    if (state.selected(id)) continue;
    state.AppendRejection(set.candidates()[id].region.name + ": " +
                          excluded_reason);
  }
  for (std::string& rejection : extra_rejections) {
    state.AppendRejection(std::move(rejection));
  }
  for (const std::string& rejection : viable.infeasible_reasons) {
    state.AppendRejection(rejection);
  }
  return state.Take();
}

// --------------------------------------------------------- SubsetScorer

SubsetScorer::SubsetScorer(const CandidateSet& set, const Platform& platform,
                           const PartitionOptions& options,
                           const std::vector<std::size_t>& viable,
                           const std::vector<std::size_t>& start)
    : set_(set),
      platform_(platform),
      budget_(platform.fpga.budget_gates()),
      members_(set.size()),
      kernels_(set.size()),
      in_subset_(set.row_words(), 0),
      software_(set.row_words(), 0) {
  for (const std::vector<std::size_t>* ids : {&viable, &start}) {
    for (std::size_t id : *ids) {
      Check(id < set.size(), "SubsetScorer: bad candidate id");
      Member& member = members_[id];
      if (member.listed) continue;
      const Candidate& candidate = set.candidates()[id];
      const auto& synthesized = set.Synthesize(id, options.synth);
      member.listed = true;
      member.synthesized = synthesized.ok();
      member.touches_arrays = !candidate.alias_regions.empty();
      KernelEstimate& kernel = member.kernel;
      kernel.sw_cycles = candidate.sw_cycles;
      kernel.invocations = candidate.invocations;
      kernel.comm_words = candidate.comm_words;
      kernel.mem_accesses = candidate.mem_accesses;
      if (!synthesized.ok()) continue;
      kernel.hw_cycles = synthesized.value().hw_cycles;
      kernel.hw_clock_mhz =
          std::min(synthesized.value().clock_mhz, platform.fpga.clock_mhz_cap);
      kernel.area_gates = synthesized.value().area.total_gates;
    }
  }
}

const AppEstimate* SubsetScorer::Score(
    const std::vector<std::size_t>& subset) {
  Check(subset.size() <= kernels_.size(), "SubsetScorer::Score: bad subset");
  scored_ = 0;
  // Feasibility: every member synthesized, no member overlapping an
  // earlier one, and the area (summed in subset order) within budget.
  std::fill(in_subset_.begin(), in_subset_.end(), 0);
  double area = 0.0;
  for (std::size_t id : subset) {
    Check(id < members_.size() && members_[id].listed,
          "SubsetScorer::Score: candidate not listed");
    const Member& member = members_[id];
    if (!member.synthesized ||
        Intersects(set_.overlap_row(id), in_subset_)) {
      return nullptr;
    }
    SetBit(in_subset_, id);
    area += member.kernel.area_gates;
  }
  if (area > budget_) return nullptr;

  // Residency, mirroring the alias step: a member's arrays are
  // FPGA-resident iff no candidate left in software (neither a member nor
  // overlapping one) touches them.
  for (std::size_t w = 0; w < software_.size(); ++w) {
    software_[w] = ~in_subset_[w];
  }
  for (std::size_t id : subset) {
    const std::span<const std::uint64_t> row = set_.overlap_row(id);
    for (std::size_t w = 0; w < software_.size(); ++w) software_[w] &= ~row[w];
  }
  for (std::size_t id : subset) {
    const Member& member = members_[id];
    KernelEstimate& kernel = kernels_[scored_++];
    kernel = member.kernel;
    kernel.arrays_resident = member.touches_arrays &&
                             !Intersects(set_.array_row(id), software_);
  }
  CombineEstimates(platform_, set_.total_sw_cycles(),
                   std::span<KernelEstimate>(kernels_.data(), scored_),
                   &estimate_);
  return &estimate_;
}

}  // namespace b2h::partition
