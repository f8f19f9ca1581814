// Candidate enumeration and selection machinery shared by every
// partitioning strategy.
//
// Historically this lived inline in the paper partitioner.  The exploration
// engine needs the same candidate scan (loops + analyses + profile
// weights), the same selection bookkeeping (overlap subsumption, area
// accounting, rejection reasons), and the same array-residency rules for
// *multiple* selection policies, so the machinery is factored out here:
//
//   CandidateSet   — one scan of the decompiled program: every loop (nests
//                    included) with its profile weight, alias regions, and
//                    a memoized synthesis result.
//   SelectionState — commit-side bookkeeping with semantics identical to
//                    the original three-step partitioner's try_select.
//   SubsetScorer   — score arbitrary candidate subsets the way
//                    EstimatePartition would, for search strategies.
//
// Synthesis sharing (the seed-sweep fix): candidate synthesis is memoized
// at the CandidateSet level, *beneath* the strategy layer — so strategies
// that receive the same CandidateSet instance (via
// StrategyOptions::candidates, populated from a CandidateSetPool) share
// every synthesis result.  A seed sweep over the annealing strategy — the
// exact repeated-request shape the b2h-serve daemon sees — synthesizes
// each candidate once total instead of once per seed.  Each memo slot has
// its own std::once_flag, so pooled sets are safe under the Explorer's and
// the server's concurrent strategy invocations, and a thread that needs one
// candidate never waits behind another candidate's synthesis.
//
// Lock-free scoring: Scan also builds two dense relation tables, one
// bitset row per candidate with ceil(n/64) words per row — which
// candidates share a block (overlap) and which share an alias array.  They
// never change after Scan, so Overlaps, SelectionState and SubsetScorer
// read them from any thread without a lock.  A search strategy builds one
// SubsetScorer per call, which copies the synthesized metrics it needs out
// of the memo once; scoring a subset then takes no lock and allocates
// nothing.  Scores stay bit-identical to the original per-subset scorer
// because the floating-point arithmetic keeps its order: area sums in
// subset order and one CombineEstimates body prices the kernels.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "decomp/alias.hpp"
#include "decomp/pipeline.hpp"
#include "ir/dominators.hpp"
#include "ir/loops.hpp"
#include "partition/estimate.hpp"
#include "partition/partitioner.hpp"
#include "support/once_cache.hpp"
#include "synth/synth.hpp"

namespace b2h::partition {

/// One candidate loop region.  Pointers reference analyses owned by the
/// CandidateSet and IR owned by the DecompiledProgram; both must outlive
/// any use of the candidate.
struct Candidate {
  const ir::Function* function = nullptr;
  const ir::Loop* loop = nullptr;
  synth::HwRegion region;
  std::uint64_t sw_cycles = 0;
  std::uint64_t invocations = 1;
  std::set<int> alias_regions;
  std::uint64_t comm_words = 0;
  std::uint64_t mem_accesses = 0;  ///< profile-weighted loads+stores
};

class CandidateSet {
 public:
  /// Scan a decompiled program: gather candidate loops (whole nests
  /// included — overlaps are resolved at selection time) from functions
  /// reachable from main, annotate profiles, and order candidates by
  /// descending software cycles (stable: scan order breaks ties).
  [[nodiscard]] static CandidateSet Scan(
      const decomp::DecompiledProgram& program,
      const mips::ExecProfile& profile);

  [[nodiscard]] const std::vector<Candidate>& candidates() const {
    return candidates_;
  }
  [[nodiscard]] std::size_t size() const { return candidates_.size(); }
  [[nodiscard]] std::uint64_t total_sw_cycles() const {
    return total_sw_cycles_;
  }
  /// Cycles spent in outermost candidate loops (for the 90-10 coverage).
  [[nodiscard]] std::uint64_t loop_cycles_total() const {
    return loop_cycles_total_;
  }
  [[nodiscard]] double loop_coverage() const { return loop_coverage_; }

  [[nodiscard]] const decomp::AliasAnalysis& alias_for(
      const ir::Function* function) const;

  /// Memoized synthesis of candidate `id`: the first call synthesizes, later
  /// calls return the cached result (synthesis is deterministic, so the
  /// memo ignores `options` after the first call — every caller of a set
  /// shared through a CandidateSetPool passes the default options, which
  /// keeps that sound).  Thread-safe: each candidate is computed exactly
  /// once, and concurrent callers wait only for the candidate they asked
  /// for.  A synthesis that throws is memoized too: every call rethrows.
  [[nodiscard]] const Result<synth::SynthesizedRegion>& Synthesize(
      std::size_t id, const synth::SynthOptions& options) const;

  /// Number of synthesis computations actually performed (memo misses) —
  /// the seed-sweep sharing tests key on this staying flat across seeds.
  [[nodiscard]] std::size_t synthesis_runs() const;

  /// True when candidates `a` and `b` share at least one block (nested or
  /// otherwise overlapping loop regions).  One bit of the overlap table.
  [[nodiscard]] bool Overlaps(std::size_t a, std::size_t b) const {
    return (overlap_row(a)[b / 64] >> (b % 64)) & 1u;
  }

  /// Rows of the dense relation tables: bitsets over candidate ids (bit b
  /// of word b / 64), row_words() words long.  Built by Scan, read-only
  /// afterwards.
  [[nodiscard]] std::size_t row_words() const { return row_words_; }
  /// Candidates sharing at least one block with `id` (itself included).
  [[nodiscard]] std::span<const std::uint64_t> overlap_row(
      std::size_t id) const {
    return {overlap_rows_.data() + id * row_words_, row_words_};
  }
  /// Candidates of `id`'s function touching an alias region `id` touches
  /// (itself included when it touches any): the candidates whose staying in
  /// software keeps `id`'s arrays in main memory.
  [[nodiscard]] std::span<const std::uint64_t> array_row(
      std::size_t id) const {
    return {array_rows_.data() + id * row_words_, row_words_};
  }

 private:
  std::vector<Candidate> candidates_;
  std::uint64_t total_sw_cycles_ = 0;
  std::uint64_t loop_cycles_total_ = 0;
  double loop_coverage_ = 0.0;

  // Analyses keyed/owned per reachable function.
  struct FunctionAnalyses {
    const ir::Function* function = nullptr;
    std::unique_ptr<ir::DominatorTree> dom;
    std::unique_ptr<ir::LoopForest> forest;
    std::unique_ptr<decomp::AliasAnalysis> alias;
  };
  std::vector<FunctionAnalyses> analyses_;

  std::size_t row_words_ = 0;
  std::vector<std::uint64_t> overlap_rows_;
  std::vector<std::uint64_t> array_rows_;

  // The lazy synthesis memo, one slot per candidate, allocated by Scan;
  // owned through a pointer so CandidateSet stays movable (Scan returns by
  // value).
  struct SynthesisMemo {
    struct Slot {
      std::once_flag once;
      std::optional<Result<synth::SynthesizedRegion>> result;
      // Caught inside call_once and rethrown outside it: under
      // ThreadSanitizer, a call_once whose callable threw never returns
      // to the next caller.
      std::exception_ptr error;
    };
    explicit SynthesisMemo(std::size_t count) : slots(count) {}
    std::vector<Slot> slots;
    std::atomic<std::size_t> runs{0};
  };
  std::unique_ptr<SynthesisMemo> memo_;
};

/// Shared candidate set for one Partition call: the pre-scanned set handed
/// down through StrategyOptions::candidates when the caller pools scans
/// (the exploration engine, the b2h-serve daemon), or a fresh scan
/// otherwise.  Every strategy obtains its set through this helper, which
/// is what moves synthesis memoization beneath the strategy layer.
[[nodiscard]] std::shared_ptr<const CandidateSet> ObtainCandidates(
    const decomp::DecompiledProgram& program, const mips::ExecProfile& profile,
    std::shared_ptr<const CandidateSet> shared);

/// Process-lifetime pool of CandidateSets, a support::OnceCache keyed on
/// (decompile artifact key, program instance).  Each entry pins the
/// decompiled program it points into, so a set is only served to the
/// instance it was scanned from: a program recomputed after
/// ArtifactCache::Clear() is a different instance and gets its own scan,
/// and pooled candidates can never dangle into a replaced program.
/// Callers racing on one key share one scan.  Bounded LRU at kMaxEntries so
/// a long-lived server cannot accumulate unbounded IR.
class CandidateSetPool {
 public:
  struct Stats {
    std::size_t scans = 0;    ///< candidate scans actually performed
    std::size_t hits = 0;     ///< Obtain calls served by an existing entry
    std::size_t entries = 0;  ///< live entries
    /// Total synthesis computations across live + evicted entries — flat
    /// across a seed sweep when sharing works.
    std::size_t synthesis_runs = 0;
  };

  static constexpr std::size_t kMaxEntries = 16;

  CandidateSetPool();

  [[nodiscard]] std::shared_ptr<const CandidateSet> Obtain(
      const std::string& key,
      std::shared_ptr<const decomp::DecompiledProgram> program,
      const mips::ExecProfile& profile);

  [[nodiscard]] Stats stats() const;
  /// Drop every entry and its pinned IR.  Scans and hits keep counting;
  /// the dropped sets' synthesis runs leave `synthesis_runs`.
  void Clear();

 private:
  /// A scanned set and the program instance its candidates point into.
  struct Pooled {
    std::shared_ptr<const decomp::DecompiledProgram> program;
    CandidateSet set;
  };
  using Key = std::pair<std::string, const decomp::DecompiledProgram*>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::string>()(key.first) ^
             std::hash<const void*>()(key.second);
    }
  };

  std::atomic<std::size_t> retired_synthesis_runs_{0};  ///< of evicted sets
  support::OnceCache<Key, Pooled, KeyHash> sets_;
};

/// Commit-side selection bookkeeping.  TrySelect reproduces the original
/// partitioner's try_select semantics exactly: overlap subsumption, lazily
/// memoized synthesis, area accounting, the greedy profitability gate, and
/// the order and wording of rejection reasons.
class SelectionState {
 public:
  SelectionState(const CandidateSet& set, const Platform& platform,
                 const PartitionOptions& options);

  /// Attempt to move candidate `id` to hardware.  Returns true when the
  /// candidate was committed; failures append to the rejection log.  The
  /// profitability gate applies to SelectedBy::kGreedy only (paper §3:
  /// step-1 kernels are selected purely by frequency).
  bool TrySelect(std::size_t id, SelectedBy reason);

  /// True when `id` was committed OR subsumed by a committed region.
  [[nodiscard]] bool selected(std::size_t id) const { return selected_[id]; }
  [[nodiscard]] const std::vector<std::size_t>& chosen() const {
    return chosen_;
  }

  void AppendRejection(std::string reason);

  /// Mark every unselected candidate that overlaps committed hardware as
  /// covered, so ComputeResidency does not treat it as software.  The
  /// greedy strategy gets this marking as a side effect of attempting
  /// every candidate; subset-search strategies call this explicitly after
  /// committing their chosen subset.
  void MarkCovered();

  /// Recompute SelectedRegion::arrays_resident over the current hardware
  /// set: arrays shared only among hardware kernels (and regions they
  /// subsume) become FPGA-resident; arrays also touched by software-side
  /// candidates must stay in main memory.
  void ComputeResidency();

  /// Finalize: fills the area/coverage summary fields and returns the
  /// result (the state is spent afterwards).
  [[nodiscard]] PartitionResult Take();

 private:
  const CandidateSet& set_;
  const Platform& platform_;
  const PartitionOptions& options_;
  PartitionResult result_;
  std::vector<bool> selected_;
  std::vector<std::size_t> chosen_;
  std::vector<std::uint64_t> chosen_row_;  ///< bitset of chosen_
  double area_used_ = 0.0;
  double area_budget_ = 0.0;
};

/// The paper's three selection steps (frequency, alias, greedy fill) run
/// against a SelectionState.  Defined with the paper-greedy strategy;
/// search strategies reuse it to seed their incumbent/start subset.
void PaperGreedySelect(const CandidateSet& set, SelectionState& state);

/// The greedy subset as a sorted id list (runs PaperGreedySelect on a
/// scratch state) — the incumbent/start point of the search strategies.
[[nodiscard]] std::vector<std::size_t> GreedyChosenSubset(
    const CandidateSet& set, const Platform& platform,
    const PartitionOptions& options);

/// Candidates a search strategy may select: profiled (sw_cycles > 0),
/// synthesizable, and individually within the area budget.  Everything
/// else carries a rejection reason (same wording the greedy strategy
/// uses) for the final result.
struct ViableCandidates {
  std::vector<std::size_t> ids;  ///< candidate order = sw_cycles descending
  std::vector<std::string> infeasible_reasons;
};
[[nodiscard]] ViableCandidates FilterViableCandidates(
    const CandidateSet& set, const Platform& platform,
    const PartitionOptions& options);

/// Shared commit epilogue of the search strategies: select `subset` (sorted
/// ascending = descending software cycles) with `reason`, mark regions the
/// subset covers, recompute residency, and append rejections — viable
/// candidates left in software get `excluded_reason`, then
/// `extra_rejections`, then the filter's infeasible reasons.
[[nodiscard]] PartitionResult CommitSubset(
    const CandidateSet& set, const Platform& platform,
    const PartitionOptions& options, const std::vector<std::size_t>& subset,
    SelectedBy reason, const ViableCandidates& viable,
    const std::string& excluded_reason,
    std::vector<std::string> extra_rejections = {});

/// Exact subset scoring for search strategies, one scorer per strategy
/// call: Score applies the same residency rules as the alias step and
/// combines the members into an application estimate.  Construction copies
/// the synthesized metrics of every candidate a subset may contain out of
/// the set's memo; Score reads only those copies and the set's tables, so
/// it takes no lock and allocates nothing.  Not thread-safe.
class SubsetScorer {
 public:
  /// `viable` and `start` together list every candidate a scored subset
  /// may contain (a search's moves and its start subset).  Synthesizes
  /// through the memo, so candidates already synthesized cost nothing.
  SubsetScorer(const CandidateSet& set, const Platform& platform,
               const PartitionOptions& options,
               const std::vector<std::size_t>& viable,
               const std::vector<std::size_t>& start);

  /// Score `subset` (candidate ids, each listed at construction).  Returns
  /// null when a member failed synthesis or the subset overlaps internally
  /// or exceeds the area budget; otherwise an estimate without kernels,
  /// valid until the next call.
  [[nodiscard]] const AppEstimate* Score(
      const std::vector<std::size_t>& subset);

  /// Kernels priced by the last successful Score, in subset order.  Names
  /// are left empty.
  [[nodiscard]] std::span<const KernelEstimate> kernels() const {
    return {kernels_.data(), scored_};
  }

  /// Candidate `id`'s unpriced kernel: software and synthesized metrics
  /// (hw_clock_mhz already capped by the platform).  `id` must have been
  /// listed at construction and have synthesized.
  [[nodiscard]] const KernelEstimate& metrics(std::size_t id) const {
    return members_[id].kernel;
  }

 private:
  struct Member {
    KernelEstimate kernel;
    bool listed = false;
    bool synthesized = false;
    bool touches_arrays = false;
  };

  const CandidateSet& set_;
  const Platform& platform_;
  double budget_ = 0.0;
  std::vector<Member> members_;           ///< indexed by candidate id
  std::vector<KernelEstimate> kernels_;   ///< pricing buffer
  std::size_t scored_ = 0;                ///< kernels_ priced by last Score
  std::vector<std::uint64_t> in_subset_;  ///< bitset rows, reused per Score
  std::vector<std::uint64_t> software_;   ///< candidates left in software
  AppEstimate estimate_;
};

}  // namespace b2h::partition
