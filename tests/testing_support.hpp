// Shared test-only helpers (not globbed as a test binary: CMake only picks
// up tests/test_*.cpp).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "decomp/pass_manager.hpp"
#include "ir/dominators.hpp"
#include "partition/candidates.hpp"
#include "partition/strategy.hpp"

namespace b2h::testing_support {

/// mkdtemp-backed scratch directory, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "b2h-test-XXXXXX").string();
    std::vector<char> buffer(templ.begin(), templ.end());
    buffer.push_back('\0');
    const char* made = mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Pins an environment variable (nullptr = unset) and restores the
/// original on destruction — even when an ASSERT aborts the scope — so
/// process-global state never leaks between tests.  Construct one at
/// namespace scope to pin a variable for a whole test binary (e.g.
/// B2H_CACHE_DIR, which the Toolchain default constructor reads: an
/// exported value would otherwise make every sweep disk-warm and flip
/// work-counter assertions).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_value_ = old != nullptr;
    if (had_value_) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

/// Decompile a copy of `binary` through the pipeline `spec` (see
/// decomp::PassManager::FromSpec), profile-annotated when `profile` is set.
inline Result<decomp::DecompiledProgram> DecompileWith(
    const std::string& spec, const mips::SoftBinary& binary,
    const mips::ExecProfile* profile = nullptr) {
  auto manager = decomp::PassManager::FromSpec(spec);
  if (!manager.ok()) return manager.status();
  return manager.value().Run(std::make_shared<const mips::SoftBinary>(binary),
                             profile);
}

/// What ir::DominatorTree gets wrong about `function`, checked against
/// dominator sets computed the slow way (Dom(entry) = {entry}; Dom(b) = {b}
/// plus the intersection of Dom(p) over b's reachable predecessors, to a
/// fixpoint), or "" when it agrees.  Checks Dominates for every pair of
/// reachable blocks, Idom of every one, and that ReversePostOrder/RpoIndex
/// order the reachable blocks entry first, each after a predecessor and
/// after its dominators, with every backward edge a back edge (the flow's
/// CFGs are reducible).
inline std::string DominatorTreeMismatch(const ir::Function& function) {
  const auto& blocks = function.blocks();
  const std::size_t n = blocks.size();
  const auto at = [](const ir::Block* block) {
    return static_cast<std::size_t>(block->id);
  };
  const std::size_t entry = at(function.entry());
  std::vector<bool> reachable(n, false);
  reachable[entry] = true;
  std::vector<const ir::Block*> work = {function.entry()};
  while (!work.empty()) {
    const ir::Block* block = work.back();
    work.pop_back();
    for (const ir::Block* succ : block->succs()) {
      if (!reachable[at(succ)]) {
        reachable[at(succ)] = true;
        work.push_back(succ);
      }
    }
  }
  // dom[b][a]: block a dominates block b.
  std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, true));
  dom[entry].assign(n, false);
  dom[entry][entry] = true;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (b == entry || !reachable[b]) continue;
      std::vector<bool> next(n, true);
      for (const ir::Block* pred : blocks[b]->preds) {
        if (!reachable[at(pred)]) continue;
        for (std::size_t a = 0; a < n; ++a) {
          next[a] = next[a] && dom[at(pred)][a];
        }
      }
      next[b] = true;
      if (next != dom[b]) {
        dom[b] = std::move(next);
        changed = true;
      }
    }
  }

  std::ostringstream out;
  const ir::DominatorTree tree(function);
  const auto& rpo = tree.ReversePostOrder();
  const auto reached = static_cast<std::size_t>(
      std::count(reachable.begin(), reachable.end(), true));
  if (rpo.size() != reached || rpo.front() != function.entry()) {
    out << "RPO holds " << rpo.size() << " blocks from b"
        << rpo.front()->id << ", not the " << reached
        << " reachable ones from the entry";
    return out.str();
  }
  for (std::size_t i = 0; i < rpo.size(); ++i) {
    const ir::Block* block = rpo[i];
    if (!reachable[at(block)] ||
        tree.RpoIndex(block) != static_cast<int>(i)) {
      out << "b" << block->id << " at RPO position " << i << " has RpoIndex "
          << tree.RpoIndex(block);
      return out.str();
    }
    bool after_a_pred = i == 0;
    for (const ir::Block* pred : block->preds) {
      if (reachable[at(pred)] && tree.RpoIndex(pred) < tree.RpoIndex(block)) {
        after_a_pred = true;
      }
    }
    if (!after_a_pred) {
      out << "b" << block->id << " comes before all its predecessors in RPO";
      return out.str();
    }
    for (const ir::Block* succ : block->succs()) {
      if (tree.RpoIndex(succ) <= tree.RpoIndex(block) &&
          !dom[at(block)][at(succ)]) {
        out << "edge b" << block->id << " -> b" << succ->id
            << " goes backward in RPO but is no back edge";
        return out.str();
      }
    }
  }
  for (const ir::Block* b : rpo) {
    const ir::Block* idom = nullptr;
    std::size_t idom_depth = 0;
    for (const ir::Block* a : rpo) {
      const bool dominates = dom[at(b)][at(a)];
      if (tree.Dominates(a, b) != dominates) {
        out << "Dominates(b" << a->id << ", b" << b->id << ") is "
            << !dominates;
        return out.str();
      }
      if (dominates && tree.RpoIndex(a) > tree.RpoIndex(b)) {
        out << "dominator b" << a->id << " follows b" << b->id << " in RPO";
        return out.str();
      }
      // The immediate dominator is the strict dominator with the most
      // dominators of its own.
      if (!dominates || a == b) continue;
      const auto depth = static_cast<std::size_t>(
          std::count(dom[at(a)].begin(), dom[at(a)].end(), true));
      if (depth > idom_depth) {
        idom = a;
        idom_depth = depth;
      }
    }
    if (tree.Idom(b) != idom) {
      out << "Idom(b" << b->id << ") is "
          << (tree.Idom(b) != nullptr ? tree.Idom(b)->id : -1) << ", not "
          << (idom != nullptr ? idom->id : -1);
      return out.str();
    }
  }
  return "";
}

/// DominatorTreeMismatch over every function of `module`; `label` names
/// the program in the failure.
inline void ExpectDominatorTreesMatchBruteForce(const ir::Module& module,
                                                const std::string& label) {
  for (const auto& function : module.functions) {
    const std::string mismatch = DominatorTreeMismatch(*function);
    EXPECT_EQ(mismatch, "") << label << ", function " << function->name();
  }
}

/// One-shot partition::SubsetScorer: the estimate of `subset` with named
/// kernels, or nullopt when any member fails synthesis or the subset
/// violates the area budget or overlaps internally.
inline std::optional<partition::AppEstimate> EvaluateSubset(
    const partition::CandidateSet& set,
    const std::vector<std::size_t>& subset,
    const partition::Platform& platform,
    const partition::PartitionOptions& options) {
  partition::SubsetScorer scorer(set, platform, options, subset, {});
  const partition::AppEstimate* scored = scorer.Score(subset);
  if (scored == nullptr) return std::nullopt;
  partition::AppEstimate estimate = *scored;
  estimate.kernels.assign(scorer.kernels().begin(), scorer.kernels().end());
  for (std::size_t k = 0; k < subset.size(); ++k) {
    estimate.kernels[k].name = set.candidates()[subset[k]].region.name;
  }
  return estimate;
}

/// Gate a ParkedStrategy's calls wait at until the test releases it.
class ParkGate {
 public:
  /// Called by the strategy: records the arrival, then waits for Release.
  void Park() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  /// Lets every parked and later call through.
  void Release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }
  /// True once a call has parked (or passed), false after `timeout`.
  bool WaitEntered(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return entered_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// The "test-parked" strategy: each Partition call parks on its gate, then
/// answers as paper-greedy.  It keeps a request in flight for exactly as
/// long as a test needs, where an iteration count would only guess.
class ParkedStrategy final : public partition::Strategy {
 public:
  static constexpr std::string_view kName = "test-parked";

  explicit ParkedStrategy(ParkGate* gate) : gate_(gate) {}

  [[nodiscard]] std::string_view name() const override { return kName; }
  [[nodiscard]] bool objective_sensitive() const override { return false; }

  [[nodiscard]] Result<partition::PartitionResult> Partition(
      const decomp::DecompiledProgram& program,
      const mips::ExecProfile& profile, const partition::Platform& platform,
      const partition::PartitionOptions& options,
      const partition::StrategyOptions& strategy_options) const override {
    gate_->Park();
    return greedy_->Partition(program, profile, platform, options,
                              strategy_options);
  }

 private:
  ParkGate* gate_;
  std::unique_ptr<partition::Strategy> greedy_ =
      partition::MakePaperGreedyStrategy();
};

/// Registers (or re-registers) "test-parked" in the process-wide strategy
/// registry with a fresh gate, and returns that gate.  Gates are never
/// freed, so a worker still parked when its test ends stays valid, and no
/// test (or child forked from it) sees an earlier test's release.
inline ParkGate& RegisterParkedStrategy() {
  static auto* gates = new std::deque<ParkGate>;  // never destroyed
  ParkGate* gate = &gates->emplace_back();
  partition::StrategyRegistry::Global().Register(
      std::string(ParkedStrategy::kName),
      [gate] { return std::make_unique<ParkedStrategy>(gate); });
  return *gate;
}

}  // namespace b2h::testing_support
