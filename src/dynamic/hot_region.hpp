// Online hot-region detector: a bounded, direct-mapped cache of loop-header
// counters in the style of on-chip loop profilers (Lysecky/Vahid's frequent
// loop detector watches short backward branches in hardware; see PAPERS.md).
//
// The detector deliberately is NOT the full ExecProfile: it models the small
// associative memory a runtime partitioner can afford next to the CPU.  Each
// taken backward branch bumps a saturating counter for its target (the loop
// header).  A conflicting header decrements the resident counter and takes
// the slot over when it reaches zero, so persistently hot loops survive
// sporadic traffic.  Everything is deterministic: same branch stream, same
// detections.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mips/simulator.hpp"

namespace b2h::dynamic {

/// A header crossing the hotness threshold.
struct HotEvent {
  std::uint32_t header_pc = 0;
  std::uint32_t max_latch_pc = 0;  ///< widest backward branch seen so far
  std::uint64_t count = 0;         ///< detector count at the crossing
};

class HotRegionCache {
 public:
  /// `entries` is rounded up to a power of two; `hot_threshold` is the
  /// count at which Observe reports a header (once per cache residency).
  HotRegionCache(std::size_t entries, std::uint64_t hot_threshold);

  /// Record one taken backward branch `from_pc` -> `target_pc`.  Returns the
  /// header when this observation crosses the threshold.  Inline: this runs
  /// for every latch event the simulator batches out.
  std::optional<HotEvent> Observe(std::uint32_t target_pc,
                                  std::uint32_t from_pc) {
    ++events_;
    Slot& slot = slots_[(target_pc >> 2) & mask_];
    if (slot.header_pc != target_pc) {
      // Conflict: the resident header defends its slot; a new header takes
      // over only once the resident counter has been worn down to zero.
      if (slot.header_pc != 0 && slot.count > 0) {
        --slot.count;
        return std::nullopt;
      }
      slot.header_pc = target_pc;
      slot.max_latch_pc = from_pc;
      slot.count = 0;
      slot.reported = false;
    }
    if (from_pc > slot.max_latch_pc) slot.max_latch_pc = from_pc;
    ++slot.count;
    if (!slot.reported && slot.count >= threshold_) [[unlikely]] {
      slot.reported = true;
      return HotEvent{slot.header_pc, slot.max_latch_pc, slot.count};
    }
    return std::nullopt;
  }

  /// Widest latch recorded for a currently cached header (0 when absent).
  [[nodiscard]] std::uint32_t MaxLatchFor(std::uint32_t header_pc) const;

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::uint64_t threshold() const noexcept { return threshold_; }

 private:
  struct Slot {
    std::uint32_t header_pc = 0;  ///< 0 = empty
    std::uint32_t max_latch_pc = 0;
    std::uint64_t count = 0;
    bool reported = false;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint64_t threshold_ = 0;
  std::uint64_t events_ = 0;
};

/// Detection-only observer: feeds every latch event to a HotRegionCache and
/// nothing else.  With an unreachable threshold this is the pure detector,
/// which is what the hook-overhead bench and test both measure.
class DetectionOnlyObserver final : public mips::RunObserver {
 public:
  explicit DetectionOnlyObserver(std::size_t entries = 64,
                                 std::uint64_t hot_threshold = UINT64_MAX)
      : cache_(entries, hot_threshold) {}

  void OnBackwardBranches(std::span<const mips::BranchEvent> events,
                          const mips::RunResult&) override {
    for (const mips::BranchEvent& event : events) {
      cache_.Observe(event.target_pc, event.from_pc);
    }
  }

 private:
  HotRegionCache cache_;
};

}  // namespace b2h::dynamic
