// Shared test-only helpers (not globbed as a test binary: CMake only picks
// up tests/test_*.cpp).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "decomp/pass_manager.hpp"
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
