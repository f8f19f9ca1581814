// Shared test-only helpers (not globbed as a test binary: CMake only picks
// up tests/test_*.cpp).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "decomp/pass_manager.hpp"

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

}  // namespace b2h::testing_support
