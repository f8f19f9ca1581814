// Named-pass pipeline management for the decompiler.
//
// Every recovery technique from the paper is a registered `Pass` with a
// stable name; pipelines are built from presets ("default", "none"), from
// explicit name lists, or from a compact spec string
// ("default,-reroll-loops").  Each pass adds what it did to the one
// `DecompileStats` record of the program; the manager times each pass into
// `DecompiledProgram::pass_runs`.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "decomp/pipeline.hpp"
#include "ir/ir.hpp"
#include "mips/binary.hpp"
#include "mips/simulator.hpp"
#include "support/error.hpp"

namespace b2h::decomp {

// PassRunStats (per-pass timing) lives in pipeline.hpp so that
// DecompiledProgram can carry a vector of them.

/// A named, registered decompilation pass.  Passes are stateless: all
/// per-run data lives in the module and the stats structs, so one registered
/// instance can serve concurrent pipelines.
class Pass {
 public:
  Pass(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}
  virtual ~Pass() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& description() const noexcept {
    return description_;
  }

  /// Transform the module and add what it did to `stats`.
  virtual void Run(ir::Module& module, DecompileStats& stats) const = 0;

 private:
  std::string name_;
  std::string description_;
};

/// Process-wide pass registry.  The eight paper passes are registered on
/// first access; custom passes can be added at runtime.
class PassRegistry {
 public:
  /// The global registry, with built-in passes already registered.
  static PassRegistry& Global();

  /// Register a pass.  Throws InternalError on a duplicate name.
  void Register(std::unique_ptr<Pass> pass);

  [[nodiscard]] const Pass* Find(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Builds and runs pass pipelines.
class PassManager {
 public:
  /// Empty pipeline (lift + final cleanup only).
  PassManager() = default;

  /// Preset pipelines:
  ///   "default" — the full paper pipeline, in publication order
  ///   "none"    — empty
  /// Unknown preset names return an error.
  [[nodiscard]] static Result<PassManager> Preset(std::string_view preset);

  /// Pipeline from an explicit ordered name list.
  [[nodiscard]] static Result<PassManager> FromNames(
      const std::vector<std::string>& names);

  /// Pipeline from a compact spec: a comma-separated token list whose first
  /// token may be a preset name; "-name" removes every occurrence of that
  /// pass, a bare name appends one.  Examples:
  ///   "default"                    — the default preset
  ///   "default,-reroll-loops"      — ablation: default minus one pass
  ///   "simplify-constants,reduce-operator-sizes"
  [[nodiscard]] static Result<PassManager> FromSpec(std::string_view spec);

  /// Append one pass by name; error if unregistered.
  Status Append(std::string_view name);

  /// Remove every pipeline occurrence of `name` (per-pass disable).
  PassManager& Disable(std::string_view name);

  /// Run the IR verifier after the pipeline (default on).
  PassManager& SetVerify(bool verify) {
    verify_ = verify;
    return *this;
  }

  [[nodiscard]] const std::vector<const Pass*>& pipeline() const noexcept {
    return pipeline_;
  }

  /// Lift `binary` and run the pipeline.  The returned program shares
  /// ownership of the binary, so it can outlive the caller's handle.
  [[nodiscard]] Result<DecompiledProgram> Run(
      std::shared_ptr<const mips::SoftBinary> binary,
      const mips::ExecProfile* profile = nullptr) const;

  /// Incremental (region-scoped) decompilation for dynamic partitioning:
  /// lift ONLY the function entered at `root_entry` (plus its transitive
  /// callees, so inlining still works) and run the same pipeline over that
  /// small module.  The returned program's module has the root function as
  /// `main`; cost is proportional to the region, not the binary.
  [[nodiscard]] Result<DecompiledProgram> RunAt(
      std::shared_ptr<const mips::SoftBinary> binary,
      std::uint32_t root_entry,
      const mips::ExecProfile* profile = nullptr) const;

  /// Run the pipeline over an already-lifted module in place.
  void RunOnModule(ir::Module& module, DecompileStats& stats,
                   std::vector<PassRunStats>& pass_runs) const;

 private:
  /// Shared tail of Run/RunAt: pipeline + final cleanup + verification.
  [[nodiscard]] Result<DecompiledProgram> Finish(
      std::shared_ptr<const mips::SoftBinary> binary, ir::Module lifted) const;

  std::vector<const Pass*> pipeline_;
  bool verify_ = true;
};

}  // namespace b2h::decomp
