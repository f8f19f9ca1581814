// Named-pass pipeline management for the decompiler.
//
// Every recovery technique from the paper is one `Pass` in a fixed table,
// AllPasses(), under a stable name; pipelines are built from presets
// ("default", "none"), from explicit name lists, or from a compact spec
// string ("default,-reroll-loops").  Each pass adds what it did to the one
// `DecompileStats` record of the program; the manager times each pass into
// `DecompiledProgram::pass_runs`.
#pragma once

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

/// A named decompilation pass.  Passes are stateless: all per-run data lives
/// in the module and the stats structs, so one table entry can serve
/// concurrent pipelines.
class Pass {
 public:
  using Body = void (*)(ir::Module& module, DecompileStats& stats);

  Pass(std::string name, std::string description, Body body)
      : name_(std::move(name)),
        description_(std::move(description)),
        body_(body) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& description() const noexcept {
    return description_;
  }

  /// Transform the module and add what it did to `stats`.
  void Run(ir::Module& module, DecompileStats& stats) const {
    body_(module, stats);
  }

 private:
  std::string name_;
  std::string description_;
  Body body_;
};

/// The eight paper passes, each once, in the order the default pipeline
/// first runs them.  Entries never move, so a Pass* stays valid.
[[nodiscard]] const std::vector<Pass>& AllPasses();

/// The pass of AllPasses() named `name`, or nullptr.
[[nodiscard]] const Pass* FindPass(std::string_view name);

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
  /// Append one pass by name; error if AllPasses() has none of that name.
  Status Append(std::string_view name);

  /// Remove every pipeline occurrence of `name` (per-pass disable).
  void Disable(std::string_view name);

  /// Shared tail of Run/RunAt: pipeline + final cleanup + verification.
  [[nodiscard]] Result<DecompiledProgram> Finish(
      std::shared_ptr<const mips::SoftBinary> binary, ir::Module lifted) const;

  std::vector<const Pass*> pipeline_;
  bool verify_ = true;
};

}  // namespace b2h::decomp
