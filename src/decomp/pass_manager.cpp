#include "decomp/pass_manager.hpp"

#include "decomp/lifter.hpp"
#include "decomp/passes.hpp"
#include "ir/verifier.hpp"
#include "obs/obs.hpp"

namespace b2h::decomp {

namespace {

/// The paper pipeline.  The interleaved "simplify-constants" cleanups are
/// where the old hardwired code conditionally re-ran constant propagation;
/// the pass runs to fixpoint, so running it unconditionally is equivalent.
const std::vector<std::string>& DefaultNames() {
  static const std::vector<std::string> names = {
      "reroll-loops",
      "simplify-constants",
      "remove-stack-ops",
      "simplify-constants",
      "inline-small-functions",
      "simplify-constants",
      "convert-ifs",
      "simplify-constants",
      "promote-strength",
      "reduce-strength",
      "reduce-operator-sizes",
  };
  return names;
}

}  // namespace

const std::vector<Pass>& AllPasses() {
  // Never destroyed: a pipeline still running on another thread at exit
  // keeps valid Pass pointers.
  static const auto* passes = new std::vector<Pass>{
      {"reroll-loops", "roll compiler-unrolled loop bodies back up",
       [](ir::Module& module, DecompileStats& stats) {
         for (const auto& function : module.functions) {
           const RerollStats reroll = RerollLoops(*function);
           stats.loops_rerolled += reroll.loops_rerolled;
           stats.reroll_ops_removed += reroll.ops_removed;
         }
       }},
      {"simplify-constants",
       "constant folding / copy propagation / move-idiom removal to fixpoint",
       [](ir::Module& module, DecompileStats& stats) {
         for (const auto& function : module.functions) {
           stats.constants_simplified += SimplifyConstants(*function);
         }
       }},
      {"remove-stack-ops", "promote stack slots to SSA values",
       [](ir::Module& module, DecompileStats& stats) {
         for (const auto& function : module.functions) {
           const StackRemovalStats stack = RemoveStackOperations(*function);
           stats.stack_slots_promoted += stack.slots_promoted;
           stats.stack_ops_removed +=
               stack.loads_removed + stack.stores_removed;
         }
       }},
      {"inline-small-functions",
       "inline small leaf callees so helper-calling loops stay synthesizable",
       [](ir::Module& module, DecompileStats& stats) {
         const InlineStats inlined = InlineSmallFunctions(module);
         stats.calls_inlined += inlined.calls_inlined;
       }},
      {"convert-ifs", "turn short branch diamonds/triangles into selects",
       [](ir::Module& module, DecompileStats& stats) {
         for (const auto& function : module.functions) {
           const IfConversionStats ifs = ConvertIfs(*function);
           stats.ifs_converted += ifs.diamonds_converted;
         }
       }},
      {"promote-strength",
       "collapse shift/add chains back into multiplications",
       [](ir::Module& module, DecompileStats& stats) {
         for (const auto& function : module.functions) {
           const StrengthPromotionStats promoted = PromoteStrength(*function);
           stats.muls_recovered += promoted.muls_recovered;
         }
       }},
      {"reduce-strength",
       "mul/div/rem by powers of two become shifts/masks for synthesis",
       [](ir::Module& module, DecompileStats& stats) {
         for (const auto& function : module.functions) {
           const StrengthReductionStats reduced = ReduceStrength(*function);
           stats.strength_reduced += reduced.muls_to_shifts +
                                     reduced.divs_to_shifts +
                                     reduced.rems_to_masks;
         }
       }},
      {"reduce-operator-sizes",
       "annotate every instruction with its significant result width",
       [](ir::Module& module, DecompileStats& stats) {
         for (const auto& function : module.functions) {
           const SizeReductionStats sizes = ReduceOperatorSizes(*function);
           stats.instrs_narrowed += sizes.narrowed;
           stats.bits_saved += sizes.total_bits_saved;
         }
       }},
  };
  return *passes;
}

const Pass* FindPass(std::string_view name) {
  for (const Pass& pass : AllPasses()) {
    if (pass.name() == name) return &pass;
  }
  return nullptr;
}

Result<PassManager> PassManager::Preset(std::string_view preset) {
  if (preset == "default") return FromNames(DefaultNames());
  if (preset == "none") return PassManager();
  return Status::Error(ErrorKind::kUnsupported,
                       "unknown pipeline preset: " + std::string(preset));
}

Result<PassManager> PassManager::FromNames(
    const std::vector<std::string>& names) {
  PassManager manager;
  for (const std::string& name : names) {
    if (Status status = manager.Append(name); !status.ok()) return status;
  }
  return manager;
}

Result<PassManager> PassManager::FromSpec(std::string_view spec) {
  PassManager manager;
  bool first = true;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    std::string_view token = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    // Trim surrounding spaces.
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (token.empty()) {
      first = false;
      continue;
    }
    if (token.front() == '-') {
      const std::string_view name = token.substr(1);
      // A typo'd disable would otherwise silently run the full pipeline —
      // fatal for ablation results.
      if (FindPass(name) == nullptr) {
        return Status::Error(ErrorKind::kUnsupported,
                             "unknown pass in disable: " + std::string(name));
      }
      manager.Disable(name);
    } else if (first && FindPass(token) == nullptr) {
      auto preset = Preset(token);
      if (!preset.ok()) return preset.status();
      manager = std::move(preset).take();
    } else {
      if (Status status = manager.Append(token); !status.ok()) return status;
    }
    first = false;
  }
  return manager;
}

Status PassManager::Append(std::string_view name) {
  const Pass* pass = FindPass(name);
  if (pass == nullptr) {
    return Status::Error(ErrorKind::kUnsupported,
                         "unknown pass: " + std::string(name));
  }
  pipeline_.push_back(pass);
  return Status::Ok();
}

void PassManager::Disable(std::string_view name) {
  std::erase_if(pipeline_,
                [name](const Pass* pass) { return pass->name() == name; });
}

void PassManager::RunOnModule(ir::Module& module, DecompileStats& stats,
                              std::vector<PassRunStats>& pass_runs) const {
  obs::ScopedSpan pipeline_span("decomp.pipeline", "decomp");
  for (const Pass* pass : pipeline_) {
    obs::ScopedSpan span(pass->name(), "decomp");
    const obs::Stopwatch watch;
    pass->Run(module, stats);
    pass_runs.push_back(PassRunStats{pass->name(), watch.Millis()});
  }
  pipeline_span.Arg("passes", static_cast<std::uint64_t>(pipeline_.size()));
}

Result<DecompiledProgram> PassManager::Run(
    std::shared_ptr<const mips::SoftBinary> binary,
    const mips::ExecProfile* profile) const {
  Check(binary != nullptr, "PassManager::Run: null binary");
  LiftOptions lift_options;
  lift_options.profile = profile;
  auto lifted = [&] {
    obs::ScopedSpan span("decomp.lift", "decomp");
    return Lift(*binary, lift_options);
  }();
  if (!lifted.ok()) return lifted.status();
  return Finish(std::move(binary), std::move(lifted).take());
}

Result<DecompiledProgram> PassManager::RunAt(
    std::shared_ptr<const mips::SoftBinary> binary, std::uint32_t root_entry,
    const mips::ExecProfile* profile) const {
  Check(binary != nullptr, "PassManager::RunAt: null binary");
  LiftOptions lift_options;
  lift_options.profile = profile;
  auto lifted = [&] {
    obs::ScopedSpan span("decomp.lift", "decomp");
    return LiftAt(*binary, root_entry, lift_options);
  }();
  if (!lifted.ok()) return lifted.status();
  return Finish(std::move(binary), std::move(lifted).take());
}

Result<DecompiledProgram> PassManager::Finish(
    std::shared_ptr<const mips::SoftBinary> binary, ir::Module lifted) const {
  DecompiledProgram program;
  program.module = std::move(lifted);
  program.binary = std::move(binary);

  for (const auto& function : program.module.functions) {
    program.stats.lifted_instrs += function->NumInstrs();
  }

  RunOnModule(program.module, program.stats, program.pass_runs);

  obs::ScopedSpan span("decomp.finish", "decomp");
  // Final cleanup, always.  A pass calls Cleanup itself only after edits
  // that can strand code, and reduce-strength and reduce-operator-sizes
  // never call it; this is what guarantees the state ir.hpp promises (no
  // unreachable blocks, trivial phis or dead instructions) whichever pass a
  // name list or spec ends with.
  for (const auto& function : program.module.functions) {
    function->Cleanup();
    program.stats.final_instrs += function->NumInstrs();
  }

  if (verify_) {
    if (Status status = ir::Verify(program.module); !status.ok()) {
      return status;
    }
  }
  return program;
}

}  // namespace b2h::decomp
