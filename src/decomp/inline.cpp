// Small-function inlining.
//
// The paper's kernels are loops; when a loop body calls a small helper
// (abs, min, saturate, ...) the call would make the region unsynthesizable.
// Inlining the callee keeps such loops eligible for hardware.  Only small
// leaf functions (no calls, no stack traffic left after stack-op removal)
// are inlined, so this cannot blow up the CDFG.
#include <algorithm>
#include <unordered_map>
#include <vector>

#include "decomp/passes.hpp"

namespace b2h::decomp {
namespace {

using ir::Opcode;
using ir::Value;

constexpr std::size_t kMaxInlineOps = 80;
constexpr std::size_t kMaxInlineBlocks = 8;

bool IsLeaf(const ir::Function& function) {
  for (const auto& block : function.blocks()) {
    for (const ir::Instr* instr : block->instrs) {
      if (instr->op == Opcode::kCall) return false;
      // Stack traffic left after promotion (sp input used by memory ops)
      // makes frames overlap after inlining; skip such callees.
      if (instr->op == Opcode::kInput && instr->input_index == 29) {
        return false;
      }
    }
  }
  return true;
}

/// Inline one call site.
void InlineCall(ir::Function& caller, ir::Block* block, ir::Instr* call,
                ir::Function& callee) {
  // Split the caller block at the call: the continuation block takes over
  // everything after the call, out-edges included.  The call itself stays
  // (replaced at the end once the return value is known).
  ir::Block* cont = caller.CreateBlock(block->name + "_ret", call->src_pc);
  const auto& instrs = block->instrs;
  const auto call_it = std::find(instrs.begin(), instrs.end(), call);
  Check(call_it != instrs.end(), "InlineCall: call not in block");
  caller.MoveTail(block, static_cast<std::size_t>(call_it - instrs.begin()) + 1,
                  cont);

  // Clone callee blocks and instructions; each clone sits at its
  // original's Block::id or Instr::id.
  const std::vector<ir::Instr*> callee_instrs = callee.Renumber();
  std::vector<ir::Block*> block_map;
  for (const auto& cb : callee.blocks()) {
    block_map.push_back(caller.CreateBlock(callee.name() + "_" + cb->name,
                                           cb->start_pc));
  }
  std::vector<ir::Instr*> instr_map(callee_instrs.size(), nullptr);
  const auto clone_of = [&](const ir::Instr* ci) -> ir::Instr*& {
    return instr_map[ir::IdIn(callee_instrs, ci)];
  };
  // Return values collected for the merge phi.
  std::vector<std::pair<ir::Block*, Value>> returns;

  const auto map_value = [&](const Value& value) {
    if (!value.is_instr()) return value;
    ir::Instr* clone = clone_of(value.def);
    Check(clone != nullptr, "InlineCall: operand of an unmapped instruction");
    return Value::Of(clone);
  };

  for (const auto& cb : callee.blocks()) {
    ir::Block* nb = block_map[static_cast<std::size_t>(cb->id)];
    for (const ir::Instr* ci : cb->instrs) {
      if (ci->op == Opcode::kInput) {
        // Map callee inputs to call operands (a0..a3 = 0..3, sp = 4).
        Value replacement;
        if (ci->input_index >= 4 && ci->input_index <= 7) {
          replacement = call->operands[ci->input_index - 4];
        } else if (ci->input_index == 29) {
          replacement = call->operands[4];
        } else {
          ir::Instr* undef = caller.Create(Opcode::kUndef);
          nb->Append(undef);
          replacement = Value::Of(undef);
        }
        // Record mapping via a synthetic entry (no new instruction unless
        // undef); store in instr_map through a shim below.
        ir::Instr* shim = caller.Create(Opcode::kOr);
        shim->operands = {replacement, Value::Const(0)};
        shim->src_pc = ci->src_pc;
        nb->Append(shim);
        clone_of(ci) = shim;
        continue;
      }
      if (ci->op == Opcode::kRet) {
        // The returned value may live in a block cloned later (block order
        // is address-based, but previous inlining appends split blocks at
        // the end); defer the mapping until every block is cloned.
        returns.emplace_back(nb, ci->operands.empty()
                                     ? Value::Const(0)
                                     : ci->operands[0]);
        ir::Instr* br = caller.Create(Opcode::kBr);
        br->target0 = cont;
        nb->Append(br);
        continue;
      }
      ir::Instr* ni = caller.Create(ci->op);
      ni->width = ci->width;
      ni->is_signed = ci->is_signed;
      ni->mem_bytes = ci->mem_bytes;
      ni->mem_signed = ci->mem_signed;
      ni->ext_from = ci->ext_from;
      ni->input_index = ci->input_index;
      ni->call_target = ci->call_target;
      ni->imm = ci->imm;
      ni->src_pc = ci->src_pc;
      ni->target0 = ci->target0;  // remapped to cloned blocks below
      ni->target1 = ci->target1;
      ni->operands = ci->operands;  // remapped below
      if (ci->op == Opcode::kPhi) {
        nb->PrependPhi(ni);
      } else {
        nb->Append(ni);
      }
      clone_of(ci) = ni;
    }
  }
  // Map operands, which may be defined in a block cloned later (phi
  // operands, forward uses), and the deferred return values.  Input shims
  // already hold caller values.
  for (const ir::Instr* ci : callee_instrs) {
    if (ci->op == Opcode::kInput || ci->op == Opcode::kRet) continue;
    for (Value& operand : clone_of(ci)->operands) operand = map_value(operand);
  }
  for (auto& [rb, rv] : returns) rv = map_value(rv);
  // Map branch targets (a return's branch to `cont` stays), and
  // predecessors so the cloned phis keep their operands across the next
  // RecomputeCfg.
  const auto clone_target = [&](ir::Block* target) {
    return target != nullptr && target->parent == &callee
               ? block_map[static_cast<std::size_t>(target->id)]
               : target;
  };
  for (const auto& cb : callee.blocks()) {
    ir::Block* nb = block_map[static_cast<std::size_t>(cb->id)];
    for (ir::Block* pred : cb->preds) nb->preds.push_back(clone_target(pred));
    if (!nb->has_terminator()) continue;
    ir::Instr* term = nb->terminator();
    term->target0 = clone_target(term->target0);
    term->target1 = clone_target(term->target1);
  }
  // Profile annotations: scale callee counts into the caller by call count.
  // (Approximation: the call instruction's own block count.)
  for (const auto& cb : callee.blocks()) {
    ir::Block* nb = block_map[static_cast<std::size_t>(cb->id)];
    nb->exec_count = cb->exec_count;
    nb->taken_count = cb->taken_count;
    nb->not_taken_count = cb->not_taken_count;
  }

  // Branch from the call block into the inlined entry.
  ir::Instr* enter = caller.Create(Opcode::kBr);
  enter->target0 = block_map.front();
  block->Append(enter);
  cont->exec_count = block->exec_count;

  // Merge return value: phi in the continuation block.
  Check(!returns.empty(), "InlineCall: callee has no returns");
  Value result;
  if (returns.size() == 1) {
    result = returns.front().second;
  } else {
    // The phi's operands follow cont's predecessors, the return blocks.
    caller.RecomputeCfg();
    std::vector<Value> operands(cont->preds.size(), Value::Const(0));
    for (std::size_t i = 0; i < cont->preds.size(); ++i) {
      for (const auto& [rb, rv] : returns) {
        if (cont->preds[i] == rb) operands[i] = rv;
      }
    }
    ir::Instr* phi = caller.Create(Opcode::kPhi);
    phi->operands = std::move(operands);
    cont->PrependPhi(phi);
    result = Value::Of(phi);
  }

  // Replace the call's uses with the return value (erasing the call).
  caller.ReplaceAllUses({{call, result}});
}

}  // namespace

InlineStats InlineSmallFunctions(ir::Module& module) {
  InlineStats stats;
  // Leaf callees with a single call site always inline (that is simply
  // whole-program flattening: no code growth); multi-site callees inline
  // only under the size caps.
  std::unordered_map<std::uint32_t, unsigned> call_sites;
  for (const auto& function : module.functions) {
    for (const auto& block : function->blocks()) {
      for (const ir::Instr* instr : block->instrs) {
        if (instr->op == Opcode::kCall) ++call_sites[instr->call_target];
      }
    }
  }
  // Outer fixpoint: inlining a helper into a kernel makes the kernel a
  // leaf, which can unlock inlining the kernel into main on a later round.
  bool module_changed = true;
  while (module_changed) {
    module_changed = false;
    for (auto& function : module.functions) {
      bool changed = true;
      bool function_changed = false;
      while (changed) {
        changed = false;
        for (const auto& block : function->blocks()) {
          for (ir::Instr* instr : block->instrs) {
            if (instr->op != Opcode::kCall) continue;
            ir::Function* callee = module.FindByEntry(instr->call_target);
            if (callee == nullptr || callee == function.get()) continue;
            if (!IsLeaf(*callee)) continue;
            const bool single_site = call_sites[instr->call_target] == 1;
            if (!single_site &&
                (callee->CountOps() > kMaxInlineOps ||
                 callee->blocks().size() > kMaxInlineBlocks)) {
              continue;
            }
            InlineCall(*function, block.get(), instr, *callee);
            ++stats.calls_inlined;
            changed = true;
            function_changed = true;
            module_changed = true;
            break;  // block structure changed; restart scan
          }
          if (changed) break;
        }
      }
      if (function_changed) {
        // Clean up immediately: the deleted call was often the only user
        // of this function's sp input, and IsLeaf must see the post-DCE
        // state for the next round to flatten transitively.
        function->Cleanup();
      }
    }
  }
  return stats;
}

}  // namespace b2h::decomp
