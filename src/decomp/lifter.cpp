#include "decomp/lifter.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "ir/ssa.hpp"
#include "mips/isa.hpp"
#include "support/bits.hpp"

namespace b2h::decomp {
namespace {

using mips::Instr;
using mips::Op;
using mips::SoftBinary;

constexpr unsigned kNumLocs = 34;  // 32 GPRs + HI + LO
constexpr unsigned kHi = 32;
constexpr unsigned kLo = 33;

/// Machine-level basic block discovered during CFG recovery.
struct MBlock {
  std::uint32_t start = 0;  // first instruction address
  std::uint32_t end = 0;    // one past last instruction address
  std::vector<std::uint32_t> succs;  // successor leader addresses
};

/// Machine-level CFG of one function.
struct MachineCfg {
  std::uint32_t entry = 0;
  std::vector<MBlock> blocks;            // in leader address order
  std::set<std::uint32_t> call_targets;  // jal destinations seen
};

/// Index of the text word at `pc`, which must lie in the text segment.
std::size_t TextIndex(std::uint32_t pc) { return (pc - mips::kTextBase) / 4u; }

std::string Hex(std::uint32_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

/// An instruction a CFG walk reached.
struct Visit {
  std::uint32_t pc = 0;
  std::uint32_t succs[2] = {0, 0};  // successor addresses (none: a return)
  std::uint8_t count = 0;
  bool leader = false;
};

/// State RecoverCfg reuses across the functions of one lift.  `slot` has
/// one entry per text word: 1 + the index of the word's record in
/// `visits` once the current walk has reached it, else 0.  Each walk first
/// clears the slots the previous one set, so recovering a function costs
/// its own size, and the text segment is paid for once per lift.
struct CfgScratch {
  std::vector<std::uint32_t> slot;
  std::vector<Visit> visits;
};

/// Discover the machine CFG of the function entered at `entry`.
Result<MachineCfg> RecoverCfg(const SoftBinary& binary, std::uint32_t entry,
                              CfgScratch& scratch) {
  MachineCfg cfg;
  cfg.entry = entry;
  std::vector<Visit>& visits = scratch.visits;
  for (const Visit& visit : visits) scratch.slot[TextIndex(visit.pc)] = 0;
  visits.clear();

  // Pass 1: walk reachable instructions, record leaders and flow edges.
  std::vector<std::uint32_t> leaders{entry};
  std::vector<std::uint32_t> work{entry};  // FIFO: `next` walks it
  for (std::size_t next = 0; next < work.size(); ++next) {
    const std::uint32_t pc = work[next];
    if (!binary.ContainsText(pc)) {
      return Status::Error(ErrorKind::kMalformedBinary,
                           "control flows outside text at " + Hex(pc));
    }
    std::uint32_t& slot = scratch.slot[TextIndex(pc)];
    if (slot != 0) continue;
    const auto decoded = mips::Decode(binary.WordAt(pc));
    if (!decoded) {
      return Status::Error(ErrorKind::kMalformedBinary,
                           "undecodable instruction at " + Hex(pc));
    }
    const Instr& in = *decoded;
    visits.push_back(Visit{pc});
    slot = static_cast<std::uint32_t>(visits.size());
    Visit& out = visits.back();
    const auto to = [&out](std::uint32_t succ) {
      out.succs[out.count++] = succ;
    };
    if (mips::IsBranch(in.op)) {
      const std::uint32_t target = mips::BranchTarget(pc, in);
      // `beq $0,$0` (assembler pseudo `b`) is unconditional.
      if (in.op == Op::kBeq && in.rs == 0 && in.rt == 0) {
        to(target);
      } else if (in.op == Op::kBne && in.rs == in.rt) {
        to(pc + 4);
      } else {
        to(target);
        to(pc + 4);
      }
      leaders.insert(leaders.end(), out.succs, out.succs + out.count);
    } else if (in.op == Op::kJ) {
      const std::uint32_t target = mips::JumpTarget(pc, in);
      to(target);
      leaders.push_back(target);
    } else if (in.op == Op::kJal) {
      // A call: control continues after the call in this function.
      cfg.call_targets.insert(mips::JumpTarget(pc, in));
      to(pc + 4);
    } else if (in.op == Op::kJr) {
      if (in.rs != mips::kRa) {
        // The paper: "CDFG recovery ... failed for two EEMBC examples
        // because of indirect jumps."  Reproduce that failure mode.
        return Status::Error(
            ErrorKind::kIndirectJump,
            "unresolvable indirect jump (jr " +
                std::string(mips::RegName(in.rs)) + ") at " + Hex(pc));
      }
      // `jr $ra` returns: no successor.
    } else if (in.op == Op::kJalr) {
      return Status::Error(ErrorKind::kIndirectJump,
                           "unresolvable indirect call (jalr) at " + Hex(pc));
    } else {
      to(pc + 4);
    }
    work.insert(work.end(), out.succs, out.succs + out.count);
  }
  // Every leader went on the work list, so the walk reached it.
  for (std::uint32_t pc : leaders) {
    visits[scratch.slot[TextIndex(pc)] - 1].leader = true;
  }

  // Pass 2: form blocks [leader, next leader / control instruction] over
  // the reached instructions in address order.  A fallthrough successor
  // was reached, so it is the next record.
  std::sort(visits.begin(), visits.end(),
            [](const Visit& a, const Visit& b) { return a.pc < b.pc; });
  for (std::size_t first = 0; first < visits.size(); ++first) {
    if (!visits[first].leader) continue;
    MBlock block;
    block.start = visits[first].pc;
    for (std::size_t i = first;; ++i) {
      const Visit& out = visits[i];
      const bool is_control = out.count != 1 || out.succs[0] != out.pc + 4 ||
                              visits[i + 1].leader;
      if (is_control) {
        block.end = out.pc + 4;
        block.succs.assign(out.succs, out.succs + out.count);
        break;
      }
    }
    cfg.blocks.push_back(std::move(block));
  }
  return cfg;
}

/// Per-function lifter: machine CFG -> SSA function.
class FunctionLifter {
 public:
  FunctionLifter(const SoftBinary& binary, const MachineCfg& cfg,
                 ir::Function& function, const LiftOptions& options)
      : binary_(binary), cfg_(cfg), function_(function), options_(options) {}

  Status Run() {
    CreateBlocks();
    ir::SsaBuilder ssa(function_, kNumLocs, [this](std::size_t reg) {
      ir::Instr* input = function_.Create(ir::Opcode::kInput);
      input->input_index = static_cast<std::uint16_t>(reg);
      input->src_pc = cfg_.entry;
      return ir::Value::Of(PrependToEntry(input));
    });
    // Lift blocks in discovery (address) order; the builder handles any
    // order because block-entry reads become placeholders.
    for (const MBlock& mblock : cfg_.blocks) {
      if (Status status = LiftBlock(mblock, ssa); !status.ok()) return status;
    }
    function_.RecomputeCfg();
    ssa.Seal();
    function_.Cleanup();
    AnnotateProfile();
    return Status::Ok();
  }

 private:
  void CreateBlocks() {
    // The entry block comes first, and no edge may enter it: when a branch
    // targets the function's first instruction, an empty entry block falls
    // into that instruction's block.
    bool entry_is_target = false;
    for (const MBlock& mblock : cfg_.blocks) {
      entry_is_target |= std::find(mblock.succs.begin(), mblock.succs.end(),
                                   cfg_.entry) != mblock.succs.end();
    }
    ir::Block* head =
        entry_is_target ? function_.CreateBlock("entry", 0) : nullptr;
    blocks_.assign(cfg_.blocks.size(), nullptr);
    const auto create = [this](std::size_t k) {
      const std::uint32_t leader = cfg_.blocks[k].start;
      char name[16] = "bb_";
      const auto end = std::to_chars(name + 3, name + sizeof name, leader, 16);
      blocks_[k] = function_.CreateBlock(std::string(name, end.ptr), leader);
    };
    const std::size_t entry = IndexOf(cfg_.entry);
    create(entry);
    for (std::size_t k = 0; k < cfg_.blocks.size(); ++k) {
      if (k != entry) create(k);
    }
    if (head != nullptr) {
      ir::Instr* br = function_.Create(ir::Opcode::kBr);
      br->target0 = blocks_[entry];
      head->Append(br);
    }
  }

  /// Position in cfg_.blocks of the block whose leader is at `pc`.
  std::size_t IndexOf(std::uint32_t pc) const {
    const auto it = std::lower_bound(
        cfg_.blocks.begin(), cfg_.blocks.end(), pc,
        [](const MBlock& block, std::uint32_t at) { return block.start < at; });
    if (it == cfg_.blocks.end() || it->start != pc) {
      throw InternalError("lifter: no block at " + Hex(pc));
    }
    return static_cast<std::size_t>(it - cfg_.blocks.begin());
  }

  /// The block whose leader is at `pc`.
  ir::Block* BlockAt(std::uint32_t pc) const { return blocks_[IndexOf(pc)]; }

  /// Put a value without operands first in the entry block, where it
  /// dominates every use.
  ir::Instr* PrependToEntry(ir::Instr* instr) {
    ir::Block* entry = function_.entry();
    entry->instrs.insert(entry->instrs.begin(), instr);
    instr->parent = entry;
    return instr;
  }

  ir::Value Undef() {
    if (undef_ == nullptr) {
      undef_ = PrependToEntry(function_.Create(ir::Opcode::kUndef));
    }
    return ir::Value::Of(undef_);
  }

  Status LiftBlock(const MBlock& mblock, ir::SsaBuilder& ssa) {
    ir::Block* block = BlockAt(mblock.start);

    const auto read = [&](unsigned reg) -> ir::Value {
      return reg == 0 ? ir::Value::Const(0) : ssa.Read(block, reg);
    };
    const auto write = [&](unsigned reg, ir::Value value) {
      if (reg != 0) ssa.Write(block, reg, value);
    };
    const auto emit = [&](ir::Opcode op, std::vector<ir::Value> operands,
                          std::uint32_t pc) -> ir::Instr* {
      ir::Instr* instr = function_.Emit(block, op, std::move(operands));
      instr->src_pc = pc;
      return instr;
    };
    const auto binop = [&](ir::Opcode op, ir::Value a, ir::Value b,
                           std::uint32_t pc) -> ir::Value {
      return ir::Value::Of(emit(op, {a, b}, pc));
    };

    for (std::uint32_t pc = mblock.start; pc < mblock.end; pc += 4) {
      const Instr in = *mips::Decode(binary_.WordAt(pc));
      const ir::Value imm = ir::Value::Const(in.imm);
      switch (in.op) {
        case Op::kSll:
          write(in.rd, binop(ir::Opcode::kShl, read(in.rt),
                             ir::Value::Const(in.shamt), pc));
          break;
        case Op::kSrl:
          write(in.rd, binop(ir::Opcode::kShrL, read(in.rt),
                             ir::Value::Const(in.shamt), pc));
          break;
        case Op::kSra:
          write(in.rd, binop(ir::Opcode::kShrA, read(in.rt),
                             ir::Value::Const(in.shamt), pc));
          break;
        case Op::kSllv:
          write(in.rd, binop(ir::Opcode::kShl, read(in.rt),
                             binop(ir::Opcode::kAnd, read(in.rs),
                                   ir::Value::Const(31), pc), pc));
          break;
        case Op::kSrlv:
          write(in.rd, binop(ir::Opcode::kShrL, read(in.rt),
                             binop(ir::Opcode::kAnd, read(in.rs),
                                   ir::Value::Const(31), pc), pc));
          break;
        case Op::kSrav:
          write(in.rd, binop(ir::Opcode::kShrA, read(in.rt),
                             binop(ir::Opcode::kAnd, read(in.rs),
                                   ir::Value::Const(31), pc), pc));
          break;
        case Op::kAdd: case Op::kAddu:
          write(in.rd, binop(ir::Opcode::kAdd, read(in.rs), read(in.rt), pc));
          break;
        case Op::kSub: case Op::kSubu:
          write(in.rd, binop(ir::Opcode::kSub, read(in.rs), read(in.rt), pc));
          break;
        case Op::kAnd:
          write(in.rd, binop(ir::Opcode::kAnd, read(in.rs), read(in.rt), pc));
          break;
        case Op::kOr:
          write(in.rd, binop(ir::Opcode::kOr, read(in.rs), read(in.rt), pc));
          break;
        case Op::kXor:
          write(in.rd, binop(ir::Opcode::kXor, read(in.rs), read(in.rt), pc));
          break;
        case Op::kNor:
          write(in.rd, binop(ir::Opcode::kNor, read(in.rs), read(in.rt), pc));
          break;
        case Op::kSlt:
          write(in.rd, binop(ir::Opcode::kLtS, read(in.rs), read(in.rt), pc));
          break;
        case Op::kSltu:
          write(in.rd, binop(ir::Opcode::kLtU, read(in.rs), read(in.rt), pc));
          break;
        case Op::kMfhi: write(in.rd, read(kHi)); break;
        case Op::kMflo: write(in.rd, read(kLo)); break;
        case Op::kMthi: write(kHi, read(in.rs)); break;
        case Op::kMtlo: write(kLo, read(in.rs)); break;
        case Op::kMult:
          write(kLo, binop(ir::Opcode::kMul, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kMulHiS, read(in.rs), read(in.rt), pc));
          break;
        case Op::kMultu:
          write(kLo, binop(ir::Opcode::kMul, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kMulHiU, read(in.rs), read(in.rt), pc));
          break;
        case Op::kDiv:
          write(kLo, binop(ir::Opcode::kDivS, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kRemS, read(in.rs), read(in.rt), pc));
          break;
        case Op::kDivu:
          write(kLo, binop(ir::Opcode::kDivU, read(in.rs), read(in.rt), pc));
          write(kHi, binop(ir::Opcode::kRemU, read(in.rs), read(in.rt), pc));
          break;
        case Op::kAddi: case Op::kAddiu:
          write(in.rt, binop(ir::Opcode::kAdd, read(in.rs), imm, pc));
          break;
        case Op::kSlti:
          write(in.rt, binop(ir::Opcode::kLtS, read(in.rs), imm, pc));
          break;
        case Op::kSltiu:
          write(in.rt, binop(ir::Opcode::kLtU, read(in.rs), imm, pc));
          break;
        case Op::kAndi:
          write(in.rt, binop(ir::Opcode::kAnd, read(in.rs), imm, pc));
          break;
        case Op::kOri:
          write(in.rt, binop(ir::Opcode::kOr, read(in.rs), imm, pc));
          break;
        case Op::kXori:
          write(in.rt, binop(ir::Opcode::kXor, read(in.rs), imm, pc));
          break;
        case Op::kLui:
          write(in.rt, ir::Value::Const(in.imm << 16));
          break;
        case Op::kLb: case Op::kLbu: case Op::kLh: case Op::kLhu:
        case Op::kLw: {
          // Always materialize the base+offset add, even for offset 0:
          // unrolled loop sections then stay position-isomorphic for the
          // rerolling matcher (constant folding removes the +0 later).
          ir::Value addr = binop(ir::Opcode::kAdd, read(in.rs), imm, pc);
          ir::Instr* load = emit(ir::Opcode::kLoad, {addr}, pc);
          switch (in.op) {
            case Op::kLb:  load->mem_bytes = 1; load->mem_signed = true;
                           load->width = 8;  load->is_signed = true;  break;
            case Op::kLbu: load->mem_bytes = 1; load->mem_signed = false;
                           load->width = 8;  load->is_signed = false; break;
            case Op::kLh:  load->mem_bytes = 2; load->mem_signed = true;
                           load->width = 16; load->is_signed = true;  break;
            case Op::kLhu: load->mem_bytes = 2; load->mem_signed = false;
                           load->width = 16; load->is_signed = false; break;
            default:       load->mem_bytes = 4; break;
          }
          write(in.rt, ir::Value::Of(load));
          break;
        }
        case Op::kSb: case Op::kSh: case Op::kSw: {
          ir::Value addr = binop(ir::Opcode::kAdd, read(in.rs), imm, pc);
          ir::Instr* store = emit(ir::Opcode::kStore, {addr, read(in.rt)}, pc);
          store->mem_bytes = in.op == Op::kSw ? 4 : in.op == Op::kSh ? 2 : 1;
          break;
        }
        case Op::kJal: {
          ir::Instr* call = emit(
              ir::Opcode::kCall,
              {read(mips::kA0), read(mips::kA1), read(mips::kA2),
               read(mips::kA3), read(mips::kSp)},
              pc);
          call->call_target = mips::JumpTarget(pc, in);
          write(mips::kV0, ir::Value::Of(call));
          // Caller-saved registers are clobbered by the call (MIPS ABI).
          write(mips::kV1, Undef());
          write(mips::kAt, Undef());
          write(mips::kRa, Undef());
          for (unsigned reg = mips::kA0; reg <= mips::kA3; ++reg) {
            write(reg, Undef());
          }
          for (unsigned reg = mips::kT0; reg <= mips::kT7; ++reg) {
            write(reg, Undef());
          }
          write(mips::kT8, Undef());
          write(mips::kT9, Undef());
          write(kHi, Undef());
          write(kLo, Undef());
          break;
        }
        case Op::kBeq: case Op::kBne: case Op::kBlez: case Op::kBgtz:
        case Op::kBltz: case Op::kBgez: {
          const std::uint32_t target = mips::BranchTarget(pc, in);
          // Unconditional pseudo-branches were normalized in CFG recovery.
          if (in.op == Op::kBeq && in.rs == 0 && in.rt == 0) {
            ir::Instr* br = emit(ir::Opcode::kBr, {}, pc);
            br->target0 = BlockAt(target);
            break;
          }
          if (in.op == Op::kBne && in.rs == in.rt) {
            ir::Instr* br = emit(ir::Opcode::kBr, {}, pc);
            br->target0 = BlockAt(pc + 4);
            break;
          }
          ir::Value cond;
          switch (in.op) {
            case Op::kBeq:
              cond = binop(ir::Opcode::kEq, read(in.rs), read(in.rt), pc);
              break;
            case Op::kBne:
              cond = binop(ir::Opcode::kNe, read(in.rs), read(in.rt), pc);
              break;
            case Op::kBlez:
              cond = binop(ir::Opcode::kLeS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
            case Op::kBgtz:
              cond = binop(ir::Opcode::kGtS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
            case Op::kBltz:
              cond = binop(ir::Opcode::kLtS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
            default:
              cond = binop(ir::Opcode::kGeS, read(in.rs),
                           ir::Value::Const(0), pc);
              break;
          }
          ir::Instr* br = emit(ir::Opcode::kCondBr, {cond}, pc);
          br->target0 = BlockAt(target);
          br->target1 = BlockAt(pc + 4);
          break;
        }
        case Op::kJ: {
          ir::Instr* br = emit(ir::Opcode::kBr, {}, pc);
          br->target0 = BlockAt(mips::JumpTarget(pc, in));
          break;
        }
        case Op::kJr:
          Check(in.rs == mips::kRa, "lifter: jr to non-ra survived recovery");
          emit(ir::Opcode::kRet, {read(mips::kV0)}, pc);
          break;
        case Op::kJalr:
          throw InternalError("lifter: jalr survived CFG recovery");
        case Op::kInvalid:
          return Status::Error(ErrorKind::kMalformedBinary,
                               "invalid instruction at " + Hex(pc));
      }
    }

    // Fallthrough block (last instruction was not control flow).
    if (!block->has_terminator()) {
      Check(mblock.succs.size() == 1, "lifter: fallthrough without successor");
      ir::Instr* br = function_.Create(ir::Opcode::kBr);
      br->src_pc = mblock.end - 4;
      br->target0 = BlockAt(mblock.succs[0]);
      block->Append(br);
    }
    return Status::Ok();
  }

  void AnnotateProfile() {
    if (options_.profile == nullptr) return;
    const mips::ExecProfile& profile = *options_.profile;
    for (const auto& block_ptr : function_.blocks()) {
      ir::Block* block = block_ptr.get();
      block->exec_count = profile.CountAt(block->start_pc);
      if (!block->has_terminator()) continue;
      ir::Instr* term = block->terminator();
      if (term->op != ir::Opcode::kCondBr || term->src_pc == 0) continue;
      const std::size_t index = (term->src_pc - mips::kTextBase) / 4u;
      if (index < profile.branch_taken.size()) {
        block->taken_count = profile.branch_taken[index];
        block->not_taken_count = profile.branch_not_taken[index];
      }
    }
  }

  const SoftBinary& binary_;
  const MachineCfg& cfg_;
  ir::Function& function_;
  const LiftOptions& options_;
  std::vector<ir::Block*> blocks_;  // parallel to cfg_.blocks
  ir::Instr* undef_ = nullptr;
};

/// Shared lift driver: recover and lift `root_entry` plus its transitive
/// callees.  Whole-binary lifting roots at the binary entry point;
/// region-scoped lifting roots at an arbitrary discovered function.
Result<ir::Module> LiftFrom(const mips::SoftBinary& binary,
                            std::uint32_t root_entry,
                            const LiftOptions& options) {
  ir::Module module;

  // Discover functions: the root plus transitive jal targets.
  std::set<std::uint32_t> discovered{root_entry};
  std::deque<std::uint32_t> work{root_entry};
  std::map<std::uint32_t, MachineCfg> cfgs;
  CfgScratch scratch;
  scratch.slot.assign(binary.text.size(), 0);
  while (!work.empty()) {
    const std::uint32_t entry = work.front();
    work.pop_front();
    if (cfgs.count(entry) != 0) continue;
    auto cfg = RecoverCfg(binary, entry, scratch);
    if (!cfg.ok()) return cfg.status();
    for (std::uint32_t callee : cfg.value().call_targets) {
      if (discovered.insert(callee).second) work.push_back(callee);
    }
    cfgs.emplace(entry, std::move(cfg).take());
  }

  // Lift each function.  Names come from symbols when available: the
  // first symbol in name order at the entry, found in one pass over the
  // symbol table that stops once every function has its name.
  std::map<std::uint32_t, std::string> names;
  for (const auto& [symbol, addr] : binary.symbols) {
    if (names.size() == cfgs.size()) break;
    if (cfgs.count(addr) != 0) names.emplace(addr, symbol);
  }
  for (const auto& [entry, cfg] : cfgs) {
    const auto named = names.find(entry);
    auto function = std::make_unique<ir::Function>(
        named != names.end() ? named->second : "func_" + Hex(entry), entry);
    FunctionLifter lifter(binary, cfg, *function, options);
    if (Status status = lifter.Run(); !status.ok()) return status;
    if (entry == root_entry) module.main = function.get();
    module.functions.push_back(std::move(function));
  }
  Check(module.main != nullptr, "Lift: root function missing");
  return module;
}

}  // namespace

Result<ir::Module> Lift(const mips::SoftBinary& binary,
                        const LiftOptions& options) {
  return LiftFrom(binary, binary.entry, options);
}

Result<ir::Module> LiftAt(const mips::SoftBinary& binary,
                          std::uint32_t root_entry,
                          const LiftOptions& options) {
  if (!binary.ContainsText(root_entry)) {
    return Status::Error(ErrorKind::kMalformedBinary,
                         "LiftAt: root entry outside text segment");
  }
  return LiftFrom(binary, root_entry, options);
}

std::vector<std::uint32_t> FunctionEntries(const mips::SoftBinary& binary) {
  std::set<std::uint32_t> entries{binary.entry};
  for (std::size_t i = 0; i < binary.text.size(); ++i) {
    const auto instr = mips::Decode(binary.text[i]);
    if (!instr.has_value() || instr->op != mips::Op::kJal) continue;
    const std::uint32_t pc = mips::kTextBase + static_cast<std::uint32_t>(i) * 4u;
    const std::uint32_t target = mips::JumpTarget(pc, *instr);
    if (binary.ContainsText(target)) entries.insert(target);
  }
  return {entries.begin(), entries.end()};
}

}  // namespace b2h::decomp
