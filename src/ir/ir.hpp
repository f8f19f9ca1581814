// Instruction-set-independent SSA IR ("the CDFG").
//
// The decompiler lifts MIPS binaries into this representation (paper §2:
// "binary parsing converts the software binary into an instruction set
// independent representation" followed by "CDFG creation").  The IR is a
// control-flow graph of basic blocks whose instructions form the data-flow
// graph via SSA def-use edges; together they are the annotated CDFG that
// drives partitioning and behavioral synthesis.
//
// Design notes:
//  - Instructions are the only value producers; operands are either the
//    result of another instruction or an immediate constant (`Value`).
//  - No persistent use-lists: passes rewrite operands through
//    ReplaceAllUses(), which is O(instructions) and keeps invariants simple.
//    It also erases the instructions it replaces, so a pass never leaves a
//    replaced instruction behind to delete by hand.
//  - Side tables are vectors indexed by Instr::id or Block::id, never maps
//    keyed by pointer.  Both ids come from one numbering in block order,
//    which Function::Renumber() assigns (RecomputeCfg() ends with it) and
//    ir::Verify checks; an operand defined outside it is an error.
//  - Phi operands follow their predecessor blocks.  A phi's operand i
//    belongs to Block::preds[i]; RecomputeCfg() rebuilds every preds list in
//    block order and carries each operand along with its block: operands of
//    vanished predecessors are dropped, the rest are reordered.  The one
//    edit it cannot infer is a block taking over another block's
//    out-edges, which passes announce through Function::MoveTail().
//  - Function::Cleanup() is the state every pass leaves a function in: no
//    unreachable blocks, trivial phis or dead instructions, and an
//    up-to-date CFG.
//  - Every instruction carries `width`, the number of significant result
//    bits.  Lifting produces width 32 (or 1 for comparisons); the operator
//    size reduction pass narrows widths, which the synthesis area/delay
//    models consume directly.
//  - `src_pc` records binary provenance so profiling data (per-PC counts)
//    can be mapped onto CDFG blocks and loops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace b2h::ir {

class Block;
class Function;

enum class Opcode : std::uint8_t {
  // Values without operands.
  kInput,   ///< live-in machine register at function entry (input_index)
  kConst,   ///< immediate constant (imm)
  kUndef,   ///< unknown value (e.g. caller-saved register after a call)
  // Integer arithmetic / logic.
  kAdd, kSub, kMul, kMulHiS, kMulHiU, kDivS, kDivU, kRemS, kRemU,
  kAnd, kOr, kXor, kNor,
  kShl, kShrL, kShrA,
  // Comparisons (result width 1).
  kEq, kNe, kLtS, kLtU, kLeS, kLeU, kGtS, kGtU, kGeS, kGeU,
  // Conditional select: operands (cond, if_true, if_false).
  kSelect,
  // Width adjustment (operand 0; ext_from gives the source width).
  kSExt, kZExt, kTrunc,
  // Memory (mem_bytes: 1/2/4; loads: mem_signed picks sign/zero extension).
  kLoad,   ///< operands (address)
  kStore,  ///< operands (address, value)
  // SSA merge: operand i flows in from Block::preds[i].
  kPhi,
  // Control flow (block terminators).
  kBr,      ///< unconditional; successor target0
  kCondBr,  ///< operands (cond); target0 = taken, target1 = fallthrough
  kRet,     ///< operands () or (value)
  // Call to another recovered function (call site keeps register-passed
  // arguments in MIPS ABI order $a0..$a3; result models $v0).
  kCall,
};

[[nodiscard]] const char* OpcodeName(Opcode op) noexcept;
[[nodiscard]] bool IsTerminator(Opcode op) noexcept;
[[nodiscard]] bool IsComparison(Opcode op) noexcept;
[[nodiscard]] bool IsCommutative(Opcode op) noexcept;
/// Instructions that must not be removed even when their result is unused.
[[nodiscard]] bool HasSideEffects(Opcode op) noexcept;

class Instr;

/// An operand: either the SSA result of an instruction or a constant.
struct Value {
  enum class Kind : std::uint8_t { kNone, kInstr, kConst };
  Kind kind = Kind::kNone;
  Instr* def = nullptr;
  std::int32_t imm = 0;

  [[nodiscard]] static Value Of(Instr* instr) {
    Check(instr != nullptr, "Value::Of(nullptr)");
    return Value{Kind::kInstr, instr, 0};
  }
  [[nodiscard]] static Value Const(std::int32_t imm) {
    return Value{Kind::kConst, nullptr, imm};
  }
  [[nodiscard]] static Value None() { return Value{}; }

  [[nodiscard]] bool is_instr() const noexcept { return kind == Kind::kInstr; }
  [[nodiscard]] bool is_const() const noexcept { return kind == Kind::kConst; }
  [[nodiscard]] bool is_none() const noexcept { return kind == Kind::kNone; }
  [[nodiscard]] bool is_const_value(std::int32_t v) const noexcept {
    return is_const() && imm == v;
  }
  [[nodiscard]] bool operator==(const Value& other) const noexcept {
    return kind == other.kind && def == other.def && imm == other.imm;
  }
};

class Instr {
 public:
  Opcode op = Opcode::kUndef;
  std::uint8_t width = 32;       ///< significant result bits (0 if no result)
  bool is_signed = true;         ///< signedness of the produced value
  std::uint8_t mem_bytes = 4;    ///< kLoad/kStore access size
  bool mem_signed = true;        ///< kLoad: sign-extend narrow loads
  std::uint8_t ext_from = 32;    ///< kSExt/kZExt/kTrunc source width
  std::uint16_t input_index = 0; ///< kInput: machine register number
  std::uint32_t call_target = 0; ///< kCall: callee entry address
  std::int32_t imm = 0;          ///< kConst value
  std::uint32_t src_pc = 0;      ///< binary provenance (0 = synthesized)
  int id = -1;                   ///< position in Function::Renumber()

  std::vector<Value> operands;
  Block* parent = nullptr;
  Block* target0 = nullptr;  ///< kBr/kCondBr successor
  Block* target1 = nullptr;  ///< kCondBr fallthrough successor

  [[nodiscard]] bool is(Opcode o) const noexcept { return op == o; }
  [[nodiscard]] bool is_terminator() const noexcept {
    return IsTerminator(op);
  }
  [[nodiscard]] Value operand(std::size_t i) const {
    Check(i < operands.size(), "Instr::operand out of range");
    return operands[i];
  }
};

/// Instructions paired with the values that replace them.
using Replacements = std::vector<std::pair<Instr*, Value>>;

/// A block's successors in terminator order (target0, then target1): at
/// most two, held inline, so walking them allocates nothing.
class Successors {
 public:
  [[nodiscard]] Block* const* begin() const noexcept { return slots_; }
  [[nodiscard]] Block* const* end() const noexcept { return slots_ + size_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] Block* operator[](std::size_t i) const {
    Check(i < size_, "Successors: index out of range");
    return slots_[i];
  }

 private:
  friend class Block;
  Block* slots_[2] = {nullptr, nullptr};
  std::size_t size_ = 0;
};

class Block {
 public:
  int id = -1;  ///< position in Function::blocks()
  std::string name;
  std::uint32_t start_pc = 0;      ///< binary address of the block leader
  std::uint64_t exec_count = 0;    ///< profile annotation
  /// Profile annotation for the terminating branch (kCondBr only):
  /// executions that went to target0 / target1.
  std::uint64_t taken_count = 0;
  std::uint64_t not_taken_count = 0;
  Function* parent = nullptr;
  std::vector<Instr*> instrs;      ///< phis first, terminator last
  /// Maintained by Function::RecomputeCfg; phi operand i flows in from
  /// preds[i].
  std::vector<Block*> preds;

  /// Successors derived from the terminator (none for kRet).
  [[nodiscard]] Successors succs() const;
  [[nodiscard]] Instr* terminator() const;
  [[nodiscard]] bool has_terminator() const;

  /// Append before the terminator if present, else at the end.
  void Append(Instr* instr);
  /// Insert a phi at the start of the block.
  void PrependPhi(Instr* phi);
  /// Remove an instruction from this block (does not free it).
  void Remove(const Instr* instr);
  /// Index of `pred` in preds (phi operand position).
  [[nodiscard]] std::size_t PredIndex(const Block* pred) const;
  /// Non-phi instruction count.
  [[nodiscard]] std::size_t BodySize() const;
  [[nodiscard]] std::vector<Instr*> Phis() const;
};

class Function {
 public:
  explicit Function(std::string name, std::uint32_t entry_pc = 0)
      : name_(std::move(name)), entry_pc_(entry_pc) {}

  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t entry_pc() const noexcept { return entry_pc_; }
  [[nodiscard]] Block* entry() const {
    Check(!blocks_.empty(), "Function has no blocks");
    return blocks_.front().get();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Block>>& blocks() const {
    return blocks_;
  }
  [[nodiscard]] std::size_t NumInstrs() const;

  Block* CreateBlock(std::string name, std::uint32_t start_pc = 0);
  /// Allocate an instruction owned by this function (not yet in a block).
  Instr* Create(Opcode op);
  /// Allocate + append a simple value-producing instruction.
  Instr* Emit(Block* block, Opcode op, std::vector<Value> operands,
              std::uint8_t width = 32);

  /// Recompute preds from terminators, in block order, carrying each phi
  /// operand with its predecessor block: operands of predecessors that
  /// vanished are dropped and the rest reordered.  Renumbers blocks and
  /// instructions.  Throws InternalError when a block with phis gains a
  /// predecessor none of its operands belongs to.
  void RecomputeCfg();

  /// Move `from`'s instructions from index `first` on (which must include
  /// its terminator) to the end of `heir`, which has none: `heir` takes over
  /// `from`'s out-edges, and the successors' phi operands that flowed in
  /// from `from` now flow in from `heir`.
  void MoveTail(Block* from, std::size_t first, Block* heir);

  /// Number blocks and instructions densely in block order, the numbering
  /// RecomputeCfg leaves, and return the instructions by id.  A side table
  /// indexed by the ids stays valid until instructions are added, removed
  /// or moved.
  std::vector<Instr*> Renumber();

  /// Rewrite every use of each listed instruction to its paired value and
  /// erase the listed instructions from their blocks.  Chains (a->b, b->c)
  /// are followed; a later pair for the same instruction wins.
  void ReplaceAllUses(const Replacements& replacements);

  /// Remove instructions not reachable from side effects (classic DCE).
  /// Returns the number of instructions removed.
  std::size_t RemoveDeadInstrs();

  /// Remove phis whose operands are all identical (or self-references),
  /// to a fixpoint.  Returns the number of phis removed.
  std::size_t EliminateTrivialPhis();

  /// Erase blocks unreachable from the entry, then RecomputeCfg (which
  /// drops the phi operands that flowed in from them).
  void RemoveUnreachableBlocks();

  /// The state every pass leaves a function in: remove unreachable blocks,
  /// trivial phis and dead instructions, then RecomputeCfg.
  void Cleanup();

  /// Total static operation count (reporting).
  [[nodiscard]] std::size_t CountOps() const;

 private:
  std::string name_;
  std::uint32_t entry_pc_ = 0;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<std::unique_ptr<Instr>> pool_;
};

/// The id of `def` in `by_id`, a Function::Renumber() result.  Throws
/// InternalError when `def` lies outside that numbering (an operand that
/// outlived its definition's block, or a stale numbering).
[[nodiscard]] std::size_t IdIn(const std::vector<Instr*>& by_id,
                               const Instr* def);

/// A whole decompiled program: functions plus the data image they run over.
struct Module {
  std::vector<std::unique_ptr<Function>> functions;
  Function* main = nullptr;

  [[nodiscard]] Function* FindByEntry(std::uint32_t entry_pc) const {
    for (const auto& f : functions) {
      if (f->entry_pc() == entry_pc) return f.get();
    }
    return nullptr;
  }
};

}  // namespace b2h::ir
