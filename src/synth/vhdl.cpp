#include "synth/vhdl.hpp"

#include <cctype>
#include <sstream>

namespace b2h::synth {
namespace {

using ir::Opcode;

std::string Sanitize(const std::string& name) {
  std::string out;
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'r');
  }
  return out;
}

std::string Sig(const ir::Instr* instr) {
  std::string name = "v";
  name += std::to_string(instr->id);
  return name;
}

/// The FSM state of `block`'s control step `step`.
std::string StateName(const ir::Block* block, int step) {
  return "S_" + Sanitize(block->name) + "_" + std::to_string(step);
}

std::string OperandExpr(const ir::Value& value) {
  if (value.is_const()) {
    return "to_signed(" + std::to_string(value.imm) + ", 32)";
  }
  return Sig(value.def);
}

/// VHDL expression for one datapath operation.
std::string OpExpr(const ir::Instr& instr) {
  const auto op0 = [&] { return OperandExpr(instr.operands[0]); };
  const auto op1 = [&] { return OperandExpr(instr.operands[1]); };
  const auto boolean = [&](const std::string& cond) {
    return "bool_to_signed(" + cond + ")";
  };
  switch (instr.op) {
    case Opcode::kAdd: return op0() + " + " + op1();
    case Opcode::kSub: return op0() + " - " + op1();
    case Opcode::kMul:
      return "resize(" + op0() + " * " + op1() + ", 32)";
    case Opcode::kMulHiS:
      return "mulhi_s(" + op0() + ", " + op1() + ")";
    case Opcode::kMulHiU:
      return "mulhi_u(" + op0() + ", " + op1() + ")";
    case Opcode::kDivS: return "div_s(" + op0() + ", " + op1() + ")";
    case Opcode::kDivU: return "div_u(" + op0() + ", " + op1() + ")";
    case Opcode::kRemS: return "rem_s(" + op0() + ", " + op1() + ")";
    case Opcode::kRemU: return "rem_u(" + op0() + ", " + op1() + ")";
    case Opcode::kAnd: return op0() + " and " + op1();
    case Opcode::kOr:  return op0() + " or " + op1();
    case Opcode::kXor: return op0() + " xor " + op1();
    case Opcode::kNor: return "not (" + op0() + " or " + op1() + ")";
    case Opcode::kShl:
      return "shift_left(" + op0() + ", shamt(" + op1() + "))";
    case Opcode::kShrL:
      return "signed(shift_right(unsigned(" + op0() + "), shamt(" + op1() +
             ")))";
    case Opcode::kShrA:
      return "shift_right(" + op0() + ", shamt(" + op1() + "))";
    case Opcode::kEq:  return boolean(op0() + " = " + op1());
    case Opcode::kNe:  return boolean(op0() + " /= " + op1());
    case Opcode::kLtS: return boolean(op0() + " < " + op1());
    case Opcode::kLtU:
      return boolean("unsigned(" + op0() + ") < unsigned(" + op1() + ")");
    case Opcode::kLeS: return boolean(op0() + " <= " + op1());
    case Opcode::kLeU:
      return boolean("unsigned(" + op0() + ") <= unsigned(" + op1() + ")");
    case Opcode::kGtS: return boolean(op0() + " > " + op1());
    case Opcode::kGtU:
      return boolean("unsigned(" + op0() + ") > unsigned(" + op1() + ")");
    case Opcode::kGeS: return boolean(op0() + " >= " + op1());
    case Opcode::kGeU:
      return boolean("unsigned(" + op0() + ") >= unsigned(" + op1() + ")");
    case Opcode::kSelect:
      return "sel(" + op0() + ", " + OperandExpr(instr.operands[1]) + ", " +
             OperandExpr(instr.operands[2]) + ")";
    case Opcode::kSExt:
      return "resize(resize(" + op0() + ", " +
             std::to_string(instr.ext_from) + "), 32)";
    case Opcode::kZExt:
      return "signed(resize(resize(unsigned(" + op0() + "), " +
             std::to_string(instr.ext_from) + "), 32))";
    case Opcode::kTrunc:
      return "signed(resize(resize(unsigned(" + op0() + "), " +
             std::to_string(instr.width) + "), 32))";
    default:
      return "to_signed(0, 32)";
  }
}

}  // namespace

std::string EmitVhdl(const HwRegion& region, const RegionSchedule& schedule) {
  const std::string entity = Sanitize("hw_" + region.name);
  std::ostringstream out;
  out << "-- Generated by b2h behavioral synthesis\n";
  out << "-- Region: " << region.name << "\n";
  if (schedule.pipeline_ii > 0) {
    out << "-- Pipelined loop: II=" << schedule.pipeline_ii
        << ", depth=" << schedule.pipeline_depth << "\n";
  }
  out << "library ieee;\n";
  out << "use ieee.std_logic_1164.all;\n";
  out << "use ieee.numeric_std.all;\n\n";
  out << "entity " << entity << " is\n";
  out << "  port (\n";
  out << "    clk   : in  std_logic;\n";
  out << "    rst   : in  std_logic;\n";
  out << "    start : in  std_logic;\n";
  out << "    done  : out std_logic;\n";
  for (std::size_t i = 0; i < region.live_ins.size(); ++i) {
    out << "    in_" << Sig(region.live_ins[i])
        << " : in  signed(31 downto 0);\n";
  }
  for (std::size_t i = 0; i < region.live_outs.size(); ++i) {
    out << "    out_" << Sig(region.live_outs[i])
        << " : out signed(31 downto 0);\n";
  }
  out << "    mem_addr  : out unsigned(31 downto 0);\n";
  out << "    mem_wdata : out signed(31 downto 0);\n";
  out << "    mem_rdata : in  signed(31 downto 0);\n";
  out << "    mem_we    : out std_logic;\n";
  out << "    mem_size  : out unsigned(2 downto 0)\n";
  out << "  );\n";
  out << "end entity " << entity << ";\n\n";
  out << "architecture rtl of " << entity << " is\n";

  // State enumeration: one per (block, step) pair.
  out << "  type state_t is (S_IDLE, S_DONE";
  for (const auto& bs : schedule.blocks) {
    for (int s = 0; s < bs.num_steps; ++s) {
      out << ", " << StateName(bs.block, s);
    }
  }
  out << ");\n";
  out << "  signal state : state_t := S_IDLE;\n";

  // Registers for every value that lives past its step plus all phis.
  for (const auto& bs : schedule.blocks) {
    for (const ir::Instr* instr : bs.block->instrs) {
      if (instr->is_terminator()) continue;
      if (instr->width == 0) continue;
      out << "  signal " << Sig(instr) << " : signed(31 downto 0) := "
          << "(others => '0');  -- width " << static_cast<int>(instr->width)
          << "\n";
    }
  }
  out << "\n  -- helper functions\n";
  out << "  function bool_to_signed(b : boolean) return signed is\n";
  out << "  begin\n";
  out << "    if b then return to_signed(1, 32);"
      << " else return to_signed(0, 32); end if;\n";
  out << "  end function;\n";
  out << "  function shamt(v : signed(31 downto 0)) return natural is\n";
  out << "  begin\n";
  out << "    return to_integer(unsigned(v(4 downto 0)));\n";
  out << "  end function;\n";
  out << "  function sel(c, a, b : signed(31 downto 0)) return signed is\n";
  out << "  begin\n";
  out << "    if c /= 0 then return a; else return b; end if;\n";
  out << "  end function;\n";
  out << "  function mulhi_s(a, b : signed(31 downto 0)) return signed is\n";
  out << "    variable p : signed(63 downto 0);\n";
  out << "  begin\n";
  out << "    p := a * b; return p(63 downto 32);\n";
  out << "  end function;\n";
  out << "  function mulhi_u(a, b : signed(31 downto 0)) return signed is\n";
  out << "    variable p : unsigned(63 downto 0);\n";
  out << "  begin\n";
  out << "    p := unsigned(a) * unsigned(b);\n";
  out << "    return signed(p(63 downto 32));\n";
  out << "  end function;\n";
  out << "  function div_s(a, b : signed(31 downto 0)) return signed is\n";
  out << "  begin\n";
  out << "    if b = 0 then return to_signed(0, 32); end if;\n";
  out << "    return a / b;\n";
  out << "  end function;\n";
  out << "  function div_u(a, b : signed(31 downto 0)) return signed is\n";
  out << "  begin\n";
  out << "    if b = 0 then return to_signed(0, 32); end if;\n";
  out << "    return signed(unsigned(a) / unsigned(b));\n";
  out << "  end function;\n";
  out << "  function rem_s(a, b : signed(31 downto 0)) return signed is\n";
  out << "  begin\n";
  out << "    if b = 0 then return a; end if;\n";
  out << "    return a rem b;\n";
  out << "  end function;\n";
  out << "  function rem_u(a, b : signed(31 downto 0)) return signed is\n";
  out << "  begin\n";
  out << "    if b = 0 then return a; end if;\n";
  out << "    return signed(unsigned(a) rem unsigned(b));\n";
  out << "  end function;\n";
  out << "begin\n";
  out << "  fsm : process(clk)\n";
  out << "  begin\n";
  out << "    if rising_edge(clk) then\n";
  out << "      if rst = '1' then\n";
  out << "        state <= S_IDLE;\n";
  out << "        done <= '0';\n";
  out << "      else\n";
  out << "        mem_we <= '0';\n";
  out << "        case state is\n";
  out << "          when S_IDLE =>\n";
  out << "            if start = '1' then\n";
  // Load input ports.
  for (const ir::Instr* in : region.live_ins) {
    out << "              " << Sig(in) << " <= in_" << Sig(in) << ";\n";
  }
  out << "              state <= " << StateName(region.blocks.front(), 0)
      << ";\n";
  out << "            end if;\n";

  // Per-(block, step) states.
  for (const auto& bs : schedule.blocks) {
    for (int step = 0; step < bs.num_steps; ++step) {
      out << "          when " << StateName(bs.block, step) << " =>\n";
      // Phi updates happen on entry to step 0 — emitted as part of the
      // transition INTO the block (VHDL: previous state's assignment);
      // for readability we annotate them here as comments.
      if (step == 0) {
        for (const ir::Instr* phi : bs.block->Phis()) {
          out << "            -- phi " << Sig(phi)
              << " loaded on entry transition\n";
        }
      }
      // Ops scheduled in this step, in issue (block) order.
      for (const ir::Instr* instr : bs.block->instrs) {
        if (schedule.StepOf(instr) != step) continue;
        if (instr->op == Opcode::kLoad) {
          out << "            mem_addr <= unsigned("
              << OperandExpr(instr->operands[0]) << ");\n";
          out << "            mem_size <= to_unsigned("
              << static_cast<int>(instr->mem_bytes) << ", 3);\n";
          out << "            " << Sig(instr)
              << " <= mem_rdata;  -- data valid next cycle\n";
        } else if (instr->op == Opcode::kStore) {
          out << "            mem_addr <= unsigned("
              << OperandExpr(instr->operands[0]) << ");\n";
          out << "            mem_wdata <= "
              << OperandExpr(instr->operands[1]) << ";\n";
          out << "            mem_size <= to_unsigned("
              << static_cast<int>(instr->mem_bytes) << ", 3);\n";
          out << "            mem_we <= '1';\n";
        } else if (instr->width > 0) {
          out << "            " << Sig(instr) << " <= " << OpExpr(*instr)
              << ";\n";
        }
      }
      // Transition.
      if (step + 1 < bs.num_steps) {
        out << "            state <= " << StateName(bs.block, step + 1)
            << ";\n";
      } else {
        const ir::Instr* term = bs.block->terminator();
        const auto transition = [&](const ir::Block* target,
                                    const std::string& indent) {
          if (target != nullptr && region.Contains(target)) {
            // Phi loads for the target block.
            for (const ir::Instr* phi : target->Phis()) {
              const std::size_t index = target->PredIndex(bs.block);
              if (index < phi->operands.size()) {
                out << indent << Sig(phi) << " <= "
                    << OperandExpr(phi->operands[index]) << ";\n";
              }
            }
            out << indent << "state <= " << StateName(target, 0) << ";\n";
          } else {
            out << indent << "state <= S_DONE;\n";
          }
        };
        if (term->op == Opcode::kCondBr) {
          out << "            if " << OperandExpr(term->operands[0])
              << " /= 0 then\n";
          transition(term->target0, "              ");
          out << "            else\n";
          transition(term->target1, "              ");
          out << "            end if;\n";
        } else if (term->op == Opcode::kBr) {
          transition(term->target0, "            ");
        } else {  // kRet
          out << "            state <= S_DONE;\n";
        }
      }
    }
  }

  out << "          when S_DONE =>\n";
  for (const ir::Instr* live_out : region.live_outs) {
    out << "            out_" << Sig(live_out) << " <= " << Sig(live_out)
        << ";\n";
  }
  out << "            done <= '1';\n";
  out << "        end case;\n";
  out << "      end if;\n";
  out << "    end if;\n";
  out << "  end process;\n";
  out << "end architecture rtl;\n";
  return out.str();
}

}  // namespace b2h::synth
