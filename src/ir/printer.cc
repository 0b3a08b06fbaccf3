#include "src/ir/printer.h"

#include "src/support/string_util.h"

namespace res {

namespace {

std::string Reg(RegId r) {
  if (r == kNoReg) {
    return "_";
  }
  return StrFormat("r%u", static_cast<unsigned>(r));
}

std::string BlockName(const Function& fn, BlockId b) {
  if (b == kNoBlock || b >= fn.blocks.size()) {
    return "<bad-block>";
  }
  return fn.blocks[b].name;
}

std::string QuoteString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string PrintInstruction(const Module& module, const Function& fn,
                             const Instruction& inst) {
  const std::string op(OpcodeName(inst.op));
  switch (inst.op) {
    case Opcode::kConst:
      return StrFormat("%s %s, %lld", op.c_str(), Reg(inst.rd).c_str(),
                       static_cast<long long>(inst.imm));
    case Opcode::kMov:
      return StrFormat("%s %s, %s", op.c_str(), Reg(inst.rd).c_str(),
                       Reg(inst.ra).c_str());
    case Opcode::kSelect:
      return StrFormat("%s %s, %s, %s, %s", op.c_str(), Reg(inst.rd).c_str(),
                       Reg(inst.rc).c_str(), Reg(inst.ra).c_str(),
                       Reg(inst.rb).c_str());
    case Opcode::kLoad:
      return StrFormat("%s %s, %s, %lld", op.c_str(), Reg(inst.rd).c_str(),
                       Reg(inst.ra).c_str(), static_cast<long long>(inst.imm));
    case Opcode::kStore:
      return StrFormat("%s %s, %lld, %s", op.c_str(), Reg(inst.ra).c_str(),
                       static_cast<long long>(inst.imm), Reg(inst.rb).c_str());
    case Opcode::kAlloc:
      return StrFormat("%s %s, %s", op.c_str(), Reg(inst.rd).c_str(),
                       Reg(inst.ra).c_str());
    case Opcode::kFree:
    case Opcode::kLock:
    case Opcode::kUnlock:
    case Opcode::kJoin:
      return StrFormat("%s %s", op.c_str(), Reg(inst.ra).c_str());
    case Opcode::kInput:
      return StrFormat("%s %s, %lld", op.c_str(), Reg(inst.rd).c_str(),
                       static_cast<long long>(inst.imm));
    case Opcode::kOutput: {
      std::string base = StrFormat("%s %s, %lld", op.c_str(), Reg(inst.ra).c_str(),
                                   static_cast<long long>(inst.imm));
      if (inst.str_id != kNoStr) {
        base += ", " + QuoteString(module.str(inst.str_id));
      }
      return base;
    }
    case Opcode::kAtomicRmwAdd:
      return StrFormat("%s %s, %s, %s", op.c_str(), Reg(inst.rd).c_str(),
                       Reg(inst.ra).c_str(), Reg(inst.rb).c_str());
    case Opcode::kSpawn:
      return StrFormat("%s %s, @%s, %s", op.c_str(), Reg(inst.rd).c_str(),
                       module.function(inst.callee).name.c_str(),
                       Reg(inst.ra).c_str());
    case Opcode::kAssert:
      return StrFormat("%s %s, %s", op.c_str(), Reg(inst.rc).c_str(),
                       QuoteString(module.str(inst.str_id)).c_str());
    case Opcode::kYield:
    case Opcode::kNop:
    case Opcode::kHalt:
      return op;
    case Opcode::kBr:
      return StrFormat("%s %s", op.c_str(), BlockName(fn, inst.target0).c_str());
    case Opcode::kCondBr:
      return StrFormat("%s %s, %s, %s", op.c_str(), Reg(inst.rc).c_str(),
                       BlockName(fn, inst.target0).c_str(),
                       BlockName(fn, inst.target1).c_str());
    case Opcode::kCall: {
      std::string args;
      for (size_t i = 0; i < inst.args.size(); ++i) {
        if (i != 0) {
          args += ", ";
        }
        args += Reg(inst.args[i]);
      }
      return StrFormat("%s %s, @%s(%s), %s", op.c_str(), Reg(inst.rd).c_str(),
                       module.function(inst.callee).name.c_str(), args.c_str(),
                       BlockName(fn, inst.target0).c_str());
    }
    case Opcode::kRet:
      if (inst.ra == kNoReg) {
        return op;
      }
      return StrFormat("%s %s", op.c_str(), Reg(inst.ra).c_str());
    default:
      if (IsBinaryAlu(inst.op)) {
        return StrFormat("%s %s, %s, %s", op.c_str(), Reg(inst.rd).c_str(),
                         Reg(inst.ra).c_str(), Reg(inst.rb).c_str());
      }
      return "<bad-instruction>";
  }
}

std::string PrintModule(const Module& module) {
  std::string out;
  for (const GlobalVar& g : module.globals()) {
    out += StrFormat("global %s %llu", g.name.c_str(),
                     static_cast<unsigned long long>(g.size_words));
    bool any_nonzero = false;
    for (int64_t v : g.init) {
      if (v != 0) {
        any_nonzero = true;
      }
    }
    if (any_nonzero) {
      out += " =";
      for (int64_t v : g.init) {
        out += StrFormat(" %lld", static_cast<long long>(v));
      }
    }
    out += "\n";
  }
  if (module.entry() != kNoFunc) {
    out += StrFormat("entry %s\n", module.function(module.entry()).name.c_str());
  }
  for (const Function& fn : module.functions()) {
    out += StrFormat("\nfunc %s params %u regs %u {\n", fn.name.c_str(),
                     fn.num_params, fn.num_regs);
    for (const BasicBlock& bb : fn.blocks) {
      out += StrFormat("block %s:\n", bb.name.c_str());
      for (const Instruction& inst : bb.instructions) {
        out += "  " + PrintInstruction(module, fn, inst) + "\n";
      }
    }
    out += "}\n";
  }
  return out;
}

}  // namespace res
