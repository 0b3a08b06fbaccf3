#include "src/ir/builder.h"

#include <cassert>

#include "src/ir/layout.h"

namespace res {

FunctionBuilder::FunctionBuilder(ModuleBuilder* parent, FuncId id, Function fn)
    : parent_(parent), func_id_(id), fn_(std::move(fn)) {}

BlockId FunctionBuilder::NewBlock(const std::string& name) {
  BlockId id = static_cast<BlockId>(fn_.blocks.size());
  BasicBlock bb;
  if (name.empty()) {
    bb.name = "b";
    bb.name += std::to_string(id);
  } else {
    bb.name = name;
  }
  fn_.blocks.push_back(std::move(bb));
  if (insert_point_ == kNoBlock) {
    insert_point_ = id;
  }
  return id;
}

void FunctionBuilder::SetInsertPoint(BlockId block) {
  assert(block < fn_.blocks.size());
  insert_point_ = block;
}

RegId FunctionBuilder::NewReg() {
  assert(fn_.num_regs < kNoReg - 1 && "register file exhausted");
  return fn_.num_regs++;
}

void FunctionBuilder::Emit(Instruction inst) { EmitRef(std::move(inst)); }

Instruction* FunctionBuilder::EmitRef(Instruction inst) {
  assert(!finished_);
  assert(insert_point_ != kNoBlock && "no insert point; call NewBlock first");
  BasicBlock& bb = fn_.blocks[insert_point_];
  assert((bb.instructions.empty() || !IsTerminator(bb.instructions.back().op)) &&
         "emitting past a terminator");
  bb.instructions.push_back(std::move(inst));
  return &bb.instructions.back();
}

RegId FunctionBuilder::Const(int64_t value) {
  RegId rd = NewReg();
  ConstInto(rd, value);
  return rd;
}

void FunctionBuilder::ConstInto(RegId rd, int64_t value) {
  Instruction inst;
  inst.op = Opcode::kConst;
  inst.rd = rd;
  inst.imm = value;
  Emit(inst);
}

RegId FunctionBuilder::Mov(RegId ra) {
  RegId rd = NewReg();
  MovInto(rd, ra);
  return rd;
}

void FunctionBuilder::MovInto(RegId rd, RegId ra) {
  Instruction inst;
  inst.op = Opcode::kMov;
  inst.rd = rd;
  inst.ra = ra;
  Emit(inst);
}

RegId FunctionBuilder::Binary(Opcode op, RegId ra, RegId rb) {
  RegId rd = NewReg();
  BinaryInto(op, rd, ra, rb);
  return rd;
}

void FunctionBuilder::BinaryInto(Opcode op, RegId rd, RegId ra, RegId rb) {
  assert(IsBinaryAlu(op));
  Instruction inst;
  inst.op = op;
  inst.rd = rd;
  inst.ra = ra;
  inst.rb = rb;
  Emit(inst);
}

RegId FunctionBuilder::AddImm(RegId ra, int64_t imm) {
  RegId c = Const(imm);
  return Add(ra, c);
}

RegId FunctionBuilder::Select(RegId rc, RegId ra, RegId rb) {
  Instruction inst;
  inst.op = Opcode::kSelect;
  inst.rd = NewReg();
  inst.rc = rc;
  inst.ra = ra;
  inst.rb = rb;
  RegId rd = inst.rd;
  Emit(inst);
  return rd;
}

RegId FunctionBuilder::Load(RegId base, int64_t offset) {
  RegId rd = NewReg();
  LoadInto(rd, base, offset);
  return rd;
}

void FunctionBuilder::LoadInto(RegId rd, RegId base, int64_t offset) {
  Instruction inst;
  inst.op = Opcode::kLoad;
  inst.rd = rd;
  inst.ra = base;
  inst.imm = offset;
  Emit(inst);
}

void FunctionBuilder::Store(RegId base, int64_t offset, RegId value) {
  Instruction inst;
  inst.op = Opcode::kStore;
  inst.ra = base;
  inst.rb = value;
  inst.imm = offset;
  Emit(inst);
}

RegId FunctionBuilder::Alloc(RegId size_bytes) {
  Instruction inst;
  inst.op = Opcode::kAlloc;
  inst.rd = NewReg();
  inst.ra = size_bytes;
  RegId rd = inst.rd;
  Emit(inst);
  return rd;
}

void FunctionBuilder::Free(RegId ptr) {
  Instruction inst;
  inst.op = Opcode::kFree;
  inst.ra = ptr;
  Emit(inst);
}

RegId FunctionBuilder::Input(int64_t channel) {
  Instruction inst;
  inst.op = Opcode::kInput;
  inst.rd = NewReg();
  inst.imm = channel;
  RegId rd = inst.rd;
  Emit(inst);
  return rd;
}

void FunctionBuilder::Output(RegId value, int64_t channel, const std::string& message) {
  Instruction inst;
  inst.op = Opcode::kOutput;
  inst.ra = value;
  inst.imm = channel;
  if (!message.empty()) {
    inst.str_id = parent_->module_.InternString(message);
  }
  Emit(inst);
}

void FunctionBuilder::Lock(RegId mutex_addr) {
  Instruction inst;
  inst.op = Opcode::kLock;
  inst.ra = mutex_addr;
  Emit(inst);
}

void FunctionBuilder::Unlock(RegId mutex_addr) {
  Instruction inst;
  inst.op = Opcode::kUnlock;
  inst.ra = mutex_addr;
  Emit(inst);
}

RegId FunctionBuilder::AtomicRmwAdd(RegId addr, RegId delta) {
  Instruction inst;
  inst.op = Opcode::kAtomicRmwAdd;
  inst.rd = NewReg();
  inst.ra = addr;
  inst.rb = delta;
  RegId rd = inst.rd;
  Emit(inst);
  return rd;
}

RegId FunctionBuilder::Spawn(FuncId callee, RegId arg) {
  Instruction inst;
  inst.op = Opcode::kSpawn;
  inst.rd = NewReg();
  inst.callee = callee;
  inst.ra = arg;
  RegId rd = inst.rd;
  Emit(inst);
  return rd;
}

void FunctionBuilder::Join(RegId thread_id) {
  Instruction inst;
  inst.op = Opcode::kJoin;
  inst.ra = thread_id;
  Emit(inst);
}

void FunctionBuilder::Assert(RegId cond, const std::string& message) {
  Instruction inst;
  inst.op = Opcode::kAssert;
  inst.rc = cond;
  inst.str_id = parent_->module_.InternString(message);
  Emit(inst);
}

void FunctionBuilder::Yield() {
  Instruction inst;
  inst.op = Opcode::kYield;
  Emit(inst);
}

void FunctionBuilder::Nop() {
  Instruction inst;
  inst.op = Opcode::kNop;
  Emit(inst);
}

RegId FunctionBuilder::GlobalAddr(const std::string& name) {
  const GlobalVar* g = parent_->module_.FindGlobal(name);
  assert(g != nullptr && "unknown global");
  return Const(static_cast<int64_t>(g->address));
}

RegId FunctionBuilder::LoadGlobal(const std::string& name, int64_t word_index) {
  RegId base = GlobalAddr(name);
  return Load(base, word_index * static_cast<int64_t>(kWordSize));
}

void FunctionBuilder::StoreGlobal(const std::string& name, RegId value,
                                  int64_t word_index) {
  RegId base = GlobalAddr(name);
  Store(base, word_index * static_cast<int64_t>(kWordSize), value);
}

void FunctionBuilder::Br(BlockId target) {
  Instruction inst;
  inst.op = Opcode::kBr;
  inst.target0 = target;
  Emit(inst);
}

void FunctionBuilder::CondBr(RegId cond, BlockId if_true, BlockId if_false) {
  Instruction inst;
  inst.op = Opcode::kCondBr;
  inst.rc = cond;
  inst.target0 = if_true;
  inst.target1 = if_false;
  Emit(inst);
}

RegId FunctionBuilder::Call(FuncId callee, const std::vector<RegId>& args,
                            BlockId continuation) {
  Instruction inst;
  inst.op = Opcode::kCall;
  inst.rd = NewReg();
  inst.callee = callee;
  inst.args = args;
  inst.target0 = continuation;
  RegId rd = inst.rd;
  Emit(inst);
  SetInsertPoint(continuation);
  return rd;
}

void FunctionBuilder::CallVoid(FuncId callee, const std::vector<RegId>& args,
                               BlockId continuation) {
  Instruction inst;
  inst.op = Opcode::kCall;
  inst.rd = kNoReg;
  inst.callee = callee;
  inst.args = args;
  inst.target0 = continuation;
  Emit(inst);
  SetInsertPoint(continuation);
}

void FunctionBuilder::Ret(RegId value) {
  Instruction inst;
  inst.op = Opcode::kRet;
  inst.ra = value;
  Emit(inst);
}

void FunctionBuilder::Halt() {
  Instruction inst;
  inst.op = Opcode::kHalt;
  Emit(inst);
}

void FunctionBuilder::Finish() {
  assert(!finished_);
  finished_ = true;
  Function* slot = parent_->module_.mutable_function(func_id_);
  fn_.id = func_id_;
  fn_.name = slot->name;
  fn_.num_params = slot->num_params;
  *slot = std::move(fn_);
}

FuncId ModuleBuilder::DeclareFunction(const std::string& name, uint16_t num_params) {
  if (auto existing = module_.FindFunction(name)) {
    return *existing;
  }
  Function fn;
  fn.name = name;
  fn.num_params = num_params;
  fn.num_regs = num_params;
  return module_.AddFunction(std::move(fn));
}

FunctionBuilder ModuleBuilder::DefineFunction(const std::string& name,
                                              uint16_t num_params) {
  FuncId id = DeclareFunction(name, num_params);
  return DefineDeclared(id);
}

FunctionBuilder ModuleBuilder::DefineDeclared(FuncId id) {
  const Function& decl = module_.function(id);
  Function fn;
  fn.name = decl.name;
  fn.id = id;
  fn.num_params = decl.num_params;
  fn.num_regs = decl.num_params;
  FunctionBuilder fb(this, id, std::move(fn));
  fb.NewBlock("entry");
  return fb;
}

uint64_t ModuleBuilder::AddGlobal(const std::string& name, uint64_t size_words,
                                  std::vector<int64_t> init) {
  assert(module_.FindGlobal(name) == nullptr && "duplicate global");
  GlobalVar g;
  g.name = name;
  g.address = module_.NextGlobalAddress();
  g.size_words = size_words;
  g.init = std::move(init);
  g.init.resize(size_words, 0);
  uint64_t addr = g.address;
  module_.AddGlobal(std::move(g));
  return addr;
}

void ModuleBuilder::SetEntry(const std::string& name) {
  auto id = module_.FindFunction(name);
  assert(id.has_value() && "entry function not found");
  module_.set_entry(*id);
}

Module ModuleBuilder::Build() && { return std::move(module_); }

}  // namespace res
