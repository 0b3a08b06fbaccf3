#include "src/workloads/workloads.h"

#include <cassert>
#include <map>

#include "src/ir/builder.h"
#include "src/ir/verifier.h"

namespace res {

namespace {

// Shared tail: verify every built module before handing it out.
Module Finish(ModuleBuilder&& mb) {
  Module m = std::move(mb).Build();
  Status s = VerifyModule(m);
  assert(s.ok() && "workload module failed verification");
  (void)s;
  return m;
}

}  // namespace

Module BuildRacyCounter() { return BuildRacyCounterWide(2); }

Module BuildRacyCounterWide(int workers) {
  ModuleBuilder mb;
  mb.AddGlobal("counter", 1);
  FuncId worker = mb.DeclareFunction("worker", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(worker);
    BlockId inc1 = fb.NewBlock("inc1");
    BlockId read2 = fb.NewBlock("read2");
    BlockId inc2 = fb.NewBlock("inc2");
    BlockId check = fb.NewBlock("check");
    BlockId done = fb.NewBlock("done");
    // entry: first read of the counter.
    fb.SetInsertPoint(0);
    RegId a = fb.LoadGlobal("counter");
    fb.Br(inc1);
    // inc1: first non-atomic increment.
    fb.SetInsertPoint(inc1);
    RegId a1 = fb.AddImm(a, 1);
    fb.StoreGlobal("counter", a1);
    fb.Br(read2);
    // read2: second read.
    fb.SetInsertPoint(read2);
    RegId b = fb.LoadGlobal("counter");
    fb.Br(inc2);
    // inc2: second increment.
    fb.SetInsertPoint(inc2);
    RegId b1 = fb.AddImm(b, 1);
    fb.StoreGlobal("counter", b1);
    fb.Br(check);
    // check: a worker that has completed its own pair expects evenness.
    fb.SetInsertPoint(check);
    RegId chk = fb.LoadGlobal("counter");
    RegId two = fb.Const(2);
    RegId parity = fb.RemS(chk, two);
    RegId zero = fb.Const(0);
    RegId even = fb.CmpEq(parity, zero);
    fb.Assert(even, "shared counter must be even when a worker is quiescent");
    fb.Br(done);
    fb.SetInsertPoint(done);
    fb.Nop();
    fb.Nop();
    fb.Ret();
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    RegId arg = fb.Const(0);
    std::vector<RegId> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads.push_back(fb.Spawn(worker, arg));
    }
    for (RegId t : threads) {
      fb.Join(t);
    }
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildAtomicityViolation() {
  ModuleBuilder mb;
  mb.AddGlobal("gptr", 1);
  FuncId user = mb.DeclareFunction("user", 1);
  FuncId nuller = mb.DeclareFunction("nuller", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(user);
    BlockId use = fb.NewBlock("use");
    BlockId done = fb.NewBlock("done");
    fb.SetInsertPoint(0);
    RegId p1 = fb.LoadGlobal("gptr");
    RegId zero = fb.Const(0);
    RegId nonzero = fb.CmpNe(p1, zero);
    fb.CondBr(nonzero, use, done);  // the check...
    fb.SetInsertPoint(use);
    RegId p2 = fb.LoadGlobal("gptr");  // ...and the act, re-reading the pointer
    RegId v = fb.Load(p2, 0);          // p2 == 0 here is the crash
    fb.Output(v, 1);
    fb.Br(done);
    fb.SetInsertPoint(done);
    fb.Ret();
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineDeclared(nuller);
    BlockId null_it = fb.NewBlock("null_it");
    BlockId linger = fb.NewBlock("linger");
    BlockId done = fb.NewBlock("done");
    fb.SetInsertPoint(0);
    fb.Yield();
    fb.Br(null_it);
    fb.SetInsertPoint(null_it);
    RegId zero = fb.Const(0);
    fb.StoreGlobal("gptr", zero);
    fb.Br(linger);
    fb.SetInsertPoint(linger);
    fb.Nop();
    fb.Nop();
    fb.Br(done);
    fb.SetInsertPoint(done);
    fb.Ret();
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    RegId sz = fb.Const(16);
    RegId p = fb.Alloc(sz);
    fb.StoreGlobal("gptr", p);
    RegId payload = fb.Const(99);
    fb.Store(p, 0, payload);
    RegId arg = fb.Const(0);
    RegId t1 = fb.Spawn(user, arg);
    RegId t2 = fb.Spawn(nuller, arg);
    fb.Join(t1);
    fb.Join(t2);
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildOrderViolation() {
  ModuleBuilder mb;
  mb.AddGlobal("data", 1);
  mb.AddGlobal("quotient", 1);
  FuncId producer = mb.DeclareFunction("producer", 1);
  FuncId consumer = mb.DeclareFunction("consumer", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(producer);
    BlockId publish = fb.NewBlock("publish");
    BlockId linger = fb.NewBlock("linger");
    BlockId done = fb.NewBlock("done");
    fb.SetInsertPoint(0);
    fb.Yield();
    fb.Br(publish);
    fb.SetInsertPoint(publish);
    RegId five = fb.Const(5);
    fb.StoreGlobal("data", five);
    fb.Br(linger);
    fb.SetInsertPoint(linger);
    fb.Nop();
    fb.Nop();
    fb.Br(done);
    fb.SetInsertPoint(done);
    fb.Ret();
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineDeclared(consumer);
    BlockId divide = fb.NewBlock("divide");
    fb.SetInsertPoint(0);
    RegId v = fb.LoadGlobal("data");
    fb.Br(divide);
    fb.SetInsertPoint(divide);
    RegId hundred = fb.Const(100);
    RegId q = fb.DivS(hundred, v);  // v == 0: consumer ran before producer
    fb.StoreGlobal("quotient", q);
    fb.Ret();
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    RegId arg = fb.Const(0);
    RegId t1 = fb.Spawn(consumer, arg);
    RegId t2 = fb.Spawn(producer, arg);
    fb.Join(t1);
    fb.Join(t2);
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildBufferOverflow() {
  ModuleBuilder mb;
  mb.AddGlobal("buf", 4);
  mb.AddGlobal("idx", 1);
  mb.AddGlobal("canary", 1, {7});
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId write = fb.NewBlock("write");
    BlockId verify = fb.NewBlock("verify");
    fb.SetInsertPoint(0);
    RegId in = fb.Input(0);
    fb.StoreGlobal("idx", in);  // no bounds check anywhere
    fb.Br(write);
    fb.SetInsertPoint(write);
    RegId i = fb.LoadGlobal("idx");
    RegId eight = fb.Const(8);
    RegId off = fb.Mul(i, eight);
    RegId base = fb.GlobalAddr("buf");
    RegId addr = fb.Add(base, off);
    RegId v = fb.Const(42);
    fb.Store(addr, 0, v);  // idx = 5 lands on the canary
    fb.Br(verify);
    fb.SetInsertPoint(verify);
    RegId c = fb.LoadGlobal("canary");
    RegId seven = fb.Const(7);
    RegId intact = fb.CmpEq(c, seven);
    fb.Assert(intact, "stack canary clobbered");
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

namespace {

// Shared skeleton for the UAF / double-free workloads: main allocates,
// publishes to `gptr`, and routes through helper calls.
void BuildRelease(ModuleBuilder* mb, FuncId release) {
  FunctionBuilder fb = mb->DefineDeclared(release);
  RegId p = fb.LoadGlobal("gptr");
  fb.Free(p);
  fb.Ret();
  fb.Finish();
}

void BuildUser(ModuleBuilder* mb, FuncId fn, int64_t offset) {
  FunctionBuilder fb = mb->DefineDeclared(fn);
  RegId p = fb.LoadGlobal("gptr");
  RegId v = fb.Load(p, offset);  // use-after-free fires here
  fb.Ret(v);
  fb.Finish();
}

}  // namespace

Module BuildUseAfterFree() {
  ModuleBuilder mb;
  mb.AddGlobal("gptr", 1);
  mb.AddGlobal("sink", 1);
  FuncId release = mb.DeclareFunction("release", 1);
  FuncId use_a = mb.DeclareFunction("use_via_reader", 1);
  FuncId use_b = mb.DeclareFunction("use_via_flusher", 1);
  BuildRelease(&mb, release);
  BuildUser(&mb, use_a, 8);
  BuildUser(&mb, use_b, 16);
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId freed = fb.NewBlock("freed");
    BlockId path_a = fb.NewBlock("path_a");
    BlockId path_b = fb.NewBlock("path_b");
    BlockId done_a = fb.NewBlock("done_a");
    BlockId done_b = fb.NewBlock("done_b");
    fb.SetInsertPoint(0);
    RegId sz = fb.Const(32);
    RegId p = fb.Alloc(sz);
    fb.StoreGlobal("gptr", p);
    RegId zero = fb.Const(0);
    fb.CallVoid(release, {zero}, freed);  // premature free
    // now at `freed`
    RegId w = fb.Input(0);
    RegId one = fb.Const(1);
    RegId take_a = fb.CmpEq(w, one);
    fb.CondBr(take_a, path_a, path_b);
    fb.SetInsertPoint(path_a);
    RegId zero_a = fb.Const(0);
    RegId va = fb.Call(use_a, {zero_a}, done_a);
    fb.StoreGlobal("sink", va);
    fb.Halt();
    fb.SetInsertPoint(path_b);
    RegId zero_b = fb.Const(0);
    RegId vb = fb.Call(use_b, {zero_b}, done_b);
    fb.StoreGlobal("sink", vb);
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildDoubleFree() {
  ModuleBuilder mb;
  mb.AddGlobal("gptr", 1);
  FuncId release = mb.DeclareFunction("release", 1);
  BuildRelease(&mb, release);
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId first = fb.NewBlock("first_free");
    BlockId second = fb.NewBlock("second_free");
    fb.SetInsertPoint(0);
    RegId sz = fb.Const(24);
    RegId p = fb.Alloc(sz);
    fb.StoreGlobal("gptr", p);
    RegId zero = fb.Const(0);
    fb.CallVoid(release, {zero}, first);
    RegId zero2 = fb.Const(0);
    fb.CallVoid(release, {zero2}, second);  // double free inside the callee
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildDivByZeroInput() {
  ModuleBuilder mb;
  mb.AddGlobal("divisor", 1);
  mb.AddGlobal("quotient", 1);
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId divide = fb.NewBlock("divide");
    fb.SetInsertPoint(0);
    RegId x = fb.Input(0);
    fb.StoreGlobal("divisor", x);
    fb.Br(divide);
    fb.SetInsertPoint(divide);
    RegId d = fb.LoadGlobal("divisor");
    RegId hundred = fb.Const(100);
    RegId q = fb.DivS(hundred, d);
    fb.StoreGlobal("quotient", q);
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildSemanticAssert() {
  ModuleBuilder mb;
  mb.AddGlobal("val", 1);
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId verify = fb.NewBlock("verify");
    fb.SetInsertPoint(0);
    RegId x = fb.Input(0);
    RegId two = fb.Const(2);
    RegId doubled = fb.Mul(x, two);
    fb.StoreGlobal("val", doubled);
    fb.Br(verify);
    fb.SetInsertPoint(verify);
    RegId v = fb.LoadGlobal("val");
    RegId bad = fb.Const(14);
    RegId ok = fb.CmpNe(v, bad);
    fb.Assert(ok, "value 14 violates the protocol invariant");
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildDeadlock() {
  ModuleBuilder mb;
  mb.AddGlobal("mutex_a", 1);
  mb.AddGlobal("mutex_b", 1);
  FuncId ab = mb.DeclareFunction("locker_ab", 1);
  FuncId ba = mb.DeclareFunction("locker_ba", 1);
  auto build_locker = [&mb](FuncId fn, const char* first, const char* second) {
    FunctionBuilder fb = mb.DefineDeclared(fn);
    BlockId take_second = fb.NewBlock("take_second");
    BlockId unlock = fb.NewBlock("unlock");
    fb.SetInsertPoint(0);
    RegId m1 = fb.GlobalAddr(first);
    fb.Lock(m1);
    fb.Yield();
    fb.Br(take_second);
    fb.SetInsertPoint(take_second);
    RegId m2 = fb.GlobalAddr(second);
    fb.Lock(m2);
    fb.Br(unlock);
    fb.SetInsertPoint(unlock);
    RegId u2 = fb.GlobalAddr(second);
    fb.Unlock(u2);
    RegId u1 = fb.GlobalAddr(first);
    fb.Unlock(u1);
    fb.Ret();
    fb.Finish();
  };
  build_locker(ab, "mutex_a", "mutex_b");
  build_locker(ba, "mutex_b", "mutex_a");
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    RegId arg = fb.Const(0);
    RegId t1 = fb.Spawn(ab, arg);
    RegId t2 = fb.Spawn(ba, arg);
    fb.Join(t1);
    fb.Join(t2);
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildLockedCounterInputBug() {
  ModuleBuilder mb;
  mb.AddGlobal("counter", 1);
  mb.AddGlobal("mutex", 1);
  mb.AddGlobal("quotient", 1);
  FuncId worker = mb.DeclareFunction("locked_worker", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(worker);
    BlockId update = fb.NewBlock("update");
    BlockId out = fb.NewBlock("out");
    fb.SetInsertPoint(0);
    RegId m = fb.GlobalAddr("mutex");
    fb.Lock(m);
    fb.Br(update);
    fb.SetInsertPoint(update);
    RegId c = fb.LoadGlobal("counter");
    RegId c1 = fb.AddImm(c, 1);
    fb.StoreGlobal("counter", c1);
    RegId m2 = fb.GlobalAddr("mutex");
    fb.Unlock(m2);
    fb.Br(out);
    fb.SetInsertPoint(out);
    fb.Nop();
    fb.Nop();
    fb.Ret();
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId divide = fb.NewBlock("divide");
    fb.SetInsertPoint(0);
    RegId arg = fb.Const(0);
    RegId t1 = fb.Spawn(worker, arg);
    RegId t2 = fb.Spawn(worker, arg);
    RegId x = fb.Input(0);  // the *actual* bug is this unvalidated input
    fb.Br(divide);
    fb.SetInsertPoint(divide);
    RegId hundred = fb.Const(100);
    RegId q = fb.DivS(hundred, x);
    fb.StoreGlobal("quotient", q);
    fb.Join(t1);
    fb.Join(t2);
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildLongExecution(uint64_t iterations) {
  ModuleBuilder mb;
  mb.AddGlobal("acc", 1);
  mb.AddGlobal("i", 1);
  mb.AddGlobal("divisor", 1);
  mb.AddGlobal("quotient", 1);
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId head = fb.NewBlock("loop_head");
    BlockId body = fb.NewBlock("body");
    BlockId even = fb.NewBlock("even");
    BlockId odd = fb.NewBlock("odd");
    BlockId inc = fb.NewBlock("inc");
    BlockId after = fb.NewBlock("after");
    BlockId crash = fb.NewBlock("crash");
    fb.SetInsertPoint(0);
    RegId zero = fb.Const(0);
    fb.StoreGlobal("i", zero);
    fb.StoreGlobal("acc", zero);
    fb.Br(head);
    fb.SetInsertPoint(head);
    RegId iv = fb.LoadGlobal("i");
    RegId n = fb.Const(static_cast<int64_t>(iterations));
    RegId more = fb.CmpLtS(iv, n);
    fb.CondBr(more, body, after);
    fb.SetInsertPoint(body);
    RegId one = fb.Const(1);
    RegId parity = fb.Binary(Opcode::kAnd, iv, one);
    RegId z = fb.Const(0);
    RegId is_even = fb.CmpEq(parity, z);
    fb.CondBr(is_even, even, odd);
    fb.SetInsertPoint(even);
    RegId a1 = fb.LoadGlobal("acc");
    RegId s1 = fb.Add(a1, iv);
    fb.StoreGlobal("acc", s1);
    fb.Br(inc);
    fb.SetInsertPoint(odd);
    RegId a2 = fb.LoadGlobal("acc");
    RegId three = fb.Const(3);
    RegId s2 = fb.Binary(Opcode::kXor, a2, three);
    fb.StoreGlobal("acc", s2);
    fb.Br(inc);
    fb.SetInsertPoint(inc);
    RegId iv2 = fb.LoadGlobal("i");
    RegId next = fb.AddImm(iv2, 1);
    fb.StoreGlobal("i", next);
    fb.Output(next, 1, "iteration complete");  // application log line
    fb.Br(head);
    fb.SetInsertPoint(after);
    RegId x = fb.Input(0);
    fb.StoreGlobal("divisor", x);
    fb.Br(crash);
    fb.SetInsertPoint(crash);
    RegId d = fb.LoadGlobal("divisor");
    RegId hundred = fb.Const(100);
    RegId q = fb.DivS(hundred, d);
    fb.StoreGlobal("quotient", q);
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

namespace {

int64_t MixRound(int64_t h) {
  uint64_t u = static_cast<uint64_t>(h);
  u = u * 2654435761ULL;
  u ^= u >> 13;
  return static_cast<int64_t>(u);
}

}  // namespace

Module BuildHashChain(bool spill_input, int64_t crashing_input) {
  // Digest the builder expects for the crashing input (3 rounds).
  int64_t digest = crashing_input;
  for (int r = 0; r < 3; ++r) {
    digest = MixRound(digest);
  }

  // The hash runs in a helper whose frame is gone by the time the assert
  // fires, and main deliberately clobbers the raw-input register after the
  // call — so the input survives NOWHERE unless spill_input stores it to a
  // global ("the inputs to the hash function may still be on the stack",
  // paper §6). Reversing then requires inverting the multiply/shift mix.
  ModuleBuilder mb;
  mb.AddGlobal("hval", 1);
  if (spill_input) {
    mb.AddGlobal("xsave", 1);
  }
  FuncId hash = mb.DeclareFunction("mix3", 1);
  {
    FunctionBuilder fb = mb.DefineDeclared(hash);
    RegId h = 0;  // parameter register
    for (int r = 0; r < 3; ++r) {
      RegId k = fb.Const(2654435761LL);
      RegId m = fb.Mul(h, k);
      RegId thirteen = fb.Const(13);
      RegId sh = fb.Binary(Opcode::kShrL, m, thirteen);
      h = fb.Binary(Opcode::kXor, m, sh);
    }
    fb.Ret(h);
    fb.Finish();
  }
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId after_call = fb.NewBlock("after_call");
    BlockId verify = fb.NewBlock("verify");
    fb.SetInsertPoint(0);
    RegId x = fb.Input(0);
    if (spill_input) {
      fb.StoreGlobal("xsave", x);
    }
    RegId h = fb.Call(hash, {x}, after_call);
    // Now inserting into after_call. Clobber the raw input register (a dead
    // value a real register allocator would also reuse).
    fb.ConstInto(x, 0);
    fb.StoreGlobal("hval", h);
    fb.Br(verify);
    fb.SetInsertPoint(verify);
    RegId v = fb.LoadGlobal("hval");
    RegId bad = fb.Const(digest);
    RegId ok = fb.CmpNe(v, bad);
    fb.Assert(ok, "forbidden digest encountered");
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

Module BuildRootCauseDistance(uint32_t filler_blocks) {
  ModuleBuilder mb;
  mb.AddGlobal("val", 1);
  mb.AddGlobal("noise", 1);
  {
    FunctionBuilder fb = mb.DefineFunction("main", 0);
    BlockId verify = fb.NewBlock("verify");
    std::vector<BlockId> fillers;
    fillers.reserve(filler_blocks);
    for (uint32_t i = 0; i < filler_blocks; ++i) {
      fillers.push_back(fb.NewBlock("filler" + std::to_string(i)));
    }
    fb.SetInsertPoint(0);
    RegId x = fb.Input(0);
    RegId two = fb.Const(2);
    RegId doubled = fb.Mul(x, two);
    fb.StoreGlobal("val", doubled);  // the root cause: an unvalidated store
    fb.Br(filler_blocks > 0 ? fillers[0] : verify);
    for (uint32_t i = 0; i < filler_blocks; ++i) {
      fb.SetInsertPoint(fillers[i]);
      RegId nv = fb.LoadGlobal("noise");
      RegId k = fb.Const(static_cast<int64_t>(i) + 1);
      RegId nx = fb.Add(nv, k);
      fb.StoreGlobal("noise", nx);
      fb.Br(i + 1 < filler_blocks ? fillers[i + 1] : verify);
    }
    fb.SetInsertPoint(verify);
    RegId v = fb.LoadGlobal("val");
    RegId bad = fb.Const(14);
    RegId ok = fb.CmpNe(v, bad);
    fb.Assert(ok, "value 14 violates the protocol invariant");
    fb.Halt();
    fb.Finish();
  }
  mb.SetEntry("main");
  return Finish(std::move(mb));
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec>* specs = [] {
    auto* v = new std::vector<WorkloadSpec>();
    {
      WorkloadSpec s;
      s.name = "racy_counter";
      s.build = BuildRacyCounter;
      s.expected_trap = TrapKind::kAssertFailure;
      s.expected_cause = RootCauseKind::kDataRace;
      s.switch_permille = 350;
      s.multithreaded = true;
      s.requires_live_peers = true;
      // Lost updates read as interrupted RMWs / stale reads in some of the
      // interleavings that trip the parity assert.
      s.also_acceptable = {RootCauseKind::kAtomicityViolation,
                           RootCauseKind::kOrderViolation};
      v->push_back(std::move(s));
    }
    {
      WorkloadSpec s;
      s.name = "atomicity_violation";
      s.build = BuildAtomicityViolation;
      s.expected_trap = TrapKind::kMemoryFault;
      s.expected_cause = RootCauseKind::kAtomicityViolation;
      s.switch_permille = 350;
      s.multithreaded = true;
      s.requires_live_peers = true;
      v->push_back(std::move(s));
    }
    {
      WorkloadSpec s;
      s.name = "order_violation";
      s.build = BuildOrderViolation;
      s.expected_trap = TrapKind::kDivByZero;
      s.expected_cause = RootCauseKind::kOrderViolation;
      s.switch_permille = 350;
      s.multithreaded = true;
      s.requires_live_peers = true;
      // The interesting dumps are the ones where the producer had already
      // published by the crash — otherwise there is no write to witness.
      s.dump_predicate = [](const Module& m, const Coredump& dump) {
        const GlobalVar* data = m.FindGlobal("data");
        auto v = dump.memory.ReadWord(data->address);
        return v.ok() && v.value() != 0;
      };
      v->push_back(std::move(s));
    }
    v->push_back(WorkloadSpec{
        "buffer_overflow", BuildBufferOverflow, TrapKind::kAssertFailure,
        RootCauseKind::kBufferOverflow, {5}, 0, false, false, {}, nullptr});
    v->push_back(WorkloadSpec{
        "use_after_free", BuildUseAfterFree, TrapKind::kUseAfterFree,
        RootCauseKind::kUseAfterFree, {1}, 0, false, false, {}, nullptr});
    v->push_back(WorkloadSpec{
        "double_free", BuildDoubleFree, TrapKind::kDoubleFree,
        RootCauseKind::kDoubleFree, {}, 0, false, false, {}, nullptr});
    v->push_back(WorkloadSpec{
        "div_by_zero_input", BuildDivByZeroInput, TrapKind::kDivByZero,
        RootCauseKind::kDivByZero, {0}, 0, false, false, {}, nullptr});
    v->push_back(WorkloadSpec{
        "semantic_assert", BuildSemanticAssert, TrapKind::kAssertFailure,
        RootCauseKind::kSemanticBug, {7}, 0, false, false, {}, nullptr});
    v->push_back(WorkloadSpec{
        "deadlock", BuildDeadlock, TrapKind::kDeadlock,
        RootCauseKind::kDeadlock, {}, 350, true, false, {}, nullptr});
    v->push_back(WorkloadSpec{
        "locked_counter_input_bug", BuildLockedCounterInputBug,
        TrapKind::kDivByZero, RootCauseKind::kDivByZero, {0}, 350, true, false,
        {}, nullptr});
    return v;
  }();
  return *specs;
}

const WorkloadSpec& WorkloadByName(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) {
      return w;
    }
  }
  assert(false && "unknown workload");
  static WorkloadSpec dummy;
  return dummy;
}

}  // namespace res
