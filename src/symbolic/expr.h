// Hash-consed symbolic expression DAG over 64-bit bitvectors.
//
// This is the KLEE-substitute at the heart of RES's symbolic snapshots
// (paper §2.3): snapshot locations hold either concrete words or Expr nodes
// ("stand-ins for any possible value ... subject to constraints"). All nodes
// are interned in an ExprPool, so structural equality is pointer equality
// and snapshots can share structure freely.
#ifndef RES_SYMBOLIC_EXPR_H_
#define RES_SYMBOLIC_EXPR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ir/opcode.h"
#include "src/support/status.h"

namespace res {

using VarId = uint32_t;

enum class ExprKind : uint8_t {
  kConst = 0,
  kVar = 1,
  kBinary = 2,
  kSelect = 3,
};

// Binary operators (semantics identical to the VM's EvalBinary).
enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDivS, kRemS, kAnd, kOr, kXor, kShl, kShrL, kShrA,
  kEq, kNe, kLtS, kLeS, kLtU, kLeU,
};

std::string_view BinOpName(BinOp op);
bool BinOpIsComparison(BinOp op);
// Maps an ALU opcode to its BinOp; asserts on non-ALU opcodes.
BinOp BinOpFromOpcode(Opcode op);

// Immutable interned node. Never construct directly; use ExprPool.
//
// Thread-safety: nodes are immutable after interning, so any number of
// threads may read a node concurrently without synchronization (they must
// have received the pointer through a synchronized edge, which interning
// under the shard mutex provides).
struct Expr {
  ExprKind kind;
  BinOp bin_op = BinOp::kAdd;
  // kConst: the constant. kVar: the variable's deterministic uid (see
  // VarInfo::uid) — stored here so content-based ordering and hashing need
  // no pool lookup. Code must check kind before interpreting `value` as a
  // constant (is_const() guards every such use).
  int64_t value = 0;
  VarId var = 0;              // kVar
  const Expr* a = nullptr;    // kBinary lhs / kSelect cond
  const Expr* b = nullptr;    // kBinary rhs / kSelect if-true
  const Expr* c = nullptr;    // kSelect if-false
  uint64_t hash = 0;          // identity hash (mixes child pointers)
  // Content hash: a pure function of the expression's structure (and var
  // uids), identical across runs and thread counts. The basis for every
  // ordering decision that must be deterministic under parallel interning.
  uint64_t det_hash = 0;
  uint32_t id = 0;            // pool-assigned, unique (NOT deterministic)

  bool is_const() const { return kind == ExprKind::kConst; }
  bool is_var() const { return kind == ExprKind::kVar; }
};

// Deterministic strict-weak order on interned expressions: compares content
// hashes, breaking the (astronomically rare) collisions structurally. Unlike
// ordering by `id` or by pointer, the result is identical across runs and
// thread counts, which keeps canonicalized solver decisions reproducible.
int DetExprCompare(const Expr* x, const Expr* y);
inline bool DetExprLess(const Expr* x, const Expr* y) {
  if (x == y) {
    return false;
  }
  if (x->det_hash != y->det_hash) {
    return x->det_hash < y->det_hash;
  }
  return DetExprCompare(x, y) < 0;
}

// Metadata about a symbolic variable (why it exists).
enum class VarOrigin : uint8_t {
  kHavocReg = 0,    // register overwritten by a reversed block
  kHavocMem = 1,    // memory word overwritten by a reversed block
  kInput = 2,       // external input consumed inside the suffix
  kUnknown = 3,
};

struct VarInfo {
  VarId id = 0;
  std::string name;
  VarOrigin origin = VarOrigin::kUnknown;
  // Deterministic ordering key. VarIds are assigned in interning-arrival
  // order, which varies across thread counts; uids are derived from the
  // creator's deterministic namespace (reverse engine) or from the name
  // (legacy callers), so semantic decisions sort by uid instead of id.
  uint64_t uid = 0;
};

// Owning, interning factory. Smart constructors simplify aggressively:
// constant folding, algebraic identities, select folding — so "concrete in,
// concrete out" holds wherever the coredump pins values.
//
// Nodes live in bump-allocated arena chunks: interning probes the hash set
// with a stack-constructed candidate first and only claims an arena slot on
// a miss, so the hot intern path performs no per-node heap allocation.
//
// Thread-safety: fully thread-safe. The intern table and arenas are striped
// into kShardCount independently locked shards (selected by content hash),
// so concurrent interning from reverse-engine worker threads contends only
// on same-shard collisions. The variable registry has its own mutex; it is
// a deque, so VarInfo storage is stable and var_info() can return a copy
// taken under the lock. Interned node *reads* take no lock (see Expr).
class ExprPool {
 public:
  ExprPool();
  ExprPool(const ExprPool&) = delete;
  ExprPool& operator=(const ExprPool&) = delete;

  const Expr* Const(int64_t value);
  const Expr* True() { return Const(1); }
  const Expr* False() { return Const(0); }
  // Registers a fresh variable (same name twice yields two distinct vars).
  // The two-argument form derives the deterministic uid from the name and
  // registration order — fine for single-threaded callers. Concurrent
  // callers must pass an explicit collision-free uid (the reverse engine
  // derives one from its per-task namespace) or sort order becomes
  // schedule-dependent.
  const Expr* Var(const std::string& name, VarOrigin origin);
  const Expr* Var(const std::string& name, VarOrigin origin, uint64_t uid);
  // Content-addressed variant for pools shared across engine runs (the
  // ResRuntime substrate): returns the existing variable when (name, uid)
  // was already registered, registering a fresh one otherwise. Within a
  // single run the reverse engine's names are collision-free (they embed
  // the deterministic task namespace), so InternVar behaves exactly like
  // Var there; across runs over the same module, identical search positions
  // re-intern to the same node — which is what makes constraints, check
  // cache entries, and learned clauses pointer-comparable across tasks.
  // Cross-run hits are counted in var_intern_hits() (scheduling-dependent
  // when engines run concurrently; a reuse gauge, not an oracle).
  const Expr* InternVar(const std::string& name, VarOrigin origin, uint64_t uid);
  const Expr* Binary(BinOp op, const Expr* a, const Expr* b);
  const Expr* Select(const Expr* cond, const Expr* if_true, const Expr* if_false);

  // Convenience.
  const Expr* Eq(const Expr* a, const Expr* b) { return Binary(BinOp::kEq, a, b); }
  const Expr* Ne(const Expr* a, const Expr* b) { return Binary(BinOp::kNe, a, b); }
  const Expr* Add(const Expr* a, const Expr* b) { return Binary(BinOp::kAdd, a, b); }
  // Boolean negation of a 0/1 expression (or any expression, != 0 semantics).
  const Expr* Not(const Expr* e);

  VarInfo var_info(VarId id) const;
  size_t var_count() const;
  size_t node_count() const;
  // Cross-run variable reuse: InternVar calls answered by an existing
  // registration instead of minting a fresh variable.
  uint64_t var_intern_hits() const;

  // Drops every interned node and registered variable, returning the pool
  // to its empty just-constructed baseline (cumulative counters like
  // var_intern_hits survive). Returns the number of nodes freed. This is
  // the reclaimable-epoch hook for long-lived shared pools: a standing
  // daemon whose pool outgrows its budget reclaims between waves instead of
  // growing forever. REQUIRES external quiescence — no concurrent pool use,
  // and every holder of Expr* / VarId from this pool (check caches, clause
  // stores, synthesized suffixes) dropped or cleared first; stale pointers
  // dangle after reclaim. ResRuntime::ReclaimSubstrate orchestrates that
  // ordering — callers should go through it rather than calling this
  // directly.
  size_t Reclaim();
  // Completed Reclaim() calls (monotone across the pool's lifetime).
  uint64_t reclaim_epochs() const;

 private:
  static constexpr size_t kArenaChunkNodes = 1024;
  static constexpr size_t kShardCount = 16;

  const Expr* Intern(Expr node);

  struct NodeHash {
    size_t operator()(const Expr* e) const { return static_cast<size_t>(e->hash); }
  };
  struct NodeEq {
    bool operator()(const Expr* x, const Expr* y) const;
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Expr[]>> arena;  // fixed-size, bump-filled
    size_t count = 0;
    std::unordered_set<const Expr*, NodeHash, NodeEq> interned;
  };

  std::array<Shard, kShardCount> shards_;
  mutable std::mutex vars_mu_;
  std::deque<VarInfo> vars_;  // deque: stable storage under growth
  // InternVar registry: (name, uid) -> VarId, guarded by vars_mu_.
  std::unordered_map<std::string, VarId> interned_vars_;
  uint64_t var_intern_hits_ = 0;  // guarded by vars_mu_
  uint64_t reclaim_epochs_ = 0;   // guarded by vars_mu_
};

// Concrete evaluation under a variable assignment (missing vars read as 0).
using Assignment = std::unordered_map<VarId, int64_t>;
int64_t EvalExpr(const Expr* e, const Assignment& assignment);

// Applies the binary operator to concrete operands (division by zero yields
// 0, matching the solver's total-function semantics; the engine emits an
// explicit divisor!=0 constraint wherever the VM would trap).
int64_t ApplyBinOp(BinOp op, int64_t a, int64_t b);

// All variables appearing in `e`.
void CollectVars(const Expr* e, std::unordered_set<VarId>* out);

// Structural substitution: replaces variables by bound expressions,
// re-simplifying through `pool`.
const Expr* Substitute(ExprPool* pool, const Expr* e,
                       const std::unordered_map<VarId, const Expr*>& bindings);

// Human-readable rendering ("(add v3 8)").
std::string ExprToString(const ExprPool& pool, const Expr* e);

}  // namespace res

#endif  // RES_SYMBOLIC_EXPR_H_
