// Clause learning must be observationally invisible: with
// ResOptions::learn_clauses on or off, the engine's StopReason, synthesized
// suffix, root causes, and hardware verdict must be byte-identical — the
// run without clause learning (gates derive no cores, nothing is screened)
// is the reference path the learned-clause store is pinned to (mirroring
// root_cause_incremental_test.cc for the detector). Like that reference,
// on/off byte-identity is a corpus-level contract: a stored core refuting a
// set the incomplete solver alone would keep as kUnknown is a legitimate
// (sound-direction) divergence window — these tests pin that the window
// never opens on the corpus at default options (see docs/ARCHITECTURE.md
// §5.2).
//
// What MAY differ between the modes is exactly the solver work economy:
// the learned-clause counters (and the checks they save), which the
// clause-reuse test pins directionally. The solver-level half pins the
// decision procedures themselves: each strategy's full outcome on a fixed
// constraint set, the UNSAT cores, and the clause store.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ir/builder.h"
#include "src/res/res_api.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

// ---------------------------------------------------------------------------
// Solver-level: the decision procedures, cores, and the clause store.
// ---------------------------------------------------------------------------

class SolverStrategyTest : public ::testing::Test {
 protected:
  SolveOutcome Run(const std::vector<const Expr*>& constraints,
                   SolverStats* stats, size_t max_core_size = 12) {
    SolverOptions options;
    options.max_core_size = max_core_size;
    Solver solver(&pool_, /*seed=*/1, options);
    return solver.Check(constraints, stats);
  }

  ExprPool pool_;
};

TEST_F(SolverStrategyTest, EnumerationPicksTheFirstOdometerPoint) {
  // x in [0, 20] with x % 3 == 2: propagation cannot invert kRemS, so the
  // verdict comes from exhaustive enumeration — the first point in odometer
  // order that fits.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Binary(BinOp::kLeS, pool_.Const(0), x),
      pool_.Binary(BinOp::kLeS, x, pool_.Const(20)),
      pool_.Eq(pool_.Binary(BinOp::kRemS, x, pool_.Const(3)), pool_.Const(2)),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ(out.model->at(x->var), 2);
  EXPECT_EQ(
      stats.strategy_wins[static_cast<size_t>(StrategyKind::kEnumeration)],
      1u);
}

TEST_F(SolverStrategyTest, EnumerationUnsatCarriesASoundCore) {
  // x in [5, 20] with x % 3 == 7: no remainder ever reaches 7, so complete
  // enumeration proves UNSAT. The reported core must be a subset of the
  // inputs that is *itself* UNSAT (re-checking just the core must refute).
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Binary(BinOp::kLeS, pool_.Const(5), x),
      pool_.Binary(BinOp::kLeS, x, pool_.Const(20)),
      pool_.Eq(pool_.Binary(BinOp::kRemS, x, pool_.Const(3)), pool_.Const(7)),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  ASSERT_FALSE(out.core.empty());
  for (const Expr* c : out.core) {
    EXPECT_NE(std::find(constraints.begin(), constraints.end(), c),
              constraints.end())
        << "core constraint is not one of the inputs";
  }
  SolverStats core_stats;
  SolveOutcome recheck = Run(out.core, &core_stats);
  EXPECT_EQ(recheck.result, SatResult::kUnsat)
      << "the core alone must still be UNSAT";
  // With core derivation off (the engine's learn_clauses=false setting) the
  // verdict is the same but no core is derived: provenance is tracked only
  // when a clause store can consume it.
  SolverStats coreless_stats;
  SolveOutcome coreless = Run(constraints, &coreless_stats, /*max_core_size=*/0);
  EXPECT_EQ(coreless.result, SatResult::kUnsat);
  EXPECT_TRUE(coreless.core.empty());
}

TEST_F(SolverStrategyTest, PropagationConflictClosesCoreOverBindings) {
  // x = 5, y = x, y = 7: the contradiction surfaces only after substituting
  // through both bindings, so the core must close over their sources — all
  // three constraints.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  const Expr* y = pool_.Var("y", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Eq(x, pool_.Const(5)),
      pool_.Eq(y, x),
      pool_.Eq(y, pool_.Const(7)),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  EXPECT_EQ(out.core.size(), 3u);
}

TEST_F(SolverStrategyTest, SearchWinsWhenEnumerationCannotApply) {
  // x & 3 == 3 with no range constraints: intervals stay infinite, so
  // enumeration is inapplicable and local search must find a model. The
  // trajectory is seeded from the constraint set's content hash, so this is
  // deterministic.
  const Expr* x = pool_.Var("x", VarOrigin::kInput);
  std::vector<const Expr*> constraints = {
      pool_.Eq(pool_.Binary(BinOp::kAnd, x, pool_.Const(3)), pool_.Const(3)),
  };
  SolverStats stats;
  SolveOutcome out = Run(constraints, &stats);
  ASSERT_EQ(out.result, SatResult::kSat);
  EXPECT_EQ((out.model->at(x->var) & 3), 3);
  EXPECT_EQ(stats.strategy_wins[static_cast<size_t>(StrategyKind::kSearch)],
            1u);
  EXPECT_GT(stats.strategy_steps[static_cast<size_t>(StrategyKind::kSearch)],
            0u);
}

// ---------------------------------------------------------------------------
// Solver-level pins: the full outcome of one default-options check per
// deciding strategy (plus propagation).
// The engine corpus is settled by propagation, the cached model and the
// check cache before any strategy runs, so these pins are what holds the
// strategies themselves — odometer order, search RNG trajectory, cores and
// step/win accounting — in place.
// ---------------------------------------------------------------------------

struct PinCase {
  const char* name;
  std::vector<const Expr*> constraints;
  const char* expected;
};

// Verdict, model (by variable name), sorted core, and the per-strategy
// step/win counters of one check, in a stable rendering.
std::string PinOf(const ExprPool& pool, const SolveOutcome& out,
                  const SolverStats& stats) {
  std::string pin(SatResultName(out.result));
  std::vector<std::pair<std::string, int64_t>> model;
  if (out.model != nullptr) {
    for (const auto& [var, value] : *out.model) {
      model.emplace_back(pool.var_info(var).name, value);
    }
  }
  std::sort(model.begin(), model.end());
  pin += " model={";
  for (const auto& [name, value] : model) {
    pin += StrFormat(" %s=%lld", name.c_str(), static_cast<long long>(value));
  }
  pin += " }";
  pin += " core={";
  for (const Expr* c : out.core) {
    pin += " ";
    pin += ExprToString(pool, c);
    pin += ";";
  }
  pin += " }";
  pin += StrFormat(" steps=%llu/%llu/%llu wins=%llu/%llu/%llu",
                   static_cast<unsigned long long>(stats.strategy_steps[0]),
                   static_cast<unsigned long long>(stats.strategy_steps[1]),
                   static_cast<unsigned long long>(stats.strategy_steps[2]),
                   static_cast<unsigned long long>(stats.strategy_wins[0]),
                   static_cast<unsigned long long>(stats.strategy_wins[1]),
                   static_cast<unsigned long long>(stats.strategy_wins[2]));
  return pin;
}

std::vector<PinCase> PinCases(ExprPool* pool) {
  const Expr* x = pool->Var("x", VarOrigin::kInput);
  const Expr* y = pool->Var("y", VarOrigin::kInput);
  const Expr* w = pool->Var("w", VarOrigin::kInput);
  auto le = [pool](const Expr* a, const Expr* b) {
    return pool->Binary(BinOp::kLeS, a, b);
  };
  auto k = [pool](int64_t v) { return pool->Const(v); };
  auto bin = [pool](BinOp op, const Expr* a, const Expr* b) {
    return pool->Binary(op, a, b);
  };
  return {
      // The inputs of the tests above.
      {"enum_sat_rem",
       {le(k(0), x), le(x, k(20)), pool->Eq(bin(BinOp::kRemS, x, k(3)), k(2))},
       "sat model={ x=2 } core={ } steps=3/3/0 wins=0/1/0"},
      {"enum_unsat_rem",
       {le(k(5), x), le(x, k(20)), pool->Eq(bin(BinOp::kRemS, x, k(3)), k(7))},
       "unsat model={ } core={ (les x 20); (les 5 x); (eq (rems x 3) 7); } "
       "steps=3/16/0 wins=0/1/0"},
      {"propagation_unsat",
       {pool->Eq(x, k(5)), pool->Eq(y, x), pool->Eq(y, k(7))},
       "unsat model={ } core={ (eq y 7); (eq y x); (eq x 5); } "
       "steps=0/0/0 wins=0/0/0"},
      {"search_sat_and",
       {pool->Eq(bin(BinOp::kAnd, x, k(3)), k(3))},
       "sat model={ x=8191 } core={ } steps=1/0/4 wins=0/0/1"},
      // One more set per deciding strategy.
      {"interval_unsat",
       {le(x, k(3)), le(k(7), x), bin(BinOp::kLtS, y, k(100))},
       "unsat model={ } core={ (les x 3); (les 7 x); } steps=3/0/0 wins=1/0/0"},
      {"enum_sat_two_vars",
       {le(k(0), x), le(x, k(7)), le(k(0), y), le(y, k(7)),
        pool->Eq(bin(BinOp::kMul, x, y), k(12)), bin(BinOp::kLtS, x, y)},
       "sat model={ x=2 y=6 } core={ } steps=6/23/0 wins=0/1/0"},
      {"enum_unsat_two_vars_core",
       {le(k(0), x), le(x, k(3)), le(k(0), y), le(y, k(3)),
        pool->Eq(bin(BinOp::kMul, x, y), k(11)), pool->Eq(w, k(9))},
       "unsat model={ } core={ (les 0 x); (les x 3); (eq (mul x y) 11); (les y 3); (les 0 y); } "
       "steps=5/16/0 wins=0/1/0"},
      {"search_sat_two_vars",
       {pool->Eq(bin(BinOp::kAnd, bin(BinOp::kMul, x, k(3)), k(7)), k(5)),
        pool->Eq(bin(BinOp::kAnd, bin(BinOp::kOr, x, y), k(16)), k(16)),
        bin(BinOp::kNe, bin(BinOp::kAnd, y, k(1)), k(0))},
       "sat model={ x=6705015954709923927 y=19 } core={ } "
       "steps=3/0/37 wins=0/0/1"},
  };
}

TEST_F(SolverStrategyTest, PinnedOutcomesPerStrategy) {
  for (const PinCase& c : PinCases(&pool_)) {
    SolverStats stats;
    Solver solver(&pool_, /*seed=*/1, SolverOptions{});
    SolveOutcome out = solver.Check(c.constraints, &stats);
    EXPECT_EQ(PinOf(pool_, out, stats), c.expected) << c.name;
  }
}

TEST_F(SolverStrategyTest, StrategyKindNamesMatchPipelineOrder) {
  // The JSONL per-strategy fields (bench/README.md) are keyed by these
  // names in pipeline order; renaming or reordering a strategy must show
  // up here before it silently skews the bench schema.
  EXPECT_EQ(StrategyKindName(StrategyKind::kInterval), "interval");
  EXPECT_EQ(StrategyKindName(StrategyKind::kEnumeration), "enumeration");
  EXPECT_EQ(StrategyKindName(StrategyKind::kSearch), "search");
}

TEST(ClauseStoreTest, PublishAndRefute) {
  ExprPool pool;
  const Expr* a = pool.Var("a", VarOrigin::kInput);
  const Expr* b = pool.Var("b", VarOrigin::kInput);
  const Expr* c = pool.Var("c", VarOrigin::kInput);
  std::vector<const Expr*> core = {a, b};
  std::sort(core.begin(), core.end(), DetExprLess);

  ClauseStore store;
  EXPECT_EQ(store.published(), 0u);
  EXPECT_TRUE(store.Publish(core));
  EXPECT_EQ(store.published(), 1u);
  EXPECT_FALSE(store.Publish(core)) << "duplicate cores are not re-published";
  EXPECT_EQ(store.published(), 1u);

  auto in_abc = [&](const Expr* e) { return e == a || e == b || e == c; };
  auto in_ac = [&](const Expr* e) { return e == a || e == c; };
  // {a,b} is a subset of {a,b,c} but not of {a,c}.
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_abc));
  EXPECT_FALSE(store.RefutesByMember(a, store.published(), in_ac));
  // Sequence bounds: a snapshot taken before publication sees nothing.
  EXPECT_FALSE(store.RefutesByMember(a, /*up_to=*/0, in_abc));
  EXPECT_TRUE(store.RefutesNewSince(/*after=*/0, store.published(), in_abc));
  EXPECT_FALSE(store.RefutesNewSince(/*after=*/1, store.published(), in_abc));
}

TEST(ClauseStoreTest, EvictionKeepsLearningAndFollowsHits) {
  ExprPool pool;
  const Expr* a = pool.Var("a", VarOrigin::kInput);
  const Expr* b = pool.Var("b", VarOrigin::kInput);
  const Expr* c = pool.Var("c", VarOrigin::kInput);
  const Expr* d = pool.Var("d", VarOrigin::kInput);
  auto core = [](std::vector<const Expr*> elems) {
    std::sort(elems.begin(), elems.end(), DetExprLess);
    return elems;
  };

  ClauseStore store(/*live_capacity=*/2, /*slot_capacity=*/8);
  ASSERT_TRUE(store.Publish(core({a, b})));  // seq 0
  ASSERT_TRUE(store.Publish(core({a, c})));  // seq 1
  EXPECT_EQ(store.evicted_count(), 0u);

  // Protect seq 0 with a screen hit: the eviction forced by the third core
  // must pick seq 1 (fewest hits; ties would go to the oldest).
  store.RecordHit(0);
  ASSERT_TRUE(store.Publish(core({a, d})));  // seq 2, evicts seq 1
  EXPECT_EQ(store.published(), 3u);
  EXPECT_EQ(store.evicted_count(), 1u);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_TRUE(store.IsEvicted(1));

  // An evicted core no longer refutes...
  auto in_ac = [&](const Expr* e) { return e == a || e == c; };
  EXPECT_FALSE(store.RefutesByMember(a, store.published(), in_ac));
  EXPECT_FALSE(store.RefutesNewSince(0, store.published(), in_ac));
  // ...while the survivors still do.
  auto in_ab = [&](const Expr* e) { return e == a || e == b; };
  auto in_ad = [&](const Expr* e) { return e == a || e == d; };
  uint64_t hit_seq = 99;
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_ab, &hit_seq));
  EXPECT_EQ(hit_seq, 0u);
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_ad, &hit_seq));
  EXPECT_EQ(hit_seq, 2u);

  // A re-derived conflict re-learns into a fresh slot (dedup was purged).
  store.RecordHit(0);
  store.RecordHit(2);
  EXPECT_TRUE(store.Publish(core({a, c})));  // seq 3, evicts seq 2 (1 hit < 2)
  EXPECT_EQ(store.published(), 4u);
  EXPECT_EQ(store.evicted_count(), 2u);
  EXPECT_TRUE(store.RefutesByMember(a, store.published(), in_ac, &hit_seq));
  EXPECT_EQ(hit_seq, 3u);
}

// ---------------------------------------------------------------------------
// Engine-level: clause learning must not change what the engine concludes —
// only what the work costs.
// ---------------------------------------------------------------------------

// Everything observable about an engine run, rendered to one string so a
// mismatch diff shows exactly which facet diverged (same shape as
// root_cause_incremental_test.cc's signature).
std::string RunSignature(const Module& module, const Coredump& dump,
                         ResOptions options, bool learn_clauses,
                         ResStats* stats_out = nullptr) {
  options.learn_clauses = learn_clauses;
  ResEngine engine(module, dump, options);
  ResResult result = engine.Run();
  if (stats_out != nullptr) {
    *stats_out = result.stats;
  }

  std::string sig;
  sig += StrFormat("stop=%s hw=%d inconsistent=%d explored=%llu\n",
                   std::string(StopReasonName(result.stop)).c_str(),
                   result.hardware_error_suspected ? 1 : 0,
                   result.dump_inconsistent_at_trap ? 1 : 0,
                   static_cast<unsigned long long>(
                       result.stats.hypotheses_explored));
  if (result.suffix.has_value()) {
    const SynthesizedSuffix& s = *result.suffix;
    sig += StrFormat("suffix units=%zu verified=%d\n", s.units.size(),
                     s.verified ? 1 : 0);
    sig += SuffixToString(module, s);
    sig += "constraints:\n";
    for (const Expr* c : s.constraints) {
      sig += ExprToString(*engine.pool(), c);
      sig += "\n";
    }
    sig += "lock_owners:\n";
    for (const auto& [mutex, owner] : s.initial_lock_owners) {
      sig += StrFormat("  0x%llx -> t%u\n",
                       static_cast<unsigned long long>(mutex), owner);
    }
  } else {
    sig += "suffix none\n";
  }
  sig += StrFormat("causes=%zu\n", result.causes.size());
  for (const RootCause& cause : result.causes) {
    sig += StrFormat("  %s | %s | taint=%d t%u/t%u | %s\n",
                     std::string(RootCauseKindName(cause.kind)).c_str(),
                     cause.BucketSignature(module).c_str(),
                     cause.input_tainted ? 1 : 0, cause.thread_a,
                     cause.thread_b, cause.description.c_str());
  }
  return sig;
}

void ExpectModeInvariant(const char* label, const Module& module,
                         const Coredump& dump, ResOptions options) {
  // The run without clause learning is the reference signature.
  std::string reference =
      RunSignature(module, dump, options, /*learn_clauses=*/false);
  std::string learned =
      RunSignature(module, dump, options, /*learn_clauses=*/true);
  EXPECT_EQ(reference, learned)
      << label << ": clause learning diverged from the run without it";
}

TEST(ClauseLearningTest, WorkloadCorpusIsModeInvariant) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Module module = spec.build();
    FailureRunOptions run_options;
    run_options.require_live_peers = spec.requires_live_peers;
    auto run = RunToFailure(module, spec, run_options);
    ASSERT_TRUE(run.ok()) << spec.name << ": " << run.status().ToString();
    ExpectModeInvariant(spec.name.c_str(), module, run.value().dump,
                        ResOptions{});
  }
}

TEST(ClauseLearningTest, DeepSuffixChainIsModeInvariant) {
  // The depth-scaling workload: a long linear chain keeps the incremental
  // solver contexts (and their conflict provenance) forked down a deep
  // chain.
  Module module = BuildRootCauseDistance(48);
  WorkloadSpec spec = WorkloadByName("semantic_assert");
  auto run = RunToFailure(module, spec, {});
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.max_units = 128;
  ExpectModeInvariant("root_cause_distance_48", module, run.value().dump,
                      options);
}

TEST(ClauseLearningTest, MonolithicGatesAreModeInvariant) {
  // incremental_solving=false: every gate is a cold monolithic check, which
  // exercises clause learning through the memo-cache path.
  Module module = BuildRacyCounter();
  const WorkloadSpec& spec = WorkloadByName("racy_counter");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok());
  ResOptions options;
  options.incremental_solving = false;
  ExpectModeInvariant("racy_counter_monolithic", module, run.value().dump,
                      options);
}

TEST(ClauseLearningTest, LearnedClausesAreReusedOnTheDeepChain) {
  // Full synthesis over the 4-worker interleaving space: sibling subtrees
  // repeatedly re-derive permutations of the same conflicting constraint
  // pairs over shared-ancestor havoc values, so the clause store must show
  // genuine reuse (hits), and the run with clause learning off must reach
  // byte-identical conclusions without any.
  Module module = BuildRacyCounterWide(4);
  WorkloadSpec spec = WorkloadByName("racy_counter");
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ResOptions options;
  options.stop_at_root_cause = false;  // explore, don't stop at first cause
  options.max_units = 48;
  options.max_hypotheses = 1000;

  ResStats learned_stats;
  std::string learned = RunSignature(module, run.value().dump, options,
                                     /*learn_clauses=*/true, &learned_stats);
  ResStats reference_stats;
  std::string reference = RunSignature(module, run.value().dump, options,
                                       /*learn_clauses=*/false,
                                       &reference_stats);
  EXPECT_EQ(reference, learned)
      << "clause sharing changed the engine's conclusions";
  EXPECT_GT(learned_stats.solver.clauses_learned, 0u);
  EXPECT_GT(learned_stats.solver.clause_hits, 0u)
      << "no learned clause ever refuted a sibling hypothesis";
  EXPECT_EQ(reference_stats.solver.clauses_learned, 0u);
  EXPECT_EQ(reference_stats.solver.clause_hits, 0u);
}

}  // namespace
}  // namespace res
