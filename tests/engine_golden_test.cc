// Golden engine output: every observable fact of a ResEngine run — stop
// reason, verdict flags, the synthesized suffix with its rendered
// constraints, the root causes, and every ResStats / SolverStats counter —
// compared byte-for-byte against a signature checked in under
// tests/golden/. The engine is single-threaded and deterministic, so each
// signature is a pure function of (workload, options); a refactor of the
// commit loop, the solver gate or the detectors must reproduce it exactly.
//
// On a mismatch the test prints the actual signature in full. A deliberate
// behaviour change replaces the golden file with that text, and the commit
// says why the output moved.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/res/res_api.h"
#include "src/support/hash.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"
#include "src/workloads/workloads.h"

namespace res {
namespace {

std::string CounterLine(const char* name, uint64_t value) {
  return StrFormat("%s=%llu\n", name, static_cast<unsigned long long>(value));
}

std::string StatsSignature(const ResStats& s) {
  std::string sig = "stats:\n";
  sig += CounterLine("hypotheses_explored", s.hypotheses_explored);
  sig += CounterLine("expansions", s.expansions);
  sig += CounterLine("pruned_unsat", s.pruned_unsat);
  sig += CounterLine("pruned_structural", s.pruned_structural);
  sig += CounterLine("pruned_lbr", s.pruned_lbr);
  sig += CounterLine("pruned_errlog", s.pruned_errlog);
  sig += CounterLine("address_forks", s.address_forks);
  sig += CounterLine("address_unresolved", s.address_unresolved);
  sig += CounterLine("unknown_kept", s.unknown_kept);
  sig += CounterLine("duplicate_constraints", s.duplicate_constraints);
  sig += CounterLine("expr_reuse_hits", s.expr_reuse_hits);
  sig += CounterLine("detector_units_scanned", s.detector_units_scanned);
  sig += CounterLine("detector_rescans_avoided", s.detector_rescans_avoided);
  sig += CounterLine("committed_units", s.committed_units);
  sig += CounterLine("deadline_cancels", s.deadline_cancels);
  sig += CounterLine("max_depth", s.max_depth);
  sig += CounterLine("max_sat_depth", s.max_sat_depth);
  const SolverStats& v = s.solver;
  sig += CounterLine("solver.checks", v.checks);
  sig += CounterLine("solver.incremental_checks", v.incremental_checks);
  sig += CounterLine("solver.eq_bindings", v.eq_bindings);
  sig += CounterLine("solver.interval_cuts", v.interval_cuts);
  sig += CounterLine("solver.enumerated_points", v.enumerated_points);
  sig += CounterLine("solver.search_steps", v.search_steps);
  sig += CounterLine("solver.propagation_rounds", v.propagation_rounds);
  sig += CounterLine("solver.propagated_constraints", v.propagated_constraints);
  sig += CounterLine("solver.model_reuse_hits", v.model_reuse_hits);
  sig += CounterLine("solver.cache_hits", v.cache_hits);
  sig += CounterLine("solver.cache_misses", v.cache_misses);
  sig += CounterLine("solver.sat", v.sat);
  sig += CounterLine("solver.unsat", v.unsat);
  sig += CounterLine("solver.unknown", v.unknown);
  for (size_t i = 0; i < kNumStrategies; ++i) {
    sig += StrFormat("solver.strategy[%zu] steps=%llu wins=%llu\n", i,
                     static_cast<unsigned long long>(v.strategy_steps[i]),
                     static_cast<unsigned long long>(v.strategy_wins[i]));
  }
  sig += CounterLine("solver.clauses_learned", v.clauses_learned);
  sig += CounterLine("solver.clause_hits", v.clause_hits);
  sig += CounterLine("solver.clauses_evicted", v.clauses_evicted);
  sig += CounterLine("solver.promoted_clause_hits", v.promoted_clause_hits);
  sig += CounterLine("solver.promoted_cache_hits", v.promoted_cache_hits);
  // The cold-check journal is content-keyed (Expr::det_hash), so its order
  // and contents are deterministic too; a digest keeps the file short.
  uint64_t journal = 0;
  for (const CheckKey& k : v.cold_check_keys) {
    journal = HashCombine(journal, k.set_key);
    journal = HashCombine(journal, k.distinct);
    journal = HashCombine(journal, k.with_core ? 1 : 0);
  }
  sig += StrFormat("solver.cold_check_keys=%zu digest=%016llx\n",
                   v.cold_check_keys.size(),
                   static_cast<unsigned long long>(journal));
  return sig;
}

// Everything observable about an engine run, rendered to one string so a
// mismatch shows exactly which facet diverged. Includes the constraint
// vector (rendered through the deterministic variable names) and the
// per-unit schedule, not just coarse outcomes.
std::string RunSignature(const Module& module, const Coredump& dump,
                         const ResOptions& options) {
  ResEngine engine(module, dump, options);
  ResResult result = engine.Run();

  std::string sig;
  sig += StrFormat("stop=%s hw=%d inconsistent=%d\n",
                   std::string(StopReasonName(result.stop)).c_str(),
                   result.hardware_error_suspected ? 1 : 0,
                   result.dump_inconsistent_at_trap ? 1 : 0);
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
  } else {
    sig += "suffix none\n";
  }
  sig += StrFormat("causes=%zu\n", result.causes.size());
  for (const RootCause& cause : result.causes) {
    sig += StrFormat("  %s | %s | %s\n",
                     std::string(RootCauseKindName(cause.kind)).c_str(),
                     cause.BucketSignature(module).c_str(),
                     cause.description.c_str());
  }
  sig += StatsSignature(result.stats);
  return sig;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(RES_GOLDEN_DIR) + "/" + name + ".txt",
                   std::ios::binary);
  if (!in) {
    return "<missing golden file>";
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectGolden(const std::string& name, const Module& module,
                  const Coredump& dump, const ResOptions& options) {
  std::string actual = RunSignature(module, dump, options);
  if (actual != ReadGolden(name)) {
    ADD_FAILURE() << name << ": engine output differs from tests/golden/"
                  << name << ".txt; actual signature follows\n"
                  << "----- BEGIN " << name << " -----\n"
                  << actual << "----- END " << name << " -----";
  }
}

Coredump DumpFor(const Module& module, const WorkloadSpec& spec) {
  FailureRunOptions run_options;
  run_options.require_live_peers = spec.requires_live_peers;
  auto run = RunToFailure(module, spec, run_options);
  EXPECT_TRUE(run.ok()) << spec.name << ": " << run.status().ToString();
  return run.ok() ? run.value().dump : Coredump{};
}

TEST(EngineGoldenTest, WorkloadCorpusAtDefaultOptions) {
  for (const char* name :
       {"div_by_zero_input", "semantic_assert", "use_after_free", "double_free",
        "racy_counter", "buffer_overflow", "atomicity_violation",
        "order_violation"}) {
    const WorkloadSpec& spec = WorkloadByName(name);
    Module module = spec.build();
    Coredump dump = DumpFor(module, spec);
    ExpectGolden(name, module, dump, ResOptions{});
  }
}

TEST(EngineGoldenTest, DeepSuffixChain) {
  // A long linear chain: incremental solver contexts forked down a deep
  // chain, one gate per level.
  Module module = BuildRootCauseDistance(48);
  Coredump dump = DumpFor(module, WorkloadByName("semantic_assert"));
  ResOptions options;
  options.max_units = 128;
  ExpectGolden("root_cause_distance_48", module, dump, options);
}

TEST(EngineGoldenTest, DivByZeroFullSynthesis) {
  // stop_at_root_cause=false reaches back to program start: the
  // complete-start step instead of the detector.
  Module module = BuildDivByZeroInput();
  Coredump dump = DumpFor(module, WorkloadByName("div_by_zero_input"));
  ResOptions options;
  options.stop_at_root_cause = false;
  ExpectGolden("div_by_zero_full_synthesis", module, dump, options);
}

TEST(EngineGoldenTest, RacyCounterWideFullSynthesis) {
  // Sibling interleavings over shared havoc values, searched back to
  // program start: failed gates publish UNSAT cores to the run's
  // learned-clause store along the way.
  Module module = BuildRacyCounterWide(3);
  Coredump dump = DumpFor(module, WorkloadByName("racy_counter"));
  ResOptions options;
  options.stop_at_root_cause = false;
  options.max_units = 48;
  options.max_hypotheses = 1000;
  ExpectGolden("racy_counter_wide_3_full_synthesis", module, dump, options);
}

// A fired "solver.strategy" fault must fail the run wherever the solver is
// called — gates, the complete-start check and address enumeration alike —
// and an armed plan that never fires must leave the output untouched. Arms
// the site at every hit of the run (one hit per solver check) plus one past
// the end.
void ExpectSolverFaultsFailTheRun(const std::string& name, const Module& module,
                                  const Coredump& dump,
                                  const ResOptions& options) {
  const std::string golden = ReadGolden(name);
  const uint64_t checks = ResEngine(module, dump, options)
                              .Run()
                              .stats.solver.checks;
  ASSERT_GT(checks, 0u) << name;
  for (uint64_t nth = 1; nth <= checks + 1; ++nth) {
    FaultPlan plan;
    plan.Arm("solver.strategy", nth);
    ResOptions armed = options;
    armed.fault_plan = &plan;
    ResResult result = ResEngine(module, dump, armed).Run();
    if (plan.fired() > 0) {
      EXPECT_EQ(result.stop, StopReason::kTaskFailed)
          << name << " nth=" << nth;
      EXPECT_EQ(result.status.code(), StatusCode::kInternal)
          << name << " nth=" << nth;
    } else {
      // Rendered from a fresh run under an identically armed plan.
      FaultPlan again;
      again.Arm("solver.strategy", nth);
      armed.fault_plan = &again;
      EXPECT_EQ(RunSignature(module, dump, armed), golden)
          << name << " nth=" << nth;
    }
  }
}

TEST(EngineGoldenTest, SolverFaultsFailTheRunAtEveryCheck) {
  {
    // Gates plus the complete-start check.
    Module module = BuildDivByZeroInput();
    Coredump dump = DumpFor(module, WorkloadByName("div_by_zero_input"));
    ResOptions options;
    options.stop_at_root_cause = false;
    ExpectSolverFaultsFailTheRun("div_by_zero_full_synthesis", module, dump,
                                 options);
  }
  // Address concretization: these runs enumerate symbolic addresses.
  for (const char* name : {"use_after_free", "double_free", "buffer_overflow"}) {
    const WorkloadSpec& spec = WorkloadByName(name);
    Module module = spec.build();
    Coredump dump = DumpFor(module, spec);
    ExpectSolverFaultsFailTheRun(name, module, dump, ResOptions{});
  }
}

}  // namespace
}  // namespace res
