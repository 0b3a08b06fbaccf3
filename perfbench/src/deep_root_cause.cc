// deep_root_cause: `resdbg analyze` semantics. Each request deserializes
// and validates one deep dump and runs a fresh solo ResEngine over it, with
// no runtime, so triage, promotion and the VM do no work and cross-task
// reuse is bypassed. The request set is a fixed multiset of distinct dumps;
// the seed orders it, pass after pass, and a run always ends on a whole
// pass so every distinct dump carries the same weight in the percentiles.
#include <cstdio>
#include <optional>

#include "perfbench/src/bench.h"
#include "src/coredump/serialize.h"
#include "src/replay/replay.h"

namespace perfbench {

namespace {

// Replays the synthesized suffix (outside the request span) when the tracer
// is on, so the traced run also checks that the suffix reproduces the dump.
Served Analyze(const Request& r, const res::Module& module, Tracer* tracer,
               uint64_t id) {
  Served a;
  a.bytes = r.dump.size();
  std::optional<res::Result<res::Coredump>> dump;
  std::optional<res::ResEngine> engine;
  res::ResResult result;
  const int64_t t0 = NowNs();
  {
    ScopedSpan root(tracer, "request", id);
    {
      ScopedSpan s(tracer, "deserialize", id);
      dump.emplace(res::DeserializeCoredump(r.dump));
    }
    if (!dump->ok()) {
      return a;
    }
    {
      ScopedSpan s(tracer, "validate", id);
      if (!dump->value().Validate(module).ok()) {
        return a;
      }
    }
    const int64_t e0 = NowNs();
    {
      ScopedSpan s(tracer, "engine_ctor", id);
      engine.emplace(module, dump->value(), r.res);
    }
    {
      ScopedSpan s(tracer, "engine_run", id);
      result = engine->Run();
    }
    a.engine_ms = NsToMs(NowNs() - e0);
  }
  a.latency_ms = NsToMs(NowNs() - t0);
  a.ok = CausesAcceptable(*r.truth, result.causes);
  a.stats = result.stats;
  a.pool_nodes = engine->pool()->node_count();
  if (tracer->enabled && result.suffix) {
    ScopedSpan s(tracer, "replay.verify", id);
    res::Result<res::ReplayOutcome> replay = res::ReplaySuffix(
        module, dump->value(), *result.suffix, engine->pool());
    std::string why;
    a.replayed = true;
    a.replay_matches = replay.ok() && replay.value().trap_matches &&
                       res::CompareCoredumps(module, dump->value(),
                                             replay.value().replay_dump, &why);
  }
  return a;
}

}  // namespace

int RunDeepRootCause(const Options& opts, const InputSet& inputs, Outcome* out) {
  SplitMix rng(opts.seed);
  const std::vector<size_t> warm_pass = NextPass(inputs.requests.size(), &rng);
  std::printf("  requests: %zu distinct dumps over %zu modules; first-pass "
              "fingerprint %016llx\n",
              inputs.requests.size(), inputs.module_names.size(),
              static_cast<unsigned long long>(inputs.PassFingerprint(warm_pass)));

  ClosedLoop run;
  const int rc = RunClosedLoop(opts, inputs, &rng, warm_pass, "analyses",
                               Analyze, &run, out);
  if (rc != 0 || !opts.trace) {
    return rc;
  }
  const Phase& traced = run.traced;
  out->Set("res.engine_ms_p50", Median(traced.engine_ms));
  out->Set("replay.verify_ms_p50", run.layers["replay.verify"].P50Ms());
  out->Set("replay.match_ratio",
           Ratio("replay.match_ratio", static_cast<double>(traced.replay_matches),
                 static_cast<double>(traced.replayed)));
  return WriteTrace(opts, run.tracer);
}

}  // namespace perfbench
