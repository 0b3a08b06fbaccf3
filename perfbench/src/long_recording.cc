// long_recording: the title claim and the cost of always-on recording. Each
// request runs BuildLongExecution(n) on a default Vm (LBR and error-log
// breadcrumbs are always on), captures the failure, serializes and
// deserializes the dump, validates it, and runs a solo ResEngine. n comes
// from a fixed log-spaced set; the seed orders the set pass after pass
// (each pass is a log-uniform draw without replacement), and a run always
// ends on a whole pass.
#include <cstdio>
#include <map>
#include <optional>

#include "perfbench/src/bench.h"
#include "src/coredump/coredump.h"
#include "src/coredump/serialize.h"
#include "src/vm/input.h"
#include "src/vm/vm.h"

namespace perfbench {

namespace {

Served Record(const Request& r, const res::Module& module, Tracer* tracer,
              uint64_t id) {
  Served rec;
  const int64_t t0 = NowNs();
  ScopedSpan root(tracer, "request", id);
  std::optional<res::Vm> vm;
  res::QueueInputProvider input;
  {
    ScopedSpan s(tracer, "vm.reset", id);
    vm.emplace(&module);
    input.PushAll(0, r.truth->channel0_inputs);
    vm->set_input_provider(&input);
    if (!vm->Reset().ok()) {
      return rec;
    }
  }
  res::RunResult run;
  {
    const int64_t v0 = NowNs();
    ScopedSpan s(tracer, "vm.run", id);
    run = vm->Run();
    rec.vm_run_ms = NsToMs(NowNs() - v0);
  }
  rec.steps = run.steps;
  if (run.outcome != res::RunOutcome::kTrapped ||
      run.trap.kind != r.truth->expected_trap) {
    return rec;
  }
  std::optional<res::Coredump> captured;
  {
    ScopedSpan s(tracer, "capture", id);
    captured.emplace(res::CaptureCoredump(*vm));
  }
  std::vector<uint8_t> blob;
  {
    ScopedSpan s(tracer, "serialize", id);
    blob = res::SerializeCoredump(*captured);
  }
  rec.bytes = blob.size();
  std::optional<res::Result<res::Coredump>> dump;
  {
    ScopedSpan s(tracer, "deserialize", id);
    dump.emplace(res::DeserializeCoredump(blob));
  }
  if (!dump->ok()) {
    return rec;
  }
  {
    ScopedSpan s(tracer, "validate", id);
    if (!dump->value().Validate(module).ok()) {
      return rec;
    }
  }
  const int64_t e0 = NowNs();
  std::optional<res::ResEngine> engine;
  {
    ScopedSpan s(tracer, "engine_ctor", id);
    engine.emplace(module, dump->value());
  }
  res::ResResult result;
  {
    ScopedSpan s(tracer, "engine_run", id);
    result = engine->Run();
  }
  rec.engine_ms = NsToMs(NowNs() - e0);
  rec.latency_ms = NsToMs(NowNs() - t0);
  rec.ok = CausesAcceptable(*r.truth, result.causes);
  rec.stats = result.stats;
  rec.pool_nodes = engine->pool()->node_count();
  return rec;
}

}  // namespace

int RunLongRecording(const Options& opts, const InputSet& inputs, Outcome* out) {
  SplitMix rng(opts.seed);
  const std::vector<size_t> warm_pass = NextPass(inputs.requests.size(), &rng);
  std::printf("  lengths: %zu programs; first-pass fingerprint %016llx\n",
              inputs.requests.size(),
              static_cast<unsigned long long>(inputs.PassFingerprint(warm_pass)));

  ClosedLoop run;
  const int rc = RunClosedLoop(opts, inputs, &rng, warm_pass,
                               "recorded-and-diagnosed executions", Record,
                               &run, out);
  if (rc != 0 || !opts.trace) {
    return rc;
  }
  const Phase& traced = run.traced;
  std::map<std::string, Tracer::Layer>& layers = run.layers;
  out->Set("vm.reset_us_p50", layers["vm.reset"].P50Ms() * 1000);
  out->Set("vm.steps_per_s", traced.vm_run_ms > 0
                                 ? traced.steps / (traced.vm_run_ms / 1000)
                                 : 0);
  out->Set("vm.steps_per_request",
           static_cast<double>(run.warm_steps) / warm_pass.size());
  out->Set("coredump.capture_us_p50", layers["capture"].P50Ms() * 1000);
  out->Set("coredump.serialize_us_p50", layers["serialize"].P50Ms() * 1000);
  out->Set("res.analyze_ms_p50", Median(traced.engine_ms));
  out->Set("res.engine_ms_p50", Median(traced.engine_ms));
  std::map<uint64_t, std::vector<double>> analyze_ms;  // by iterations
  for (size_t i = 0; i < traced.index.size(); ++i) {
    analyze_ms[inputs.requests[traced.index[i]].iterations].push_back(
        traced.engine_ms[i]);
  }
  if (!analyze_ms.empty()) {
    const double shortest = Median(analyze_ms.begin()->second);
    const double longest = Median(analyze_ms.rbegin()->second);
    std::printf("  analyze p50 at n=%llu: %.4f ms, at n=%llu: %.4f ms\n",
                static_cast<unsigned long long>(analyze_ms.begin()->first),
                shortest,
                static_cast<unsigned long long>(analyze_ms.rbegin()->first),
                longest);
    out->Set("res.analyze_flatness",
             Ratio("res.analyze_flatness (longest/shortest, us)",
                   longest * 1000, shortest * 1000));
  }
  return WriteTrace(opts, run.tracer);
}

}  // namespace perfbench
