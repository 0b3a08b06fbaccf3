// fleet_triage: the paper's §3.1 backend. A seeded stream of serialized
// dumps is fed to one TriageDaemon with library-default options (wave 8,
// serial waves) by one closed-loop client: SubmitSerialized, then Pump, per
// dump. Wave boundaries therefore come from the caller's Pump and depend
// only on the seeded submission order.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "perfbench/src/bench.h"
#include "src/coredump/serialize.h"
#include "src/res/runtime.h"
#include "src/triage/triage.h"
#include "src/triage/triage_daemon.h"

namespace perfbench {

namespace {

struct Fleet {
  const InputSet* inputs = nullptr;
  std::deque<res::Module> modules;
  std::unique_ptr<res::ResRuntime> runtime;
  std::vector<uint32_t> request_of_seq;  // global submission seq -> request
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Warm-up pass: every report, for counters and bucketing accuracy.
  bool keep_reports = false;
  std::vector<res::TriageReport> reports;
  // Traced phase: commit order and per-call report timestamps.
  bool record_commits = false;
  uint64_t call = 0;  // Pump/Drain call counter
  std::vector<uint64_t> committed_seqs;
  std::vector<std::pair<uint64_t, int64_t>> report_times;  // (call, ns)
  // Declared last so it shuts down (and streams any last report into the
  // members above) before they are destroyed.
  std::unique_ptr<res::TriageDaemon> daemon;

  void OnReport(const res::TriageReport& report) {
    const Request& r = inputs->requests[request_of_seq[report.index]];
    const bool ok = report.outcome != res::TriageOutcome::kQuarantined &&
                    SignatureAcceptable(*r.truth, report.cause_signature);
    if (!ok) {
      ++failed;
      if (failed <= 5) {
        std::printf("  FAILED %s: outcome=%s bucket=%s\n", r.label.c_str(),
                    std::string(res::TriageOutcomeName(report.outcome)).c_str(),
                    report.res_bucket.c_str());
      }
    }
    if (keep_reports) {
      reports.push_back(report);
    }
    if (record_commits) {
      committed_seqs.push_back(report.index);
      report_times.emplace_back(call, NowNs());
    }
  }

  void Submit(size_t idx) {
    const Request& r = inputs->requests[idx];
    ++attempted;
    res::Result<uint64_t> seq =
        daemon->SubmitSerialized(modules[r.module], r.dump);
    if (!seq.ok()) {  // refused: counts as a failed request
      ++failed;
      return;
    }
    if (request_of_seq.size() <= seq.value()) {
      request_of_seq.resize(seq.value() + 1);
    }
    request_of_seq[seq.value()] = static_cast<uint32_t>(idx);
  }
};

// Set-up: RESMOD1 load + verify, runtime and daemon construction, and a
// warm-up pass over every distinct dump (submitted in the seeded order,
// then drained).
res::Status SetUp(const InputSet& inputs, const std::vector<size_t>& pass,
                  Fleet* f) {
  f->inputs = &inputs;
  res::Status loaded = LoadModules(inputs, &f->modules);
  if (!loaded.ok()) {
    return loaded;
  }
  f->runtime = std::make_unique<res::ResRuntime>();
  res::TriageDaemonOptions options;
  options.on_report = [f](const res::TriageReport& r) { f->OnReport(r); };
  f->daemon = std::make_unique<res::TriageDaemon>(f->runtime.get(), options);
  f->keep_reports = true;
  for (size_t idx : pass) {
    f->Submit(idx);
    f->daemon->Pump();
  }
  f->daemon->Drain();
  f->keep_reports = false;
  return res::OkStatus();
}

struct WavePhase {
  uint64_t submitted = 0;
  uint64_t waves = 0;
  double wall_s = 0;
  std::vector<double> wave_ms;  // one per Pump that committed a wave
  double Throughput() const { return wall_s > 0 ? submitted / wall_s : 0; }
};

WavePhase RunPhase(Fleet* f, SplitMix* rng, double seconds,
                   size_t min_samples, Tracer* tracer) {
  WavePhase p;
  const uint64_t waves_before = f->daemon->stats().waves;
  LoopClock clock{NowNs(), seconds, min_samples};
  do {
    for (size_t idx : NextPass(f->inputs->requests.size(), rng)) {
      {
        ScopedSpan s(tracer, "submit", p.submitted);
        f->Submit(idx);
      }
      ++f->call;
      const int64_t t0 = NowNs();
      size_t committed = 0;
      {
        ScopedSpan s(tracer, "pump", p.submitted);
        committed = f->daemon->Pump();
      }
      if (committed > 0) {
        p.wave_ms.push_back(NsToMs(NowNs() - t0));
      }
      ++p.submitted;
    }
  } while (clock.More(p.wave_ms.size()));
  ++f->call;
  {
    ScopedSpan s(tracer, "drain", p.submitted);
    f->daemon->Drain();
  }
  p.wall_s = clock.Elapsed();

  p.waves = f->daemon->stats().waves - waves_before;
  return p;
}

// Replays the traced phase's dumps, in commit order, through the daemon's
// layers one public call at a time on the same (quiescent) runtime.
void ReplayLayers(Fleet* f, Tracer* tracer, Outcome* out) {
  std::vector<double> engine_ms;
  std::vector<double> bytes;
  res::ResOptions options;  // the daemon's default per-dump options
  options.runtime = f->runtime.get();
  options.consult_promoted = true;
  for (uint64_t seq : f->committed_seqs) {
    const Request& r = f->inputs->requests[f->request_of_seq[seq]];
    const res::Module& module = f->modules[r.module];
    bytes.push_back(static_cast<double>(r.dump.size()));
    ScopedSpan root(tracer, "replay.request", seq);
    std::optional<res::Result<res::Coredump>> dump;
    {
      ScopedSpan s(tracer, "deserialize", seq);
      dump.emplace(res::DeserializeCoredump(r.dump));
    }
    if (!dump->ok()) {
      continue;
    }
    const res::Coredump& d = dump->value();
    {
      ScopedSpan s(tracer, "validate", seq);
      if (!d.Validate(module).ok()) {
        continue;
      }
    }
    {
      ScopedSpan s(tracer, "facts_for", seq);
      f->runtime->FactsFor(module);
    }
    const int64_t e0 = NowNs();
    std::optional<res::ResEngine> engine;
    {
      ScopedSpan s(tracer, "engine_ctor", seq);
      engine.emplace(module, d, options);
    }
    res::ResResult result;
    {
      ScopedSpan s(tracer, "engine_run", seq);
      result = engine->Run();
    }
    engine_ms.push_back(NsToMs(NowNs() - e0));
    {
      ScopedSpan s(tracer, "promote", seq);
      f->runtime->Promote(module, engine->learned_clauses(),
                          result.stats.solver.cold_check_keys,
                          engine->solver_fingerprint());
    }
    {
      ScopedSpan s(tracer, "bucket", seq);
      res::BucketFromResult(module, d, result);
    }
  }
  out->Set("res.engine_ms_p50", Median(engine_ms));
  out->Set("coredump.bytes_p50", Median(bytes));
}

}  // namespace

int RunFleetTriage(const Options& opts, const InputSet& inputs, Outcome* out) {
  SplitMix rng(opts.seed);
  const std::vector<size_t> warm_pass = NextPass(inputs.requests.size(), &rng);
  std::printf("  stream: %zu distinct dumps over %zu modules; first-pass "
              "fingerprint %016llx\n",
              inputs.requests.size(), inputs.module_names.size(),
              static_cast<unsigned long long>(inputs.PassFingerprint(warm_pass)));

  std::vector<double> setup_s;
  // Times one set-up of `fleet`; its daemon shuts down outside the timing.
  auto timed_set_up = [&](Fleet* fleet) {
    const int64_t t0 = NowNs();
    res::Status s = SetUp(inputs, warm_pass, fleet);
    setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
    if (!s.ok()) {
      std::printf("set-up failed: %s\n", s.ToString().c_str());
    }
    return s.ok();
  };
  Fleet f;
  if (!timed_set_up(&f)) {
    return 2;
  }
  const res::TriageDaemonStats warm = f.daemon->stats();
  std::printf("  warm-up pass: %llu dumps, %llu waves, %llu wave promotions, "
              "%llu failed\n",
              static_cast<unsigned long long>(f.attempted),
              static_cast<unsigned long long>(warm.waves),
              static_cast<unsigned long long>(warm.wave_promotions),
              static_cast<unsigned long long>(f.failed));
  EngineCounters counters;
  std::vector<std::string> buckets;
  std::vector<std::string> truth;
  for (const res::TriageReport& r : f.reports) {
    counters.Add(r.stats);
    const Request& req = inputs.requests[f.request_of_seq[r.index]];
    buckets.push_back(inputs.module_names[req.module] + "|" + r.res_bucket);
    truth.push_back(req.bug);
  }
  f.reports.clear();
  f.attempted = 0;
  f.failed = 0;

  Tracer tracer;
  if (!opts.trace) {
    // As in RunClosedLoop: kSetupReps timed segments, each but the first
    // preceded by a throwaway set-up (its own runtime and daemon), so
    // setup_s samples the host across the whole run.
    WavePhase p;
    for (int seg = 0; seg < kSetupReps; ++seg) {
      if (seg > 0) {
        Fleet throwaway;
        if (!timed_set_up(&throwaway)) {
          return 2;
        }
      }
      const WavePhase s = RunPhase(&f, &rng, opts.seconds / kSetupReps,
                                   kMinSamples / kSetupReps, &tracer);
      p.submitted += s.submitted;
      p.waves += s.waves;
      p.wall_s += s.wall_s;
      p.wave_ms.insert(p.wave_ms.end(), s.wave_ms.begin(), s.wave_ms.end());
    }
    out->attempted = f.attempted;
    out->failed = f.failed;
    std::printf("  timed: %llu dumps, %llu waves in %.2f s\n",
                static_cast<unsigned long long>(p.submitted),
                static_cast<unsigned long long>(p.waves), p.wall_s);
    return ReportEndToEnd(opts, p.Throughput(), p.wave_ms, setup_s, out);
  }

  // Traced run: an untraced third, a traced third, then the layer replay
  // of the traced third's dumps (about as long again).
  WavePhase plain = RunPhase(&f, &rng, opts.seconds / 3, 0, &tracer);
  tracer.enabled = true;
  f.record_commits = true;
  WavePhase traced = RunPhase(&f, &rng, opts.seconds / 3, 0, &tracer);
  f.record_commits = false;
  out->attempted = f.attempted;
  out->failed = f.failed;
  const size_t replay_from = tracer.size();
  ReplayLayers(&f, &tracer, out);

  // Daemon time: every span recorded before the replay (submit, pump,
  // drain of the traced phase).
  double daemon_ms = 0;
  std::vector<double> submit_us;
  for (size_t i = 0; i < replay_from; ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    const double ms = NsToMs(s.end_ns - s.start_ns);
    daemon_ms += ms;
    if (std::strcmp(s.name, "submit") == 0) {
      submit_us.push_back(ms * 1000);
    }
  }
  std::map<std::string, Tracer::Layer> layers = tracer.Layers(replay_from);
  const double replay_ms = layers["replay.request"].total_ms;
  std::vector<double> gaps;
  for (size_t i = 1; i < f.report_times.size(); ++i) {
    if (f.report_times[i].first == f.report_times[i - 1].first) {
      gaps.push_back(NsToMs(f.report_times[i].second -
                            f.report_times[i - 1].second));
    }
  }
  std::printf("  traced daemon: %.1f ms over %llu waves; layer replay of the "
              "same %zu dumps: %.1f ms\n",
              daemon_ms, static_cast<unsigned long long>(traced.waves),
              f.committed_seqs.size(), replay_ms);
  out->Set("trace.residual_share",
           PrintSelfTimes(tracer, replay_from, "replay.request"));
  out->Set("triage.submit_us_p50", Median(submit_us));
  out->Set("triage.dump_gap_ms_p50", Median(gaps));
  out->Set("triage.overhead_ms_per_wave",
           traced.waves > 0 ? (daemon_ms - replay_ms) / traced.waves : 0);
  out->Set("coredump.deserialize_us_p50", layers["deserialize"].P50Ms() * 1000);
  out->Set("coredump.validate_us_p50", layers["validate"].P50Ms() * 1000);
  out->Set("res.facts_lookup_us_p50", layers["facts_for"].P50Ms() * 1000);
  out->Set("res.promote_us_p50", layers["promote"].P50Ms() * 1000);
  out->Set("res.engine_ctor_ms_p50", layers["engine_ctor"].P50Ms());
  out->Set("res.run_ms_p50", layers["engine_run"].P50Ms());
  out->Set("trace.overhead_ratio",
           Ratio("trace.overhead_ratio (untraced/traced dumps/s - 1)",
                 plain.Throughput() - traced.Throughput(),
                 traced.Throughput()));

  // Deterministic counters: the warm-up pass.
  out->Set("triage.waves", static_cast<double>(warm.waves));
  out->Set("triage.wave_promotions", static_cast<double>(warm.wave_promotions));
  out->Set("triage.quarantined", static_cast<double>(warm.quarantined));
  out->Set("triage.rejected", static_cast<double>(warm.rejected));
  const double pairs =
      static_cast<double>(buckets.size()) * (buckets.size() - 1) / 2;
  const double accuracy = res::PairwiseBucketingAccuracy(buckets, truth);
  out->Set("triage.bucketing_accuracy",
           Ratio("triage.bucketing_accuracy", std::round(accuracy * pairs),
                 pairs));
  counters.Report(out);
  out->Set("symbolic.pool_nodes",
           static_cast<double>(f.runtime->pool()->node_count()));
  out->Set("scenario.sweep_ms", inputs.sweep_ms);
  out->Set("scenario.fixtures", static_cast<double>(inputs.sweep_fixtures));
  return WriteTrace(opts, tracer);
}

}  // namespace perfbench
