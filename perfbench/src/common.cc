#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>

#include "perfbench/src/bench.h"
#include "src/ir/module_serialize.h"
#include "src/ir/verifier.h"

namespace perfbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<size_t> NextPass(size_t n, SplitMix* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->Below(i)]);
  }
  return order;
}

uint64_t Fnv(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fnv(const std::vector<uint8_t>& bytes, uint64_t h) {
  return Fnv(bytes.data(), bytes.size(), h);
}

uint64_t FnvU64(uint64_t v, uint64_t h) { return Fnv(&v, sizeof(v), h); }

namespace {

uint64_t RequestFingerprint(const InputSet& set, const Request& r) {
  uint64_t h = Fnv(set.module_blobs[r.module]);
  h = Fnv(r.dump, h);
  h = FnvU64(r.iterations, h);
  h = Fnv(r.truth->name.data(), r.truth->name.size(), h);
  h = FnvU64(r.res.max_units, h);
  h = FnvU64(r.res.max_hypotheses, h);
  return FnvU64(r.res.stop_at_root_cause ? 1 : 0, h);
}

}  // namespace

uint64_t InputSet::SetFingerprint() const {
  std::vector<uint64_t> parts;
  for (const Request& r : requests) {
    parts.push_back(RequestFingerprint(*this, r));
  }
  std::sort(parts.begin(), parts.end());
  uint64_t h = Fnv(nullptr, 0);
  for (uint64_t p : parts) {
    h = FnvU64(p, h);
  }
  return h;
}

uint64_t InputSet::PassFingerprint(const std::vector<size_t>& pass) const {
  uint64_t h = Fnv(nullptr, 0);
  for (size_t i : pass) {
    h = FnvU64(RequestFingerprint(*this, requests[i]), h);
  }
  return h;
}

res::Result<InputSet> MintFor(const std::string& workload) {
  if (workload == "fleet_triage") {
    return MintFleetTriage();
  }
  if (workload == "deep_root_cause") {
    return MintDeepRootCause();
  }
  if (workload == "long_recording") {
    return MintLongRecording();
  }
  return res::InvalidArgument("unknown workload: " + workload);
}

res::Status LoadModules(const InputSet& inputs, std::deque<res::Module>* out) {
  out->clear();
  for (size_t i = 0; i < inputs.module_blobs.size(); ++i) {
    res::Result<res::Module> m = res::DeserializeModule(inputs.module_blobs[i]);
    if (!m.ok()) {
      return m.status();
    }
    res::Status verified = res::VerifyModule(m.value());
    if (!verified.ok()) {
      return verified;
    }
    out->push_back(std::move(m).value());
  }
  return res::OkStatus();
}

bool KindAcceptable(const res::WorkloadSpec& truth, res::RootCauseKind kind) {
  return kind == truth.expected_cause ||
         std::find(truth.also_acceptable.begin(), truth.also_acceptable.end(),
                   kind) != truth.also_acceptable.end();
}

bool CausesAcceptable(const res::WorkloadSpec& truth,
                      const std::vector<res::RootCause>& causes) {
  for (const res::RootCause& c : causes) {
    if (KindAcceptable(truth, c.kind)) {
      return true;
    }
  }
  return false;
}

bool SignatureAcceptable(const res::WorkloadSpec& truth,
                         const std::string& signature) {
  using K = res::RootCauseKind;
  if (signature.rfind("race:", 0) == 0) {
    return KindAcceptable(truth, K::kDataRace) ||
           KindAcceptable(truth, K::kAtomicityViolation) ||
           KindAcceptable(truth, K::kOrderViolation);
  }
  for (int k = 0; k <= static_cast<int>(K::kUnknown); ++k) {
    const K kind = static_cast<K>(k);
    if (kind == K::kUnknown) {
      continue;
    }
    const std::string prefix = std::string(res::RootCauseKindName(kind)) + ":";
    if (signature.rfind(prefix, 0) == 0) {
      return KindAcceptable(truth, kind);
    }
  }
  return false;
}

double Median(std::vector<double> values) {
  return QuantileOf(std::move(values), 0.5).value;
}

Quantile QuantileOf(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) {
    return out;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t i = rank == 0 ? 0 : rank - 1;
  out.value = values[i];
  out.beyond = n - 1 - i;
  auto ratio = [](double hi, double lo) { return lo > 0 ? hi / lo - 1 : 0.0; };
  if (i > 0) {
    out.gap = std::max(out.gap, ratio(values[i], values[i - 1]));
  }
  if (i + 1 < n) {
    out.gap = std::max(out.gap, ratio(values[i + 1], values[i]));
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint32_t Tracer::Begin(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = open_.empty() ? kNoParent : open_.back();
  const auto id = static_cast<uint32_t>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_[id].start_ns = NowNs();
  return id;
}

void Tracer::End(uint32_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

res::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return res::NotFound("cannot open spans file " + path);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << ",\"request\":" << s.request << "}\n";
  }
  return out ? res::OkStatus() : res::DataLoss("short write to " + path);
}

std::vector<int64_t> Tracer::ChildNs(size_t from) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != kNoParent && s.parent >= from) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  return child_ns;
}

std::map<std::string, Tracer::Layer> Tracer::Layers(size_t from) const {
  const std::vector<int64_t> child_ns = ChildNs(from);
  std::map<std::string, Layer> layers;
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& l = layers[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    ++l.count;
    l.total_ms += NsToMs(dur);
    l.self_ms += NsToMs(dur - child_ns[i]);
    l.durations_ms.push_back(NsToMs(dur));
  }
  return layers;
}

double PrintSelfTimes(const Tracer& tracer, size_t from, const char* root) {
  std::map<std::string, Tracer::Layer> layers = tracer.Layers(from);
  const Tracer::Layer& r = layers[root];
  std::printf("  self time under '%s' (%zu spans, %.1f ms traced):\n", root,
              r.count, r.total_ms);
  const auto& spans = tracer.spans();
  const std::vector<int64_t> child_ns = tracer.ChildNs(from);
  std::map<std::string, double> below;  // self ms of layers under a root
  for (size_t i = from; i < spans.size(); ++i) {
    uint32_t top = spans[i].parent;
    while (top != Tracer::kNoParent && spans[top].parent != Tracer::kNoParent) {
      top = spans[top].parent;
    }
    if (top == Tracer::kNoParent || std::strcmp(spans[top].name, root) != 0) {
      continue;
    }
    below[spans[i].name] +=
        NsToMs(spans[i].end_ns - spans[i].start_ns - child_ns[i]);
  }
  double accounted = 0;
  for (const auto& [name, ms] : below) {
    accounted += ms;
    std::printf("    %-22s %10.2f ms  %5.1f%%\n", name.c_str(), ms,
                r.total_ms > 0 ? 100.0 * ms / r.total_ms : 0.0);
  }
  std::printf("    %-22s %10.2f ms  %5.1f%%  (root self time)\n", "residual",
              r.self_ms, r.total_ms > 0 ? 100.0 * r.self_ms / r.total_ms : 0.0);
  std::printf("    layers + residual = %.2f ms of %.2f ms\n",
              accounted + r.self_ms, r.total_ms);
  return Ratio("trace.residual_share", r.self_ms, r.total_ms);
}

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},    {"peak_rss_mb", "MB"},
      {"setup_s", "s"},            {"ok_share", "ratio"},
  };
  return kMetrics;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"triage.submit_us_p50", "us"},
      {"triage.dump_gap_ms_p50", "ms"},
      {"triage.overhead_ms_per_wave", "ms"},
      {"triage.waves", "count"},
      {"triage.wave_promotions", "count"},
      {"triage.quarantined", "count"},
      {"triage.rejected", "count"},
      {"triage.bucketing_accuracy", "ratio"},
      {"coredump.deserialize_us_p50", "us"},
      {"coredump.validate_us_p50", "us"},
      {"coredump.capture_us_p50", "us"},
      {"coredump.serialize_us_p50", "us"},
      {"coredump.bytes_p50", "bytes"},
      {"res.facts_lookup_us_p50", "us"},
      {"res.promote_us_p50", "us"},
      {"res.engine_ms_p50", "ms"},
      {"res.promoted_clause_hits", "count"},
      {"res.expr_reuse_hits", "count"},
      {"res.engine_ctor_ms_p50", "ms"},
      {"res.run_ms_p50", "ms"},
      {"res.hypotheses_per_request", "count"},
      {"res.pruned_unsat_ratio", "ratio"},
      {"res.detector_units_scanned_per_request", "count"},
      {"symbolic.checks_per_request", "count"},
      {"symbolic.cache_hit_ratio", "ratio"},
      {"symbolic.clause_hit_ratio", "ratio"},
      {"symbolic.propagated_constraints_per_request", "count"},
      {"symbolic.pool_nodes", "count"},
      {"vm.steps_per_s", "1/s"},
      {"vm.reset_us_p50", "us"},
      {"vm.steps_per_request", "count"},
      {"res.analyze_ms_p50", "ms"},
      {"res.analyze_flatness", "ratio"},
      {"replay.verify_ms_p50", "ms"},
      {"replay.match_ratio", "ratio"},
      {"scenario.sweep_ms", "ms"},
      {"scenario.fixtures", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.residual_share", "ratio"},
  };
  return kMetrics;
}

void Outcome::Set(const std::string& name, double value) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const Metric& m : *table) {
      if (name == m.name) {
        values[name] = value;
        return;
      }
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
  std::abort();
}

double Ratio(const char* name, double num, double den) {
  const double r = den != 0 ? num / den : 0.0;
  std::printf("  %-40s %.6f  (%.0f / %.0f)\n", name, r, num, den);
  return r;
}

namespace {

bool CheckPercentile(const char* name, const Quantile& q, double bound,
                     bool is_p99) {
  std::printf("  %-16s %.4f ms  samples=%zu beyond=%zu neighbour_gap=%.4f "
              "(bound %.2f)\n",
              name, q.value, q.samples, q.beyond, q.gap, bound);
  bool ok = true;
  if (q.gap > bound) {
    std::printf("CLIFF: %s sits on a gap of %.1f%% between neighbouring "
                "order statistics (bound %.0f%%)\n",
                name, 100 * q.gap, 100 * bound);
    ok = false;
  }
  if (is_p99 && q.beyond < 10) {
    std::printf("CLIFF: %s has only %zu samples beyond it (need 10)\n", name,
                q.beyond);
    ok = false;
  }
  return ok;
}

}  // namespace

int ReportEndToEnd(const Options& opts, double throughput,
                   const std::vector<double>& latency_ms,
                   const std::vector<double>& setup_s, Outcome* out) {
  const Quantile p50 = QuantileOf(latency_ms, 0.50);
  const Quantile p99 = QuantileOf(latency_ms, 0.99);
  const bool ok50 = CheckPercentile("latency_p50_ms", p50, opts.p50_bound, false);
  const bool ok99 = CheckPercentile("latency_p99_ms", p99, opts.p99_bound, true);
  std::printf("  %-16s %.4f s  median of %zu set-ups (%.4f .. %.4f s)\n",
              "setup_s", Median(setup_s), setup_s.size(),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  out->Set("throughput_per_s", throughput);
  out->Set("latency_p50_ms", p50.value);
  out->Set("latency_p99_ms", p99.value);
  out->Set("setup_s", Median(setup_s));
  out->Set("peak_rss_mb", PeakRssMb());
  out->Set("ok_share",
           1.0 - Ratio("failed_share", static_cast<double>(out->failed),
                       static_cast<double>(out->attempted)));
  return ok50 && ok99 ? 0 : 3;
}

int WriteTrace(const Options& opts, const Tracer& tracer) {
  if (opts.trace_out.empty()) {
    return 0;
  }
  res::Status w = tracer.Write(opts.trace_out);
  if (!w.ok()) {
    std::printf("%s\n", w.ToString().c_str());
    return 2;
  }
  return 0;
}

int RunWorkload(const Options& opts, const InputSet& inputs, Outcome* out) {
  if (opts.workload == "fleet_triage") {
    return RunFleetTriage(opts, inputs, out);
  }
  if (opts.workload == "deep_root_cause") {
    return RunDeepRootCause(opts, inputs, out);
  }
  if (opts.workload == "long_recording") {
    return RunLongRecording(opts, inputs, out);
  }
  return 2;
}

void EngineCounters::Add(const res::ResStats& s) {
  ++runs;
  hypotheses += s.hypotheses_explored;
  pruned_unsat += s.pruned_unsat;
  detector_units += s.detector_units_scanned;
  checks += s.solver.checks;
  cache_hits += s.solver.cache_hits;
  cache_misses += s.solver.cache_misses;
  clause_hits += s.solver.clause_hits + s.solver.promoted_clause_hits;
  propagated += s.solver.propagated_constraints;
  promoted_clause_hits += s.solver.promoted_clause_hits;
  expr_reuse_hits += s.expr_reuse_hits;
}

void EngineCounters::Report(Outcome* out) const {
  const double n = static_cast<double>(std::max<uint64_t>(runs, 1));
  std::printf("  engine counters over the warm-up pass (%llu runs):\n",
              static_cast<unsigned long long>(runs));
  out->Set("res.hypotheses_per_request", static_cast<double>(hypotheses) / n);
  out->Set("res.detector_units_scanned_per_request",
           static_cast<double>(detector_units) / n);
  out->Set("symbolic.checks_per_request", static_cast<double>(checks) / n);
  out->Set("symbolic.propagated_constraints_per_request",
           static_cast<double>(propagated) / n);
  out->Set("res.promoted_clause_hits", static_cast<double>(promoted_clause_hits));
  out->Set("res.expr_reuse_hits", static_cast<double>(expr_reuse_hits));
  std::printf("  %-40s %.2f  (%llu / %llu)\n", "res.hypotheses_per_request",
              static_cast<double>(hypotheses) / n,
              static_cast<unsigned long long>(hypotheses),
              static_cast<unsigned long long>(runs));
  out->Set("res.pruned_unsat_ratio",
           Ratio("res.pruned_unsat_ratio", static_cast<double>(pruned_unsat),
                 static_cast<double>(pruned_unsat + hypotheses)));
  out->Set("symbolic.cache_hit_ratio",
           Ratio("symbolic.cache_hit_ratio", static_cast<double>(cache_hits),
                 static_cast<double>(cache_hits + cache_misses)));
  out->Set("symbolic.clause_hit_ratio",
           Ratio("symbolic.clause_hit_ratio", static_cast<double>(clause_hits),
                 static_cast<double>(clause_hits + checks)));
}

namespace {

Phase RunPhase(const InputSet& inputs, const std::deque<res::Module>& modules,
               SplitMix* rng, double seconds, size_t min_samples,
               const Serve& serve, Tracer* tracer) {
  Phase p;
  LoopClock clock{NowNs(), seconds, min_samples};
  do {
    for (size_t idx : NextPass(inputs.requests.size(), rng)) {
      const Request& r = inputs.requests[idx];
      const Served s = serve(r, modules[r.module], tracer, p.requests);
      ++p.requests;
      if (!s.ok) {
        ++p.failed;
        if (p.failed <= 5) {
          std::printf("  FAILED %s\n", r.label.c_str());
        }
      }
      p.steps += s.steps;
      p.vm_run_ms += s.vm_run_ms;
      p.replayed += s.replayed ? 1 : 0;
      p.replay_matches += s.replay_matches ? 1 : 0;
      p.index.push_back(idx);
      p.latency_ms.push_back(s.latency_ms);
      p.engine_ms.push_back(s.engine_ms);
      p.bytes.push_back(static_cast<double>(s.bytes));
    }
  } while (clock.More(p.latency_ms.size()));
  p.wall_s = clock.Elapsed();
  return p;
}

}  // namespace

int RunClosedLoop(const Options& opts, const InputSet& inputs, SplitMix* rng,
                  const std::vector<size_t>& warm_pass, const char* noun,
                  const Serve& serve, ClosedLoop* run, Outcome* out) {
  std::deque<res::Module> modules;
  uint64_t warm_failed = 0;
  // One set-up: RESMOD1 load + VerifyModule into `into`, then the warm-up
  // pass over it.
  auto set_up = [&](std::deque<res::Module>* into) {
    run->counters = EngineCounters{};
    run->warm_steps = 0;
    warm_failed = 0;
    const int64_t t0 = NowNs();
    res::Status loaded = LoadModules(inputs, into);
    if (!loaded.ok()) {
      std::printf("set-up failed: %s\n", loaded.ToString().c_str());
      return false;
    }
    for (size_t idx : warm_pass) {
      const Request& r = inputs.requests[idx];
      const Served s = serve(r, (*into)[r.module], &run->tracer, idx);
      warm_failed += s.ok ? 0 : 1;
      run->warm_steps += s.steps;
      run->counters.Add(s.stats);
      run->pool_nodes = std::max(run->pool_nodes, s.pool_nodes);
    }
    run->setup_s.push_back(NsToMs(NowNs() - t0) / 1000.0);
    return true;
  };
  if (!set_up(&modules)) {
    return 2;
  }
  std::printf("  warm-up pass: %zu %s, %llu VM steps, %llu failed\n",
              warm_pass.size(), noun,
              static_cast<unsigned long long>(run->warm_steps),
              static_cast<unsigned long long>(warm_failed));

  if (!opts.trace) {
    // The timed loop runs in kSetupReps segments. Before each later segment
    // a throwaway set-up (its own modules, freed before the segment starts)
    // is timed, so setup_s samples the host across the whole run instead of
    // one second of it, and the loop's own state is never rebuilt.
    uint64_t requests = 0;
    uint64_t failed = 0;
    double wall_s = 0;
    std::vector<double> latency_ms;
    for (int seg = 0; seg < kSetupReps; ++seg) {
      if (seg > 0) {
        std::deque<res::Module> throwaway;
        if (!set_up(&throwaway)) {
          return 2;
        }
      }
      const Phase p = RunPhase(inputs, modules, rng, opts.seconds / kSetupReps,
                               kMinSamples / kSetupReps, serve, &run->tracer);
      requests += p.requests;
      failed += p.failed;
      wall_s += p.wall_s;
      latency_ms.insert(latency_ms.end(), p.latency_ms.begin(),
                        p.latency_ms.end());
    }
    out->attempted = requests;
    out->failed = failed;
    std::printf("  timed: %llu %s in %.2f s\n",
                static_cast<unsigned long long>(requests), noun, wall_s);
    return ReportEndToEnd(opts, requests / wall_s, latency_ms, run->setup_s,
                          out);
  }

  const Phase plain = RunPhase(inputs, modules, rng, opts.seconds / 2, 0,
                               serve, &run->tracer);
  run->tracer.enabled = true;
  run->traced = RunPhase(inputs, modules, rng, opts.seconds / 2, 0, serve,
                         &run->tracer);
  const Phase& traced = run->traced;
  out->attempted = plain.requests + traced.requests;
  out->failed = plain.failed + traced.failed;
  out->Set("trace.residual_share", PrintSelfTimes(run->tracer, 0, "request"));
  run->layers = run->tracer.Layers(0);
  std::map<std::string, Tracer::Layer>& layers = run->layers;
  // Closed loop, one client: time per request is what throughput inverts.
  const double plain_per =
      std::accumulate(plain.latency_ms.begin(), plain.latency_ms.end(), 0.0) /
      plain.requests;
  const double traced_per = layers["request"].total_ms / traced.requests;
  out->Set("trace.overhead_ratio",
           Ratio("trace.overhead_ratio (traced/untraced ms per request - 1)",
                 traced_per - plain_per, plain_per));
  out->Set("coredump.deserialize_us_p50", layers["deserialize"].P50Ms() * 1000);
  out->Set("coredump.validate_us_p50", layers["validate"].P50Ms() * 1000);
  out->Set("coredump.bytes_p50", Median(traced.bytes));
  out->Set("res.engine_ctor_ms_p50", layers["engine_ctor"].P50Ms());
  out->Set("res.run_ms_p50", layers["engine_run"].P50Ms());
  run->counters.Report(out);
  out->Set("symbolic.pool_nodes", static_cast<double>(run->pool_nodes));
  return 0;
}

}  // namespace perfbench
