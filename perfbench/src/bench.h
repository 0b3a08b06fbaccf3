// Shared pieces of the end-to-end benchmark: seeded input streams, input
// fingerprints, percentiles with the cliff check, in-memory spans, the
// correctness oracle, and the metric tables every workload reports into.
//
// The benchmark drives only the library's public entry points. Nothing here
// reaches inside src/: spans wrap the calls the benchmark makes.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/ir/module.h"
#include "src/res/reverse_engine.h"
#include "src/res/root_cause.h"
#include "src/support/status.h"
#include "src/workloads/workloads.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Run options (from the command line; bounds come from BENCHMARK.json via
// run.py, so the cliff check uses the bounds BENCHMARK.json declares).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;         // spans file (trace mode); empty = none
  double p50_bound = 0.25;       // latency_p50_ms bound (cliff threshold)
  double p99_bound = 0.25;       // latency_p99_ms bound (cliff threshold)
};

// Latency samples an untraced run collects at least: >= 10 beyond p99.
constexpr size_t kMinSamples = 1000;
// Set-ups of an untraced run, one before each of its timed segments;
// setup_s is their median.
constexpr int kSetupReps = 5;

// ---------------------------------------------------------------------------
// Seeded order. Self-contained (splitmix64 + Fisher-Yates) so the stream a
// seed produces never depends on the library under test.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// A seeded permutation of [0, n): one pass over every distinct input.
std::vector<size_t> NextPass(size_t n, SplitMix* rng);

// FNV-1a 64.
uint64_t Fnv(const void* data, size_t size, uint64_t h = 1469598103934665603ull);
uint64_t Fnv(const std::vector<uint8_t>& bytes, uint64_t h = 1469598103934665603ull);
uint64_t FnvU64(uint64_t v, uint64_t h);

// ---------------------------------------------------------------------------
// Inputs. Every workload's input SET is fixed; the seed decides only the
// order in which the set is fed, pass after pass.
struct Request {
  size_t module = 0;              // index into InputSet::module_blobs
  std::vector<uint8_t> dump;      // serialized coredump (empty: long_recording)
  uint64_t iterations = 0;        // long_recording: BuildLongExecution(n)
  const res::WorkloadSpec* truth = nullptr;  // ground truth (registry entry)
  std::string bug;                // bug identity (bucketing ground truth)
  std::string label;              // human-readable provenance
  res::ResOptions res;            // engine options of this request's class
};

struct InputSet {
  std::vector<std::string> module_names;
  std::vector<std::vector<uint8_t>> module_blobs;  // RESMOD1
  std::vector<Request> requests;                   // the distinct inputs
  // Minting cost of the fleet's schedule sweep (not part of set-up).
  double sweep_ms = 0;
  size_t sweep_fixtures = 0;

  // Order-independent fingerprint of the whole set (modules + requests).
  uint64_t SetFingerprint() const;
  // Fingerprint of the first seeded pass (order-dependent).
  uint64_t PassFingerprint(const std::vector<size_t>& pass) const;
};

res::Result<InputSet> MintFleetTriage();
res::Result<InputSet> MintDeepRootCause();
res::Result<InputSet> MintLongRecording();
res::Result<InputSet> MintFor(const std::string& workload);

// RESMOD1 load + VerifyModule of every module blob (part of set-up).
res::Status LoadModules(const InputSet& inputs, std::deque<res::Module>* out);

// ---------------------------------------------------------------------------
// Correctness oracle: the registry's ground truth, never the engine.
bool KindAcceptable(const res::WorkloadSpec& truth, res::RootCauseKind kind);
bool CausesAcceptable(const res::WorkloadSpec& truth,
                      const std::vector<res::RootCause>& causes);
// TriageReport carries only the first cause's bucket signature. Race-family
// signatures ("race:<datum>") deliberately do not name which of the three
// race kinds fired, so they accept any of them; every other signature
// starts with its kind name.
bool SignatureAcceptable(const res::WorkloadSpec& truth,
                         const std::string& signature);

// ---------------------------------------------------------------------------
// Time.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }


// A latency percentile with the evidence that it is a real number: its
// sample count, the samples beyond it, and the ratio of its neighbouring
// order statistics (a percentile sitting on a gap between two cost classes
// moves by the gap when a few samples shift).
struct Quantile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  double gap = 0;  // max(x[i]/x[i-1], x[i+1]/x[i]) - 1
};
// Nearest-rank percentile of an unsorted sample (0 when empty).
Quantile QuantileOf(std::vector<double> values, double q);
double Median(std::vector<double> values);

double PeakRssMb();

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span, request id. Kept in memory and
// written when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;
  struct Span {
    const char* name = "";  // a string literal: spans never own their name
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t parent = kNoParent;
    uint64_t request = 0;
  };

  bool enabled = false;

  uint32_t Begin(const char* name, uint64_t request);
  void End(uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }
  res::Status Write(const std::string& path) const;

  // Per-name self time (duration minus the part its children cover), over
  // spans [from, size()).
  struct Layer {
    size_t count = 0;
    double self_ms = 0;
    double total_ms = 0;
    std::vector<double> durations_ms;
    double P50Ms() const { return Median(durations_ms); }
  };
  std::map<std::string, Layer> Layers(size_t from = 0) const;
  // Per span in [from, size()): the time its direct children cover.
  std::vector<int64_t> ChildNs(size_t from) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t request)
      : t_(t), id_(t->enabled ? t->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (t_->enabled) {
      t_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  uint32_t id_;
};

// Prints the per-layer self-time table of the spans under `root` spans and
// returns the residual share: the root's own self time over the root time.
double PrintSelfTimes(const Tracer& tracer, size_t from, const char* root);

// ---------------------------------------------------------------------------
// Metric tables. Every end-to-end metric is printed on an untraced run and
// every per-layer metric on a traced run, whatever the workload; a layer a
// workload does not exercise reads 0.
struct Metric {
  const char* name;
  const char* unit;
};
const std::vector<Metric>& EndToEndMetrics();
const std::vector<Metric>& PerLayerMetrics();

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;  // keyed by metric name

  void Set(const std::string& name, double value);
};

// Prints a ratio with its numerator and denominator; returns num/den (0
// when den is 0).
double Ratio(const char* name, double num, double den);

// Fills the end-to-end metrics of an untraced run from its throughput,
// latency samples and set-up times (out->attempted / failed already set),
// printing each percentile with its evidence. Returns 0, or 3 when a
// percentile sits on a gap between neighbouring order statistics wider than
// its bound, or p99 has fewer than 10 samples beyond it.
int ReportEndToEnd(const Options& opts, double throughput,
                   const std::vector<double>& latency_ms,
                   const std::vector<double>& setup_s, Outcome* out);

// Writes the spans when the run was given a spans file; returns 0, or 2.
int WriteTrace(const Options& opts, const Tracer& tracer);

// Aggregated engine counters over a fixed set of runs (the warm-up pass):
// the deterministic per-request counters.
struct EngineCounters {
  uint64_t runs = 0;
  uint64_t hypotheses = 0;
  uint64_t pruned_unsat = 0;
  uint64_t detector_units = 0;
  uint64_t checks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t clause_hits = 0;            // run-local + promoted
  uint64_t propagated = 0;
  uint64_t promoted_clause_hits = 0;
  uint64_t expr_reuse_hits = 0;

  void Add(const res::ResStats& s);
  // Fills the res.* / symbolic.* counter metrics.
  void Report(Outcome* out) const;
};

// Workloads; RunWorkload dispatches on opts.workload. Each returns
// 0 when `out` holds a result, non-zero when the run has none.
int RunFleetTriage(const Options& opts, const InputSet& inputs, Outcome* out);
int RunDeepRootCause(const Options& opts, const InputSet& inputs, Outcome* out);
int RunLongRecording(const Options& opts, const InputSet& inputs, Outcome* out);
int RunWorkload(const Options& opts, const InputSet& inputs, Outcome* out);

// Closed-loop clock: whole passes for `seconds`, and on past it (up to 5x)
// until `min_samples` latency samples exist.
struct LoopClock {
  int64_t start_ns = NowNs();
  double seconds = 0;
  size_t min_samples = 0;
  double Elapsed() const { return NsToMs(NowNs() - start_ns) / 1000.0; }
  bool More(size_t samples) const {
    const double e = Elapsed();
    return e < seconds || (samples < min_samples && e < 5 * seconds);
  }
};

// ---------------------------------------------------------------------------
// The per-request closed loop of deep_root_cause and long_recording: one
// client serves one request at a time, pass after pass.

// One served request. Fields a workload does not produce stay 0.
struct Served {
  bool ok = false;            // the oracle accepted the report
  double latency_ms = 0;      // the whole request
  double engine_ms = 0;       // ResEngine construction + Run
  double vm_run_ms = 0;       // Vm::Run
  uint64_t steps = 0;         // VM steps
  size_t bytes = 0;           // serialized coredump
  size_t pool_nodes = 0;      // ExprPool::node_count at run end
  bool replayed = false;      // ReplaySuffix ran (outside the request span)
  bool replay_matches = false;
  res::ResStats stats;
};

// Serves request `r` against its loaded module; `id` tags its spans.
using Serve = std::function<Served(const Request& r, const res::Module& module,
                                   Tracer* tracer, uint64_t id)>;

// One timed phase: every request served, in order.
struct Phase {
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t steps = 0;
  double vm_run_ms = 0;
  uint64_t replayed = 0;
  uint64_t replay_matches = 0;
  double wall_s = 0;
  std::vector<size_t> index;  // request served
  std::vector<double> latency_ms;
  std::vector<double> engine_ms;
  std::vector<double> bytes;
  double Throughput() const { return wall_s > 0 ? requests / wall_s : 0; }
};

struct ClosedLoop {
  Tracer tracer;
  std::vector<double> setup_s;  // one per set-up repetition
  // Deterministic counters of the (last) warm-up pass.
  EngineCounters counters;
  uint64_t warm_steps = 0;
  size_t pool_nodes = 0;        // largest ExprPool over the warm-up pass
  Phase traced;                 // trace mode: the traced phase
  std::map<std::string, Tracer::Layer> layers;  // trace mode: its spans
};

// Set-up (RESMOD1 load + VerifyModule, then one request per distinct input
// in `warm_pass` order), then the timed loop. Untraced: kSetupReps timed
// segments of opts.seconds / kSetupReps, each but the first preceded by a
// throwaway set-up, reported by ReportEndToEnd, whose code it returns.
// Traced: one set-up, an untraced half, then a traced half; fills the
// trace.*, coredump.*, engine span and counter metrics shared by both
// workloads and returns 0, leaving the rest to the caller through `run`.
int RunClosedLoop(const Options& opts, const InputSet& inputs, SplitMix* rng,
                  const std::vector<size_t>& warm_pass, const char* noun,
                  const Serve& serve, ClosedLoop* run, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
