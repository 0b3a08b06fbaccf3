// The benchmark's own tests:
//  1. the same seed gives byte-identical inputs in the same order;
//  2. a different seed gives a different order with the same per-module mix;
//  3. deterministic counters repeat exactly across two runs of a workload.
// Exits non-zero on the first failed check.
#include <cstdio>
#include <map>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

std::vector<std::vector<uint8_t>> Stream(const InputSet& set, uint64_t seed,
                                         size_t passes) {
  SplitMix rng(seed);
  std::vector<std::vector<uint8_t>> out;
  for (size_t p = 0; p < passes; ++p) {
    for (size_t i : NextPass(set.requests.size(), &rng)) {
      const Request& r = set.requests[i];
      std::vector<uint8_t> item = set.module_blobs[r.module];
      item.insert(item.end(), r.dump.begin(), r.dump.end());
      out.push_back(std::move(item));
    }
  }
  return out;
}

std::map<std::string, size_t> ModuleMix(const InputSet& set, uint64_t seed,
                                        size_t passes) {
  SplitMix rng(seed);
  std::map<std::string, size_t> mix;
  for (size_t p = 0; p < passes; ++p) {
    for (size_t i : NextPass(set.requests.size(), &rng)) {
      ++mix[set.module_names[set.requests[i].module]];
    }
  }
  return mix;
}

void InputChecks(const std::string& workload) {
  res::Result<InputSet> a = MintFor(workload);
  res::Result<InputSet> b = MintFor(workload);
  if (!a.ok() || !b.ok()) {
    Check(false, workload + ": minting");
    return;
  }
  Check(Stream(a.value(), 7, 3) == Stream(b.value(), 7, 3),
        workload + ": same seed, byte-identical blobs in the same order");
  Check(a.value().SetFingerprint() == b.value().SetFingerprint(),
        workload + ": same input-set fingerprint");
  Check(Stream(a.value(), 7, 1) != Stream(a.value(), 8, 1),
        workload + ": different seed, different order");
  Check(ModuleMix(a.value(), 7, 3) == ModuleMix(a.value(), 8, 3),
        workload + ": different seed, same per-module mix");
}

void CounterChecks(const std::string& workload,
                   const std::vector<std::string>& counters) {
  res::Result<InputSet> inputs = MintFor(workload);
  if (!inputs.ok()) {
    Check(false, workload + ": minting");
    return;
  }
  Options opts;
  opts.workload = workload;
  opts.seed = 3;
  opts.seconds = 0.2;
  opts.trace = true;
  Outcome runs[2];
  for (Outcome& out : runs) {
    const int rc = RunWorkload(opts, inputs.value(), &out);
    if (rc != 0) {
      Check(false, workload + ": run");
      return;
    }
  }
  for (const std::string& c : counters) {
    const double x = runs[0].values[c];
    const double y = runs[1].values[c];
    Check(x == y && x > 0,
          workload + ": " + c + " repeats exactly (" + std::to_string(x) +
              " vs " + std::to_string(y) + ")");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  using perfbench::CounterChecks;
  using perfbench::InputChecks;
  for (const char* w : {"fleet_triage", "deep_root_cause", "long_recording"}) {
    InputChecks(w);
  }
  CounterChecks("fleet_triage",
                {"triage.wave_promotions", "triage.waves",
                 "res.hypotheses_per_request", "symbolic.checks_per_request"});
  CounterChecks("deep_root_cause",
                {"res.hypotheses_per_request",
                 "res.detector_units_scanned_per_request",
                 "symbolic.checks_per_request"});
  CounterChecks("long_recording",
                {"vm.steps_per_request", "res.hypotheses_per_request"});
  std::printf("%d failed\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
