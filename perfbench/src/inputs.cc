// Input minting. Each workload's input set is a fixed function of the
// library (no seed): the seed only orders the set. Minting is the
// benchmark's own work and is excluded from setup_s.
#include <set>

#include "perfbench/src/bench.h"
#include "src/coredump/serialize.h"
#include "src/ir/module_serialize.h"
#include "src/scenario/scenario.h"
#include "src/support/string_util.h"
#include "src/workloads/harness.h"

namespace perfbench {

namespace {

size_t AddModule(InputSet* set, const std::string& name,
                 std::vector<uint8_t> blob) {
  set->module_names.push_back(name);
  set->module_blobs.push_back(std::move(blob));
  return set->module_names.size() - 1;
}

// Up to `want` distinct dumps of a multithreaded workload, one per
// scheduler-seed stride (deterministic: seeds are fixed, dumps deduped by
// their serialized bytes).
std::vector<std::vector<uint8_t>> DistinctRaceDumps(const res::Module& module,
                                                    const res::WorkloadSpec& spec,
                                                    size_t want,
                                                    uint64_t stride) {
  std::vector<std::vector<uint8_t>> out;
  std::set<std::vector<uint8_t>> seen;
  for (uint64_t k = 0; k < 64 * want && out.size() < want; ++k) {
    res::FailureRunOptions fo;
    fo.require_live_peers = spec.requires_live_peers;
    fo.first_seed = 1 + k * stride;
    fo.max_seed_tries = 2000;
    auto run = res::RunToFailure(module, spec, fo);
    if (!run.ok()) {
      continue;
    }
    std::vector<uint8_t> blob = res::SerializeCoredump(run.value().dump);
    if (seen.insert(blob).second) {
      out.push_back(std::move(blob));
    }
  }
  return out;
}

}  // namespace

// The §3.1 backend stream: the schedule sweep's concurrency fixtures, the
// single-threaded corpus bugs under input variants, and distinct dumps of
// the 4-worker racy counter.
res::Result<InputSet> MintFleetTriage() {
  InputSet set;
  const int64_t t0 = NowNs();
  res::Result<res::SweepResult> sweep = res::RunSweep(res::DefaultSweepGrid());
  set.sweep_ms = NsToMs(NowNs() - t0);
  if (!sweep.ok()) {
    return sweep.status();
  }
  const res::SweepResult& sw = sweep.value();
  set.sweep_fixtures = sw.fixtures.size();
  std::map<std::string, size_t> module_of;
  for (const auto& [name, blob] : sw.module_blobs) {
    module_of[name] = AddModule(&set, name, blob);
  }
  for (size_t i = 0; i < sw.fixtures.size(); ++i) {
    const res::FixtureRecord& f = sw.fixtures[i];
    Request r;
    r.module = module_of.at(f.workload);
    r.dump = sw.dump_blobs[i];
    r.truth = &res::WorkloadByName(f.workload);
    r.bug = f.workload;
    r.label = res::StrFormat("%s/%s/seed%llu", f.workload.c_str(),
                             f.policy.c_str(),
                             static_cast<unsigned long long>(f.seed));
    set.requests.push_back(std::move(r));
  }

  // Single-threaded bugs: every input in a fixed candidate range that
  // crashes with the workload's expected trap, deduped by dump bytes.
  for (const char* name : {"buffer_overflow", "use_after_free", "double_free",
                           "div_by_zero_input", "semantic_assert"}) {
    const res::WorkloadSpec& spec = res::WorkloadByName(name);
    res::Module module = spec.build();
    const size_t m = AddModule(&set, name, res::SerializeModule(module));
    std::set<std::vector<uint8_t>> seen;
    for (int64_t input = -2; input <= 12; ++input) {
      res::WorkloadSpec variant = spec;
      if (!spec.channel0_inputs.empty()) {
        variant.channel0_inputs = {input};
      }
      res::FailureRunOptions fo;
      fo.max_seed_tries = 2;
      auto run = res::RunToFailure(module, variant, fo);
      if (!run.ok()) {
        continue;
      }
      std::vector<uint8_t> blob = res::SerializeCoredump(run.value().dump);
      if (!seen.insert(blob).second) {
        continue;
      }
      Request r;
      r.module = m;
      r.dump = std::move(blob);
      r.truth = &spec;
      r.bug = name;
      r.label = res::StrFormat("%s/input=%lld", name,
                               static_cast<long long>(input));
      set.requests.push_back(std::move(r));
    }
  }

  {
    const res::WorkloadSpec& spec = res::WorkloadByName("racy_counter");
    res::Module module = res::BuildRacyCounterWide(4);
    const size_t m =
        AddModule(&set, "racy_counter_wide4", res::SerializeModule(module));
    std::vector<std::vector<uint8_t>> dumps =
        DistinctRaceDumps(module, spec, 16, 97);
    for (size_t i = 0; i < dumps.size(); ++i) {
      Request r;
      r.module = m;
      r.dump = std::move(dumps[i]);
      r.truth = &spec;
      r.bug = "racy_counter_wide4";
      r.label = res::StrFormat("racy_counter_wide4/dump%zu", i);
      set.requests.push_back(std::move(r));
    }
  }
  return set;
}

// The cost-vs-distance axis plus interleaving explosion: the root-cause
// distance ladder (40..440 blocks, step 10) and full-synthesis dumps of the
// 3-worker racy counter. The ladder reaches past the heaviest racy dump, so
// the top of the latency distribution is a dense run of graded rungs and
// p99 never rests on one input (see README.md, "Measured spread").
res::Result<InputSet> MintDeepRootCause() {
  InputSet set;
  {
    const res::WorkloadSpec& spec = res::WorkloadByName("semantic_assert");
    for (uint32_t d = 40; d <= 440; d += 10) {
      res::Module module = res::BuildRootCauseDistance(d);
      auto run = res::RunToFailure(module, spec, {});
      if (!run.ok()) {
        return run.status();
      }
      Request r;
      r.module = AddModule(&set, res::StrFormat("distance%u", d),
                           res::SerializeModule(module));
      r.dump = res::SerializeCoredump(run.value().dump);
      r.truth = &spec;
      r.bug = res::StrFormat("distance%u", d);
      r.label = r.bug;
      r.res.max_units = 512;
      set.requests.push_back(std::move(r));
    }
  }
  {
    const res::WorkloadSpec& spec = res::WorkloadByName("racy_counter");
    res::Module module = res::BuildRacyCounterWide(3);
    const size_t m =
        AddModule(&set, "racy_counter_wide3", res::SerializeModule(module));
    std::vector<std::vector<uint8_t>> dumps =
        DistinctRaceDumps(module, spec, 16, 17);
    for (size_t i = 0; i < dumps.size(); ++i) {
      Request r;
      r.module = m;
      r.dump = std::move(dumps[i]);
      r.truth = &spec;
      r.bug = "racy_counter_wide3";
      r.label = res::StrFormat("racy_counter_wide3/dump%zu", i);
      r.res.stop_at_root_cause = false;
      r.res.max_units = 48;
      r.res.max_hypotheses = 1000;
      set.requests.push_back(std::move(r));
    }
  }
  return set;
}

// BuildLongExecution(n) for 21 log-spaced n (ratio ~1.19) from 1000 to
// 31623 loop iterations: about 25k to 775k VM steps.
res::Result<InputSet> MintLongRecording() {
  InputSet set;
  const res::WorkloadSpec& spec = res::WorkloadByName("div_by_zero_input");
  for (uint64_t n : {1000, 1189, 1413, 1679, 1995, 2371, 2818, 3350, 3981,
                     4732, 5623, 6683, 7943, 9441, 11220, 13335, 15849, 18836,
                     22387, 26607, 31623}) {
    Request r;
    r.module = AddModule(
        &set,
        res::StrFormat("long_execution_%llu", static_cast<unsigned long long>(n)),
        res::SerializeModule(res::BuildLongExecution(n)));
    r.iterations = n;
    r.truth = &spec;
    r.bug = "div_by_zero_input";
    r.label = set.module_names.back();
    set.requests.push_back(std::move(r));
  }
  return set;
}

}  // namespace perfbench
