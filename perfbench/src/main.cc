// perfbench: one closed-loop workload per process.
//
//   perfbench --workload <fleet_triage|deep_root_cause|long_recording>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.jsonl>] [--p50-bound <b>] [--p99-bound <b>]
//
// Prints a human-readable report, then, as the last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero, without that line, when set-up fails or a
// latency percentile sits on a cliff.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--p50-bound <b>] "
               "[--p99-bound <b>]\n");
  return 2;
}

bool Parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      o->trace_out = v;
    } else if (flag == "--p50-bound") {
      o->p50_bound = std::strtod(v, nullptr);
    } else if (flag == "--p99-bound") {
      o->p99_bound = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!Parse(argc, argv, &opts)) {
    return Usage();
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  const int64_t t0 = NowNs();
  res::Result<InputSet> inputs = MintFor(opts.workload);
  if (!inputs.ok()) {
    std::printf("input minting failed: %s\n", inputs.status().ToString().c_str());
    return 2;
  }
  std::printf("  inputs: %zu distinct requests, %zu modules, set fingerprint "
              "%016llx (minted in %.1f ms, outside set-up)\n",
              inputs.value().requests.size(),
              inputs.value().module_names.size(),
              static_cast<unsigned long long>(inputs.value().SetFingerprint()),
              NsToMs(NowNs() - t0));

  Outcome out;
  const int rc = RunWorkload(opts, inputs.value(), &out);
  if (rc != 0) {
    std::printf("perfbench: run failed (code %d); no result\n", rc);
    return rc;
  }
  if (out.attempted == 0) {
    std::printf("perfbench: no request attempted; no result\n");
    return 2;
  }

  const std::vector<Metric>& table =
      opts.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("  %s metrics:\n", opts.trace ? "per-layer" : "end-to-end");
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < table.size(); ++i) {
    auto it = out.values.find(table[i].name);
    double v = it == out.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::printf("perfbench: %s is not finite\n", table[i].name);
      return 2;
    }
    std::printf("    %-44s %.6g %s\n", table[i].name, v, table[i].unit);
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", table[i].name, v, table[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
