#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_triage --seed 1 --trace 0
    python3 perfbench/run.py --selftest

--seconds defaults to run_seconds in BENCHMARK.json. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
spans of traced runs to .../perfbench/traces/. The last line of standard
output is the result object; it is printed only when the run succeeded and
reported exactly the metrics BENCHMARK.json declares for the mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_triage", "deep_root_cause", "long_recording")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir, target):
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs, "--target", target],
    ]
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env).returncode
            except FileNotFoundError:
                fail("cmake not found")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(out_dir, target)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not a JSON object"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected keys {sorted(result)}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {sorted(got)} differ from BENCHMARK.json {sorted(want)}"
    if result["attempted"] < 1:
        return "no request attempted"
    return None


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to the benchmark", 2)
    out_dir = build_dir()
    if args.selftest:
        binary = build(out_dir, "perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT, timeout=600).returncode)
    if args.workload is None:
        fail("--workload is required", 2)

    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    binary = build(out_dir, "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--p50-bound", str(bound["latency_p50_ms"]),
           "--p99-bound", str(bound["latency_p99_ms"])]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode)
    problem = check_result(lines[-1], spec, args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
