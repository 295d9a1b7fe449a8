#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload, or all.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py [--seed <n>] [--trace <0|1>]   # every workload
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark compiles the library from
the checkout's sources into $CARGO_TARGET_DIR (default .bench_build), then
runs the perfbench binary:

  --trace 0  one untraced run; the result holds the end-to-end metrics
             listed in BENCHMARK.json.
  --trace 1  an untraced run, then a traced run of the same length; the
             result holds the per-layer metrics, the tracing overhead
             (trace.overhead_ms: traced minus untraced op_ms.p50) and the
             end-to-end figures only one workload has (e2e.*). A per-layer
             metric whose layer the workload does not call reads 0.

Every metric is printed on its own line with its unit and sample count;
the last line of standard output is the JSON result. The exit code is 1
when a correctness check failed, and another non-zero code, with no
result printed, when the benchmark could not build or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# End-to-end figures reported per layer because only one workload has them.
E2E_EXTRAS = ["op_ms.p99", "append_ms.p50", "append_ms.p90",
              "writer_lag_ms.p90", "fail_frac"]


class BenchError(Exception):
    pass


def run_process(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        code, _ = run_process(["cmake", "-S", HERE, "-B", bdir,
                               "-DCMAKE_BUILD_TYPE=Release"],
                              BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise BenchError("cmake configure failed")
    code, _ = run_process(["cmake", "--build", bdir, "--target", target,
                           "-j4"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        raise BenchError("build of %s failed" % target)
    return os.path.join(bdir, target)


def run_binary(binary, args, trace):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    code, out = run_process(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        raise BenchError("perfbench exited with code %d" % code)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select(spec, measured, fill_missing):
    """Picks the metrics `spec` lists out of `measured`, with spec units."""
    out = {}
    for m in spec:
        got = measured.get(m["name"])
        if got is None:
            if not fill_missing:
                raise BenchError("metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"]:
            raise BenchError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def run(args, spec):
    binary = build("perfbench")
    untraced = run_binary(binary, args, 0)
    result = {"correct": untraced["correct"],
              "attempted": untraced["attempted"],
              "failed": untraced["failed"]}
    if not args.trace:
        result["metrics"] = select(spec["end_to_end"], untraced["metrics"],
                                   fill_missing=False)
        return result
    traced = run_binary(binary, args, 1)
    measured = dict(traced["metrics"])
    base = untraced["metrics"]
    measured["trace.overhead_ms"] = {
        "value": measured["op_ms.p50"]["value"] - base["op_ms.p50"]["value"],
        "unit": "ms", "samples": measured["op_ms.p50"]["samples"]}
    for name in E2E_EXTRAS:
        if name in base:
            measured["e2e." + name] = base[name]
    result["correct"] = result["correct"] and traced["correct"]
    result["attempted"] += traced["attempted"]
    result["failed"] += traced["failed"]
    result["metrics"] = select(spec["per_layer"], measured, fill_missing=True)
    print("  %-34s %16.6f %-6s" % ("trace.overhead_ms",
                                   measured["trace.overhead_ms"]["value"],
                                   "ms"))
    return result


def selftest():
    binary = build("perfbench_selftest")
    code, _ = run_process([binary], RUN_TIMEOUT_S)
    unit = subprocess.run([sys.executable, "-m", "unittest", "-q",
                           "test_run"], cwd=HERE)
    return 0 if code == 0 and unit.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError("unknown workload %r" % args.workload)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        code = 0
        for name in [args.workload] if args.workload else names:
            args.workload = name
            result = run(args, spec)
            print(json.dumps(result))
            if not (result["correct"] and result["failed"] == 0):
                code = 1
        return code
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
