#!/usr/bin/env python3
"""Builds and runs the wgrap end-to-end benchmark.

    python3 perfbench/run.py --workload conf_db08 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
`perfbench` binary (CMake, Release) into .bench_build/; later calls only
rebuild what changed. The binary's detail lines are passed through and its
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 1 also writes the run's spans as
chrome://tracing JSON to .bench_build/trace_<workload>.json.

--self-test runs every workload at a tiny size, traced and untraced, and
checks that each metric named in BENCHMARK.json is printed with its unit and
that the correctness gate passes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            if os.path.isdir(BUILD):
                shutil.rmtree(BUILD)  # retry configuring from scratch next time
            return False
    result = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr)
    return result.returncode == 0 and os.path.exists(BINARY)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Runs the binary; returns (exit code, stdout text)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        command += ["--trace-out",
                    os.path.join(BUILD, "trace_%s.json" % workload)]
    if tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    return done.returncode, done.stdout


def parse_result(stdout, trace):
    """The final JSON line, checked against BENCHMARK.json; None if bad."""
    lines = stdout.strip().splitlines()
    if not lines:
        log("perfbench printed nothing")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON")
        return None
    expected = expected_metrics(trace)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed)
                       if printed[n] != expected[n])
        log("metric set mismatch: missing=%s extra=%s wrong_unit=%s"
            % (missing, extra, wrong))
        return None
    return result


def self_test():
    failures = 0
    for workload in ("conf_db08", "sparse_p400", "service_mix"):
        for trace in (False, True):
            code, stdout = run_binary(workload, 1, 1, trace, tiny=True)
            result = parse_result(stdout, trace) if code == 0 else None
            ok = (result is not None and result["correct"] is True
                  and result["failed"] == 0 and result["attempted"] >= 1)
            print("self-test %-12s trace=%d: %s"
                  % (workload, trace, "ok" if ok else "FAILED"))
            failures += 0 if ok else 1
    print("self-test %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        log("BENCHMARK.json not found at the repository root")
        return 1
    if not build():
        log("build failed")
        return 1
    if args.self_test:
        return self_test()
    code, stdout = run_binary(args.workload, args.seed, args.seconds,
                              args.trace == 1)
    if code != 0:
        log("perfbench exited with %d" % code)
        return 1
    if parse_result(stdout, args.trace == 1) is None:
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
