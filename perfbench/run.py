#!/usr/bin/env python3
"""Build the benchmark and run it, one workload per process.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]

Run from the repository root. Without --seconds, the timed phase lasts
run_seconds from BENCHMARK.json. Without --workload, runs every workload in
turn. Each workload runs in a process of its own, so its peak RSS is its
own. The last line of standard output is the result line of the workload
run; with several workloads, a combined line whose "correct" holds only if
every workload's did, with "attempted" and "failed" summed and each metric
named "<workload>.<metric>". Each workload's result line is also appended,
with the host core count and the commit, to .perfbench/results.jsonl.
"""

import json
import os
import subprocess
import sys
import time

WORKLOADS = ["chat_prefix", "tenant_backlog", "weight_decompress"]
HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run_seconds():
    """The timed phase's length from BENCHMARK.json, or None if unreadable."""
    try:
        with open(SPEC) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return None


def commit():
    """The commit under test, or "unknown" outside a git checkout."""
    # Keep git from searching above the working directory.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", MANIFEST],
        stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        return None
    return os.path.join(target, "release", "deca-perfbench")


def run_one(binary, workload, passthrough, env):
    """Runs one workload; returns (exit code, result line or None)."""
    proc = subprocess.run(
        [binary, "--workload", workload] + passthrough,
        stdout=subprocess.PIPE, text=True, env=env, check=False,
    )
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else None)


def main(argv):
    workloads = WORKLOADS
    passthrough = []
    i = 0
    while i < len(argv):
        if argv[i] == "--workload" and i + 1 < len(argv):
            workloads = [argv[i + 1]]
            i += 2
        else:
            passthrough.append(argv[i])
            i += 1
    if "--seconds" not in passthrough:
        seconds = run_seconds()
        if seconds is None:
            print("perfbench: no --seconds and no run_seconds in " + SPEC,
                  file=sys.stderr)
            return 2
        passthrough += ["--seconds", str(seconds)]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    cores = os.cpu_count()
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, line = run_one(binary, workload, passthrough, env)
        status = status or code
        try:
            result = json.loads(line) if line else None
        except ValueError:
            result = None
        if result is None:
            status = status or 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
        os.makedirs(".perfbench", exist_ok=True)
        record = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "commit": env["PERFBENCH_COMMIT"],
            "host_cores": cores,
            "workload": workload,
            "args": passthrough,
            "result": result,
        }
        with open(os.path.join(".perfbench", "results.jsonl"), "a") as f:
            f.write(json.dumps(record) + "\n")
    if len(workloads) > 1:
        print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
