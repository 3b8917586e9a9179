#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of this repository.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds `benchmark/` (a package of
its own that depends on the repository's crates by path) in release mode
into `$CARGO_TARGET_DIR`, default `.bench_build`, then runs the workload in
one child process and passes its output through. The last line of standard
output is the result object. A failed build, a failed output check or a
malformed result exits with a non-zero code.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_flow", "fleet_serve", "fleet_storm")
RUN_TIMEOUT_S = 175


def git_rev():
    """The checkout's commit, read from `.git` inside it if there is one."""
    rev = os.environ.get("GIT_REV", "").strip()
    if rev:
        return rev
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:12]
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, GIT_REV=git_rev())
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release", "maupiti-benchmark")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"benchmark run failed with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"]
    except (ValueError, TypeError):
        ok = False
    if not ok:
        sys.stdout.write(proc.stdout)
        print("benchmark result is malformed or incorrect", file=sys.stderr)
        return 5
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
