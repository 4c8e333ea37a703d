#!/usr/bin/env python3
"""Build the `probdb` server and the perfbench binary from source, then run
one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload star-read --seed 1 --seconds 15 --trace 0

Build output goes to standard error; standard output is the perfbench
report, whose last line is the JSON result. Cargo's target directory is
`$CARGO_TARGET_DIR`, or `.bench_build` when unset. Generated databases and
span files go to `.bench_out`.
"""

import argparse
import os
import subprocess
import sys

# Deployment variables CI exports; neither the build nor the benchmark
# inherits them.
STRIPPED_ENV = (
    "ENGINE_THREADS",
    "ENGINE_SHARDS",
    "ENGINE_TRACE",
    "ENGINE_RESULT_CACHE",
    "ENGINE_SLOW_MS",
)

WORKLOADS = ["star-read", "bushy-churn", "hard-mix"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="star-read, bushy-churn, hard-mix, or all (each in turn)")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "probdb"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        cmd = [
            os.path.join(release, "perfbench"),
            "--server", os.path.join(release, "probdb"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", args.trace,
        ]
        code = subprocess.run(cmd, env=env).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
