#!/usr/bin/env python3
"""Builds and runs the layered pnsym benchmark.

    python3 layerbench/run.py --workload encode|reach|ctl \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release `pnsymd` daemon from the
repository's workspace and the `layerbench` package beside this file into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the workload. The
last line of standard output is the result object; see `README.md`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("encode", "reach", "ctl")


def build(target_dir, *cargo_args):
    """Runs one offline release build; its output goes to standard error."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"layerbench: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"layerbench: {needed} is missing; run from a full checkout")

    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    build(target_dir, "-p", "pnsym-bench", "--bin", "pnsymd")
    build(target_dir, "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    work_dir = os.path.join(target_dir, "layerbench-work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [
        os.path.join(target_dir, "release", "layerbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--pnsymd", os.path.join(target_dir, "release", "pnsymd"),
        "--work-dir", work_dir,
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
