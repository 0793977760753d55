#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Builds the benchmark executable
and the qcp CLI with dune, then runs the benchmark; its last stdout line
is one JSON object (correct, attempted, failed, metrics).  Build output
goes to stderr.  Exits non-zero, printing no result, when the checkout
holds no buildable source.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("paper_tables", "scale_spill", "serve_mixed")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
QCP = os.path.join("_build", "default", "bin", "qcp_cli.exe")


def git_rev():
    if not os.path.exists(".git"):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none (not a git checkout)"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            print(f"perfbench: no {need} here; run from a source checkout",
                  file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
         "./bin/qcp_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Own process group, so a timeout also stops the benchmark's worker
    # processes and its qcp serve daemon.
    run = subprocess.Popen(
        [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", a.trace, "--qcp", QCP,
         "--git-rev", git_rev()],
        start_new_session=True)
    try:
        return run.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
