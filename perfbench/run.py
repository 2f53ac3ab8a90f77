#!/usr/bin/env python3
"""Build and run the FlexNet benchmark from the root of a checkout.

    python3 perfbench/run.py --workload datapath|fabric|churn \
        --seed N --seconds S --trace 0|1 [--smoke] [--corrupt]

Builds perfbench/perfbench.exe with dune (the first run in a fresh
checkout compiles the whole stack), then runs it; the benchmark's last
line of standard output is the JSON result. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("datapath", "fabric", "churn")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (the benchmark's own smoke test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="with --smoke: make one expected verdict wrong")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # dune's own output goes to stderr so the result stays the last
    # line of standard output; its shared cache is off so the build
    # writes nothing outside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--nproc", str(os.cpu_count() or 0)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
