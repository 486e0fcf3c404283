#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

The benchmark is an OCaml executable (perfbench/bench.ml) built with dune
from the sources in this checkout; its last line of standard output is the
JSON result. Exits non-zero when the build fails, when run outside a
checkout of the repository, or when any output check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["systolic-compile", "polybench-sim", "validate-rtl", "fuzz-farm"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep the build inside.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/bench.exe", "./perfbench/calibrate.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        run = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
