#!/usr/bin/env python3
"""Builds the benchmark drivers from this checkout and runs one workload.

    python3 perfbench/run.py --workload dense-ave-16k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --size smoke --seconds 1

--trace chooses the driver: 0 runs the untraced one (end-to-end
metrics), 1 the traced one (per-layer metrics).  --workload all runs
every workload with both drivers.  The last line of stdout is the driver's JSON result; build
output goes to stderr.  The build directory is $CARGO_TARGET_DIR (default
.bench_build) under the checkout root.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["dense-ave-16k", "dense-ave-faults-16k", "chord-drr-16k", "dense-max-4k"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Brings both drivers up to date (a fraction of a second once built)."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_run", "perfbench_traced"],
                   stdout=sys.stderr, check=True)


def run(out, workload, args, trace):
    binary = out / ("perfbench_traced" if trace else "perfbench_run")
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    return subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.workload != "all":
        return run(out, args.workload, args, args.trace == 1)
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            status = run(out, workload, args, trace) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
