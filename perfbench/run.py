#!/usr/bin/env python3
"""Repository benchmark for the SecDDR simulator.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is membound, compute, membound-4ch or fuzz (see bench.cc for what each
runs and why). The script builds perfbench/ in Release into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
it. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
every result checked out.

At seed 0 the results are checked against perfbench/digests.txt. After an
intended change to simulated behaviour, re-record it for each workload:

    python3 perfbench/run.py --workload W --seed 0 --seconds 1 --trace 0 --record
"""
import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("membound", "compute", "membound-4ch", "fuzz")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bounded_int(lo, hi):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                f"'{text}' is not an integer in [{lo}, {hi}]")
        return int(text)
    return parse


def parse_args():
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=bounded_int(0, 2**32 - 1))
    p.add_argument("--seconds", required=True, type=bounded_int(1, 3600))
    p.add_argument("--trace", required=True, type=bounded_int(0, 1))
    p.add_argument("--digests", default=str(HERE / "digests.txt"),
                   help="recorded seed-0 digests (default: %(default)s)")
    p.add_argument("--record", action="store_true",
                   help="write this workload's seed-0 digests to --digests")
    return p.parse_args()


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not (ROOT / "src" / "sim" / "system.h").is_file():
        sys.exit(f"error: simulator sources not found under {ROOT / 'src'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("error: building the benchmark failed")
    return build_dir / "secddr_perfbench"


def main():
    args = parse_args()
    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", args.digests]
    if args.record:
        cmd.append("--record")
    rc = subprocess.run(cmd).returncode
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
