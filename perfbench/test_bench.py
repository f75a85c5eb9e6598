#!/usr/bin/env python3
"""Checks of the benchmark's own gates. Run from the repository root:

    python3 perfbench/test_bench.py

Builds the benchmark if needed, then checks that malformed arguments are
refused by both the script and the binary, that a clean seed-0 run passes
its correctness gate, and that one corrupted recorded digest fails it.
"""
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
VALID = {"--workload": "compute", "--seed": "0", "--seconds": "1", "--trace": "0"}


def build_dir():
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return out if out.is_absolute() else ROOT / out


def args(**override):
    merged = dict(VALID)
    for k, v in override.items():
        flag = "--" + k
        if v is None:
            merged.pop(flag)
        else:
            merged[flag] = v
    return [x for kv in merged.items() for x in kv]


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkGates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        clean = subprocess.run(RUN + args(), cwd=ROOT, capture_output=True, text=True)
        cls.clean = clean
        cls.binary = build_dir() / "perfbench" / "secddr_perfbench"

    def test_clean_run_passes(self):
        self.assertEqual(self.clean.returncode, 0, self.clean.stdout + self.clean.stderr)
        r = result(self.clean.stdout)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(set(r["metrics"]), {"throughput", "setup_s", "peak_rss_mb"})

    def test_malformed_arguments_are_refused(self):
        bad = [
            dict(workload="nope"), dict(workload=""),
            dict(seed="abc"), dict(seed="-1"), dict(seed="1.5"), dict(seed=" 1"),
            dict(seed="0x10"), dict(seed="1_0"), dict(seed="4294967296"),
            dict(seconds="0"), dict(seconds="1x"), dict(seconds="+1"),
            dict(trace="2"), dict(trace="yes"), dict(trace=None),
        ]
        for override in bad:
            for cmd in (RUN, [str(self.binary)]):
                with self.subTest(cmd=cmd[-1], **{k: str(v) for k, v in override.items()}):
                    p = subprocess.run(cmd + args(**override), cwd=ROOT,
                                       capture_output=True, text=True)
                    self.assertNotEqual(p.returncode, 0)
                    self.assertIn("error", p.stderr)
                    self.assertNotIn("metrics", p.stdout)

    def test_corrupted_digest_fails(self):
        lines = (HERE / "digests.txt").read_text().splitlines()
        i = next(n for n, l in enumerate(lines) if l.startswith("compute "))
        workload, key, value = lines[i].split()
        flipped = ("0" if value[0] != "0" else "1") + value[1:]
        lines[i] = f"{workload} {key} {flipped}"
        corrupt = build_dir() / "corrupt_digests.txt"
        corrupt.write_text("\n".join(lines) + "\n")
        p = subprocess.run(RUN + args() + ["--digests", str(corrupt)], cwd=ROOT,
                           capture_output=True, text=True)
        self.assertNotEqual(p.returncode, 0)
        r = result(p.stdout)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertIn("MISMATCH " + key, p.stdout)


if __name__ == "__main__":
    unittest.main()
