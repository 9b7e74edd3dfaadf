#!/usr/bin/env python3
"""Exact-count self-check: runs one workload twice with one seed, traced
and untraced, and requires identical exact counts and quality rows.

    python3 perfbench/selfcheck.py --workload lvpd_small_mixed --seed 7 [--seconds 15]

A mismatch is a determinism defect to report, not a seed to change.
Exits 1 on a mismatch or a failed run.
"""

import argparse
import json
import subprocess
import sys

EXACT_TRACED = [
    "corruptions.calls",
    "models.predict_proba_calls",
    "models.predict_proba_rows",
    "server.journal.bytes_per_observe",
    "server.requests",
    "server.error_responses",
    "server.shed_requests",
    "journal.appends",
]
EXACT_UNTRACED = ["estimate_mae", "interval_coverage", "validate_f1"]


def run(workload, seed, seconds, trace):
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", "perfbench/Cargo.toml", "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {' '.join(cmd)}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"run reported incorrect output: {' '.join(cmd)}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    args = p.parse_args()
    mismatches = []
    for trace, names in ((1, EXACT_TRACED), (0, EXACT_UNTRACED)):
        a = run(args.workload, args.seed, args.seconds, trace)
        b = run(args.workload, args.seed, args.seconds, trace)
        for name in names:
            same = a[name] == b[name]
            print(f"{name:<36} {a[name]!r:>24} {b[name]!r:>24} {'same' if same else 'DIFFERS'}")
            if not same:
                mismatches.append(name)
    if mismatches:
        sys.exit(f"exact values differ between runs: {', '.join(mismatches)}")
    print("exact counts and quality rows identical")


if __name__ == "__main__":
    main()
