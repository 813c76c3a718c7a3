"""Checks of the benchmark itself, on one traced run of each workload.

Usage: python3 perfbench/selfcheck.py

At seed 0 the benchmark must:
- report every per-layer metric;
- reproduce the exact counts that follow from each pinned config;
- count the known defects as failed operations, naming the failing check;
- find the artifacts of every repeat identical.

Exits 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> (failed operations, text every failure line holds)
EXPECTED_FAILURES = {
    "chaos_relu3": (1, "N=16: variance_step=false"),
    "transport_relu3": (1, "map: pushforward_w2="),
    "dynamics_relu3": (0, None),
}


def check(workload: str, expected_failed: int, failure_text) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"]:
        problems.append("run reported correct=false")
    missing = sorted(set(PER_LAYER) - set(result["metrics"]))
    if missing:
        problems.append("per-layer metrics missing: " + ", ".join(missing))
    counts = [ln for ln in lines if ln.startswith("count check ")]
    if not counts:
        problems.append("no count check printed")
    problems += [ln for ln in counts if not ln.endswith(" ok")]
    if result["failed"] != expected_failed:
        problems.append(f"failed {result['failed']} of {result['attempted']}"
                        f", expected {expected_failed}")
    failure_lines = [ln for ln in lines if ln.startswith("  failed in ")]
    if failure_text and not all(failure_text in ln for ln in failure_lines):
        problems.append(f"failures not named as {failure_text!r}: "
                        f"{failure_lines}")
    if "determinism: 1 distinct artifact digest(s)" not in proc.stdout:
        problems.append("repeats produced different artifacts")
    return problems


def main() -> int:
    failed = False
    for workload, (n_failed, text) in EXPECTED_FAILURES.items():
        problems = check(workload, n_failed, text)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
