"""Benchmark of mflab's experiment runner.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's pinned config through ``mflab.cli`` (``validate_config``
then ``run_experiment``) in a fresh process per repeat, single-threaded,
until S seconds are used (at least two repeats).  Every repeat's artifacts
are checked and digested; a repeat whose artifacts differ from the first
repeat's fails all its operations.

``--trace 0`` prints the end-to-end metrics (medians over the repeats).
``--trace 1`` alternates untraced and traced repeats and prints the
per-layer metrics of the traced ones, with the tracing overhead.  Times are
scaled to a reference host speed (see ``REF_NOMINAL_S``); the raw times are
printed too.  The last line of standard output is one JSON object.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import KNOWN_DEFECTS, WORKLOADS, expected_counts, operations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "_runs")
MIN_REPEATS = 2
REPEAT_TIMEOUT_S = 80
# One BLAS thread: the repeats measure the program, not the thread pool.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# Times are reported as if the worker's reference kernel had taken this
# long: each repeat's times are multiplied by REF_NOMINAL_S / its measured
# kernel time.  On a shared host the speed drifts by tens of percent over
# minutes, and this scaling removes most of that drift from the medians.
REF_NOMINAL_S = 0.002
# Power of the speed scale applied to a metric of each unit.
SCALE_POWER = {"s": 1, "us": 1, "1/s": -1}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sampler.mala_s": "s",
    "sampler.mala_self_s": "s",
    "sampler.mala_us_per_step": "us",
    "sampler.logp_calls": "count",
    "sampler.logp_s": "s",
    "sampler.logp_us_per_state": "us",
    "sampler.acceptance": "ratio",
    "sampler.ess_per_s": "1/s",
    "sampler.mfld_s": "s",
    "sampler.mfld_us_per_step": "us",
    "sampler.mfld_states_kept": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "meanfield.solve_s": "s",
    "meanfield.iterations": "count",
    "model.first_variation_calls": "count",
    "chaos.estimate_kl_self_s": "s",
    "chaos.bregman_s": "s",
    "measure.sample_from_grid_s": "s",
    "measure.sample_from_grid_calls": "count",
    "chaos.kl_halfwidth_max": "nats",
    "chaos.z_importance_ess_min": "count",
    "heatflow.reverse_flow_map_s": "s",
    "heatflow.covariance_profile_s": "s",
    "measure.normalize_calls": "count",
    "measure.covariance_opnorm_calls": "count",
    "measure.w2_s": "s",
    "heatflow.ou_evolve_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_repeat(workload: str, seed: int, rep_dir: str, run_id=None) -> dict:
    out_dir = os.path.join(rep_dir, "out")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), out_dir] + ([run_id] if run_id else [])
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repeat exceeded {REPEAT_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["setup_done"] - started
    rep["scale"] = REF_NOMINAL_S / rep["ref_s"]
    rep["elapsed_s"] = time.monotonic() - started
    rep["out_dir"] = out_dir
    rep["traced"] = run_id is not None
    return rep


def artifact_digest(out_dir: str) -> tuple[str, int]:
    """SHA-256 over every artifact but the manifest (it holds wall time),
    and the bytes of all artifacts."""
    digest, total = hashlib.sha256(), 0
    for path in sorted(glob.glob(os.path.join(out_dir, "**"),
                                 recursive=True)):
        if not os.path.isfile(path):
            continue
        total += os.path.getsize(path)
        rel = os.path.relpath(path, out_dir)
        if rel == "manifest.json":
            continue
        digest.update(rel.encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest(), total


def report_extremes(out_dir: str) -> dict[str, float]:
    """Accuracy at fixed work, read from the chaos report JSONs."""
    reports = []
    for path in sorted(glob.glob(os.path.join(out_dir, "report_N*.json"))):
        with open(path) as fh:
            reports.append(json.load(fh))
    if not reports:
        return {"chaos.kl_halfwidth_max": 0.0,
                "chaos.z_importance_ess_min": 0.0}
    return {
        "chaos.kl_halfwidth_max": max(r["kl_halfwidth"] for r in reports),
        "chaos.z_importance_ess_min": min(r["z_importance_ess"]
                                          for r in reports),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mflab", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0"
                          + fh.read())
    return digest.hexdigest()


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(first: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": first["versions"]["numpy"],
        "scipy": first["versions"]["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": first["blas_threads"],
        "config_sha256": first["config_sha256"],
    }


def measure(args) -> tuple[list[dict], float]:
    work_dir = os.path.join(RUNS, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    repeats: list[dict] = []
    started = time.monotonic()
    while True:
        k = len(repeats)
        traced = bool(args.trace) and k % 2 == 1
        rep = run_repeat(args.workload, args.seed,
                         os.path.join(work_dir, f"r{k}"),
                         run_id=f"{args.workload}-{args.seed}-r{k}"
                         if traced else None)
        rep["ops"] = operations(args.workload, rep["config"], rep["out_dir"],
                                rep["exit_code"])
        rep["digest"], rep["cli.bytes_written"] = artifact_digest(rep["out_dir"])
        rep.update(report_extremes(rep["out_dir"]))
        rep.update(rep.pop("layers", {}))
        if repeats and rep["digest"] != repeats[0]["digest"]:
            for _, problems in rep["ops"]:
                problems.append(("nondeterministic",
                                 "artifacts differ from the first repeat"))
        if repeats:
            # Only the last repeat's artifacts are kept for inspection.
            shutil.rmtree(repeats[-1]["out_dir"], ignore_errors=True)
        repeats.append(rep)
        elapsed = time.monotonic() - started
        longest = max(r["elapsed_s"] for r in repeats)
        if len(repeats) >= MIN_REPEATS and elapsed + longest > args.seconds:
            return repeats, elapsed


def median_of(repeats: list[dict], key: str, unit: str = "s") -> float:
    """Median over repeats of a value scaled to the reference speed."""
    power = SCALE_POWER.get(unit, 0)
    return statistics.median(r[key] * r["scale"] ** power for r in repeats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mflab", "__init__.py")):
        print(f"no mflab sources under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        repeats, elapsed = measure(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1

    first = repeats[0]
    traced = [r for r in repeats if r["traced"]]
    plain = [r for r in repeats if not r["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(repeats)} "
          f"repeats ({len(traced)} traced) in {elapsed:.1f} s")
    print("environment: " + json.dumps(environment(first), sort_keys=True))
    dropped = sorted({k for r in repeats for k in r["dropped_keys"]})
    if dropped:
        print("pinned keys the schema no longer accepts: " + ", ".join(dropped))

    # Each operation is counted once per run, failed if it failed in any
    # repeat, so the counts do not depend on how many repeats fit in
    # --seconds.
    failed_ops: set[str] = set()
    unexpected = []
    failures: dict[str, int] = {}
    for rep in repeats:
        for label, problems in rep["ops"]:
            if problems:
                failed_ops.add(label)
            for key, text in problems:
                known = key in KNOWN_DEFECTS[args.workload]
                line = f"{label}: {text} ({'known defect' if known else 'UNEXPECTED'})"
                failures[line] = failures.get(line, 0) + 1
                if not known:
                    unexpected.append(line)
    attempted = len({label for rep in repeats for label, _ in rep["ops"]})
    failed = len(failed_ops)
    for error in sorted({r["error"] for r in repeats if r["error"]}):
        print("run raised:\n" + error.rstrip())
    digests = {r["digest"] for r in repeats}
    print(f"ops_total {attempted} count, ops_failed {failed} count "
          f"(each operation checked in all {len(repeats)} repeats)")
    for line, times in failures.items():
        print(f"  failed in {times} of {len(repeats)} repeats: {line}")
    print(f"determinism: {len(digests)} distinct artifact digest(s) over "
          f"{len(repeats)} repeats")
    correct = not unexpected

    for key, label in (("wall_s", "raw wall_s"), ("setup_s", "raw setup_s"),
                       ("ref_s", f"reference kernel s (nominal {REF_NOMINAL_S})")):
        print(f"{label} per repeat: "
              + " ".join(f"{r[key]:.4g}" for r in repeats))
    if args.trace:
        metrics = {name: median_of(traced, name, unit)
                   for name, unit in PER_LAYER.items()
                   if not name.startswith("trace.")}
        overhead = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / median_of(
            plain, "wall_s")
        for name, want in expected_counts(args.workload,
                                          first["config"]).items():
            verdict = "ok" if metrics[name] == want else "MISMATCH"
            print(f"count check {name}: {metrics[name]:g} "
                  f"(formula {want}) {verdict}")
        for note in ("missing_targets", "unreadable"):
            if traced[0][note]:
                print(f"{note}: " + "; ".join(traced[0][note]))
        units = PER_LAYER
    else:
        metrics = {name: median_of(repeats, name, unit)
                   for name, unit in END_TO_END.items()}
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
