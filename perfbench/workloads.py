"""The pinned benchmark workloads and the checks that decide whether an
operation failed.

An operation is one ``ChaosReport`` per particle count on ``chaos_relu3``,
one transport map on ``transport_relu3`` and one dynamics run on
``dynamics_relu3``.
"""

from __future__ import annotations

import copy
import json
import math
import os

# Every key that sets the amount of work is pinned here, so that a change
# of a schema default cannot change a workload unnoticed.
WORKLOADS = {
    # MALA (sampler) dominates; meanfield, chaos and measure sampling also
    # run, heatflow never does.
    "chaos_relu3": {
        "experiment": "chaos_sweep",
        "workers": 1,
        "model": {"preset": "relu3"},
        "sweep": {"n_particles": [2, 4, 8, 16]},
        "mcmc": {"n_samples": 16384, "n_burnin": 2048, "step_size0": 0.3,
                 "n_pi_samples": 32768, "n_bootstrap": 256, "n_batches": 32},
        "grid": {"n_nodes": 2048, "span_sd": 10.0},
    },
    # heatflow.reverse_flow_map dominates; MALA never runs.
    "transport_relu3": {
        "experiment": "transport_map",
        "model": {"preset": "relu3"},
        "grid": {"n_nodes": 2048, "span_sd": 10.0},
        "flow": {"dt": 1e-3, "t_max": 8.0},
    },
    # A large ensemble stepped without Metropolis correction, every state
    # kept: the workload where memory and artifact writing dominate.
    "dynamics_relu3": {
        "experiment": "mfld_run",
        "model": {"preset": "relu3"},
        "mfld": {"n_particles": 2048, "horizon": 10.0, "step": 1e-3},
    },
}

# The speed-probe kernel (see worker.SpeedProbe) whose time each workload's
# times are scaled by: the kernel whose slow-downs under host contention
# track the workload's.  Over five seeds the IQR of scaled `wall_s` was
# 2 % on chaos and dynamics with `small` (3-7 % with `grid`), and 4 % on
# transport with `grid` (9 % with `small`).
PROBE_KERNELS = {
    "chaos_relu3": "small",
    "transport_relu3": "grid",
    "dynamics_relu3": "small",
}

# Verdicts the program is known to get wrong on these workloads.  They
# still count as failed operations; any other failure marks the run as
# incorrect.
KNOWN_DEFECTS = {
    # The one-sided `E_pi[B] <= rhs + 2 se` test is applied to an identity,
    # so it fails for a fraction of seeds even when the program is right
    # (at seed 0 it fails at N=16).
    "chaos_relu3": {"variance_step"},
    # On the shipped grid the forward image diverges at the right grid
    # edge, so W2(T#gamma, mu) misses its 1e-3 tolerance.
    "transport_relu3": {"pushforward_w2"},
    "dynamics_relu3": set(),
}

TRANSPORT_W2_TOL = 1e-3
TRANSPORT_TILTS = 3
TRANSPORT_PROFILE_TIMES = 40


def raw_config(name: str, seed: int, schema: dict) -> tuple[dict, list[str]]:
    """The pinned config of a workload, less the keys ``schema`` no longer
    accepts, and the list of keys dropped."""
    pinned = copy.deepcopy(WORKLOADS[name])
    pinned["seed"] = seed
    raw: dict = {}
    dropped: list[str] = []
    for key, value in pinned.items():
        if isinstance(value, dict):
            if key not in schema:
                dropped.append(key)
                continue
            raw[key] = {k: v for k, v in value.items() if k in schema[key]}
            dropped += [f"{key}.{k}" for k in value if k not in schema[key]]
        elif key in schema[""]:
            raw[key] = value
        else:
            dropped.append(key)
    return raw, dropped


def expected_counts(name: str, cfg: dict) -> dict[str, int]:
    """Per-layer counts that follow exactly from the resolved config."""
    if name == "chaos_relu3":
        mcmc, ns = cfg["mcmc"], cfg["sweep"]["n_particles"]
        return {
            "sampler.logp_calls": sum(
                2 * (mcmc["n_burnin"] + mcmc["n_samples"] + 1) for _ in ns),
            "measure.sample_from_grid_calls": sum(ns),
        }
    if name == "transport_relu3":
        return {"measure.covariance_opnorm_calls":
                TRANSPORT_TILTS * TRANSPORT_PROFILE_TIMES}
    mfld = cfg["mfld"]
    return {"sampler.mfld_states_kept":
            int(round(mfld["horizon"] / mfld["step"])) + 1}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _missing(out_dir: str, names) -> list[tuple[str, str]]:
    return [("missing_artifact", f"missing {n}") for n in names
            if not os.path.isfile(os.path.join(out_dir, n))]


def _not_finite(values: dict) -> list[tuple[str, str]]:
    bad = []
    for key, value in values.items():
        items = value if isinstance(value, list) else [value]
        if any(not math.isfinite(v) for v in items):
            bad.append(("not_finite", f"{key}={value}"))
    return bad


def operations(name: str, cfg: dict, out_dir: str,
               exit_code: int) -> list[tuple[str, list[tuple[str, str]]]]:
    """Each operation of one run, with its problems as (key, text) pairs.

    An operation with no problems passed.  The key names the failed flag or
    check; the text also gives its value.
    """
    shared = _missing(out_dir, ["manifest.json", "summary.txt"])
    if exit_code not in (0, 1):
        shared.append(("exit_code", f"exit code {exit_code}"))
    if name == "chaos_relu3":
        return _chaos_operations(cfg, out_dir, exit_code, shared)
    if name == "transport_relu3":
        problems = shared + _missing(out_dir, ["flowmap.csv", "metrics.json"])
        if not problems:
            problems = _transport_problems(
                _load_json(os.path.join(out_dir, "metrics.json")))
        if exit_code == 1 and not problems:
            problems.append(("exit_code", "exit code 1"))
        return [("map", problems)]
    problems = shared + _missing(out_dir, ["trajectory.csv",
                                           "diagnostics.json"])
    if exit_code != 0:
        problems.append(("exit_code", f"exit code {exit_code}"))
    if not problems:
        diag = _load_json(os.path.join(out_dir, "diagnostics.json"))
        problems = _not_finite({k: diag[k] for k in ("terminal_mean",
                                                     "terminal_variance")})
    return [("run", problems)]


def _chaos_operations(cfg, out_dir, exit_code, shared):
    shared = shared + _missing(out_dir, ["chaos_sweep.csv"])
    ops = []
    for n in cfg["sweep"]["n_particles"]:
        fname = f"report_N{n:03d}.json"
        problems = shared + _missing(out_dir, [fname])
        if not problems:
            report = _load_json(os.path.join(out_dir, fname))
            problems = [(flag, f"{flag}={str(value).lower()}")
                        for flag, value in sorted(report["flags"].items())
                        if not value]
            problems += _not_finite({k: report[k] for k in (
                "kl_estimate", "kl_halfwidth", "log_z")})
        ops.append((f"N={n}", problems))
    if exit_code == 1 and not any(p for _, p in ops):
        # Only the sweep-wide verdict (no growth in N) can fail this way.
        ops = [(label, [("no_growth_in_n", "no_growth_in_n=false")])
               for label, _ in ops]
    return ops


def _transport_problems(metrics: dict) -> list[tuple[str, str]]:
    problems = _not_finite({k: v for k, v in metrics.items()
                            if isinstance(v, float)})
    w2, lip = metrics["pushforward_w2"], metrics["empirical_lipschitz"]
    if not w2 < TRANSPORT_W2_TOL:
        problems.append(("pushforward_w2", f"pushforward_w2={w2:.3g} "
                         f"(tolerance {TRANSPORT_W2_TOL:g})"))
    if not metrics["monotone"]:
        problems.append(("monotone", "monotone=false"))
    for bound in ("fitted_envelope_bound", "main_bound_generic"):
        if not lip <= metrics[bound]:
            problems.append((bound, f"empirical_lipschitz={lip:.6g} > "
                             f"{bound}={metrics[bound]:.6g}"))
    return problems
