"""Experiment runner: configuration, persistence, and report generation.

Experiments are described by a single YAML file with nested sections; the
schema below validates it before any computation runs and rejects unknown
keys.  Every numeric default carries a rationale string, because none of
these values is prescribed anywhere upstream: they are choices of this
laboratory and stay visible as such.

Exit codes: 0 all invariants passed, 1 ran but an asserted invariant
failed, 2 configuration error, 3 numeric failure (nonconvergence or
divergence guard).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage

import numpy as np
import yaml

from . import __version__, bounds as bounds_mod
from .chaos import McmcConfig, chaos_sweep, no_growth_in_n, sweep_to_csv
from .errors import ConfigError, MflabError
from .heatflow import (
    FLOW_GAMMA_W2_TOL,
    GibbsPotential,
    covariance_profile,
    default_profile_times,
    fitted_lipschitz_bound,
    lipschitz_estimate,
    pushforward_w2,
    regime_threshold,
    reverse_flow_map,
)
from .meanfield import default_axes
from .measure import (
    Axis,
    _write_csv,
    _write_json,
    normalize_from_log_potential,
)
from .model import (
    Activation,
    LogisticLoss,
    ModelSpec,
    SquaredLoss,
    example_nn,
    model_constants,
    quadratic_oracle,
    rescale_model,
    zero_model,
)
from .presets import PRESETS
from .sampler import (
    TargetSpec,
    mfld_simulate,
    n_particle_log_density,
    states_to_csv,
    trajectory_to_csv,  # unused here; perfbench times cli.trajectory_to_csv
)

EXPERIMENTS = ("chaos_sweep", "tilt_profile", "transport_map", "mfld_run",
               "bounds_table")


@dataclass(frozen=True)
class Field:
    type: type
    default: object
    rationale: str


# Nested schema: section -> key -> Field.  `None` defaults mean required
# (or conditionally required per experiment).
SCHEMA: dict[str, dict[str, Field]] = {
    "": {
        "experiment": Field(str, None, "one of " + ", ".join(EXPERIMENTS)),
        "seed": Field(int, 0, "seeds default to 0 and are echoed into the "
                              "manifest"),
        "output": Field(str, None, "output directory (or pass --out)"),
    },
    "model": {
        "preset": Field(str, None, "named preset; alternative to an "
                                   "explicit model block"),
        "kind": Field(str, None, "zero | example_nn | quadratic_oracle; "
                                 "picks a constructor only: zero (no data) "
                                 "and quadratic_oracle (one identity "
                                 "feature, squared loss kappa) encode the "
                                 "example_nn prediction-loss energy"),
        "sigma": Field(float, 1.0, "noise scale; no canonical value exists, "
                                   "1.0 keeps grids order-one"),
        "lam": Field(float, 1.0, "confinement strength; 1.0 keeps the "
                                 "stationary variance at 1/2"),
        "d": Field(int, 1, "parameter dimension; grid oracles are feasible "
                           "for d <= 2"),
        "kappa": Field(float, 0.5, "quadratic-oracle curvature; 0.5 keeps "
                                   "the fixed-point contraction < 1"),
        "c": Field(float, 0.3, "quadratic-oracle target; nonzero exercises "
                               "the mean shift"),
        "clip_radius": Field(float, 10.0, "interval on which the squared "
                                          "loss is exactly quadratic (for "
                                          "quadratic_oracle, on which L_ell "
                                          "is taken); generous so closed "
                                          "forms apply"),
        "activation": Field(str, "relu", "relu | tanh | identity"),
        "loss": Field(dict, None, "loss block: {type: squared, scale, "
                                  "clip_radius} or {type: logistic}"),
        "data": Field(dict, None, "inline dataset block {x, y, weights}"),
        "data_csv": Field(str, None, "CSV with columns x_1..x_d, y; uniform "
                                     "weights"),
    },
    "sweep": {
        "n_particles": Field(list, [2, 4, 8, 16], "particle counts; doubling "
                                                  "sweep reveals any growth "
                                                  "in N"),
    },
    "mcmc": {
        "n_samples": Field(int, 16384, "MALA cross-check effort at the "
                                       "smallest N (>= 1), split over chains"),
        "n_burnin": Field(int, 2048, "step-size adaptation window; frozen "
                                     "afterwards"),
        "step_size0": Field(float, 0.3, "initial MALA step; adapted toward "
                                        "57.4% acceptance during burn-in"),
        "n_pi_samples": Field(int, 32768, "i.i.d. product draws (>= 2); "
                                          "the whole KL by importance sampling"),
        "n_chains": Field(int, 32, "lockstep MALA chains (>= 2) whose 32 "
                                   "means give the CI; 32 chains step at "
                                   "about the cost of a few"),
    },
    "grid": {
        "n_nodes": Field(int, 2048, "1-d grid resolution; trapezoid error "
                                    "is far below the stated tolerances"),
        "span_sd": Field(float, 10.0, "grid half-width in proxy standard "
                                      "deviations; validated post hoc"),
    },
    "profile": {
        "n_times": Field(int, 40, "log-spaced times spanning two decades "
                                  "around the regime threshold"),
        "decades_around": Field(float, 2.0, "half-width of the time window "
                                            "in decades"),
        "tilt_centers": Field(list, [-3.0, 0.0, 3.0], "tilt centers y; "
                                                      "spread checks "
                                                      "y-uniformity"),
        "n_particles": Field(int, 1, "particles in the profiled Gibbs "
                                     "measure; total dimension <= 2"),
    },
    "flow": {
        "t_max": Field(float, 8.0, "OU horizon of the closed-form flow; "
                                   "mu_t must be within 1e-4 of Gaussian "
                                   "in W2, which is checked and recorded"),
    },
    "mfld": {
        "n_particles": Field(int, 64, "particle count of the simulated "
                                      "system"),
        "horizon": Field(float, 10.0, "about 10 relaxation times at unit "
                                      "confinement"),
        "step": Field(float, 1e-3, "Euler-Maruyama step; the dynamics "
                                   "itself is the object, bias is O(step)"),
    },
}

# The model keys build_model reads for each kind (no clip_radius under a
# logistic loss); a preset reads only its name.  Any other key given in the
# model block is rejected; an unknown kind is left to build_model's error.
MODEL_KEYS = {
    "zero": {"kind", "sigma", "lam", "d"},
    "quadratic_oracle": {"kind", "sigma", "lam", "d", "kappa", "c",
                         "clip_radius"},
    "example_nn": {"kind", "sigma", "lam", "clip_radius", "activation",
                   "loss", "data", "data_csv"},
}
LOSS_KEYS = {"squared": {"type", "scale", "clip_radius"}, "logistic": {"type"}}

SECTIONS_BY_EXPERIMENT = {
    "chaos_sweep": ("model", "sweep", "mcmc", "grid"),
    "tilt_profile": ("model", "profile"),
    "transport_map": ("model", "flow", "grid"),
    "mfld_run": ("model", "mfld"),
    "bounds_table": ("model",),
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as err:
        raise ConfigError(f"config parse error: {err}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    resolved: dict = {}
    for key, value in raw.items():
        if key in SCHEMA[""]:
            continue
        if key not in SCHEMA:
            raise ConfigError(f"unknown section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        for sub in value:
            if sub not in SCHEMA[key]:
                raise ConfigError(f"unknown key {key}.{sub}")

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    resolved["experiment"] = experiment
    for key, f in SCHEMA[""].items():
        if key == "experiment":
            continue
        val = raw.get(key, f.default)
        if val is not None and not isinstance(val, f.type) \
                and not (f.type is float and isinstance(val, int)):
            raise ConfigError(f"{key} must be {f.type.__name__}")
        resolved[key] = f.type(val) if val is not None else None

    for section in SECTIONS_BY_EXPERIMENT[experiment]:
        block = raw.get(section, {}) or {}
        out = {}
        for key, f in SCHEMA[section].items():
            val = block.get(key, f.default)
            if val is not None and f.type in (int, float, str, bool, dict) \
                    and not isinstance(val, f.type):
                if f.type is float and isinstance(val, int):
                    val = float(val)
                else:
                    raise ConfigError(
                        f"{section}.{key} must be {f.type.__name__}")
            out[key] = val
        resolved[section] = out
    given = raw.get("model") or {}
    if given.get("preset") is not None:
        allowed = {"preset"}
    elif given.get("kind") is not None:
        allowed = MODEL_KEYS.get(given["kind"], set(given))
        if (given.get("loss") or {}).get("type") == "logistic":
            allowed = allowed - {"clip_radius"}
    else:
        raise ConfigError("model block needs either 'preset' or 'kind'")
    ignored = sorted(set(given) - allowed)
    if ignored:
        raise ConfigError(f"model keys {ignored} are ignored by this model")
    d = build_model(resolved["model"]).d
    if experiment == "chaos_sweep":
        if d != 1:
            raise ConfigError("chaos_sweep draws the product measure by a "
                              "1-d inverse CDF; the model must have d = 1")
        McmcConfig(**resolved["mcmc"])
        if not all(isinstance(n, int) and n >= 1
                   for n in resolved["sweep"]["n_particles"]):
            raise ConfigError("sweep.n_particles entries must be integers "
                              ">= 1")
    if not all(v > 0 for v in resolved.get("mfld", {}).values()):
        raise ConfigError("mfld.n_particles, horizon and step must be > 0")
    if experiment == "tilt_profile" \
            and resolved["profile"]["n_particles"] * d > 2:
        raise ConfigError("profile total dimension n_particles * d must "
                          "be <= 2")
    return resolved


def build_model(block: dict) -> ModelSpec:
    if block.get("preset"):
        name = block["preset"]
        if name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; have {sorted(PRESETS)}")
        return PRESETS[name]()
    kind = block["kind"]
    sigma, lam = block["sigma"], block["lam"]
    if kind == "zero":
        return zero_model(sigma=sigma, lam=lam, d=block["d"])
    if kind == "quadratic_oracle":
        return quadratic_oracle(sigma=sigma, lam=lam, kappa=block["kappa"],
                                c=block["c"], d=block["d"],
                                clip_radius=block["clip_radius"])
    if kind == "example_nn":
        loss_block = block.get("loss") or {"type": "squared"}
        loss_type = loss_block.get("type")
        if loss_type not in LOSS_KEYS:
            raise ConfigError(f"unknown loss type {loss_type!r}")
        ignored = sorted(set(loss_block) - LOSS_KEYS[loss_type])
        if ignored:
            raise ConfigError(f"loss keys {ignored} are ignored by this loss")
        loss = LogisticLoss() if loss_type == "logistic" else SquaredLoss(
            scale=loss_block.get("scale", 1.0),
            clip_radius=loss_block.get("clip_radius", block["clip_radius"]))
        if block.get("data") is not None and block.get("data_csv") is not None:
            raise ConfigError("give 'data' or 'data_csv', not both")
        if block.get("data_csv"):
            try:
                raw = np.loadtxt(block["data_csv"], delimiter=",",
                                 skiprows=1, ndmin=2)
            except (OSError, ValueError) as err:
                raise ConfigError(f"cannot read data_csv "
                                  f"{block['data_csv']!r}: {err}") from err
            x, y = raw[:, :-1], raw[:, -1]
            weights = None
        elif block.get("data"):
            data = block["data"]
            x = np.asarray(data["x"], dtype=float)
            y = np.asarray(data["y"], dtype=float)
            weights = (np.asarray(data["weights"], dtype=float)
                       if "weights" in data else None)
        else:
            raise ConfigError("example_nn needs 'data' or 'data_csv'")
        return example_nn(sigma=sigma, lam=lam, data_x=x, data_y=y,
                          weights=weights, loss=loss,
                          activation=Activation(block["activation"]))
    raise ConfigError(f"unknown model kind {kind!r}")


# -- experiment bodies --------------------------------------------------------


def _run_chaos_sweep(cfg: dict, out_dir: str) -> bool:
    model = build_model(cfg["model"])
    mcmc = McmcConfig(**cfg["mcmc"])
    seed = cfg["seed"]
    gb = cfg["grid"]
    axes = default_axes(model, None, gb["n_nodes"], gb["span_sd"])
    reports = chaos_sweep(model, cfg["sweep"]["n_particles"], mcmc=mcmc,
                          seed=seed, axes=axes)

    name = cfg["model"].get("preset") or cfg["model"]["kind"]
    sweep_to_csv(reports, os.path.join(out_dir, "chaos_sweep.csv"), name)
    for r in reports:
        r.to_json(os.path.join(out_dir, f"report_N{r.n_particles:03d}.json"))

    growth_ok = no_growth_in_n(reports)
    all_ok = growth_ok and all(all(r.flags.values()) for r in reports)
    lines = [f"chaos sweep: model={name} seeds from {seed}",
             "N    KL          CI-halfwidth  bound(poc)   bound(poc-ii)  pass"]
    for r in reports:
        ok = all(r.flags.values())
        lines.append(
            f"{r.n_particles:<4d} {r.kl_estimate:<11.4g} "
            f"{r.kl_halfwidth:<13.4g} {r.bound_poc:<12.4g} "
            f"{r.bound_poc_ii:<14.4g} {'yes' if ok else 'NO'}")
    lines.append(f"no CI-significant growth in N: {'yes' if growth_ok else 'NO'}")
    for r in (r for r in reports if r.sampler):
        lines.append(
            f"MALA cross-check at N={r.n_particles}: E_mu[B] "
            f"{r.mala_bregman_mean:.4g} +- {r.mala_bregman_halfwidth:.2g} vs "
            f"IS {r.bregman_mean_under_mu:.4g} +- {r.bregman_mu_halfwidth:.2g}"
            f": {'yes' if r.flags['mala_agrees'] else 'NO'}")
        lines += [f"warning: N={r.n_particles}: {w}" for w in r.sampler.warnings]
    _write_summary(out_dir, lines)
    return all_ok


def _run_tilt_profile(cfg: dict, out_dir: str) -> bool:
    model = rescale_model(build_model(cfg["model"]))
    pb = cfg["profile"]
    n_particles = pb["n_particles"]
    inputs = dataclasses.replace(model_constants(model), d_prox=1,
                                 N=n_particles)
    pot = GibbsPotential(TargetSpec(model, n_particles))
    ts = default_profile_times(inputs, n=pb["n_times"],
                               decades_around=pb["decades_around"])
    dim = n_particles * model.d
    ys = [np.full(dim, float(c)) for c in pb["tilt_centers"]]
    prof = covariance_profile(pot, ts, ys, inputs)
    prof.to_csv(os.path.join(out_dir, "profile.csv"))
    for label in prof.y_labels():
        safe = label.replace("=", "_").replace("/", "_").replace("-", "m")
        prof.plot_data(os.path.join(out_dir, f"plot_data_{safe}.csv"),
                       y_label=label)

    t_star = regime_threshold(inputs)
    envelopes_ok = all(
        r.opnorm <= (r.small_regime_ref if r.regime == "small"
                     else r.large_regime_ref)
        for r in prof.rows)
    ratios = [prof.fitted_profile_ratio(y) for y in prof.y_labels()]
    mid = 0.5 * (max(ratios) + min(ratios))
    stable = (max(ratios) - min(ratios)) <= 0.4 * mid
    lines = [
        f"tilt profile: regime threshold t* = {t_star!r}",
        f"times: {pb['n_times']} log-spaced over "
        f"{pb['decades_around']} decades around t*",
        f"envelopes hold with unit constants: {'yes' if envelopes_ok else 'NO'}",
        "fitted profile ratios per tilt center: "
        + ", ".join(f"{y}: {r:.4f}" for y, r in zip(prof.y_labels(), ratios)),
        f"ratio stability within +-20%: {'yes' if stable else 'NO'}",
        "fitted small-regime envelope constants: "
        + ", ".join(f"{y}: {prof.fitted_small_constant(y):.4f}"
                    for y in prof.y_labels()),
    ]
    _write_summary(out_dir, lines)
    return envelopes_ok and stable


def _run_transport_map(cfg: dict, out_dir: str) -> bool:
    model = rescale_model(build_model(cfg["model"]))
    gb, fb = cfg["grid"], cfg["flow"]
    target = TargetSpec(model, 1)
    sd0 = model.sigma / math.sqrt(2.0 * model.lam)
    half = max(gb["span_sd"] * sd0, 8.5)
    ax = Axis(-half, half, gb["n_nodes"])
    log_u = n_particle_log_density(target, ax.nodes()[:, None, None])
    mu = normalize_from_log_potential(log_u, (ax,))
    flow = reverse_flow_map(mu, t_max=fb["t_max"])

    from .heatflow import flow_map_to_csv

    flow_map_to_csv(flow, os.path.join(out_dir, "flowmap.csv"))
    lip = lipschitz_estimate(flow)
    w2 = pushforward_w2(flow, mu)
    inputs = dataclasses.replace(model_constants(model), d_prox=1)
    ts = default_profile_times(inputs, n=40)
    ys = [np.zeros(1), np.full(1, 3.0), np.full(1, -3.0)]
    prof = covariance_profile(GibbsPotential(target), ts, ys, inputs)
    fitted_bound, c_fit, k_fit = fitted_lipschitz_bound(
        prof.ts(), prof.opnorms(), prof.a)
    orig_consts = model_constants(build_model(cfg["model"]))
    bound_gen = bounds_mod.main_bound(orig_consts, "generic")
    bound_spec = bounds_mod.main_bound(orig_consts, "specific",
                                       include_cross_term=False)
    metrics = {
        "empirical_lipschitz": lip,
        "gamma_w2": flow.gamma_w2,
        "pushforward_w2": w2,
        "fitted_envelope_bound": fitted_bound,
        "fitted_envelope_C": c_fit,
        "fitted_envelope_k": k_fit,
        "main_bound_generic": bound_gen,
        "main_bound_specific": bound_spec,
        "monotone": bool(np.all(np.diff(flow.mapped) > 0)),
        "implied_constants": 1.0,
    }
    _write_json(os.path.join(out_dir, "metrics.json"), metrics)
    ok = (w2 < 1e-3 and metrics["monotone"] and lip <= fitted_bound
          and lip <= bound_gen)
    lines = [
        f"transport map: empirical L = {lip:.6f}",
        f"W2(T#gamma, mu) = {w2:.3g} (tolerance 1e-3)",
        f"W2(mu_t, gamma) at t_max = {fb['t_max']:g}: {flow.gamma_w2:.3g} "
        f"(tolerance {FLOW_GAMMA_W2_TOL:g})",
        f"fitted envelope bound = {fitted_bound:.6f} "
        f"(C = {c_fit:.4f}, k = {k_fit})",
        f"closed-form bound (generic, unit constants) = {bound_gen:.4g}",
        f"closed-form bound (refined, unit constants) = {bound_spec:.4g}",
        f"monotone: {'yes' if metrics['monotone'] else 'NO'}",
        f"all checks: {'yes' if ok else 'NO'}",
    ]
    _write_summary(out_dir, lines)
    return ok


def _run_mfld(cfg: dict, out_dir: str) -> bool:
    model = build_model(cfg["model"])
    mb = cfg["mfld"]
    n, d = mb["n_particles"], model.d
    n_steps = int(round(mb["horizon"] / mb["step"]))
    stride = max(1, (n_steps + 1) // 512)
    steps = np.arange(0, n_steps + 1, stride)
    path = os.path.join(out_dir, "trajectory.csv")
    # A thread would hold the GIL, so a forked child formats the states as
    # they arrive; it renames its file only after len(steps) states and EOF,
    # calls no BLAS (fork copies no BLAS threads) and leaves by os._exit.
    read_fd, write_fd = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(write_fd)  # else end-of-file never comes
            with open(read_fd, "rb") as pipe:
                chunks = iter(lambda: pipe.read(8 * n * d), b"")
                states_to_csv((np.frombuffer(c).reshape(n, d)
                               for c in chunks), steps, path + ".part", n, d)
            os.replace(path + ".part", path)
            os._exit(0)
        except OSError as err:
            os.write(2, f"trajectory writer: {err}\n".encode())
        finally:
            if os.path.isfile(path + ".part"):
                os.remove(path + ".part")
            os._exit(1)
    os.close(read_fd)
    try:
        with open(write_fd, "wb") as pipe:  # buffered: loops on short writes
            traj = mfld_simulate(model, n, mb["horizon"], mb["step"],
                                 seed=cfg["seed"], record_every=stride,
                                 on_record=pipe.write)
    except BrokenPipeError:
        pass  # the writer has exited; its status is reported below
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        raise MflabError(f"trajectory writer exited with status "
                         f"{os.waitstatus_to_exitcode(status)}")
    terminal = traj[-1]
    _write_json(os.path.join(out_dir, "diagnostics.json"), {
        "n_particles": mb["n_particles"],
        "horizon": mb["horizon"],
        "step": mb["step"],
        "terminal_mean": terminal.mean(axis=0).tolist(),
        "terminal_variance": terminal.var(axis=0).tolist(),
        "store_stride": stride,
    })
    _write_summary(out_dir, [
        f"dynamics run: N = {mb['n_particles']}, horizon = {mb['horizon']}, "
        f"step = {mb['step']}",
        f"terminal mean = {terminal.mean(axis=0)}",
        f"terminal variance = {terminal.var(axis=0)}",
    ])
    return True


def _run_bounds_table(cfg: dict, out_dir: str) -> bool:
    model = build_model(cfg["model"])
    inputs = model_constants(model)
    rescaled = bounds_mod.rescale_parameters(inputs)
    alpha = bounds_mod.tilted_alpha(inputs)
    rows = {
        "main_bound_generic": bounds_mod.main_bound(inputs, "generic"),
        "main_bound_specific": bounds_mod.main_bound(
            inputs, "specific", include_cross_term=False),
        "main_bound_specific_with_cross": bounds_mod.main_bound(
            inputs, "specific", include_cross_term=True),
        "lsi_pi_bound": bounds_mod.lsi_pi_bound(inputs),
        "lsi_pert_at_alpha": bounds_mod.lsi_pert_bound(
            alpha, 2.0 * inputs.B / inputs.sigma**2),
        "winf_at_alpha": bounds_mod.winf_bound(
            alpha, 2.0 * inputs.B / inputs.sigma**2),
        "rescaled_beta_hat": rescaled.beta_hat,
        "rescaled_B": rescaled.B,
        "rescaled_lam": rescaled.lam,
        "implied_constants": 1.0,
    }
    _write_json(os.path.join(out_dir, "bounds.json"), rows)
    _write_csv(os.path.join(out_dir, "bounds.csv"), "quantity,value",
               [list(rows), list(rows.values())])
    _write_summary(out_dir, ["bounds table written"] +
                   [f"  {k} = {v!r}" for k, v in rows.items()])
    return True


RUNNERS = {
    "chaos_sweep": _run_chaos_sweep,
    "tilt_profile": _run_tilt_profile,
    "transport_map": _run_transport_map,
    "mfld_run": _run_mfld,
    "bounds_table": _run_bounds_table,
}


def _write_summary(out_dir: str, lines: list[str]):
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(cfg: dict, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    ok = RUNNERS[cfg["experiment"]](cfg, out_dir)
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "experiment": cfg["experiment"],
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest(),
        "config": cfg,
        "seed": cfg["seed"],
        "versions": {
            "mflab": __version__,
            "numpy": np.__version__,
        },
        "implied_constants_note": "asymptotic estimates use implied "
                                  "constant 1.0",
        "thread_env": {key: os.environ.get(key) for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "wall_time_s": time.time() - started,
        "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024,
        "peak_rss_children_mb": getrusage(RUSAGE_CHILDREN).ru_maxrss / 1024,
        "invariants_passed": bool(ok),
    }, default=str)
    return 0 if ok else 1


def report(result_dir: str, stream=None) -> int:
    stream = stream or sys.stdout
    manifest_path = os.path.join(result_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        print(f"no manifest.json in {result_dir}", file=sys.stderr)
        return 2
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    print(f"experiment: {manifest['experiment']}", file=stream)
    print(f"seed: {manifest['seed']}  mflab {manifest['versions']['mflab']}",
          file=stream)
    print(f"invariants passed: {manifest['invariants_passed']}", file=stream)
    for key in ("wall_time_s", "peak_rss_mb", "peak_rss_children_mb"):
        if key in manifest:
            print(f"{key}: {manifest[key]:.4g}", file=stream)
    summary = os.path.join(result_dir, "summary.txt")
    if os.path.exists(summary):
        with open(summary) as fh:
            print(fh.read(), file=stream, end="")
    return 0 if manifest["invariants_passed"] else 1


# -- bounds subcommand ---------------------------------------------------------


def _bounds_command(args) -> int:
    calc = args.calculator
    try:
        if calc == "heatflow-lipschitz":
            terms = []
            for spec in args.term or []:
                c, k = spec.split(":")
                terms.append((float(c), float(k)))
            value = bounds_mod.heatflow_lipschitz_bound(args.a, terms)
            payload = {"calculator": calc, "a": args.a, "terms": terms,
                       "value": value}
        elif calc in ("main-generic", "main-specific"):
            inputs = bounds_mod.BoundInputs(
                sigma=args.sigma, lam=args.lam, beta_hat=args.beta_hat,
                B=args.B, L_h=args.L_h, L_ell=args.L_ell,
                beta_ell=args.beta_ell, d=args.d)
            variant = "generic" if calc == "main-generic" else "specific"
            value = bounds_mod.main_bound(
                inputs, variant, include_cross_term=args.cross_term)
            payload = {"calculator": calc, "value": value,
                       "implied_constants": 1.0}
        elif calc == "lsi-pert":
            value = bounds_mod.lsi_pert_bound(args.alpha, args.lipschitz)
            payload = {"calculator": calc, "alpha": args.alpha,
                       "L": args.lipschitz, "value": value}
        elif calc == "lsi-pi":
            inputs = bounds_mod.BoundInputs(sigma=args.sigma, lam=args.lam,
                                            beta_hat=0.0, B=args.B)
            value = bounds_mod.lsi_pi_bound(inputs)
            payload = {"calculator": calc, "value": value}
        elif calc == "songbo":
            value = bounds_mod.songbo_bound(args.kappa, args.d, args.epsilon,
                                            args.rho, args.n_particles)
            payload = {"calculator": calc, "value": value}
        elif calc == "winf":
            value = bounds_mod.winf_bound(args.alpha, args.lipschitz)
            payload = {"calculator": calc, "value": value}
        elif calc == "rescale":
            inputs = bounds_mod.BoundInputs(
                sigma=args.sigma, lam=args.lam, beta_hat=args.beta_hat,
                B=args.B, L_h=args.L_h, L_ell=args.L_ell,
                beta_ell=args.beta_ell, d=args.d)
            out = bounds_mod.rescale_parameters(inputs)
            payload = {"calculator": calc,
                       "value": dataclasses.asdict(out)}
        else:
            print(f"unknown calculator {calc!r}", file=sys.stderr)
            return 2
    except MflabError as err:
        print(json.dumps({"calculator": calc, "error": str(err)}))
        return 3
    print(json.dumps(payload, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflab",
        description="desk-scale laboratory for interacting-particle "
                    "Langevin measures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="YAML config path")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_rep = sub.add_parser("report", help="render a completed run directory")
    p_rep.add_argument("result_dir")

    p_b = sub.add_parser("bounds", help="evaluate a closed-form calculator")
    p_b.add_argument("calculator", choices=[
        "heatflow-lipschitz", "main-generic", "main-specific", "lsi-pert",
        "lsi-pi", "songbo", "winf", "rescale"])
    p_b.add_argument("--a", type=float, default=1.0)
    p_b.add_argument("--term", action="append", metavar="C:K",
                     help="envelope term, repeatable")
    p_b.add_argument("--sigma", type=float, default=1.0)
    p_b.add_argument("--lam", type=float, default=1.0)
    p_b.add_argument("--beta-hat", dest="beta_hat", type=float, default=0.0)
    p_b.add_argument("--B", type=float, default=0.0)
    p_b.add_argument("--L-h", dest="L_h", type=float, default=0.0)
    p_b.add_argument("--L-ell", dest="L_ell", type=float, default=0.0)
    p_b.add_argument("--beta-ell", dest="beta_ell", type=float, default=0.0)
    p_b.add_argument("--d", type=int, default=1)
    p_b.add_argument("--alpha", type=float, default=1.0)
    p_b.add_argument("--lipschitz", type=float, default=0.0)
    p_b.add_argument("--kappa", type=float, default=0.0)
    p_b.add_argument("--epsilon", type=float, default=0.5)
    p_b.add_argument("--rho", type=float, default=1.0)
    p_b.add_argument("--n-particles", dest="n_particles", type=int, default=2)
    p_b.add_argument("--cross-term", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bounds":
        return _bounds_command(args)
    if args.command == "report":
        return report(args.result_dir)
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = args.out or cfg.get("output")
    if not out_dir:
        print("config error: no output directory (set 'output' or --out)",
              file=sys.stderr)
        return 2
    try:
        return run_experiment(cfg, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MflabError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
