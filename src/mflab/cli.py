"""Experiment runner (`mflab run` / `mflab report`): configuration,
persistence, and report generation.

Experiments are described by a single YAML file with nested sections; the
schema below validates it before any computation runs and rejects unknown
keys and out-of-range values.  Every numeric default carries a rationale
string, because none of these values is prescribed anywhere upstream: they
are choices of this laboratory and stay visible as such.

Every verdict is a :class:`~mflab.checks.Check`.  A run's `summary.txt`
ends with one line per check (value, limit, slack and, for a statistical
check, its margin in standard errors) and `all checks: yes/NO`.

Exit codes: 0 every check passed, 1 ran but a check failed, 2
configuration error (an unknown key, or a value that its `Field` or a
cross-field rule refuses, before anything runs), 3 numeric failure
(nonconvergence, divergence guard, a grid too coarse for the transport
map, a chaos grid that does not cover or does not resolve the solved law,
or a tilt the profile grid cannot hold).
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

from . import __version__, bounds as bounds_mod
from .checks import Check
from .chaos import McmcConfig, chaos_sweep, no_growth_in_n, sweep_to_csv
from .errors import ConfigError, MflabError
from .forking import forked
from .heatflow import (
    covariance_profile,
    default_profile_times,
    lipschitz_estimate,
    pushforward_w2,
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
)

EXPERIMENTS = ("chaos_sweep", "tilt_profile", "transport_map", "mfld_run",
               "bounds_table")
# Slack of two checks that the zero model meets with equality, sized from its
# measured excess: its grid covariance reads up to 2.0e-15 relative above the
# envelope at N = 1 and 7.6e-15 at N = 2 (rounding; four zero models, eight
# centres in [-7.5, 7.5], 8-128 times over 1-3 decades), and the
# finite-difference slope of its map c h^2 relative above the fitted bound,
# c = 1.3e-5-0.0031 at node spacings h of 0.008-0.13 (8.7e-10 on the default
# grid) and 0.010 at 0.236, the coarsest grid its map is built on.
ENVELOPE_REL_SLACK = 2e-14
LIPSCHITZ_SLACK_PER_H2 = 0.02


@dataclass(frozen=True)
class Field:
    """One config value and the bound `above` it must exceed.  A float
    must be finite, a list nonempty, with each entry checked like its
    default's entries; only a field whose default is None takes None."""

    type: type
    default: object
    rationale: str
    above: float | None = None

    def check(self, name: str, val):
        """val, an int promoted for a float field, or a ConfigError."""
        if val is None and self.default is None:
            return val
        if self.type is float and type(val) is int:  # past float64: inf
            val = float(val) if abs(val) <= sys.float_info.max else math.inf
        # YAML's true is an int to isinstance; no field takes a bool.
        if isinstance(val, bool) or not isinstance(val, self.type):
            raise ConfigError(f"{name} must be {self.type.__name__}")
        if self.type is list:
            if not val:
                raise ConfigError(f"{name} must not be empty")
            entry = Field(type(self.default[0]), self.default[0], "",
                          self.above)
            for v in val:  # checked; the list is kept as given
                entry.check(f"{name} entries", v)
        elif self.type is float and not math.isfinite(val):
            raise ConfigError(f"{name} must be finite")
        elif self.above is not None and not val > self.above:
            raise ConfigError(f"{name} must be > {self.above:g}")
        return val


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
        "n_particles": Field(list, [2**k for k in range(1, 11)],
                             "particle counts 2, 4, ..., 1024; a doubling "
                             "sweep reveals any growth in N", 0),
    },
    "mcmc": {
        "n_samples": Field(int, McmcConfig.n_samples, "MALA cross-check "
                           "effort at the smallest N, split over chains", 0),
        "n_burnin": Field(int, McmcConfig.n_burnin, "step-size adaptation "
                          "window, frozen afterwards; 0 adapts nothing", -1),
        "step_size0": Field(float, McmcConfig.step_size0, "initial MALA "
                            "step; adapted toward 57.4% acceptance", 0),
        "n_pi_samples": Field(int, McmcConfig.n_pi_samples, "i.i.d. product "
                              "draws, the whole KL by importance sampling; "
                              "a half-width needs two", 1),
        "n_chains": Field(int, McmcConfig.n_chains, "lockstep MALA chains; "
                          "the CI needs two means, and 32 step at about "
                          "the cost of a few", 1),
    },
    "grid": {
        "n_nodes": Field(int, 2048, "1-d grid resolution; trapezoid error "
                                    "is far below the stated tolerances", 1),
        "span_sd": Field(float, 10.0, "grid half-width in proxy standard "
                                      "deviations; a chaos sweep checks "
                                      "8-sd coverage after the solve", 0),
    },
    "profile": {
        "n_times": Field(int, 40, "log-spaced times spanning two decades "
                                  "around the regime threshold", 0),
        "decades_around": Field(float, 2.0, "half-width of the time window "
                                            "in decades", 0),
        "tilt_centers": Field(list, [-3.0, 0.0, 3.0], "tilt centers y; "
                                                      "spread checks "
                                                      "y-uniformity"),
        "n_particles": Field(int, 1, "particles in the profiled Gibbs "
                                     "measure; total dimension <= 2", 0),
    },
    "mfld": {
        "n_particles": Field(int, 64, "particle count of the simulated "
                                      "system", 0),
        "horizon": Field(float, 10.0, "about 10 relaxation times at unit "
                                      "confinement", 0),
        "step": Field(float, 1e-3, "Euler-Maruyama step; the dynamics "
                                   "is the object, bias is O(step)", 0),
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
# The model.loss keys but `type`, per type, and the model.data keys.
LOSS_FIELDS = {"logistic": {}, "squared": {
    "scale": Field(float, SquaredLoss.scale, "curvature of the squared loss"),
    "clip_radius": SCHEMA["model"]["clip_radius"]}}
DATA_FIELDS = {"x": Field(list, [[0.0]], "rows of d inputs; required"),
               "y": Field(list, [0.0], "one target per row; required"),
               "weights": Field(list, [1.0], "one per row; uniform if absent")}

SECTIONS_BY_EXPERIMENT = {
    "chaos_sweep": ("model", "sweep", "mcmc", "grid"),
    "tilt_profile": ("model", "profile"),
    "transport_map": ("model", "profile", "grid"),
    "mfld_run": ("model", "mfld"),
    "bounds_table": ("model",),
}


def load_config(path) -> dict:
    import yaml  # only config files need it
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
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    for key, value in raw.items():
        if key in SCHEMA[""]:
            continue
        if key not in SCHEMA:
            raise ConfigError(f"unknown section {key!r}")
        if key not in SECTIONS_BY_EXPERIMENT[experiment]:
            raise ConfigError(f"{experiment} does not read section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        for sub in value:
            if sub not in SCHEMA[key]:
                raise ConfigError(f"unknown key {key}.{sub}")

    resolved = {"experiment": experiment}
    for section in ("",) + SECTIONS_BY_EXPERIMENT[experiment]:
        block = (raw.get(section) or {}) if section else raw
        out = resolved.setdefault(section, {}) if section else resolved
        for key, f in SCHEMA[section].items():
            out[key] = f.check(f"{section}.{key}" if section else key,
                               block.get(key, f.default))
    given = raw.get("model") or {}
    if given.get("preset") is not None:
        allowed = {"preset"}
    elif given.get("kind") is not None:
        allowed = MODEL_KEYS.get(given["kind"], set(given))
        loss = given.get("loss") or {}
        if loss.get("type") == "logistic":  # a loss without a clip radius
            allowed = allowed - {"clip_radius"}
            del resolved["model"]["clip_radius"]
        elif "clip_radius" in given and "clip_radius" in loss:
            raise ConfigError("give 'clip_radius' or 'loss.clip_radius', "
                              "not both")
        elif "clip_radius" in loss:  # typed by build_model below
            resolved["model"]["clip_radius"] = loss["clip_radius"]
    else:
        raise ConfigError("model block needs either 'preset' or 'kind'")
    _check_block("model", given, {k: SCHEMA["model"][k] for k in allowed})
    d = build_model(resolved["model"]).d
    if experiment == "chaos_sweep":
        if d != 1:
            raise ConfigError("chaos_sweep works on a 1-d grid of one "
                              "particle's law; the model must have d = 1")
        ns = resolved["sweep"]["n_particles"]
        if len(set(ns)) != len(ns):
            raise ConfigError("sweep.n_particles entries must be distinct")
    if experiment == "mfld_run":
        n_steps = resolved["mfld"]["horizon"] / resolved["mfld"]["step"]
        if not (math.isfinite(n_steps) and round(n_steps) >= 1):
            raise ConfigError("mfld.step must leave round(mfld.horizon / "
                              "mfld.step) finite and >= 1 steps to run")
    if "profile" in resolved:
        pb = resolved["profile"]
        if experiment == "transport_map" and pb["n_particles"] * d != 1:
            raise ConfigError("transport_map maps one particle in d = 1: "
                              "profile.n_particles must be 1, and d 1")
        if pb["n_particles"] * d > 2:
            raise ConfigError("profile total dimension n_particles * d must "
                              "be <= 2")
        with np.errstate(over="ignore"):  # 10**400 is inf, not an error
            span = np.float64(10.0) ** pb["decades_around"]
        if not np.isfinite(span):
            raise ConfigError("profile.decades_around must leave "
                              "10**decades_around finite")
    return resolved


def _check_block(name: str, block: dict, fields: dict[str, Field]):
    """Checks each value of a model block by its Field, keeping the block as
    given; a key with no Field is one the model ignores, a config error."""
    ignored = sorted(set(block) - set(fields))
    if ignored:
        raise ConfigError(f"{name} keys {ignored} are ignored by this model")
    for key, val in block.items():
        fields[key].check(f"{name}.{key}", val)


def build_model(block: dict) -> ModelSpec:
    """The model of a resolved model block; a value that the model
    constructors refuse is a config error."""
    try:
        return _construct_model(block)
    except KeyError as err:
        raise ConfigError(f"model.data needs key {err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid model: {err}") from err


def _construct_model(block: dict) -> ModelSpec:
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
        loss_block = dict(block.get("loss") or {"type": "squared"})
        loss_type = loss_block.pop("type", None)
        if loss_type not in LOSS_FIELDS:
            raise ConfigError(f"unknown loss type {loss_type!r}")
        _check_block("model.loss", loss_block, LOSS_FIELDS[loss_type])
        loss = LogisticLoss() if loss_type == "logistic" else SquaredLoss(
            **{"clip_radius": block["clip_radius"], **loss_block})
        if block.get("data") is not None and block.get("data_csv") is not None:
            raise ConfigError("give 'data' or 'data_csv', not both")
        if block.get("data_csv"):
            try:
                raw = np.loadtxt(block["data_csv"], delimiter=",",
                                 skiprows=1, ndmin=2)
            except (OSError, ValueError) as err:
                raise ConfigError(f"cannot read data_csv "
                                  f"{block['data_csv']!r}: {err}") from err
            x, y, weights = raw[:, :-1], raw[:, -1], None
        elif block.get("data"):
            data = block["data"]
            _check_block("model.data", data, DATA_FIELDS)
            x, y, weights = data["x"], data["y"], data.get("weights")
        else:
            raise ConfigError("example_nn needs 'data' or 'data_csv'")
        return example_nn(sigma=sigma, lam=lam, data_x=x, data_y=y,
                          weights=weights, loss=loss,
                          activation=Activation(block["activation"]))
    raise ConfigError(f"unknown model kind {kind!r}")


# -- experiment bodies --------------------------------------------------------


def _run_chaos_sweep(cfg: dict, out_dir: str):
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

    lines = [f"chaos sweep: model={name} seeds from {seed}",
             "N    KL          CI-halfwidth  bound(poc)   bound(poc-ii)"]
    lines += [f"{r.n_particles:<4d} {r.kl_estimate:<11.4g} "
              f"{r.kl_halfwidth:<13.4g} {r.bound_poc:<12.4g} "
              f"{r.bound_poc_ii:.4g}" for r in reports]
    for r in (r for r in reports if r.sampler):
        lines.append(
            f"MALA cross-check at N={r.n_particles}: E_mu[B] "
            f"{r.mala_bregman_mean:.4g} +- {r.mala_bregman_halfwidth:.2g} vs "
            f"IS {r.bregman_mean_under_mu:.4g} +- {r.bregman_mu_halfwidth:.2g}")
        lines += [f"warning: N={r.n_particles}: {w}" for w in r.sampler.warnings]
    checks = [dataclasses.replace(c, name=f"N={r.n_particles} {c.name}")
              for r in reports for c in r.checks]
    return lines, checks + [c for c in [no_growth_in_n(reports)] if c]


def _tilt_profile(cfg: dict, out_dir: str):
    """A whole `tilt_profile` run, which returns its profile first."""
    model = rescale_model(build_model(cfg["model"]))
    pb = cfg["profile"]
    inputs = model_constants(model)
    ts = default_profile_times(inputs, pb["n_times"], pb["decades_around"])
    ys = [np.full(pb["n_particles"] * model.d, float(c))
          for c in pb["tilt_centers"]]
    prof = covariance_profile(TargetSpec(model, pb["n_particles"]), ts, ys,
                              inputs)
    prof.to_csv(os.path.join(out_dir, "profile.csv"))

    ref = prof.reference()
    y_worst, t_worst = np.unravel_index(np.argmin(ref - prof.opnorm),
                                        prof.opnorm.shape)
    ratios = prof.fitted_profile_ratios().tolist()
    mid = 0.5 * (max(ratios) + min(ratios))
    lines = [
        f"tilt profile: regime threshold t* = {prof.t_star!r}",
        f"times: {pb['n_times']} log-spaced over "
        f"{pb['decades_around']} decades around t*",
        "fitted profile ratios per tilt center: "
        + ", ".join(f"{y}: {r:.4f}" for y, r in zip(prof.y_labels, ratios)),
        "fitted small-regime envelope constants: "
        + ", ".join(f"{y}: {c:.4f}" for y, c in
                    zip(prof.y_labels, prof.fitted_small_constants())),
    ]
    limit = float(ref[t_worst])  # the worst entry's unit-constant envelope
    return prof, lines, [
        Check("envelopes_hold", float(prof.opnorm[y_worst, t_worst]), limit,
              slack=ENVELOPE_REL_SLACK * limit),
        Check("ratio_stability_20pct", max(ratios) - min(ratios), 0.4 * mid)]


def _run_transport_map(cfg: dict, out_dir: str):
    """A `tilt_profile` run, then the map of its one-particle target."""
    prof, lines, checks = _tilt_profile(cfg, out_dir)
    target, consts = prof.target, prof.inputs  # in the map's coordinates
    gb = cfg["grid"]
    half = max(gb["span_sd"] * bounds_mod.gaussian_proxy(consts)[1], 8.5)
    ax = Axis(-half, half, gb["n_nodes"])
    log_u = n_particle_log_density(target, ax.nodes()[:, None, None])
    mu = normalize_from_log_potential(log_u, (ax,))
    flow = reverse_flow_map(mu)
    _write_csv(os.path.join(out_dir, "flowmap.csv"), "source,mapped",
               [flow.source, flow.mapped])
    lip = lipschitz_estimate(flow)
    w2 = pushforward_w2(flow, mu)
    fitted_bound, c_fit, k_fit = prof.fitted_lipschitz_bound()
    bound_gen = bounds_mod.main_bound(consts, "generic")
    bound_spec = bounds_mod.main_bound(consts, "specific",
                                       include_cross_term=False)
    map_checks = [
        Check("pushforward_w2", w2, 1e-3),
        Check("monotone", float(np.count_nonzero(~(np.diff(flow.mapped) > 0))),
              0.0),  # the count of steps along which T does not increase
        Check("lipschitz_below_fitted_envelope", lip, fitted_bound,
              slack=LIPSCHITZ_SLACK_PER_H2 * ax.spacing**2 * fitted_bound),
        Check("lipschitz_below_main_bound_generic", lip, bound_gen),
    ]
    _write_json(os.path.join(out_dir, "metrics.json"), {
        "empirical_lipschitz": lip,
        "pushforward_w2": w2,
        "fitted_envelope_bound": fitted_bound,
        "fitted_envelope_C": c_fit,
        "fitted_envelope_k": k_fit,
        "main_bound_generic": bound_gen,
        "main_bound_specific": bound_spec,
        "monotone": map_checks[1].passed,
        "implied_constants": 1.0,
    })
    return lines + [
        f"transport map: empirical L = {lip:.6f}",
        f"fitted envelope bound = {fitted_bound:.6f} "
        f"(C = {c_fit:.4f}, k = {k_fit})",
        f"closed-form bound (refined, unit constants) = {bound_spec:.4g}",
    ], checks + map_checks


def _write_trajectory(read_fd, write_fd, path, steps, n: int, d: int):
    """_run_mfld's forked writer: formats the raw float64 (n, d) states from
    read_fd as they arrive; renames its file after len(steps) states only."""
    os.close(write_fd)  # else end-of-file never comes
    try:
        with open(read_fd, "rb") as pipe:
            chunks = iter(lambda: pipe.read(8 * n * d), b"")
            states_to_csv((np.frombuffer(c).reshape(n, d) for c in chunks),
                          steps, path + ".part", n, d)
        os.replace(path + ".part", path)
    finally:
        if os.path.isfile(path + ".part"):
            os.remove(path + ".part")


def _run_mfld(cfg: dict, out_dir: str):
    model = build_model(cfg["model"])
    mb = cfg["mfld"]
    n, d = mb["n_particles"], model.d
    n_steps = int(round(mb["horizon"] / mb["step"]))
    stride = max(1, (n_steps + 1) // 512)
    steps = np.arange(0, n_steps + 1, stride)
    path = os.path.join(out_dir, "trajectory.csv")
    read_fd, write_fd = os.pipe()
    with forked(_write_trajectory, read_fd, write_fd, path, steps, n, d) \
            as writer:
        os.close(read_fd)  # else a dead writer blocks the parent's writes
        try:
            with open(write_fd, "wb") as pipe:  # buffered: no short writes
                traj = mfld_simulate(model, n, mb["horizon"], mb["step"],
                                     seed=cfg["seed"], record_every=stride,
                                     on_record=pipe.write)
        except BrokenPipeError:
            pass  # the writer has exited; writer() says why
        try:
            writer()
        except OSError as err:  # relayed: the writer exited with status 1
            raise MflabError(f"trajectory writer exited with status 1: "
                             f"{err}") from err
    terminal = traj[-1]
    _write_json(os.path.join(out_dir, "diagnostics.json"), {
        "n_particles": mb["n_particles"],
        "horizon": mb["horizon"],
        "step": mb["step"],
        "terminal_mean": terminal.mean(axis=0).tolist(),
        "terminal_variance": terminal.var(axis=0).tolist(),
        "store_stride": stride,
    })
    return [
        f"dynamics run: N = {mb['n_particles']}, horizon = {mb['horizon']}, "
        f"step = {mb['step']}",
        f"terminal mean = {terminal.mean(axis=0)}",
        f"terminal variance = {terminal.var(axis=0)}",
    ], []


def _run_bounds_table(cfg: dict, out_dir: str):
    model = build_model(cfg["model"])
    inputs = model_constants(model)
    rescaled = model_constants(rescale_model(model))
    alpha, pert = bounds_mod.tilted_alpha(inputs), inputs.pert_lipschitz
    rows = {
        "main_bound_generic": bounds_mod.main_bound(inputs, "generic"),
        "main_bound_specific": bounds_mod.main_bound(
            inputs, "specific", include_cross_term=False),
        "main_bound_specific_with_cross": bounds_mod.main_bound(
            inputs, "specific", include_cross_term=True),
        "lsi_pi_bound": bounds_mod.lsi_pi_bound(inputs),
        "lsi_pert_at_alpha": bounds_mod.lsi_pert_bound(alpha, pert),
        "winf_at_alpha": bounds_mod.winf_bound(alpha, pert),
        "rescaled_beta_hat": rescaled.beta_hat,
        "rescaled_B": rescaled.B,
        "rescaled_lam": rescaled.lam,
        "implied_constants": 1.0,
    }
    _write_json(os.path.join(out_dir, "bounds.json"), rows)
    return ["bounds table written"] + [f"  {k} = {v!r}"
                                       for k, v in rows.items()], []


# Each runner writes its artifacts and returns its summary lines and checks.
RUNNERS = {
    "chaos_sweep": _run_chaos_sweep,
    "tilt_profile": lambda cfg, out_dir: _tilt_profile(cfg, out_dir)[1:],
    "transport_map": _run_transport_map,
    "mfld_run": _run_mfld,
    "bounds_table": _run_bounds_table,
}


def _write_summary(out_dir: str, lines: list[str]):
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(cfg: dict, out_dir: str) -> int:
    """Runs the experiment; its summary ends with one line per check and
    the exit status is 0 iff every check passed, else 1."""
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    lines, checks = RUNNERS[cfg["experiment"]](cfg, out_dir)
    ok = all(c.passed for c in checks)
    _write_summary(out_dir, lines + [c.line() for c in checks]
                   + [f"all checks: {'yes' if ok else 'NO'}"])
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "experiment": cfg["experiment"],
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True, default=str).encode()).hexdigest(),
        "config": cfg,
        "seed": cfg["seed"],
        "versions": {"mflab": __version__, "numpy": np.__version__},
        "implied_constants_note": "asymptotic estimates use implied "
                                  "constant 1.0",
        "thread_env": {key: os.environ.get(key) for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "wall_time_s": time.time() - started,
        "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / 1024,
        "peak_rss_children_mb": getrusage(RUSAGE_CHILDREN).ru_maxrss / 1024,
        "invariants_passed": ok,
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return report(args.result_dir)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = args.out or cfg.get("output")
        if not out_dir:
            raise ConfigError("no output directory (set 'output' or --out)")
        return run_experiment(cfg, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MflabError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
