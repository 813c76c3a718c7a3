"""KL between the N-particle Gibbs measure and its mean-field product.

The estimator uses the exact identity

    KL(mu || pi_prod) = -(2N/sigma^2) E_mu[B] - log Z,
    Z = E_pi_prod[exp(-(2N/sigma^2) B)],

where B is the Bregman divergence of the interaction energy between the
empirical measure of the particles and the mixture pibar of the
self-consistent system.  E_mu[B] comes from lockstep MALA chains on the
particle Gibbs measure (between-chain confidence interval); Z = E[w] comes
from n i.i.d. product draws of w = exp(-(2N/sigma^2) B), with the CI of
log mean(w) from the importance ESS (sum w)^2/sum w^2 by the delta method,
Var ~ (mean(w^2)/mean(w)^2 - 1)/n = 1/ESS - 1/n.  The closed-form upper
bounds the estimate is compared against are evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from .bounds import BoundInputs, lsi_pert_bound, tilted_alpha
from .errors import CalculatorDomainError, ConfigError
from .meanfield import ProximalGibbsSystem, solve_self_consistent
from .measure import (
    GridDensity,
    Measure,
    _write_csv,
    _write_json,
    sample_from_grid,
)
from .model import (
    ModelSpec,
    expect_features,
    features,
    loss_terms,
    model_constants,
    particle_features,
)
from .sampler import MalaDiagnostics, TargetSpec, TiltSpec, _stream, mala_sample

BREGMAN_FLOOR = -1e-10
Z_ESS_FLOOR = 100.0
Z_ESS_WIDEN_FACTOR = 3.0


def _bregman(model: ModelSpec, eh_nu: np.ndarray, pibar: GridDensity):
    """B(nu, pibar) = F0(nu) - F0(pibar) - <dF0(pibar), nu - pibar> from
    the expected features eh_nu of nu, one row per measure in a batch.

    Linear in the features, the first-variation term is
    (E_nu h - E_pibar h) . slope(pibar).
    """
    eh_bar = expect_features(model, pibar)
    f_bar = float(loss_terms(model, eh_bar))
    linear = (eh_nu - eh_bar) @ loss_terms(model, eh_bar, 1)
    return loss_terms(model, eh_nu) - f_bar - linear


def bregman_divergence(model: ModelSpec, nu: Measure, pibar: GridDensity) -> float:
    """Bregman divergence of the interaction energy between nu and pibar.

    Nonnegative whenever F0 is convex along mixtures.
    """
    return float(_bregman(model, expect_features(model, nu), pibar))


def bregman_batch(model: ModelSpec, x: np.ndarray, pibar: GridDensity) -> np.ndarray:
    """Bregman divergence of each empirical measure in a batch of states.

    x has shape (S, N, d); returns (S,).
    """
    eh_nu = particle_features(model, np.asarray(x, dtype=float))[1]
    return _bregman(model, eh_nu, pibar)


def log_mean_exp(log_w: np.ndarray) -> tuple[float, float, float]:
    """log mean(w) from log-weights, with the importance ESS and the
    delta-method half-width 2 sqrt(1/ESS - 1/n) of log mean(w)."""
    w = np.exp(log_w - log_w.max())
    ess = float(w.sum() ** 2 / (w @ w))
    # Rounding can put the ESS of near-constant weights above n.
    hw = 2.0 * math.sqrt(max(0.0, 1.0 / ess - 1.0 / log_w.size))
    return float(logsumexp(log_w) - math.log(log_w.size)), ess, hw


def poc_bound(inputs: BoundInputs, cbar_pi: float, alpha: float,
              variant: str = "generic") -> float:
    """Closed-form chaos bound on KL(mu^{1:N} || pi^{1:N}).

    variant="generic":    (4 beta_hat/sigma^2) min{cbar_pi d, 2d/alpha + 4B^2/(alpha^2 sigma^4)}
    variant="example_nn": (beta_hat/sigma^2)  min{cbar_pi,  2/alpha + 8B^2/(alpha^2 sigma^4)}
    """
    if alpha <= 0:
        raise CalculatorDomainError("alpha must be positive")
    if cbar_pi <= 0:
        raise CalculatorDomainError("cbar_pi must be positive")
    s2 = inputs.sigma**2
    s4 = s2 * s2
    bh = inputs.beta_hat
    b2 = inputs.B**2
    if variant == "generic":
        d = inputs.d
        return (4.0 * bh / s2) * min(
            cbar_pi * d, 2.0 * d / alpha + 4.0 * b2 / (alpha * alpha * s4))
    if variant == "example_nn":
        return (bh / s2) * min(
            cbar_pi, 2.0 / alpha + 8.0 * b2 / (alpha * alpha * s4))
    raise ValueError(f"unknown variant {variant!r}")


def poincare_constant_bound(model: ModelSpec, alpha: float) -> float:
    """Analytic Poincare upper bound for the per-particle densities.

    The interaction enters each pi^i as a (2B/sigma^2)-Lipschitz
    log-perturbation of an alpha-strongly log-concave base, so the
    Lipschitz-perturbation LSI bound applies; the chaos bound consumes an
    upper bound on the constant, so the analytic value is used, not an
    empirical estimate.
    """
    consts = model_constants(model)
    return lsi_pert_bound(alpha, 2.0 * consts.B / model.sigma**2)


@dataclass(frozen=True)
class McmcConfig:
    """Sampling effort knobs for one KL estimate: n_chains >= 2 MALA chains
    each adapt over n_burnin steps, then keep ceil(n_samples / n_chains)
    samples; the spread of their means gives the CI of E_mu[B], and the
    importance ESS of n_pi_samples draws that of log Z (delta method)."""

    n_samples: int = 16384
    n_burnin: int = 2048
    step_size0: float = 0.3
    n_pi_samples: int = 32768
    n_chains: int = 32

    def __post_init__(self):
        if self.n_chains < 2:
            raise ConfigError("mcmc.n_chains must be at least 2: the "
                              "confidence interval comes from chain means")


@dataclass
class ChaosReport:
    """Everything measured for one (model, N) chaos run; log_z_halfwidth
    is the delta method 2 sqrt(1/ESS - 1/n) from the importance ESS."""

    n_particles: int
    kl_estimate: float
    kl_halfwidth: float
    bregman_mean_under_mu: float
    bregman_mu_halfwidth: float
    bregman_mean_under_pi: float
    bregman_pi_halfwidth: float
    log_z: float
    log_z_halfwidth: float
    bound_poc: float
    bound_poc_ii: float
    alpha: float
    cbar_pi: float
    scale: float
    z_importance_ess: float
    variance_step_rhs: float
    solver_iterations: int
    solver_residual: float
    seed: int
    mala_acceptance: float
    sampler: MalaDiagnostics
    flags: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "flags"}
        out["sampler"] = asdict(self.sampler)
        out["flags"] = dict(self.flags)
        return out

    def to_json(self, path):
        _write_json(path, self.to_dict(), default=float)


def _variance_step_rhs(model: ModelSpec, system: ProximalGibbsSystem) -> float:
    """Quadrature value of sum_j p_j (beta_ell / 2N^2) sum_i var_{pi^i}(h_j)."""
    n = system.n_particles
    var_sum = np.zeros(model.data_p.size)
    for p_i in system.per_particle:
        h_vals = features(model, p_i.node_points())
        cw = (p_i.quad_weights() * p_i.weights).ravel()
        mean_h = h_vals.T @ cw
        second = (h_vals * h_vals).T @ cw
        var_sum += second - mean_h**2
    return float(model.data_p @ var_sum) * model.loss.beta_ell / (2.0 * n * n)


def estimate_kl(model: ModelSpec, n_particles: int,
                mcmc: McmcConfig | None = None, seed: int = 0,
                tilt: TiltSpec | None = None, rescaled: bool = False,
                axes=None) -> ChaosReport:
    """Monte-Carlo estimate of KL(mu^{1:N} || pi^{1:N}) with closed-form bounds.

    Chains and i.i.d. draws use separate Philox streams of the same master
    seed, so the whole report is deterministic given (model, N, mcmc, seed).
    """
    target = TargetSpec(model, n_particles, tilt=tilt, rescaled=rescaled)
    return _kl_reports([target], [seed], mcmc or McmcConfig(), axes)[0]


def chaos_sweep(model: ModelSpec, n_list, mcmc: McmcConfig | None = None,
                seed: int = 0, axes=None) -> list[ChaosReport]:
    """One KL report per particle count, the i-th from seed + i, each
    solving the self-consistent system on `axes` (its default if None).
    The chains of every N run in one :func:`mala_sample` loop."""
    targets = [TargetSpec(model, n) for n in n_list]
    return _kl_reports(targets, [seed + i for i in range(len(targets))],
                       mcmc or McmcConfig(), axes)


def _kl_reports(targets, seeds, mcmc: McmcConfig, axes) -> list[ChaosReport]:
    """The report of :func:`estimate_kl` for each target and seed, all from
    one MALA call."""
    systems = [solve_self_consistent(t.effective_model, t.n_particles,
                                     tilt=t.tilt, axes=axes) for t in targets]
    per_chain = -(-mcmc.n_samples // mcmc.n_chains)
    sampled = mala_sample(targets, per_chain, mcmc.n_burnin, mcmc.step_size0,
                          seeds, n_chains=mcmc.n_chains)
    mu_sides = []
    for target, system in zip(targets, systems):
        # Each N's samples are dropped once reduced, before any product draw.
        b_mu = bregman_batch(target.effective_model, sampled[0][0],
                             system.mean_measure)
        chain_means = b_mu.reshape(mcmc.n_chains, per_chain).mean(axis=1)
        hw = 2.0 * float(chain_means.std(ddof=1)) / math.sqrt(mcmc.n_chains)
        mu_sides.append((float(b_mu.mean()), hw, float(b_mu.min()),
                         sampled.pop(0)[1]))
    return [_report(*args, mcmc)
            for args in zip(targets, systems, seeds, mu_sides)]


def _report(target: TargetSpec, system: ProximalGibbsSystem, seed: int,
            mu_side, mcmc: McmcConfig) -> ChaosReport:
    """The product side, the bounds and the flags of one report."""
    mean_b_mu, hw_b_mu, min_b_mu, diag = mu_side
    eff, tilt, n_particles = (target.effective_model, target.tilt,
                              target.n_particles)
    pibar = system.mean_measure
    scale = 2.0 * n_particles / eff.sigma**2

    rng_pi = _stream(seed, 1)
    cols = []
    for p_i in system.per_particle:
        cols.append(sample_from_grid(p_i, mcmc.n_pi_samples, rng_pi))
    x_pi = np.stack(cols, axis=1)  # (S, N, d=1)
    b_pi = bregman_batch(eff, x_pi, pibar)
    mean_b_pi = float(b_pi.mean())
    hw_b_pi = 2.0 * float(b_pi.std(ddof=1)) / math.sqrt(b_pi.size)

    log_z, z_ess, hw_log_z = log_mean_exp(-scale * b_pi)
    z_ess_ok = z_ess >= Z_ESS_FLOOR
    if not z_ess_ok:
        hw_log_z *= Z_ESS_WIDEN_FACTOR

    kl = -scale * mean_b_mu - log_z
    hw_kl = math.hypot(scale * hw_b_mu, hw_log_z)

    alpha = tilted_alpha(eff, tilt.t if tilt else None)
    cbar_pi = poincare_constant_bound(eff, alpha)
    consts = replace(model_constants(eff), N=n_particles)
    bound_generic = poc_bound(consts, cbar_pi, alpha, "generic")
    bound_nn = poc_bound(consts, cbar_pi, alpha, "example_nn")
    var_rhs = _variance_step_rhs(eff, system)

    chain_rhs = scale * mean_b_pi
    chain_slack = scale * hw_b_pi
    min_breg = min(min_b_mu, float(b_pi.min()))
    flags = {
        "bregman_nonnegative": min_breg >= BREGMAN_FLOOR,
        "jensen_log_z": -log_z <= chain_rhs + chain_slack + hw_log_z,
        "proof_chain": kl <= chain_rhs + chain_slack + hw_kl,
        "kl_below_poc": kl <= bound_generic + 2.0 * hw_kl,
        "kl_below_poc_ii": kl <= bound_nn + 2.0 * hw_kl,
        "kl_nonnegative": kl >= -hw_kl,
        "z_ess_ok": z_ess_ok,
        "variance_step": mean_b_pi <= var_rhs + hw_b_pi,
    }
    return ChaosReport(
        n_particles=n_particles,
        kl_estimate=kl, kl_halfwidth=hw_kl,
        bregman_mean_under_mu=mean_b_mu, bregman_mu_halfwidth=hw_b_mu,
        bregman_mean_under_pi=mean_b_pi, bregman_pi_halfwidth=hw_b_pi,
        log_z=log_z, log_z_halfwidth=hw_log_z,
        bound_poc=bound_generic, bound_poc_ii=bound_nn,
        alpha=alpha, cbar_pi=cbar_pi, scale=scale,
        z_importance_ess=z_ess, variance_step_rhs=var_rhs,
        solver_iterations=system.iterations, solver_residual=system.residual,
        seed=seed, mala_acceptance=diag.acceptance_rate, sampler=diag,
        flags=flags,
    )


def no_growth_in_n(reports: list[ChaosReport]) -> bool:
    """True when the estimates show no CI-significant growth along the sweep."""
    ordered = sorted(reports, key=lambda r: r.n_particles)
    for prev, cur in zip(ordered, ordered[1:]):
        slack = 2.0 * (prev.kl_halfwidth + cur.kl_halfwidth)
        if cur.kl_estimate > prev.kl_estimate + slack:
            return False
    return True


def sweep_to_csv(reports: list[ChaosReport], path, model_name: str):
    """One CSV row per (model, N, seed) with estimates, CIs, and bounds."""
    names = ("n_particles", "seed", "kl_estimate", "kl_halfwidth", "bound_poc",
             "bound_poc_ii", "log_z", "bregman_mean_under_mu",
             "bregman_mean_under_pi", "mala_acceptance")
    _write_csv(path, "model," + ",".join(names),
               [[model_name] * len(reports)]
               + [[getattr(r, k) for r in reports] for k in names])
