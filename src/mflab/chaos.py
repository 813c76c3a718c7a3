"""KL between the N-particle Gibbs measure and its mean-field product.

The N-particle measure differs from the product of its mean-field
marginals exactly by the weight w = exp(-(2N/sigma^2) B), where B is the
Bregman divergence of the interaction energy between the empirical measure
of the particles and the mixture pibar of the self-consistent system:
d mu / d pi_prod = w / E_pi_prod[w].  So i.i.d. product draws give the
whole KL by self-normalized importance sampling (IS), with delta-method
confidence intervals (:func:`importance_kl`).  MALA chains give an
independent E_mu[B] at one N to cross-check the IS value against.  The
closed-form upper bounds the estimate is compared against are exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import BoundInputs, lsi_pert_bound, tilted_alpha
from .checks import Check
from .errors import CalculatorDomainError, IntegrationFailureError
from .meanfield import ProximalGibbsSystem, _feature_laws, solve_self_consistent
from .measure import (
    BLOCK_ELEMENTS,
    MAX_SPACING_SD,
    MIN_COVERAGE_SD,
    GridDensity,
    coverage_sd,
    _write_csv,
    _write_json,
    inverse_cdf,
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
from .forking import forked
from .sampler import MalaDiagnostics, TargetSpec, TiltSpec, _stream, mala_sample

BREGMAN_FLOOR = -1e-10
Z_ESS_FLOOR = 100.0
Z_ESS_WIDEN_FACTOR = 3.0
MALA_AGREE_SE = 3.0


def _bregman(model: ModelSpec, eh_nu: np.ndarray, pibar: GridDensity):
    """B(nu, pibar) = F0(nu) - F0(pibar) - <dF0(pibar), nu - pibar> from
    the expected features eh_nu of nu, one row per measure in a batch.

    Linear in the features, the first-variation term is
    (E_nu h - E_pibar h) . slope(pibar).
    """
    eh_bar = expect_features(model, pibar)
    f_bar, slope = loss_terms(model, eh_bar, (0, 1))
    return loss_terms(model, eh_nu) - f_bar - (eh_nu - eh_bar) @ slope


def bregman_batch(model: ModelSpec, x: np.ndarray, pibar: GridDensity) -> np.ndarray:
    """Bregman divergence of each empirical measure in a batch of states.

    x has shape (S, N, d); returns (S,); features are taken in row chunks.
    """
    x = np.asarray(x, dtype=float)
    rows = max(1, BLOCK_ELEMENTS // (x.shape[1] * max(1, len(model.data_x))))
    eh_nu = np.concatenate([particle_features(model, x[lo:lo + rows])[1]
                            for lo in range(0, len(x) or 1, rows)])
    return _bregman(model, eh_nu, pibar)


def log_mean_exp(log_w: np.ndarray) -> tuple[float, float, float]:
    """log mean(w) from log-weights, with the importance ESS and the
    delta-method half-width 2 sqrt(1/ESS - 1/n) of log mean(w)."""
    w = np.exp(log_w - log_w.max())
    ess = float(w.sum() ** 2 / (w @ w))
    # Rounding can put the ESS of near-constant weights above n.
    hw = 2.0 * math.sqrt(max(0.0, 1.0 / ess - 1.0 / log_w.size))
    return float(log_w.max() + math.log(w.sum()) - math.log(log_w.size)), ess, hw


def importance_kl(b: np.ndarray, scale: float) -> dict[str, float]:
    """KL(mu || pi_prod), E_mu[B] and log Z with their half-widths, keyed
    as in :class:`ChaosReport`, from Bregman values b of i.i.d. product
    draws by self-normalized IS with log-weights log w = -scale * b.

    With wt = w / sum(w) and m = sum wt_i log w_i, KL = m - log mean(w) has
    the delta-method influence terms wt_i (log w_i - m - 1) + 1/n (the
    ratio, then log mean(w)) and E_mu[B] = sum wt_i b_i the terms
    wt_i (b_i - E_mu[B]); log mean(w) is :func:`log_mean_exp`'s.  Each
    half-width is 2 standard errors, widened by Z_ESS_WIDEN_FACTOR below
    the ESS floor.  Up to rounding, 0 <= KL <= scale * mean(b) (the KL of
    wt from uniform; Jensen) and min b <= E_mu[B] <= max b.
    """
    log_w = -scale * b
    log_z, ess, hw_log_z = log_mean_exp(log_w)
    wt = np.exp(log_w - log_w.max())
    wt /= wt.sum()
    # The weighted mean of subnormal b can round below min b.
    mean_b = float(np.clip(wt @ b, b.min(), b.max()))
    m = -scale * mean_b
    hw_kl = 2.0 * math.sqrt(np.sum((wt * (log_w - m - 1.0) + 1.0 / b.size)**2))
    hw_b = 2.0 * math.sqrt(np.sum((wt * (b - mean_b))**2))
    widen = 1.0 if ess >= Z_ESS_FLOOR else Z_ESS_WIDEN_FACTOR
    return {"kl_estimate": m - log_z, "kl_halfwidth": widen * hw_kl,
            "bregman_mean_under_mu": mean_b,
            "bregman_mu_halfwidth": widen * hw_b, "log_z": log_z,
            "log_z_halfwidth": widen * hw_log_z, "z_importance_ess": ess}


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


@dataclass(frozen=True)
class McmcConfig:
    """Sampling effort of one KL estimate, a record that checks nothing
    (McmcConfig(n_chains=1) builds): cli.SCHEMA["mcmc"] bounds each value
    and reads its defaults from here.  n_pi_samples product draws give the
    KL by importance sampling; for the MALA cross-check, n_chains >= 2
    chains each adapt over n_burnin steps, then keep ceil(n_samples /
    n_chains) samples, and the spread of their means gives the CI."""

    n_samples: int = 16384
    n_burnin: int = 2048
    step_size0: float = 0.3
    n_pi_samples: int = 32768
    n_chains: int = 32


@dataclass
class ChaosReport:
    """Everything measured for one (model, N) chaos run; the KL, E_mu[B]
    and log Z with their half-widths come from :func:`importance_kl`.  The
    MALA fields and `sampler` are None where no cross-check ran, and so is
    the `mala_agrees` check."""

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
    mala_bregman_mean: float | None = None
    mala_bregman_halfwidth: float | None = None
    sampler: MalaDiagnostics | None = None
    checks: list[Check] = field(default_factory=list)

    @property
    def flags(self) -> dict[str, bool]:
        return {c.name: c.passed for c in self.checks}

    def to_dict(self) -> dict:
        return {**asdict(self), "flags": self.flags}

    def to_json(self, path):
        _write_json(path, self.to_dict(), default=float)


def _variance_step_rhs(model: ModelSpec, system: ProximalGibbsSystem,
                       n: int) -> float:
    """Quadrature value of sum_j p_j (beta_ell / 2N^2) sum_i var_{pi^i}(h_j),
    N times the mean over the system's laws (one if untilted), rebuilt
    from the expected features of its mixture."""
    pibar = system.mean_measure
    cov = _feature_laws(model, pibar.axes, system.tilt)(
        expect_features(model, pibar))[2]
    return float(model.data_p @ np.diag(cov)) * model.loss.beta_ell / (2.0 * n)


def estimate_kl(model: ModelSpec, n_particles: int,
                mcmc: McmcConfig | None = None, seed: int = 0,
                tilt: TiltSpec | None = None) -> ChaosReport:
    """Monte-Carlo estimate of KL(mu^{1:N} || pi^{1:N}) with closed-form
    bounds.  Flag `mala_agrees`: E_mu[B] from MALA chains and from IS agree
    within 3 combined standard errors.  The chain-mean spread dominates that
    se, so the flag fires at 0.53 % with 32 chains (2 P(t_31 > 3)) and 5.8 %
    with 4, not 0.27 %; on relu3 at N = 2 with the default effort, 1 of 400
    seeds (seed 53, at 3.67 se) fails it, and 22 lie beyond 2 se.

    Chains and i.i.d. draws use separate Philox streams of the same master
    seed, so the whole report is deterministic given (model, N, mcmc, seed);
    the chains run in a forked child, overlapped with the product side.
    """
    target = TargetSpec(model, n_particles, tilt=tilt)
    return _sweep([target], seed, mcmc or McmcConfig(), None)[0]


def chaos_sweep(model: ModelSpec, n_list, mcmc: McmcConfig | None = None,
                seed: int = 0, axes=None) -> list[ChaosReport]:
    """One KL report per particle count, the i-th from seed + i, all from
    one solve of the self-consistent system on `axes` (its default if
    None), whose untilted law does not depend on N.  The report of the
    (first) smallest N is :func:`estimate_kl`'s; the others carry the
    product side alone, with no MALA cross-check.  The chains run in a
    forked child while every N's product side is taken."""
    return _sweep([TargetSpec(model, n) for n in n_list], seed,
                  mcmc or McmcConfig(), axes)


def _sweep(targets, seed: int, mcmc: McmcConfig, axes) -> list[ChaosReport]:
    """The report of targets[i] from seed + i; the targets share one model
    and tilt, so one solve serves them all, and a solved law its grid does
    not cover or resolve is an IntegrationFailureError.  The MALA
    cross-check of the first target of the smallest N runs in a forked
    child while the parent takes every product side, that target's last."""
    if not targets:
        return []
    first = min(range(len(targets)), key=lambda i: targets[i].n_particles)
    t = targets[first]
    system = solve_self_consistent(t.model, tilt=t.tilt, axes=axes)
    axes = system.mean_measure.axes
    laws = [(p.mean(), p.covariance()) for p in system.per_particle]
    margin = min(coverage_sd(axes, *law) for law in laws)
    if margin < MIN_COVERAGE_SD:
        raise IntegrationFailureError(
            f"a solved law's mean lies {margin:.3g} sd from a grid end "
            f"(at least {MIN_COVERAGE_SD:g} needed); the grid truncates it")
    h = np.array([ax.spacing for ax in axes])
    coarse = max(float(np.max(h / np.sqrt(np.diag(cov)))) for _, cov in laws)
    if not coarse <= MAX_SPACING_SD:
        raise IntegrationFailureError(
            f"the {axes[0].n}-node grid's spacing is {coarse:.3g} sd of a "
            f"solved law (at most {MAX_SPACING_SD:g} allowed); the grid is "
            "too coarse to resolve it")
    with forked(_cross_check, t, system.mean_measure, mcmc,
                seed + first) as cross_check:
        reports = [_estimate(u, seed + i, mcmc, system) if i != first
                   else None for i, u in enumerate(targets)]
        reports[first] = _estimate(t, seed + first, mcmc, system, cross_check)
    return reports


def _cross_check(target: TargetSpec, pibar: GridDensity, mcmc: McmcConfig,
                 seed: int) -> tuple[dict, float]:
    """MALA's E_mu[B], its between-chain half-width and the sampler health,
    keyed as in :class:`ChaosReport`, and the least B of its samples."""
    per_chain = -(-mcmc.n_samples // mcmc.n_chains)
    x_mu, diag = mala_sample(target, per_chain, mcmc.n_burnin,
                             mcmc.step_size0, seed, n_chains=mcmc.n_chains)
    b_mu = bregman_batch(target.model, x_mu, pibar)
    means = b_mu.reshape(mcmc.n_chains, per_chain).mean(axis=1)
    return {"mala_bregman_mean": float(b_mu.mean()), "sampler": diag,
            "mala_bregman_halfwidth": 2.0 * float(means.std(ddof=1))
            / math.sqrt(mcmc.n_chains)}, float(b_mu.min())


def _estimate(target: TargetSpec, seed: int, mcmc: McmcConfig,
              system: ProximalGibbsSystem, cross_check=None) -> ChaosReport:
    """The report of one target from its solved `system`; `cross_check`, if
    given, is called after the product side for :func:`_cross_check`'s
    value."""
    eff, tilt, n_particles = target.model, target.tilt, target.n_particles
    scale = 2.0 * n_particles / eff.sigma**2

    # B needs the draws only through the particle mean of their features.
    rng_pi, s = _stream(seed, 1), mcmc.n_pi_samples
    rows = max(1, BLOCK_ELEMENTS // max(1, len(eff.data_x)))
    blocks = [slice(lo, lo + rows) for lo in range(0, s, rows)]
    eh_sum = np.zeros((s, len(eff.data_x)))
    fits = [inverse_cdf(p) for p in system.per_particle]
    for inv_cdf in fits * (n_particles // len(fits)):  # untilted: one law
        x_i = sample_from_grid(inv_cdf, s, rng_pi)
        for b in blocks:
            eh_sum[b] += features(eff, x_i[b])
    b_pi = np.concatenate([_bregman(eff, eh_sum[b] / n_particles,
                                    system.mean_measure) for b in blocks])
    mean_b_pi = float(b_pi.mean())
    hw_b_pi = 2.0 * float(b_pi.std(ddof=1)) / math.sqrt(b_pi.size)
    est = importance_kl(b_pi, scale)

    alpha = tilted_alpha(eff, tilt.t if tilt else None)
    consts = model_constants(eff)
    # Each pi^i is a (2B/sigma^2)-Lipschitz log-perturbation of an alpha-
    # strongly log-concave base: its LSI bound bounds the Poincare constant.
    cbar_pi = lsi_pert_bound(alpha, 2.0 * consts.B / eff.sigma**2)
    bound_generic = poc_bound(consts, cbar_pi, alpha, "generic")
    bound_nn = poc_bound(consts, cbar_pi, alpha, "example_nn")
    var_rhs = _variance_step_rhs(eff, system, n_particles)

    mala, min_b_mu = cross_check() if cross_check else ({}, math.inf)
    kl, hw_kl = est["kl_estimate"], est["kl_halfwidth"]
    checks = [  # each half-width is 2 se
        Check("bregman_nonnegative", min(min_b_mu, float(b_pi.min())),
              BREGMAN_FLOOR, ">="),
        Check("kl_below_poc", kl, bound_generic, "<=", 2.0 * hw_kl, hw_kl / 2),
        Check("kl_below_poc_ii", kl, bound_nn, "<=", 2.0 * hw_kl, hw_kl / 2),
        Check("z_ess_ok", est["z_importance_ess"], Z_ESS_FLOOR, ">="),
        Check("variance_step", mean_b_pi, var_rhs, "<=", hw_b_pi, hw_b_pi / 2),
    ]
    if mala:  # false-alarm rate in estimate_kl's docstring
        hw = math.hypot(mala["mala_bregman_halfwidth"],
                        est["bregman_mu_halfwidth"])
        checks.append(Check(
            "mala_agrees", abs(mala["mala_bregman_mean"]
                               - est["bregman_mean_under_mu"]),
            0.0, "<=", MALA_AGREE_SE / 2.0 * hw, hw / 2))
    return ChaosReport(
        n_particles=n_particles,
        bregman_mean_under_pi=mean_b_pi, bregman_pi_halfwidth=hw_b_pi,
        bound_poc=bound_generic, bound_poc_ii=bound_nn,
        alpha=alpha, cbar_pi=cbar_pi, scale=scale, variance_step_rhs=var_rhs,
        solver_iterations=system.iterations, solver_residual=system.residual,
        seed=seed, checks=checks, **est, **mala,
    )


def no_growth_in_n(reports: list[ChaosReport]) -> Check | None:
    """The worst of the checks that the KL at each N exceeds the KL at the
    next smaller N by no more than 2 (hw_prev + hw_cur), a failed one
    first; None for a sweep of fewer than two N."""
    ordered = sorted(reports, key=lambda r: r.n_particles)
    pairs = [Check(f"N={prev.n_particles}->{cur.n_particles} no_growth_in_n",
                   cur.kl_estimate, prev.kl_estimate, "<=",
                   2.0 * (prev.kl_halfwidth + cur.kl_halfwidth),
                   math.hypot(prev.kl_halfwidth, cur.kl_halfwidth) / 2)
             for prev, cur in zip(ordered, ordered[1:])]
    return min(pairs, key=lambda c: (c.passed, c.margin), default=None)


def sweep_to_csv(reports: list[ChaosReport], path, model_name: str):
    """One CSV row per (model, N, seed) with estimates, CIs, and bounds."""
    names = ("n_particles", "seed", "kl_estimate", "kl_halfwidth", "bound_poc",
             "bound_poc_ii", "log_z", "bregman_mean_under_mu",
             "bregman_mean_under_pi")
    _write_csv(path, "model," + ",".join(names),
               [[model_name] * len(reports)]
               + [[getattr(r, k) for r in reports] for k in names])
