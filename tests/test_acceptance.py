"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they are produced; tolerances are fixed here, not tuned at runtime.
"""

import math

import numpy as np
import pytest
import yaml

from mflab.bounds import (
    BoundInputs,
    heatflow_lipschitz_bound,
    lsi_pert_bound,
    lsi_pi_bound,
    main_bound,
    songbo_bound,
    winf_bound,
)
from mflab.chaos import McmcConfig, chaos_sweep, no_growth_in_n
from mflab.heatflow import (
    covariance_profile,
    default_profile_times,
    lipschitz_estimate,
    pushforward_w2,
    reverse_flow_map,
)
from mflab.meanfield import solve_self_consistent
from mflab.measure import Axis, normalize_from_log_potential
from mflab.model import model_constants, rescale_model, zero_model
from mflab.presets import quadratic_preset, relu_preset
from mflab.sampler import (
    TargetSpec,
    mala_sample,
    n_particle_log_density,
)

from _oracles import (
    fitted_small_t_remainder,
    heat_flow_integral_quadrature,
    log_term_integral_quadrature,
    quadratic_kl_exact,
    quadratic_pi_moments,
    rescale_parameters,
)

N_SWEEP = [2, 4, 8, 16]
MCMC = McmcConfig()  # full default effort


def verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def quad_sweep():
    return chaos_sweep(quadratic_preset(), N_SWEEP, mcmc=MCMC, seed=100)


@pytest.fixture(scope="module")
def relu_sweep():
    return chaos_sweep(relu_preset(), N_SWEEP, mcmc=MCMC, seed=200)


def grid_gaussian(mean, var, axis):
    x = axis.nodes()
    return normalize_from_log_potential(-0.5 * (x - mean) ** 2 / var, (axis,))


class TestCriterion1GaussianExactness:
    """Zero-model objects match Gaussian closed forms."""

    def test_criterion_1(self):
        failures = []

        # mean-field fixed point on the grid
        model = zero_model(sigma=1.0, lam=0.5)
        system = solve_self_consistent(model)
        exact = grid_gaussian(0.0, 1.0, system.mean_measure.axes[0])
        err_pi = float(np.max(np.abs(system.mean_measure.weights
                                     - exact.weights)))
        if err_pi > 1e-6:
            failures.append(f"pi grid error {err_pi:.2e}")

        # particle Gibbs measure via MALA moments
        target = TargetSpec(model, 4)
        x, _ = mala_sample(target, 8000, 1500, 0.5, seed=1000)
        if abs(x.var() - 1.0) > 0.05:
            failures.append(f"MALA variance off by {abs(x.var() - 1.0):.3f}")
        if abs(x.mean()) > 0.05:
            failures.append(f"MALA mean {x.mean():.3f}")

        # tilted covariances: exact 1/(a + 1/t)
        rescaled = rescale_model(zero_model(sigma=1.0, lam=1.0))
        target = TargetSpec(rescaled, 1)
        inputs = model_constants(rescaled)
        ts = np.geomspace(1e-3, 1e3, 13)
        prof = covariance_profile(target, ts, [np.zeros(1), np.full(1, 2.0)],
                                  inputs)
        err_tilt = float(np.max(np.abs(prof.opnorm - 1.0 / (1.0 + 1.0 / ts))))
        if err_tilt > 1e-6:
            failures.append(f"tilted covariance error {err_tilt:.2e}")

        # reverse flow map: identity and linear cases
        ax = Axis(-10.0, 10.0, 2048)
        gamma = grid_gaussian(0.0, 1.0, ax)
        fm_id = reverse_flow_map(gamma)
        err_id = float(np.max(np.abs(fm_id.mapped - fm_id.source)))
        if err_id > 1e-6:
            failures.append(f"identity flow error {err_id:.2e}")
        s = 0.8
        fm_lin = reverse_flow_map(grid_gaussian(0.0, s * s, ax))
        window = np.abs(fm_lin.source) <= 4.0
        err_lin = float(np.max(np.abs(fm_lin.mapped[window]
                                      - s * fm_lin.source[window])))
        if err_lin > 1e-7:
            failures.append(f"linear flow error {err_lin:.2e}")

        verdict("criterion 1 (Gaussian exactness suite)",
                not failures, "; ".join(failures) or
                f"pi {err_pi:.1e}, tilt {err_tilt:.1e}, "
                f"flow {err_id:.1e}/{err_lin:.1e}")


class TestCriterion2QuadraticOracle:
    """KL estimator and fixed-point solver against Gaussian algebra."""

    def test_criterion_2(self, quad_sweep):
        failures = []
        exact = quadratic_kl_exact(0.5, 1.0, 0)
        for r in quad_sweep:
            if r.n_particles not in (2, 4, 8):
                continue
            gap = abs(r.kl_estimate - exact)
            if gap > 2.0 * r.kl_halfwidth:
                failures.append(
                    f"N={r.n_particles}: |{r.kl_estimate:.4f} - {exact:.4f}|"
                    f" > 2 x {r.kl_halfwidth:.4f}")

        system = solve_self_consistent(quadratic_preset())
        mean_cf, var_cf = quadratic_pi_moments(0.5, 0.3, 1.0, 1.0)
        pibar = system.mean_measure
        exact_grid = grid_gaussian(mean_cf, var_cf, pibar.axes[0])
        err = float(np.max(np.abs(pibar.weights - exact_grid.weights)))
        if err > 1e-6:
            failures.append(f"solver vs scalar oracle gap {err:.2e}")

        verdict("criterion 2 (quadratic-oracle equivalence)",
                not failures, "; ".join(failures)
                or f"KL exact {exact:.4f}, solver gap {err:.1e}")


class TestCriterion3ChaosBounds:
    """Estimated KL below both closed-form bounds, no growth in N."""

    def test_criterion_3(self, quad_sweep, relu_sweep):
        failures = []
        for name, sweep in (("quadratic", quad_sweep), ("relu", relu_sweep)):
            for r in sweep:
                slack = 2.0 * r.kl_halfwidth
                if r.kl_estimate > r.bound_poc + slack:
                    failures.append(f"{name} N={r.n_particles}: poc bound")
                if r.kl_estimate > r.bound_poc_ii + slack:
                    failures.append(f"{name} N={r.n_particles}: poc-ii bound")
            if not no_growth_in_n(sweep).passed:
                failures.append(f"{name}: CI-significant growth in N")
        detail = ", ".join(
            f"{name} N={r.n_particles}: {r.kl_estimate:.4f}<="
            f"{min(r.bound_poc, r.bound_poc_ii):.3g}"
            for name, sweep in (("quad", quad_sweep), ("relu", relu_sweep))
            for r in sweep[:1])
        verdict("criterion 3 (chaos bounds over the N sweep)",
                not failures, "; ".join(failures) or detail)


class TestCriterion4ProofChain:
    """Bregman >= 0 and the variance step.  Jensen on log Z and
    KL <= (2N/s^2) E_pi B hold for every input of the importance-sampling
    estimator (tests/test_chaos.py, TestImportanceKl)."""

    def test_criterion_4(self, quad_sweep, relu_sweep):
        failures = []
        for name, sweep in (("quadratic", quad_sweep), ("relu", relu_sweep)):
            for r in sweep:
                for flag in ("bregman_nonnegative", "variance_step"):
                    if not r.flags[flag]:
                        failures.append(f"{name} N={r.n_particles}: {flag}")
        verdict("criterion 4 (proof-chain inequalities)",
                not failures, "; ".join(failures) or
                f"{2 * len(quad_sweep + relu_sweep)} checks")


class TestCriterion5HeatFlowIntegrals:
    """Closed-form heat-flow integrals reproduced by quadrature."""

    def test_criterion_5(self):
        failures = []
        for alpha in (1.0, 2.0, 4.0):
            for k in (1.5, 2.0, 3.0, 4.0):
                exact = 1.0 / (2.0 * (k - 1.0) * alpha ** (k - 1.0))
                got = heat_flow_integral_quadrature(alpha, k)
                if abs(got - exact) > 1e-6:
                    failures.append(f"kernel integral (a={alpha}, k={k})")
        for alpha in (1.0, 2.0, 4.0):
            if abs(log_term_integral_quadrature(alpha)
                   + 0.5 * math.log(alpha)) > 1e-6:
                failures.append(f"log term (a={alpha})")
        verdict("criterion 5 (heat-flow integral identities)",
                not failures, "; ".join(failures) or "12 + 3 integrals")


class TestCriterion6TiltStability:
    """Small-t slope 1 with sqrt(t) remainder; bounded large t; zero exact."""

    def test_criterion_6(self):
        failures = []
        model = rescale_model(relu_preset())
        target = TargetSpec(model, 1)
        inputs = model_constants(model)
        ts = default_profile_times(inputs, n=40, decades_around=2.0)
        prof = covariance_profile(target, ts, [np.zeros(1)], inputs)
        order = np.argsort(prof.ts)
        t_sorted, op_sorted = prof.ts[order], prof.opnorm[0, order]

        t0, op0 = t_sorted[0], op_sorted[0]
        if abs(op0 / t0 - 1.0) > 0.02:
            failures.append(f"opnorm/t at t={t0:.2e} is {op0 / t0:.4f}")
        c_fit = float(fitted_small_t_remainder(prof, skip_smallest=10)[0])
        for t, op in zip(t_sorted[:10], op_sorted[:10]):
            if abs(op / t - 1.0) > 1.5 * max(c_fit, 1e-3) * math.sqrt(t):
                failures.append(f"sqrt(t) remainder violated at t={t:.2e}")

        large = prof.ts > prof.t_star
        if not np.all(prof.opnorm[:, large] <= prof.large_regime_ref[large]):
            failures.append("large-t envelope violated")

        zero = rescale_model(zero_model(sigma=1.0, lam=1.0))
        zts = np.geomspace(1e-3, 1e3, 13)
        zprof = covariance_profile(
            TargetSpec(zero, 1), zts, [np.zeros(1), np.full(1, 3.0)],
            model_constants(zero))
        err_zero = float(np.max(np.abs(zprof.opnorm
                                       - 1.0 / (1.0 + 1.0 / zts))))
        if err_zero > 1e-8:
            failures.append(f"zero-model profile error {err_zero:.2e}")

        verdict("criterion 6 (tilt-stability shape)",
                not failures, "; ".join(failures) or
                f"remainder C={c_fit:.3f}, zero error {err_zero:.1e}")


class TestCriterion7TransportMap:
    """Pushforward accuracy, monotonicity, and the Lipschitz bound chain."""

    def test_criterion_7(self):
        failures = []
        model = rescale_model(relu_preset())
        target = TargetSpec(model, 1)
        ax = Axis(-9.0, 9.0, 2048)
        log_u = n_particle_log_density(target, ax.nodes()[:, None, None])
        mu = normalize_from_log_potential(log_u, (ax,))
        flow = reverse_flow_map(mu)

        w2 = pushforward_w2(flow, mu)
        if w2 >= 1e-3:
            failures.append(f"W2(T#gamma, mu) = {w2:.2e}")
        if not np.all(np.diff(flow.mapped) > 0):
            failures.append("map not strictly increasing")

        lip = lipschitz_estimate(flow)
        inputs = model_constants(model)
        prof = covariance_profile(
            target, default_profile_times(inputs, n=40, decades_around=2.0),
            [np.zeros(1), np.full(1, 3.0), np.full(1, -3.0)], inputs)
        fitted, c_fit, k_fit = prof.fitted_lipschitz_bound()
        if lip > fitted:
            failures.append(f"L = {lip:.4f} > fitted bound {fitted:.4f}")
        generic = main_bound(model_constants(relu_preset()), "generic")
        if lip > generic:
            failures.append(f"L = {lip:.4f} > closed-form bound {generic:.3g}")

        verdict("criterion 7 (transport map)", not failures,
                "; ".join(failures) or
                f"W2 {w2:.1e}, L {lip:.4f} <= {fitted:.4f} <= {generic:.3g}")


class TestCriterion8CalculatorRegression:
    """Every calculator example reproduces its stated value to 1e-12."""

    def test_criterion_8(self):
        cases = [
            (heatflow_lipschitz_bound(0.0, []), 1.0),
            (heatflow_lipschitz_bound(3.0, []), 0.5),
            (heatflow_lipschitz_bound(1.0, [(2.0, 2.0)]),
             math.exp(0.5) / math.sqrt(2.0)),
            (main_bound(BoundInputs(sigma=1.3, lam=0.7, beta_hat=0.0, B=0.0),
                        "generic"), 1.3 / math.sqrt(0.7)),
            (main_bound(BoundInputs(sigma=1.0, lam=1.0, beta_hat=1.0, B=0.0),
                        "generic"), math.e),
            (lsi_pert_bound(2.0, 0.0), 0.5),
            (lsi_pert_bound(1.0, 1.0), math.exp(5.0)),
            (lsi_pert_bound(4.0, 2.0), math.exp(5.0) / 4.0),
            (lsi_pi_bound(BoundInputs(sigma=1.0, lam=1.0, beta_hat=0.0,
                                      B=1.0)),
             0.5 * math.exp(2.0 + 4.0 * math.sqrt(2.0))),
            (lsi_pi_bound(BoundInputs(sigma=1.0, lam=1.0, beta_hat=0.0,
                                      B=0.0)), 0.5),
            (songbo_bound(0.0, 1, 0.5, 1.0, 4), 2.0),
            (winf_bound(2.0, 3.0), 1.5),
            (winf_bound(2.0, 0.0), 0.0),
        ]
        rescaled = rescale_parameters(
            BoundInputs(sigma=1.0, lam=4.0, beta_hat=1.0, B=1.0))
        cases += [(rescaled.beta_hat, 0.25), (rescaled.lam, 1.0),
                  (rescaled.B, 0.5)]
        failures = [
            f"case {i}: {got!r} != {want!r}"
            for i, (got, want) in enumerate(cases)
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)
        ]
        verdict("criterion 8 (calculator regression)",
                not failures, "; ".join(failures) or f"{len(cases)} values")


class TestCriterion9Determinism:
    """Identical (config, seed) gives byte-identical CSV artifacts."""

    def test_criterion_9(self, tmp_path):
        from mflab.cli import main as cli_main

        failures = []
        chaos_cfg = {
            "experiment": "chaos_sweep",
            "seed": 3,
            "model": {"preset": "quadratic"},
            "sweep": {"n_particles": [2, 4]},
            "mcmc": {"n_samples": 2000, "n_burnin": 500,
                     "n_pi_samples": 4000},
        }
        transport_cfg = {
            "experiment": "transport_map",
            "seed": 3,
            "model": {"preset": "relu3"},
            "grid": {"n_nodes": 1024},
        }
        for label, cfg, artifact in (
                ("chaos_sweep", chaos_cfg, "chaos_sweep.csv"),
                ("transport_map", transport_cfg, "flowmap.csv")):
            cfg_path = tmp_path / f"{label}.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg))
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{label}_{run}"
                code = cli_main(["run", "--config", str(cfg_path),
                                 "--out", str(out)])
                if code != 0:
                    failures.append(f"{label} run exited {code}")
                outs.append(out / artifact)
            if outs[0].read_bytes() != outs[1].read_bytes():
                failures.append(f"{label}: {artifact} differs between reruns")
        verdict("criterion 9 (rerun determinism)",
                not failures, "; ".join(failures) or "2 experiments x 2 runs")
