"""KL estimator against the Gaussian oracle, plus the chaos bound calculators."""

import faulthandler
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp
from scipy.stats import norm

from mflab.bounds import BoundInputs
from mflab.chaos import (
    BREGMAN_FLOOR,
    Z_ESS_WIDEN_FACTOR,
    McmcConfig,
    _bregman,
    _estimate,
    _variance_step_rhs,
    bregman_batch,
    chaos_sweep,
    estimate_kl,
    importance_kl,
    log_mean_exp,
    no_growth_in_n,
    poc_bound,
    sweep_to_csv,
)
import mflab.chaos
from mflab.errors import (
    CalculatorDomainError,
    ConfigError,
    MflabError,
    NonconvergenceError,
    SimulationDivergedError,
)
from mflab.forking import forked
from mflab.meanfield import DEFAULT_TOL, solve_self_consistent
from mflab.measure import BLOCK_ELEMENTS, Axis, normalize_from_log_potential
from mflab.model import (
    expect_features,
    features,
    quadratic_oracle,
    rescale_model,
    zero_model,
)
from mflab.presets import quadratic_preset, relu_preset
from mflab.sampler import TargetSpec

from _oracles import (
    bregman_rows_reference,
    quadratic_bregman_mean_exact,
    quadratic_kl_exact,
    quadratic_mu_gaussian,
    quadratic_pi_moments,
)
from _oracles import bootstrap_log_mean_sd, gaussian_kl_full


FAST = McmcConfig(n_samples=6000, n_burnin=1500, n_pi_samples=20000)


def gaussian_grid(mean, var):
    ax = Axis(mean - 10 * math.sqrt(var), mean + 10 * math.sqrt(var), 2048)
    x = ax.nodes()
    return normalize_from_log_potential(-0.5 * (x - mean) ** 2 / var, (ax,))


class TestBregman:
    def test_nu_equals_pibar(self):
        model = quadratic_preset()
        pibar = gaussian_grid(0.2, 0.5)
        assert abs(_bregman(model, expect_features(model, pibar),
                            pibar)) < 1e-12

    def test_quadratic_hand_expansion(self):
        kappa = 0.8
        model = quadratic_oracle(1.0, 1.0, kappa=kappa, c=0.1)
        pibar = gaussian_grid(0.3, 0.5)
        x = np.array([[[1.2], [0.4]]])  # mean 0.8
        expected = 0.5 * kappa * (0.8 - 0.3) ** 2
        assert abs(bregman_batch(model, x, pibar)[0] - expected) < 1e-9

    def test_zero_model_always_zero(self):
        model = zero_model(sigma=1.0, lam=1.0)
        pibar = gaussian_grid(0.0, 1.0)
        for pts in ([[0.5]], [[2.0], [-1.0]]):
            assert bregman_batch(model, np.array([pts]), pibar)[0] == 0.0

    def test_batch_matches_scalar(self):
        model = relu_preset()
        pibar = gaussian_grid(0.1, 0.4)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 3, 1))
        batch = bregman_batch(model, x, pibar)
        for i in range(16):
            scalar = _bregman(model, features(model, x[i]).mean(axis=0), pibar)
            assert abs(batch[i] - scalar) < 1e-12

    # No rows; below one chunk and one chunk plus 1 (relu3 has 3 data);
    # N so large that a chunk holds one row; the zero model, whose chunks
    # hold BLOCK_ELEMENTS // N rows.
    @pytest.mark.parametrize("preset,s,n", [
        (relu_preset, 0, 4), (relu_preset, 5, 4),
        (relu_preset, BLOCK_ELEMENTS // (3 * 4) + 1, 4),
        (relu_preset, 3, BLOCK_ELEMENTS // 2),
        (lambda: zero_model(sigma=1.0, lam=1.0), 5, BLOCK_ELEMENTS // 2)])
    def test_chunked_batch_equals_rows(self, preset, s, n):
        model = preset()
        pibar = gaussian_grid(0.1, 0.4)
        x = np.random.default_rng(2).normal(size=(s, n, 1))
        batch = bregman_batch(model, x, pibar)
        assert batch.shape == (s,)
        np.testing.assert_array_equal(
            batch, bregman_rows_reference(model, x, pibar))

    def test_batch_peak_memory_is_bounded(self):
        model = relu_preset()
        pibar = gaussian_grid(0.1, 0.4)
        x = np.random.default_rng(3).normal(size=(32768, 64, 1))
        tracemalloc.start()
        try:
            bregman_batch(model, x, pibar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Unchunked, the (S, n_data, N) pre-activations alone are 50 MB.
        assert peak < 8e6, peak

    # F0 is convex along mixtures, so B >= 0 for every empirical measure
    # and every pibar, up to rounding.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.sampled_from([relu_preset, quadratic_preset]),
           st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 2.0)),
           arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 16),
                                   st.just(1)),
                  elements=st.floats(-6.0, 6.0)))
    def test_batch_is_nonnegative(self, preset, pibar_moments, x):
        pibar = gaussian_grid(*pibar_moments)
        assert np.all(bregman_batch(preset(), x, pibar) >= BREGMAN_FLOOR)


class TestLogMeanExp:
    def test_matches_bootstrap_and_lognormal_formula(self):
        # log w = s z at the n normal quantiles: for lognormal w the
        # delta-method variance of log mean(w) is (e^{s^2} - 1)/n.
        s, n = 0.5, 32768
        log_w = s * norm.ppf((np.arange(n) + 0.5) / n)
        _, _, hw = log_mean_exp(log_w)
        boot = bootstrap_log_mean_sd(log_w, 2000, np.random.default_rng(0))
        assert hw / 2.0 == pytest.approx(boot, rel=0.05)
        assert hw / 2.0 == pytest.approx(
            math.sqrt((math.exp(s * s) - 1.0) / n), rel=0.05)

    def test_log_mean_matches_logsumexp(self):
        log_w = np.random.default_rng(1).normal(scale=30.0, size=4096)
        log_mean, _, _ = log_mean_exp(log_w)
        assert log_mean == pytest.approx(
            logsumexp(log_w) - math.log(log_w.size), rel=1e-15)

    def test_near_constant_weights_give_zero(self):
        log_w = np.array([0.0, -1.1e-16, -1.1e-16])
        _, ess, hw = log_mean_exp(log_w)
        assert ess > log_w.size
        assert hw == 0.0


class TestImportanceKl:
    # Both sides come from the same weights, so for every input, up to
    # rounding: KL is the KL of the normalized weights from uniform (>= 0)
    # and at most scale * mean(B) (Jensen, B >= 0), and the E_mu[B]
    # estimate is a weighted mean of B.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(float, st.integers(1, 64), elements=st.floats(0.0, 50.0)),
           st.floats(1e-3, 1e3))
    @example(np.full(36, 5e-324), 1.0)  # the weighted mean underflowed to 0
    def test_estimates_stay_in_their_ranges(self, b, scale):
        est = importance_kl(b, scale)
        kl, mean_b = est["kl_estimate"], est["bregman_mean_under_mu"]
        tol = 1e-12 * (1.0 + scale * b.max())
        assert -tol <= kl <= scale * b.mean() + tol
        assert b.min() - 1e-15 * b.max() <= mean_b <= b.max() * (1.0 + 1e-15)
        assert 1.0 - 1e-12 <= est["z_importance_ess"] <= b.size * (1 + 1e-12)

    def test_kl_halfwidth_is_calibrated(self):
        # The product side alone on the quadratic oracle at N = 4: over 64
        # seeds, the sd of the KL estimate is within 25 % of the mean
        # reported standard error (half the half-width).  A sample sd of
        # 64 draws is off by 25 % with probability about 0.5 %.  The
        # first-order sqrt(sum wt^2 (log w - m)^2), which leaves out the
        # covariance with log mean(w), reads about twice too wide.
        target = TargetSpec(quadratic_preset(), 4)
        effort = McmcConfig(n_pi_samples=8192)
        system = solve_self_consistent(target.model)
        reports = [_estimate(target, seed, effort, system)
                   for seed in range(64)]
        sd = np.std([r.kl_estimate for r in reports], ddof=1)
        se = np.mean([r.kl_halfwidth for r in reports]) / 2.0
        assert abs(sd / se - 1.0) <= 0.25, (sd, se)


class TestPocBound:
    def test_zero_beta_hat(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=0.0, B=0.0, d=1)
        assert poc_bound(inputs, 1.0, 1.0, "generic") == 0.0

    def test_generic_arithmetic(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=1.0, B=0.0, d=1)
        assert poc_bound(inputs, 1.0, 1.0, "generic") == pytest.approx(4.0)

    def test_example_nn_arithmetic(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=1.0, B=0.0, d=1)
        assert poc_bound(inputs, 1.0, 1.0, "example_nn") == pytest.approx(1.0)

    def test_domain_error(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=1.0, B=0.0, d=1)
        with pytest.raises(CalculatorDomainError):
            poc_bound(inputs, 1.0, -1.0, "generic")


class TestEstimateKlZeroModel:
    def test_exact_zero(self):
        report = estimate_kl(zero_model(sigma=1.0, lam=0.5), 3,
                             mcmc=McmcConfig(n_samples=800, n_burnin=200,
                                             n_pi_samples=2000), seed=0)
        assert report.kl_estimate == 0.0
        assert report.kl_halfwidth == 0.0
        assert report.log_z_halfwidth == 0.0
        assert report.flags["bregman_nonnegative"]
        assert report.flags["kl_below_poc"]


@pytest.fixture(scope="module")
def report():
    return estimate_kl(quadratic_preset(), 4, mcmc=FAST, seed=2)


@pytest.fixture(scope="module")
def reports():
    return chaos_sweep(quadratic_preset(), [2, 4], mcmc=FAST, seed=5)


class TestEstimateKlQuadratic:
    def test_matches_gaussian_oracle(self, report):
        exact = quadratic_kl_exact(0.5, 1.0, 4)
        assert abs(report.kl_estimate - exact) <= 2.0 * report.kl_halfwidth

    def test_variance_step_rhs_is_the_closed_form_at_n1024(self):
        # Every particle shares the law pibar, so the right-hand side is
        # kappa Var_pibar(x) / (2N).
        model, n = quadratic_preset(), 1024
        _, var = quadratic_pi_moments(0.5, 0.3, 1.0, 1.0)
        got = _variance_step_rhs(model, solve_self_consistent(model), n)
        assert got == pytest.approx(0.5 * var / (2 * n), rel=1e-6)

    def test_product_side_meets_the_exact_kl_at_n256(self):
        # The gate of the streamed product side: at N = 256, with the
        # default effort at seed 0, the IS KL lies within 2 se (one
        # half-width) of the exact, N-free value 0.03607.
        model = quadratic_preset()
        report = _estimate(TargetSpec(model, 256), 0, McmcConfig(),
                           solve_self_consistent(model))
        exact = quadratic_kl_exact(0.5, 1.0, 256)
        assert exact == pytest.approx(0.03607, abs=5e-6)
        assert abs(report.kl_estimate - exact) <= report.kl_halfwidth, (
            report.kl_estimate, report.kl_halfwidth)

    def test_product_side_meets_the_exact_kl_at_n1024(self):
        # The same gate at N = 1024, which the streamed product side makes
        # cheap: 0.036445 +- 0.000950 at seed 0.
        model = quadratic_preset()
        report = _estimate(TargetSpec(model, 1024), 0, McmcConfig(),
                           solve_self_consistent(model))
        exact = quadratic_kl_exact(0.5, 1.0, 1024)
        assert exact == pytest.approx(0.03607, abs=5e-6)
        assert abs(report.kl_estimate - exact) <= report.kl_halfwidth, (
            report.kl_estimate, report.kl_halfwidth)

    def test_between_chain_ci_is_calibrated(self):
        # 16 seeds at reduced effort: the MALA E_mu[B] of the cross-check
        # against its exact value.  The half-width is 2 standard errors
        # from 32 chain means (a t law with 31 degrees of freedom), so for
        # a calibrated interval:
        # - a miss of 2 half-widths has probability 3.7e-4 per seed, and
        #   some seed misses with probability 0.6 %;
        # - a seed is covered by one half-width with probability 0.946 to
        #   0.954 (t or normal law), and at most 12 of 16 are covered with
        #   probability under 1 %.
        # An interval half as wide as it should be covers about 68 %, and
        # then at most 12 of 16 are covered with probability 0.8.
        effort = McmcConfig(n_samples=2048, n_burnin=256,
                            n_pi_samples=1024)
        exact = quadratic_bregman_mean_exact(0.5, 1.0, 1.0, 4)
        errors = []
        for seed in range(16):
            r = estimate_kl(quadratic_preset(), 4, mcmc=effort, seed=seed)
            errors.append(abs(r.mala_bregman_mean - exact)
                          / r.mala_bregman_halfwidth)
        errors = np.array(errors)
        assert np.all(errors <= 2.0), errors
        assert np.sum(errors <= 1.0) >= 13, errors

    def test_oracle_formula_cross_check(self):
        # The compact formula agrees with the longhand multivariate KL.
        for n in (2, 4, 8):
            mean, cov = quadratic_mu_gaussian(0.5, 0.3, 1.0, 1.0, n)
            m_pi, v_pi = quadratic_pi_moments(0.5, 0.3, 1.0, 1.0)
            kl_long = gaussian_kl_full(mean, cov, np.full(n, m_pi),
                                       v_pi * np.eye(n))
            assert abs(kl_long - quadratic_kl_exact(0.5, 1.0, n)) < 1e-12

    def test_proof_chain_flags(self, report):
        assert report.flags["bregman_nonnegative"]
        assert report.flags["mala_agrees"]
        assert report.flags["kl_below_poc"]
        assert report.flags["kl_below_poc_ii"]
        assert report.flags["variance_step"]

    def test_variance_step_is_equality_for_squared_loss(self, report):
        # E_pi[B] = (beta_ell/2N^2) sum_i var_{pi^i}(h) exactly for a
        # quadratic loss; the Monte Carlo side sits within its CI.
        assert abs(report.bregman_mean_under_pi - report.variance_step_rhs) \
            <= report.bregman_pi_halfwidth

    def test_determinism(self):
        small = McmcConfig(n_samples=400, n_burnin=100, n_pi_samples=1000)
        r1 = estimate_kl(quadratic_preset(), 2, mcmc=small, seed=9)
        r2 = estimate_kl(quadratic_preset(), 2, mcmc=small, seed=9)
        assert r1.to_dict() == r2.to_dict()


class TestChains:
    def test_pi_side_does_not_depend_on_n_chains(self):
        small = McmcConfig(n_samples=400, n_burnin=100, n_pi_samples=1000,
                           n_chains=2)
        r2 = estimate_kl(relu_preset(), 2, mcmc=small, seed=9)
        r5 = estimate_kl(relu_preset(), 2, mcmc=replace(small, n_chains=5),
                         seed=9)
        for name in ("kl_estimate", "kl_halfwidth", "bregman_mean_under_mu",
                     "bregman_mu_halfwidth", "bregman_mean_under_pi",
                     "bregman_pi_halfwidth", "log_z", "log_z_halfwidth",
                     "z_importance_ess", "variance_step_rhs"):
            assert getattr(r2, name) == getattr(r5, name), name
        assert r2.mala_bregman_mean != r5.mala_bregman_mean
        assert (r2.sampler.n_chains, r2.sampler.n_samples) == (2, 200)
        assert (r5.sampler.n_chains, r5.sampler.n_samples) == (5, 80)

    def test_one_chain_rejected(self):
        with pytest.raises(ConfigError, match="n_chains"):
            McmcConfig(n_chains=1)


class TestEstimateKlRelu:
    def test_low_ess_widens_log_z_halfwidth(self):
        # 64 product draws cannot reach the ESS floor of 100.
        small = McmcConfig(n_samples=400, n_burnin=100, n_pi_samples=64,
                           n_chains=2)
        r = estimate_kl(relu_preset(), 2, mcmc=small, seed=1)
        assert not r.flags["z_ess_ok"]
        closed = 2.0 * math.sqrt(1.0 / r.z_importance_ess - 1.0 / 64)
        assert r.log_z_halfwidth == pytest.approx(
            Z_ESS_WIDEN_FACTOR * closed, rel=1e-12)

    def test_reports_solver_health(self):
        small = McmcConfig(n_samples=400, n_burnin=100, n_pi_samples=1000,
                           n_chains=2)
        r = estimate_kl(relu_preset(), 2, mcmc=small, seed=1)
        assert r.solver_iterations >= 1
        assert r.solver_residual < DEFAULT_TOL
        assert r.to_dict()["solver_residual"] == r.solver_residual

    def test_bounds_and_flags(self):
        report = estimate_kl(relu_preset(), 2, mcmc=FAST, seed=3)
        assert report.flags["kl_below_poc"]
        assert report.flags["kl_below_poc_ii"]
        assert report.flags["variance_step"]
        assert report.flags["mala_agrees"]
        assert report.z_importance_ess > 100


class TestSweep:
    def test_one_solve_serves_every_n(self, monkeypatch):
        # The untilted fixed point does not depend on N.
        solve, calls = mflab.chaos.solve_self_consistent, []

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(mflab.chaos, "solve_self_consistent", spy)
        effort = McmcConfig(n_samples=512, n_burnin=64, n_pi_samples=2048,
                            n_chains=4)
        chaos_sweep(relu_preset(), [2, 4, 8, 16], mcmc=effort, seed=0)
        assert len(calls) == 1

    def test_no_ci_significant_growth(self, reports):
        assert no_growth_in_n(reports).passed
        assert no_growth_in_n(reports[:1]) is None

    @pytest.mark.parametrize("kl_last, passed", [
        (1.5, True), (1.75, True), (2.0, False)])
    def test_growth_beyond_twice_the_summed_halfwidths_fails(
            self, reports, kl_last, passed):
        # Half-widths 1/8 and 1/4 let the KL rise by 2 (1/8 + 1/4) = 3/4
        # from N = 4 to N = 8; the flat step from N = 2 is never the worst.
        made = [replace(reports[0], n_particles=n, kl_estimate=kl,
                        kl_halfwidth=hw)
                for n, kl, hw in ((8, kl_last, 0.25), (2, 1.0, 0.125),
                                  (4, 1.0, 0.125))]
        growth = no_growth_in_n(made)
        assert growth.passed is passed
        assert growth.name == "N=4->8 no_growth_in_n"
        se = math.hypot(0.125, 0.25) / 2
        assert growth.margin == pytest.approx((1.0 - kl_last) / se)

    def test_csv_output(self, reports, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_to_csv(reports, path, "quadratic")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("model,n_particles,seed,kl_estimate")

    def test_each_report_is_the_single_n_estimate(self, reports):
        # The product-side fields of each report equal estimate_kl at its
        # own seed bit for bit; only the smallest N runs the MALA
        # cross-check, and its report is estimate_kl's whole.
        mala = {"mala_bregman_mean", "mala_bregman_halfwidth", "sampler",
                "flags", "checks"}
        for i, (n, swept) in enumerate(zip([2, 4], reports)):
            alone = estimate_kl(quadratic_preset(), n, mcmc=FAST, seed=5 + i)
            got, want = swept.to_dict(), alone.to_dict()
            assert got.keys() == want.keys()
            for key in got.keys() - mala:
                assert got[key] == want[key], key
            assert got["flags"] == {k: v for k, v in want["flags"].items()
                                    if i == 0 or k != "mala_agrees"}
            assert got["checks"] == [c for c in want["checks"]
                                     if i == 0 or c["name"] != "mala_agrees"]
            if i == 0:
                assert got == want
            else:
                assert all(got[k] is None for k in mala - {"flags", "checks"})

    def test_peak_is_set_by_the_largest_n_product_side(self):
        # The MALA samples are drawn and reduced in a forked child, and
        # each N's product draws are freed before the next N's, so the
        # sweep's peak is set by the product side of its largest N, as
        # for that N alone.
        effort = McmcConfig(n_samples=8192, n_burnin=64, n_pi_samples=8192,
                            n_chains=4)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        model = relu_preset()
        single = peak(lambda: estimate_kl(model, 16, mcmc=effort, seed=0))
        sweep = peak(lambda: chaos_sweep(model, [2, 4, 8, 16], mcmc=effort,
                                         seed=0))
        assert sweep <= 1.1 * single, (sweep, single)


    def test_product_side_peak_is_flat_in_n(self):
        # The product draws are streamed into a running (S, n_data) sum, so
        # no (S, N) array is formed: at S = 8192, an (S, N) buffer alone
        # would be 16.8 MB at N = 256 against 1 MB at N = 16.
        effort = McmcConfig(n_pi_samples=8192)
        model = relu_preset()

        system = solve_self_consistent(model)

        def peak(n):
            tracemalloc.start()
            try:
                _estimate(TargetSpec(model, n), 0, effort, system)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(16), peak(256)
        assert large <= 1.25 * small, (large, small)


class TestTiltedEstimate:
    def test_tilted_zero_model_runs_and_is_zero(self):
        from mflab.sampler import TiltSpec

        tilt = TiltSpec(0.5, np.array([[0.4], [-0.2]]))
        report = estimate_kl(rescale_model(zero_model(sigma=1.0, lam=1.0)), 2,
                             mcmc=McmcConfig(n_samples=500, n_burnin=200,
                                             n_pi_samples=1000),
                             seed=4, tilt=tilt)
        assert report.kl_estimate == 0.0
        assert report.alpha == pytest.approx(1.0 + 1.0 / 0.5)


SRC = str(Path(__file__).resolve().parent.parent / "src")
SMALL = McmcConfig(n_samples=512, n_burnin=64, n_pi_samples=2048, n_chains=4)


@contextmanager
def inline(fn, *args):
    """forked's contract, run in this process."""
    value = fn(*args)
    yield lambda: value


def raise_simulation_diverged():
    raise SimulationDivergedError(5, 1e7)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def sweep_dicts():
    return [r.to_dict() for r in chaos_sweep(relu_preset(), [4, 2, 8],
                                             mcmc=SMALL, seed=3)]


class TestForkedCrossCheck:
    """The MALA cross-check runs in a child forked by mflab.forking.forked
    while the parent takes the product sides; every test also checks, in
    conftest, that no child is left unreaped."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # A wait that hangs ends the run with every thread's traceback.
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_child_exception_keeps_its_type(self):
        with forked(raise_simulation_diverged) as result:
            with pytest.raises(SimulationDivergedError) as info:
                result()
        assert (info.value.step, info.value.max_abs) == (5, 1e7)
        assert str(info.value) == str(SimulationDivergedError(5, 1e7))

    def test_child_value_comes_back(self):
        with forked(divmod, 17, 5) as result:
            assert result() == (3, 2)

    def test_killed_child_names_its_status(self):
        with forked(kill_self) as result:
            with pytest.raises(MflabError, match="kill_self in a forked "
                               "child exited with status -9"):
                result()

    def test_parent_failure_partway_leaves_no_child(self, monkeypatch):
        # The second product side fails, after the fork.
        fit, fits, entered = mflab.chaos.inverse_cdf, [], []

        def failing(density):
            fits.append(density)
            if len(fits) == 2:
                raise NonconvergenceError([1.0, 0.5])
            return fit(density)

        @contextmanager
        def spy(fn, *args):
            with forked(fn, *args) as result:
                entered.append(fn.__name__)
                yield result

        monkeypatch.setattr(mflab.chaos, "inverse_cdf", failing)
        monkeypatch.setattr(mflab.chaos, "forked", spy)
        with pytest.raises(NonconvergenceError):
            chaos_sweep(relu_preset(), [2, 4, 8], mcmc=SMALL, seed=0)
        assert entered == ["_cross_check"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_reports_survive_a_1ms_sigalrm(self, monkeypatch):
        # The parent's pipe read and waitpid are interrupted over and over;
        # the reports equal those of the same sweep run inline.
        ticks = []
        previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(1))
        signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
        try:
            swept = sweep_dicts()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert len(ticks) > 10
        monkeypatch.setattr(mflab.chaos, "forked", inline)
        assert swept == sweep_dicts()

    def test_forks_after_a_warm_two_thread_blas_pool(self):
        # The pool's threads are not copied by fork; the child must still
        # finish and give the reports of the inline sweep.
        script = (
            "import json, numpy as np, mflab.chaos, test_chaos as t\n"
            "a = np.ones((512, 512)); a @ a\n"
            "swept = t.sweep_dicts()\n"
            "mflab.chaos.forked = t.inline\n"
            "print(json.dumps(swept == t.sweep_dicts()))\n")
        path = os.pathsep.join([SRC, str(Path(__file__).parent)])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="2"),
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) is True
