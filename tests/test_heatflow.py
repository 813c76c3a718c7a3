"""Tilt profiles and the reverse transport map."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import mflab.heatflow

from mflab.bounds import (
    BoundInputs,
    gaussian_proxy,
    heatflow_lipschitz_bound,
    main_bound,
    tilted_alpha,
)
from mflab.errors import (
    IntegrationFailureError,
    InvalidTargetError,
    TiltDomainError,
    UnsupportedDimensionError,
)
from mflab.heatflow import (
    FlowMap,
    _tilted_moments,
    covariance_profile,
    default_profile_times,
    large_regime_envelope,
    lipschitz_estimate,
    pushforward_w2,
    regime_threshold,
    reverse_flow_map,
    small_regime_envelope,
)
from mflab.measure import (
    Axis,
    GridDensity,
    Pchip,
    covariance_opnorm,
    inverse_cdf,
    normalize_from_log_potential,
    sample_from_grid,
)
from mflab.model import model_constants, rescale_model, zero_model
from mflab.presets import PRESETS, relu_preset
from mflab.sampler import TargetSpec, TiltSpec, n_particle_log_density

from _oracles import (
    adapted_tilted_opnorm,
    fitted_small_t_remainder,
    gaussian_on_grid,
    largest_eigenvalue_2x2,
    tilted_gaussian_variance,
    tilted_measure,
)

AX = Axis(-10.0, 10.0, 2048)


def grid_gaussian(mean=0.0, var=1.0, axis=AX):
    x = axis.nodes()
    return normalize_from_log_potential(-0.5 * (x - mean) ** 2 / var, (axis,))


def relu_gibbs_density(axis=None):
    model = rescale_model(relu_preset())
    target = TargetSpec(model, 1)
    axis = axis or Axis(-9.0, 9.0, 2048)
    log_u = n_particle_log_density(target, axis.nodes()[:, None, None])
    return normalize_from_log_potential(log_u, (axis,)), model


class TestTiltedMeasure:
    def test_gaussian_variance_formula_independent_of_y(self):
        s2 = 0.49
        mu = grid_gaussian(var=s2)
        t = 0.7
        expected = tilted_gaussian_variance(s2, t)
        for y in (-1.0, 0.0, 2.0):
            out = tilted_measure(mu, t, [y])
            assert abs(float(out.covariance()[0, 0]) - expected) < 1e-8

    def test_mass_normalized(self):
        mu = grid_gaussian(var=0.5)
        for t in (0.05, 0.5, 5.0):
            out = tilted_measure(mu, t, [0.3])
            assert abs(np.sum(out.quad_weights() * out.weights) - 1.0) < 1e-8

    def test_large_t_limit_matches_direct_normalization(self):
        mu = grid_gaussian(var=0.4, axis=Axis(-14.0, 14.0, 4096))
        out = tilted_measure(mu, 1e9, [0.0])
        x = mu.nodes()
        direct = normalize_from_log_potential(
            np.log(mu.weights) + 0.5 * x * x, mu.axes)
        assert np.max(np.abs(out.weights - direct.weights)) < 1e-8

    def test_non_normalizable_tilt_rejected(self):
        # variance > 1 makes exp(x^2/2) mu non-integrable: boundary peak
        mu = grid_gaussian(var=1.44)
        with pytest.raises(TiltDomainError):
            tilted_measure(mu, 1e9, [0.0])

    def test_dimension_check(self):
        mu = grid_gaussian()
        with pytest.raises(TiltDomainError):
            tilted_measure(mu, 0.5, [0.0, 1.0])

    def test_under_resolved_tilt_rejected(self):
        # at t = 1e-5 the tilt width sqrt(t) is far below the grid spacing
        mu = grid_gaussian(var=0.49)
        with pytest.raises(TiltDomainError, match="under-resolved"):
            tilted_measure(mu, 1e-5, [0.0])


@pytest.fixture(scope="module")
def relu_profile():
    model = rescale_model(relu_preset())
    target = TargetSpec(model, 1)
    inputs = model_constants(model)
    ts = default_profile_times(inputs, n=40, decades_around=2.0)
    ys = [np.array([-3.0]), np.array([0.0]), np.array([3.0])]
    return covariance_profile(target, ts, ys, inputs), inputs


class TestGaussianProxy:
    @pytest.mark.parametrize("sigma, lam", [(1.0, 1.0), (1.3, 0.37)])
    @pytest.mark.parametrize("t, y", [(0.01, 3.0), (0.5, -3.0), (20.0, 1.5)])
    def test_is_the_zero_models_tilted_law(self, sigma, lam, t, y):
        # Without interaction the tilt of the Gibbs measure is Gaussian, so
        # the proxy is exact: mean y/(1 + a t) and variance 1/alpha_t.
        model = rescale_model(zero_model(sigma=sigma, lam=lam))
        inputs = model_constants(model)
        yy = np.full(1, y)
        mean, cov = _tilted_moments(TargetSpec(model, 1), t, yy, inputs)
        center, sd = gaussian_proxy(inputs, t, yy)
        a = tilted_alpha(inputs, math.inf)
        assert center[0] == y / (1.0 + a * t)
        assert sd**2 == pytest.approx(1.0 / tilted_alpha(inputs, t), rel=1e-15)
        assert mean[0] == pytest.approx(center[0], rel=1e-9, abs=1e-12)
        assert cov[0, 0] == pytest.approx(sd**2, rel=1e-9)

    def test_untilted_is_the_stationary_gaussian(self):
        center, sd = gaussian_proxy(zero_model(sigma=1.3, lam=0.37))
        assert center == 0.0
        assert sd == pytest.approx(1.3 / math.sqrt(2.0 * 0.37), rel=1e-15)

    def test_refuses_a_tilt_that_is_not_normalizable(self):
        # 2 lam / sigma^2 - 1 + 1/t = 0.2 - 1 + 0.1 < 0
        low = BoundInputs(sigma=1.0, lam=0.1, beta_hat=0.0, B=0.0)
        with pytest.raises(InvalidTargetError, match="alpha_t"):
            gaussian_proxy(low, 10.0, np.zeros(1))
        # at t = 1, alpha_t = 0.2
        assert gaussian_proxy(low, 1.0, np.zeros(1))[1] == pytest.approx(
            1.0 / math.sqrt(0.2), rel=1e-15)


class TestCovarianceProfile:
    def test_zero_model_exact(self):
        model = rescale_model(zero_model(sigma=1.0, lam=1.0))
        target = TargetSpec(model, 1)
        inputs = model_constants(model)
        ts = np.geomspace(1e-3, 1e3, 13)
        prof = covariance_profile(target, ts, [np.array([0.0]), np.array([2.0])],
                                  inputs)
        a = 1.0
        assert prof.opnorm.shape == (2, 13)
        assert np.max(np.abs(prof.opnorm - 1.0 / (a + 1.0 / ts))) < 1e-8

    def test_regime_threshold_values(self):
        model = rescale_model(relu_preset())
        inputs = model_constants(model)
        # B = sigma = lam = 1 after rescaling: 20 - 2 + 1 = 19
        assert regime_threshold(inputs) == pytest.approx(1.0 / 19.0)
        zero_inputs = model_constants(rescale_model(zero_model(1.0, 1.0)))
        assert regime_threshold(zero_inputs) == math.inf

    def test_envelopes_hold_with_unit_constants(self, relu_profile):
        prof, _ = relu_profile
        small = prof.ts <= prof.t_star
        assert 0 < np.count_nonzero(small) < prof.ts.size
        assert np.all(prof.opnorm[:, small] <= prof.small_regime_ref[small])
        assert np.all(prof.opnorm[:, ~small] <= prof.large_regime_ref[~small])
        assert np.all(prof.opnorm <= prof.reference())

    def test_fitted_ratio_stable_across_tilt_centers(self, relu_profile):
        prof, _ = relu_profile
        ratios = prof.fitted_profile_ratios()
        assert ratios.shape == (3,)
        mid = 0.5 * (max(ratios) + min(ratios))
        assert (max(ratios) - min(ratios)) <= 0.4 * mid

    def test_small_t_ratio_approaches_one(self, relu_profile):
        prof, _ = relu_profile
        first = np.argmin(prof.ts)
        assert np.all(np.abs(prof.opnorm[:, first] / prof.ts[first] - 1.0)
                      < 0.02)

    def test_small_t_remainder_sqrt_bounded_out_of_sample(self, relu_profile):
        # Fit the sqrt(t) remainder constant away from the smallest times,
        # then verify the smallest times obey the same envelope.
        prof, _ = relu_profile
        c_fit = fitted_small_t_remainder(prof, skip_smallest=10)
        smallest = np.argsort(prof.ts)[:10]
        t = prof.ts[smallest]
        assert np.all(np.abs(prof.opnorm[:, smallest] / t - 1.0)
                      <= np.maximum(c_fit, 1e-3)[:, None] * np.sqrt(t) * 1.5)

    def test_large_t_limit_matches_tilt_removed_measure(self):
        # opnorm(t -> inf) equals the variance of the direct e^{x^2/2} mu
        # normalization.
        mu, _ = relu_gibbs_density(Axis(-12.0, 12.0, 4096))
        opnorm = covariance_opnorm(
            tilted_measure(mu, 1e8, [0.0]).covariance())
        x = mu.nodes()
        direct = normalize_from_log_potential(
            np.log(mu.weights) + 0.5 * x * x, mu.axes)
        expected = covariance_opnorm(direct.covariance())
        assert abs(opnorm - expected) < 1e-6

    def test_two_particle_profile_on_2d_grid(self):
        model = rescale_model(relu_preset())
        target = TargetSpec(model, 2)
        inputs = model_constants(model)
        ts = np.geomspace(0.01, 1.0, 4)
        prof = covariance_profile(target, ts, [np.array([0.5, -0.5])], inputs)
        assert prof.opnorm.shape == (1, 4)
        assert np.all(prof.opnorm <= prof.small_regime_ref)
        assert np.all(prof.opnorm > 0)

    @pytest.mark.parametrize("preset,n,n_times,ys", [
        *[(name, 1, 40, [[-3.0], [0.0], [3.0]])
          for name in ("relu3", "tanh2", "logistic2", "unit_zero")],
        *[(name, 2, 8, [[0.0, 0.0], [0.5, -0.5]])
          for name in ("relu3", "tanh2", "logistic2")],
    ])
    def test_rows_equal_grid_density_reference(self, preset, n, n_times, ys):
        target = TargetSpec(rescale_model(PRESETS[preset]()), n)
        inputs = model_constants(target.model)
        ts = default_profile_times(inputs, n=n_times, decades_around=2.0)
        ys = [np.array(y) for y in ys]
        prof = covariance_profile(target, ts, ys, inputs)
        expected = [adapted_tilted_opnorm(target, float(t), y, inputs)
                    for y in ys for t in ts]
        assert prof.opnorm.ravel().tolist() == expected

    @pytest.mark.parametrize("preset,n,tol", [
        ("relu3", 1, 2e-6), ("logistic2", 1, 2e-6), ("tanh2", 1, 1e-13),
        ("relu3", 2, 3e-4), ("logistic2", 2, 3e-4), ("tanh2", 2, 1e-13)])
    def test_rows_match_a_fine_grid_reference(self, preset, n, tol):
        # The profile's own accuracy, against the same rows on 16384 nodes
        # in 1-d and 1024^2 in 2-d: the ReLU kink costs about 1e-6 relative
        # at N = 1 and 1.7e-4 at N = 2 (relu3 at t = 5.26, y = 3/3); tanh2
        # agrees to rounding.  At N = 2 only the largest time, where the
        # kink error peaks, keeps the 1024^2 reference cheap.
        target = TargetSpec(rescale_model(PRESETS[preset]()), n)
        inputs = model_constants(target.model)
        ts = default_profile_times(inputs, n=40 if n == 1 else 8,
                                   decades_around=2.0)
        ts = ts if n == 1 else ts[-1:]
        ys = [np.full(n, c) for c in (-3.0, 0.0, 3.0)]
        if n == 2:
            ys[0] = np.array([0.5, -0.5])
        prof = covariance_profile(target, ts, ys, inputs)
        reference = np.array([
            [adapted_tilted_opnorm(target, float(t), y, inputs,
                                   16384 if n == 1 else 1024) for t in ts]
            for y in ys])
        assert np.max(np.abs(prof.opnorm / reference - 1.0)) <= tol

    def test_two_particle_opnorm_is_largest_eigenvalue(self):
        # At y = 0 the two particles are exchangeable and, at small t,
        # negatively correlated, so (1, 1) spans the smaller eigenvalue.
        target = TargetSpec(rescale_model(relu_preset()), 2)
        inputs = model_constants(target.model)
        y = np.zeros(2)
        ts = default_profile_times(inputs, n=8, decades_around=2.0)
        prof = covariance_profile(target, ts, [y], inputs)
        for t, opnorm in zip(prof.ts, prof.opnorm[0]):
            exact = largest_eigenvalue_2x2(
                _tilted_moments(target, t, y, inputs)[1])
            assert abs(opnorm - exact) < 1e-12 * exact

    def test_grid_backed_matches_potential_backed(self):
        mu, model = relu_gibbs_density()
        target = TargetSpec(rescale_model(relu_preset()), 1)
        inputs = model_constants(model)
        ts = [0.2, 1.0]
        p_target = covariance_profile(target, ts, [np.array([0.5])], inputs)
        for t, measured in zip(ts, p_target.opnorm[0]):
            opnorm = covariance_opnorm(
                tilted_measure(mu, t, [0.5]).covariance())
            assert abs(opnorm - measured) < 1e-6

    def test_rows_build_no_grid_density(self, relu_profile, monkeypatch):
        # Each row evaluates its tilted density once, on its 2048 fine
        # nodes, and nowhere else (a coarse mode scan once evaluated the
        # untilted one on 801 more per box); no row builds a GridDensity.
        prof, inputs = relu_profile
        target = TargetSpec(rescale_model(relu_preset()), 1)
        built, sizes = [], []
        init, real = GridDensity.__post_init__, n_particle_log_density

        def recording(target, xb, tilt):
            sizes.append(xb.shape[0])
            return real(target, xb, tilt)

        monkeypatch.setattr(GridDensity, "__post_init__",
                            lambda self: built.append(1) or init(self))
        monkeypatch.setattr(mflab.heatflow, "n_particle_log_density",
                            recording)
        covariance_profile(target, prof.ts,
                           [np.zeros(1), np.full(1, 3.0), np.full(1, -3.0)],
                           inputs)
        assert built == []
        assert sizes == [2048] * prof.opnorm.size
        grid_gaussian()
        assert built == [1]

    @pytest.mark.parametrize("log_density,error,match", [
        (lambda x: 50.0 * x, TiltDomainError, "grid boundary"),
        (lambda x: np.where(np.abs(x) < 0.05, np.nan, -0.5 * x * x),
         ValueError, "NaN"),
        (lambda x: -0.01 * np.abs(x), TiltDomainError, "3 widenings"),
    ])
    def test_bad_tilted_density_rejected(self, monkeypatch, log_density,
                                         error, match):
        # The patched kernel returns the row's tilted density: a ramp peaks
        # on the fine grid's edge, a NaN band sits inside it, and a Laplace
        # law of scale 100 reaches every window's edge.
        target = TargetSpec(rescale_model(relu_preset()), 1)
        inputs = model_constants(target.model)
        monkeypatch.setattr(mflab.heatflow, "n_particle_log_density",
                            lambda target, xb, tilt: log_density(xb[:, 0, 0]))
        with pytest.raises(error, match=match):
            covariance_profile(target, [1.0], [np.zeros(1)], inputs)

    def test_bad_tilt_rejected(self, monkeypatch):
        target = TargetSpec(rescale_model(relu_preset()), 1)
        inputs = model_constants(target.model)
        with pytest.raises(TiltDomainError, match="coords"):
            covariance_profile(target, [1.0], [np.zeros(2)], inputs)
        # 2 lam / sigma^2 - 1 + 1/t = 0.2 - 1 + 0.1 < 0
        low = dataclasses.replace(inputs, lam=0.1, sigma=1.0)
        with pytest.raises(TiltDomainError, match="alpha_t"):
            covariance_profile(target, [10.0], [np.zeros(1)], low)
        # t = 0 once ended in a ZeroDivisionError and t = -2 read 1.06;
        # the times are refused before any row is evaluated.
        monkeypatch.setattr(mflab.heatflow, "_tilted_moments", None)
        for bad in (0.0, -2.0, math.nan):
            with pytest.raises(TiltDomainError, match="> 0"):
                covariance_profile(target, [0.5, bad], [np.zeros(1)], inputs)

    def test_tilted_target_rejected(self):
        # The profile applies its own tilts; a target that already carries
        # one would be tilted twice (y=0 once read 0.0800 for 0.0882).
        model = rescale_model(relu_preset())
        inputs = model_constants(model)
        target = TargetSpec(model, 1, TiltSpec(0.5, [[1.0]]))
        with pytest.raises(InvalidTargetError, match="tilt"):
            covariance_profile(target, [0.05, 0.5], [np.zeros(1)], inputs)

    def test_csv_and_svg_outputs(self, relu_profile, tmp_path):
        prof, _ = relu_profile
        prof.to_csv(tmp_path / "profile.csv")
        assert (tmp_path / "profile.csv").read_text().startswith("t,y,opnorm")

    def test_csv_one_line_per_y_and_t_y_major(self, relu_profile, tmp_path):
        # Each time's alpha_t, envelopes and regime repeat for every tilt
        # center; the opnorm column is the table read row by row.
        prof, inputs = relu_profile
        prof.to_csv(tmp_path / "profile.csv")
        header, *lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert header == ("t,y,opnorm,alpha_t,small_regime_ref,"
                          "large_regime_ref,regime")
        assert len(lines) == 3 * 40
        for i, label in enumerate(["y=-3", "y=0", "y=3"]):
            for j, t in enumerate(prof.ts.tolist()):
                assert lines[40 * i + j].split(",") == [
                    repr(t), label, repr(float(prof.opnorm[i, j])),
                    repr(tilted_alpha(inputs, t)),
                    repr(small_regime_envelope(inputs, t)),
                    repr(large_regime_envelope(inputs, t)),
                    "small" if t <= regime_threshold(inputs) else "large"]


class TestReverseFlowMap:
    def test_gamma_maps_to_identity(self):
        gamma = grid_gaussian()
        fm = reverse_flow_map(gamma)
        assert np.max(np.abs(fm.mapped - fm.source)) < 1e-6
        assert lipschitz_estimate(fm) == pytest.approx(1.0, abs=1e-5)

    def test_narrow_gaussian_gives_linear_map(self):
        s = 0.8
        mu = grid_gaussian(var=s * s)
        fm = reverse_flow_map(mu)
        window = np.abs(fm.source) <= 4.0
        err = np.max(np.abs(fm.mapped[window] - s * fm.source[window]))
        assert err < 1e-7
        assert abs(lipschitz_estimate(fm) - s) < 1e-5

    def test_relu_preset_pushforward_and_bounds(self):
        mu, model = relu_gibbs_density()
        fm = reverse_flow_map(mu)
        assert np.all(np.diff(fm.mapped) > 0)
        assert pushforward_w2(fm, mu) < 1e-6
        lip = lipschitz_estimate(fm)
        target = TargetSpec(rescale_model(relu_preset()), 1)
        inputs = model_constants(model)
        ts = default_profile_times(inputs, n=40, decades_around=2.0)
        prof = covariance_profile(target, ts, [np.array([0.0]),
                                            np.array([3.0]),
                                            np.array([-3.0])], inputs)
        bound, _, _ = prof.fitted_lipschitz_bound()
        assert lip <= bound
        assert lip <= main_bound(model_constants(relu_preset()), "generic")

    def test_relu_preset_pushforward_below_1e_8(self):
        # Phi^{-1} and Phi in closed form: the map's W2 once read 1.8e-7
        # here, when both came from a grid of gamma.
        mu, _ = relu_gibbs_density()
        assert pushforward_w2(reverse_flow_map(mu), mu) < 1e-8

    def test_zero_model_map_is_linear(self):
        # mu = N(0, sigma^2 / 2 lam), so Q_mu o Phi is sigma/sqrt(2 lam) z.
        # mu's own 10-sd grid reaches 8 sd of gamma only in closed form: with
        # gamma on that grid the map once failed as not strictly increasing.
        model = zero_model(sigma=1.0, lam=4.0)
        ax = Axis(-3.6, 3.6, 2048)
        log_u = n_particle_log_density(TargetSpec(model, 1),
                                       ax.nodes()[:, None, None])
        fm = reverse_flow_map(normalize_from_log_potential(log_u, (ax,)))
        slope = 1.0 / math.sqrt(8.0)
        assert np.max(np.abs(fm.mapped - slope * fm.source)) < 5e-8
        assert abs(lipschitz_estimate(fm) / slope - 1.0) < 1e-8

    def test_non_monotone_from_mass_gap(self):
        # F is flat to 1e-29 between the modes, so the forward map is too.
        ax = Axis(-8.0, 8.0, 512)
        x = ax.nodes()
        log_u = np.logaddexp(-0.5 * (x + 2.0) ** 2 / 0.03,
                             -0.5 * (x - 2.0) ** 2 / 0.03)
        bimodal = normalize_from_log_potential(log_u, (ax,))
        with pytest.raises(IntegrationFailureError,
                           match="not strictly increasing"):
            reverse_flow_map(bimodal)

    @pytest.mark.parametrize("zeros", [[1024], [1024, 1025],
                                       [1500, 1501, 1502, 1503]])
    def test_zero_inside_the_window_rejected(self, zeros):
        # The map reads mu within 8 sd of its mean (x = 0.004 and 4.19 here);
        # an isolated zero there keeps the logit CDF strictly increasing, so
        # it is refused on its own.
        mu, _ = relu_gibbs_density()
        weights = mu.weights.copy()
        weights[zeros] = 0.0
        with pytest.raises(IntegrationFailureError, match="vanishes"):
            reverse_flow_map(GridDensity(mu.axes, weights))

    def test_2d_rejected(self):
        ax = Axis(-8.0, 8.0, 64)
        mu = gaussian_on_grid((ax, ax), [0.0, 0.0], 0.25 * np.eye(2))
        with pytest.raises(UnsupportedDimensionError):
            reverse_flow_map(mu)

    def test_infinite_logit_rejected_before_ndtri(self, monkeypatch):
        # On 68 nodes the trapezoid 1 - F of the relu law reads 0 at the
        # last node within 8 sd of the mean, where Phi^{-1} would be +inf.
        calls = []
        monkeypatch.setattr(mflab.heatflow, "ndtri", calls.append)
        mu, _ = relu_gibbs_density(Axis(-8.5, 8.5, 68))
        with pytest.raises(IntegrationFailureError, match="finite logits"):
            reverse_flow_map(mu)
        assert calls == []


    def test_interpolation_knots_match_scipy(self, monkeypatch):
        # Every knot set and query the quantile sampler and the inverse flow
        # map pass on the relu density: the in-house PCHIP equals scipy's bit
        # for bit on each.  The forward map takes no PCHIP: Phi^{-1} is ndtri.
        calls = []
        evaluate = Pchip.__call__

        def recording(self, q):
            calls.append((self.x, self.y, q))
            return evaluate(self, q)

        monkeypatch.setattr(Pchip, "__call__", recording)
        mu, _ = relu_gibbs_density()
        sample_from_grid(inverse_cdf(mu), 16, np.random.default_rng(0))
        reverse_flow_map(mu)
        monkeypatch.undo()
        assert len(calls) == 2
        for x, y, q in calls:
            q = np.concatenate([q, x, np.linspace(x[0], x[-1], 4097)])
            np.testing.assert_array_equal(Pchip(x, y)(q),
                                          PchipInterpolator(x, y)(q))


class TestFittedLipschitzBound:
    def test_fit_covers_table_and_is_smallest_over_k(self, relu_profile):
        prof, _ = relu_profile
        bound, c, k = prof.fitted_lipschitz_bound()
        base = prof.a + 1.0 / prof.ts
        gaps = prof.opnorm - 1.0 / base
        assert c == np.max(gaps * base**k) > 0
        for other in (1.5, 2.0, 3.0, 4.0):
            c_other = max(0.0, float(np.max(gaps * base**other)))
            assert bound <= heatflow_lipschitz_bound(prof.a,
                                                     [(c_other, other)])

    def test_tie_keeps_first_k(self, relu_profile):
        # Norms equal to the Gaussian reference 1/(a + 1/t) fit C = 0 for
        # every exponent, so all four bounds tie and k = 1.5 is kept.
        prof, _ = relu_profile
        exact = dataclasses.replace(prof, opnorm=np.tile(
            1.0 / (prof.a + 1.0 / prof.ts), (3, 1)))
        assert exact.fitted_lipschitz_bound() == (
            heatflow_lipschitz_bound(prof.a, []), 0.0, 1.5)


class TestLipschitzEstimate:
    def test_identity_map(self):
        src = np.linspace(-7.0, 7.0, 512)
        fm = FlowMap(source=src, mapped=src.copy())
        assert lipschitz_estimate(fm) == pytest.approx(1.0)

    def test_linear_map(self):
        src = np.linspace(-7.0, 7.0, 512)
        s = 0.37
        fm = FlowMap(source=src, mapped=s * src)
        assert abs(lipschitz_estimate(fm) - s) < 1e-6

    def test_window_excludes_far_tails(self):
        src = np.linspace(-7.0, 7.0, 1401)
        mapped = src.copy()
        mapped[-1] += 5.0  # steep jump outside the +-6 window
        fm = FlowMap(source=src, mapped=mapped)
        assert lipschitz_estimate(fm) == pytest.approx(1.0)


class TestPushforwardW2:
    # mu is gamma on the map's own axis, so Q_mu o Phi is the identity and
    # W2(T#gamma, mu) is the gamma-weighted RMS of mapped - source.
    SRC = np.linspace(-8.0, 8.0, 2048)

    def gamma(self):
        return grid_gaussian(axis=Axis(-8.0, 8.0, 2048))

    def test_identity_map_is_zero(self):
        fm = FlowMap(source=self.SRC, mapped=self.SRC.copy())
        assert pushforward_w2(fm, self.gamma()) < 1e-7

    def test_scaled_map_matches_closed_form(self):
        # The weights are phi on [-a, a], a = 8, whose second moment is
        # erf(a / sqrt 2) - 2 a phi(a).
        a = 8.0
        phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
        second_moment = math.erf(a / math.sqrt(2.0)) - 2.0 * a * phi
        fm = FlowMap(source=self.SRC, mapped=1.1 * self.SRC)
        assert abs(pushforward_w2(fm, self.gamma())
                   - 0.1 * math.sqrt(second_moment)) < 1e-9
