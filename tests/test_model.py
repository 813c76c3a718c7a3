"""The energy and its variations (tests/_oracles.py, over the library's
kernels), losses, and smoothness constants."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mflab.errors import AlreadyRescaledError, DimensionMismatchError
from mflab.chaos import _bregman
from mflab.measure import Axis, GridDensity, normalize_from_log_potential
from mflab.model import (
    LogisticLoss,
    RELU,
    SquaredLoss,
    UnclippedSquaredLoss,
    example_nn,
    expect_features,
    expit,
    model_constants,
    quadratic_oracle,
    rescale_model,
    zero_model,
)
from mflab.presets import PRESETS, logistic_preset, relu_preset, tanh_preset

from _oracles import (
    energy,
    expected_relu_gaussian,
    first_variation,
    gaussian_on_grid,
    loss_terms_two_pass,
    rescale_parameters,
    second_variation,
    wasserstein_gradient,
)

AX = Axis(-10.0, 10.0, 2048)


def grid_from_potential(log_u):
    return normalize_from_log_potential(log_u, (AX,))


def random_grid_measure(rng):
    """A random smooth density: Gaussian with jittered mean/width."""
    x = AX.nodes()
    m = rng.uniform(-1.5, 1.5)
    s = rng.uniform(0.5, 1.5)
    return grid_from_potential(-0.5 * ((x - m) / s) ** 2)


def mix(p, q, t):
    return GridDensity(p.axes, (1.0 - t) * p.weights + t * q.weights)


def feature_lipschitz(model):
    """L_h = max_j ||x_j||, the Lipschitz constant of the feature map."""
    return float(np.max(np.linalg.norm(model.data_x, axis=1), initial=0.0))


class TestEnergy:
    def test_zero_model(self):
        model = zero_model(sigma=1.0, lam=1.0)
        nu = np.array([[0.3], [2.0]])
        assert energy(model, nu) == 0.0

    def test_quadratic_point_mass(self):
        model = quadratic_oracle(sigma=1.0, lam=1.0, kappa=2.0, c=0.0)
        nu = np.array([[3.0]])
        assert energy(model, nu) == pytest.approx(9.0, abs=1e-14)

    def test_nn_gaussian_quadrature_vs_monte_carlo(self):
        # Single datum, smooth activation, the Gaussian restricted to the
        # grid; the Monte Carlo oracle uses 1e6 draws and a 3-standard-error
        # band.
        from mflab.model import TANH

        model = example_nn(sigma=1.0, lam=1.0, data_x=[[0.9]], data_y=[0.4],
                           loss=SquaredLoss(scale=1.0, clip_radius=2.0),
                           activation=TANH)
        nu = gaussian_on_grid((AX,), [0.3], [[0.8]])
        rng = np.random.default_rng(42)
        draws = rng.normal(0.3, math.sqrt(0.8), 1_000_000)[:, None]
        h = model.activation.value(draws @ model.data_x.T)
        eh_mc = h.mean(axis=0)
        se = h.std(axis=0, ddof=1) / 1000.0
        val_mc = float(model.data_p @ model.loss.terms(eh_mc, model.data_y)[0])
        # Propagate the 3-se band through the loss slope at the estimate.
        slope = model.data_p * model.loss.d1(eh_mc, model.data_y)
        band = 3.0 * float(np.abs(slope) @ se) + 1e-9
        assert abs(energy(model, nu) - val_mc) <= band

    def test_relu_gaussian_expectation_closed_form(self):
        model = example_nn(sigma=1.0, lam=1.0, data_x=[[0.8]], data_y=[0.0],
                           loss=SquaredLoss(), activation=RELU)
        nu = gaussian_on_grid((AX,), [0.4], [[1.2]])
        got = expect_features(model, nu)[0]
        exact = expected_relu_gaussian(0.8, 0.0, m=0.4, s=math.sqrt(1.2))
        # The trapezoid rule converges at second order across the relu
        # kink: 1.1e-6 at this grid's spacing of 0.01.
        assert abs(got - exact) < 5e-6

    def test_dimension_mismatch(self):
        model = zero_model(sigma=1.0, lam=1.0, d=2)
        with pytest.raises(DimensionMismatchError):
            expect_features(model, random_grid_measure(np.random.default_rng(0)))


class TestFirstVariation:
    def test_zero(self):
        model = zero_model(sigma=1.0, lam=1.0)
        nu = np.array([[0.5]])
        assert first_variation(model, nu, np.array([1.0])) == 0.0

    def test_quadratic_hand_value(self):
        model = quadratic_oracle(sigma=1.0, lam=1.0, kappa=1.0, c=0.0)
        nu = np.array([[0.7], [0.3]])  # mean 0.5
        x = np.array([2.0])
        assert first_variation(model, nu, x) == pytest.approx(0.5 * 2.0)

    def test_gateaux_directional_derivative(self):
        rng = np.random.default_rng(0)
        s = 1e-5
        for model in (relu_preset(), tanh_preset(),
                      quadratic_oracle(1.0, 1.0, kappa=0.8, c=0.2)):
            for _ in range(5):
                nu = random_grid_measure(rng)
                nu_prime = random_grid_measure(rng)
                lhs = (energy(model, mix(nu, nu_prime, s))
                       - energy(model, nu)) / s
                pts = nu.node_points()
                fv = first_variation(model, nu, pts)
                cw_nu = (nu.quad_weights() * nu.weights).ravel()
                cw_np = (nu_prime.quad_weights() * nu_prime.weights).ravel()
                rhs = float(fv @ (cw_np - cw_nu))
                assert abs(lhs - rhs) <= 1e-4 * max(abs(rhs), 1e-3)


class TestWassersteinGradient:
    def test_zero(self):
        model = zero_model(sigma=1.0, lam=1.0, d=2)
        nu = np.array([[0.5, 0.1]])
        out = wasserstein_gradient(model, nu, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for model in (tanh_preset(), relu_preset(),
                      quadratic_oracle(1.0, 1.0, kappa=0.8, c=0.2)):
            checked = 0
            while checked < 20:
                nu = random_grid_measure(rng)
                x = rng.uniform(-2.0, 2.0, size=(1,))
                if model.activation is RELU:
                    # stay away from the subgradient kinks <x, x_j> = 0
                    pre = x @ model.data_x.T
                    if np.min(np.abs(pre)) < 1e-2:
                        continue
                grad = wasserstein_gradient(model, nu, x)
                fd = (first_variation(model, nu, x + h)
                      - first_variation(model, nu, x - h)) / (2.0 * h)
                assert abs(grad[0] - fd) < 1e-5
                checked += 1

    def test_norm_bounded_by_B(self):
        rng = np.random.default_rng(2)
        for model in (relu_preset(), logistic_preset()):
            bound = model_constants(model).B
            nu_pool = [random_grid_measure(rng) for _ in range(5)]
            for _ in range(1000):
                nu = nu_pool[rng.integers(0, len(nu_pool))]
                x = rng.uniform(-30.0, 30.0, size=(1,))
                grad = wasserstein_gradient(model, nu, x)
                assert np.linalg.norm(grad) <= bound + 1e-12


class TestSecondVariation:
    def test_zero(self):
        model = zero_model(sigma=1.0, lam=1.0)
        nu = np.array([[0.0]])
        assert second_variation(model, nu, [1.0], [2.0]) == 0.0

    def test_quadratic_product_form(self):
        model = quadratic_oracle(sigma=1.0, lam=1.0, kappa=1.7, c=0.0)
        nu = np.array([[0.2]])
        got = second_variation(model, nu, [1.5], [-0.4])
        assert got == pytest.approx(1.7 * 1.5 * -0.4)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        model = relu_preset()
        nu = random_grid_measure(rng)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=1)
            y = rng.uniform(-2, 2, size=1)
            assert (second_variation(model, nu, x, y)
                    == second_variation(model, nu, y, x))


class TestModelConstants:
    def test_relu_unit_data(self):
        model = relu_preset()
        consts = model_constants(model)
        assert feature_lipschitz(model) == 1.0
        assert consts.beta_hat == 1.0
        assert consts.B == 1.0

    def test_zero_model(self):
        consts = model_constants(zero_model(sigma=1.0, lam=2.0, d=3))
        assert consts.beta_hat == 0.0
        assert consts.B == 0.0

    def test_quadratic_beta_hat_is_kappa(self):
        consts = model_constants(quadratic_oracle(1.0, 1.0, kappa=0.37))
        assert consts.beta_hat == pytest.approx(0.37, rel=1e-15)

    def test_logistic_constants(self):
        model = logistic_preset()
        assert model.loss.beta_ell == 0.25
        assert model.loss.L_ell == 1.0
        assert feature_lipschitz(model) == 1.0

    # (beta_hat, B, L_h, L_ell, beta_ell) of every preset and of the
    # kappa = 0 oracle: the bound inputs, the data's L_h and the loss's
    # constants, as reported before the zero and quadratic models
    # were encoded as prediction-loss data.
    PINNED = {
        "standard_zero": (0.0, 0.0, 0.0, 0.0, 0.0),
        "unit_zero": (0.0, 0.0, 0.0, 0.0, 0.0),
        "quadratic": (0.5, 5.0, 1.0, 5.0, 0.5),
        "relu3": (1.0, 1.0, 1.0, 1.0, 1.0),
        "tanh2": (0.81, 1.8, 0.9, 2.0, 1.0),
        "logistic2": (0.25, 1.0, 1.0, 1.0, 0.25),
        "kappa0": (0.0, 0.0, 1.0, 0.0, 0.0),
    }
    # (beta_hat, B) after rescaling the presets built at sigma 1.3, lam 3.
    PINNED_RESCALED = {
        "standard_zero": (0.0, 0.0),
        "unit_zero": (0.0, 0.0),
        "quadratic": (0.2816666666666667, 3.752776749732568),
        "relu3": (0.5633333333333334, 0.7505553499465135),
        "tanh2": (0.45630000000000004, 1.3509996299037244),
        "logistic2": (0.14083333333333334, 0.7505553499465135),
        "kappa0": (0.0, 0.0),
    }

    @staticmethod
    def _build(name):
        if name == "kappa0":
            return quadratic_oracle(1.0, 1.0, kappa=0.0)
        return PRESETS[name]()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_constants_pinned(self, name):
        model = self._build(name)
        consts = model_constants(model)
        got = (consts.beta_hat, consts.B, feature_lipschitz(model),
               model.loss.L_ell, model.loss.beta_ell)
        assert got == self.PINNED[name]
        assert (consts.sigma, consts.lam, consts.d) == (model.sigma,
                                                        model.lam, 1)

    @pytest.mark.parametrize("name", sorted(PINNED_RESCALED))
    def test_rescaled_constants_pinned(self, name):
        consts = model_constants(rescale_model(
            replace(self._build(name), sigma=1.3, lam=3.0)))
        want = self.PINNED_RESCALED[name]
        # The quadratic now scales its datum instead of kappa, c and the
        # clip radius, which may move the last bit.
        assert consts.beta_hat == pytest.approx(want[0], rel=1e-15, abs=0.0)
        assert consts.B == pytest.approx(want[1], rel=1e-15, abs=0.0)


class TestStructuralProperties:
    def test_linear_convexity(self):
        rng = np.random.default_rng(4)
        models = [relu_preset(), tanh_preset(), logistic_preset(),
                  quadratic_oracle(1.0, 1.0, kappa=0.8, c=0.2)]
        for _ in range(200):
            model = models[rng.integers(0, len(models))]
            nu0 = random_grid_measure(rng)
            nu1 = random_grid_measure(rng)
            t = rng.uniform(0.0, 1.0)
            lhs = energy(model, mix(nu0, nu1, t))
            rhs = (1.0 - t) * energy(model, nu0) + t * energy(model, nu1)
            assert lhs <= rhs + 1e-10

    def test_bregman_nonnegativity(self):
        rng = np.random.default_rng(5)
        for model in (relu_preset(), quadratic_oracle(1.0, 1.0, 0.8, 0.2)):
            for _ in range(20):
                nu = random_grid_measure(rng)
                pibar = random_grid_measure(rng)
                assert _bregman(model, expect_features(model, nu),
                                pibar) >= -1e-10

    def test_quadratic_matches_closed_form(self):
        # F0 = (kappa/2)(m - c)^2, dF0(nu, x) = kappa (m - c) x and
        # grad = kappa (m - c), with m the mean of nu, written out by hand.
        rng = np.random.default_rng(6)
        kappa, c = 0.9, 0.4
        quad = quadratic_oracle(1.0, 1.0, kappa=kappa, c=c)
        for _ in range(30):
            nu = random_grid_measure(rng)
            cw = nu.quad_weights() * nu.weights
            m = float(np.sum(cw * AX.nodes()))
            x = rng.uniform(-3.0, 3.0, size=(8, 1))
            np.testing.assert_allclose(first_variation(quad, nu, x),
                                       kappa * (m - c) * x[:, 0], atol=1e-10)
            np.testing.assert_allclose(wasserstein_gradient(quad, nu, x),
                                       np.full((8, 1), kappa * (m - c)),
                                       atol=1e-10)
            assert abs(energy(quad, nu) - 0.5 * kappa * (m - c) ** 2) < 1e-10

    def test_quadratic_stays_quadratic_beyond_clip_radius(self):
        # Residual m - c = 5 is five clip radii out, where a clipped loss
        # would turn linear; the oracle promises the functional ignores it.
        kappa, c, clip = 0.8, 0.3, 1.0
        quad = quadratic_oracle(1.0, 1.0, kappa=kappa, c=c, clip_radius=clip)
        m = c + 5.0
        nu = np.array([[m - 1.0], [m + 1.0]])
        x = np.array([[2.0], [-1.5]])
        assert energy(quad, nu) == pytest.approx(0.5 * kappa * 25.0, rel=1e-14)
        np.testing.assert_allclose(first_variation(quad, nu, x),
                                   kappa * 5.0 * x[:, 0], rtol=1e-14)
        np.testing.assert_allclose(wasserstein_gradient(quad, nu, x),
                                   np.full((2, 1), kappa * 5.0), rtol=1e-14)
        assert second_variation(quad, nu, [2.0], [-1.5]) == pytest.approx(
            kappa * 2.0 * -1.5, rel=1e-14)
        assert quad.loss.L_ell == model_constants(quad).B == kappa * clip


class TestLosses:
    def test_squared_loss_huber_continuation(self):
        loss = SquaredLoss(scale=2.0, clip_radius=1.0)
        assert loss.terms(0.5, 0.0)[0] == pytest.approx(0.25)
        assert loss.d1(0.5, 0.0) == pytest.approx(1.0)
        # beyond the radius: linear with slope scale * clip_radius
        assert loss.d1(3.0, 0.0) == pytest.approx(2.0)
        assert loss.d2(3.0, 0.0) == 0.0
        # value continuous at the radius
        eps = 1e-9
        assert abs(loss.terms(1.0 + eps, 0.0)[0]
                   - loss.terms(1.0 - eps, 0.0)[0]) < 1e-8

    def test_squared_d1_equals_np_clip_bitwise(self):
        # Residuals past, at and inside +-clip_radius, +-0.0, NaN and inf.
        loss = SquaredLoss(scale=0.7, clip_radius=2.5)
        yhat = np.array([5.0, -5.0, 2.5, -2.5, 1.0, -0.0, 0.0, -0.0, np.nan,
                         np.inf, -np.inf, np.nextafter(2.5, 3.0)])
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0,
                      0.0, 0.0])
        ref = loss.scale * np.clip(yhat - y, -2.5, 2.5)
        got = loss.d1(yhat, y)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
        assert np.signbit(got[5]) and got[2] == 0.7 * 2.5

    @pytest.mark.parametrize("loss", [
        SquaredLoss(scale=0.7, clip_radius=2.5), SquaredLoss(),
        UnclippedSquaredLoss(scale=1.3), UnclippedSquaredLoss(scale=0.0),
        LogisticLoss()], ids=repr)
    def test_one_pass_terms_equal_two_pass_formulas(self, loss):
        # Residuals yhat - y inside and past +-clip_radius, at it exactly
        # and one ulp beyond, far past it, tiny (subnormal squares), -0.0
        # (only -0.0 - 0.0), +0.0 and NaN, then 4096 of random sign and
        # magnitude; for the logistic loss, labels +-1 give margins of both
        # signs.  A residual of -NaN is left out: the one-pass value keeps
        # its sign, where np.where's linear branch took |r|.
        c = getattr(loss, "clip_radius", 2.5)
        past = np.nextafter(c, 2.0 * c)
        yhat = np.array([0.3, -1.2, c, -c, past, -past, 5.0 * c, -3.0 * c,
                         1e300, -1e300, 1e-160, -1e-160, -0.0, 0.0, -0.0,
                         0.0, np.nan])
        y = np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0,
                      0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 0.0])
        rng = np.random.default_rng(5)
        yhat = np.concatenate([yhat, rng.choice([-1.0, 1.0], 4096)
                               * 10.0 ** rng.uniform(-170.0, 3.0, 4096)])
        y = np.concatenate([y, np.zeros(4096)])
        if isinstance(loss, LogisticLoss):
            y = np.where(np.arange(y.size) % 2 == 0, 1.0, -1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = loss.terms(yhat, y)
            ref = loss_terms_two_pass(loss, yhat, y)
        for g, f in zip(got, ref):
            np.testing.assert_array_equal(g, f)
            np.testing.assert_array_equal(np.signbit(g), np.signbit(f))
        if not isinstance(loss, LogisticLoss):  # (scale/2) (-0.0)^2 = +0.0
            assert np.signbit(got[1][12]) and not np.signbit(got[0][12])

    def test_logistic_bounds(self):
        loss = LogisticLoss()
        yhat = np.linspace(-30, 30, 1001)
        assert np.all(np.abs(loss.d1(yhat, 1.0)) <= 1.0)
        assert np.all(loss.d2(yhat, 1.0) <= 0.25 + 1e-15)

    def test_expit_matches_scipy_without_overflow(self):
        from scipy.special import expit as reference

        z = np.linspace(-700.0, 700.0, 100_001)
        np.testing.assert_allclose(expit(z), reference(z),
                                   rtol=4 * np.finfo(float).eps, atol=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(expit(np.array([-1e3, 1e3])),
                                          [0.0, 1.0])


class TestRescaleModel:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2))
    def test_double_rescale_refused(self, sigma, lam):
        for preset in PRESETS.values():
            with pytest.raises(AlreadyRescaledError):
                rescale_model(rescale_model(
                    replace(preset(), sigma=sigma, lam=lam)))

    def test_constants_match_parameter_rescaling(self):
        for model in (relu_preset(sigma=1.0, lam=4.0),
                      quadratic_oracle(1.0, 4.0, kappa=1.0, c=0.3),
                      zero_model(sigma=1.3, lam=0.7)):
            direct = rescale_parameters(model_constants(model))
            via_model = model_constants(rescale_model(model))
            assert via_model.beta_hat == pytest.approx(direct.beta_hat, rel=1e-12)
            assert via_model.B == pytest.approx(direct.B, rel=1e-12)
            assert via_model.lam == pytest.approx(direct.lam, rel=1e-12)

    def test_rescaled_energy_is_pushforward(self):
        # F0^eta(nu) must equal F0((1/eta)_# nu): check on point masses.
        model = relu_preset(sigma=1.0, lam=4.0)
        eta = math.sqrt(model.lam) / model.sigma
        scaled = rescale_model(model)
        for theta in (0.3, -1.1, 2.0):
            nu_scaled = np.array([[theta]])
            nu_orig = np.array([[theta / eta]])
            assert energy(scaled, nu_scaled) == pytest.approx(
                energy(model, nu_orig), rel=1e-12)
