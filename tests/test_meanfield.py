"""Self-consistent solver against Gaussian closed forms."""

import dataclasses
import math

import numpy as np
import pytest

from mflab.errors import InvalidTargetError, NonconvergenceError
from mflab.meanfield import (
    ProximalGibbsSystem,
    default_axes,
    proximal_residual,
    solve_self_consistent,
)
from mflab.measure import Axis, GridDensity, normalize_from_log_potential
from mflab.model import quadratic_oracle, rescale_model, zero_model
from mflab.presets import quadratic_preset, relu_preset
from mflab.sampler import TiltSpec

from _oracles import (
    first_variation,
    quadratic_pi_moments,
    quadratic_pi_moments_fixed_point,
)


def gaussian_on(axes, mean, var):
    x = axes[0].nodes()
    return normalize_from_log_potential(-0.5 * (x - mean) ** 2 / var, axes)


class TestZeroModel:
    def test_untilted_matches_gaussian(self):
        model = zero_model(sigma=1.0, lam=0.5)
        system = solve_self_consistent(model)
        exact = gaussian_on(system.mean_measure.axes, 0.0, 1.0)
        for p in system.per_particle:
            assert np.max(np.abs(p.weights - exact.weights)) < 1e-7

    def test_untilted_replicas_bit_identical(self):
        # Untilted, every particle shares one law, held once at any N,
        # and the mixture is that law bit for bit.
        model = zero_model(sigma=1.0, lam=0.5)
        system = solve_self_consistent(model)
        (law,) = system.per_particle
        assert np.array_equal(system.mean_measure.weights, law.weights)

    def test_tilted_matches_completing_the_square(self):
        model = rescale_model(zero_model(sigma=1.0, lam=1.0))
        t = 0.6
        y = np.array([[0.5], [-0.7]])
        system = solve_self_consistent(model, tilt=TiltSpec(t, y))
        alpha = 2.0 - 1.0 + 1.0 / t
        for i, p in enumerate(system.per_particle):
            mean = y[i, 0] / (t * alpha)
            exact = gaussian_on(p.axes, mean, 1.0 / alpha)
            assert np.max(np.abs(p.weights - exact.weights)) < 1e-7


class TestQuadraticOracle:
    def test_fixed_point_matches_scalar_oracle(self):
        model = quadratic_preset()  # kappa=0.5, c=0.3, sigma=lam=1
        system = solve_self_consistent(model)
        pibar = system.mean_measure
        mean_cf, var_cf = quadratic_pi_moments(0.5, 0.3, 1.0, 1.0)
        mean_fp, var_fp = quadratic_pi_moments_fixed_point(0.5, 0.3, 1.0, 1.0)
        assert abs(mean_cf - mean_fp) < 1e-12
        assert abs(float(pibar.mean()[0]) - mean_cf) < 1e-6
        assert abs(float(pibar.covariance()[0, 0]) - var_cf) < 1e-6
        exact = gaussian_on(pibar.axes, mean_cf, var_cf)
        assert np.max(np.abs(pibar.weights - exact.weights)) < 1e-6

    def test_contraction_trace_monotone(self):
        for model in (quadratic_preset(), relu_preset()):
            system = solve_self_consistent(model)
            trace = system.residual_trace
            assert all(b <= a * (1.0 + 1e-9)
                       for a, b in zip(trace[1:], trace[2:]))


class TestNewtonSolve:
    def test_quadratic_oracle_in_at_most_two_iterations(self):
        # G is linear in m, so the first Newton step lands on the root.
        model = quadratic_preset()
        system = solve_self_consistent(model)
        assert system.iterations <= 2
        mean_cf, _ = quadratic_pi_moments(0.5, 0.3, 1.0, 1.0)
        assert abs(float(system.mean_measure.mean()[0]) - mean_cf) < 1e-6

    def test_zero_model_in_one_iteration(self):
        system = solve_self_consistent(zero_model(sigma=1.0, lam=0.5))
        assert system.iterations == 1
        assert system.residual_trace == [0.0]

    @pytest.mark.parametrize("scale", [64.0, 256.0, 1024.0])
    def test_strong_interaction_converges(self, scale):
        # B = beta_hat = scale: full Newton steps cycle here, so the
        # step halving is what makes these converge.
        relu = relu_preset()
        model = dataclasses.replace(
            relu, loss=dataclasses.replace(relu.loss, scale=scale))
        system = solve_self_consistent(model)
        assert system.iterations <= 20
        assert proximal_residual(system, model) < 1e-9


class TestResidualAndStructure:
    def test_converged_residual_below_tol(self):
        system = solve_self_consistent(quadratic_preset(), tol=1e-9)
        assert system.residual < 1e-9
        assert proximal_residual(system, quadratic_preset()) < 1e-9

    def test_shifted_system_residual_equals_gaussian_gap(self):
        model = zero_model(sigma=1.0, lam=0.5)
        system = solve_self_consistent(model)
        axes = system.mean_measure.axes
        shifted = gaussian_on(axes, 0.1, 1.0)
        wrong = ProximalGibbsSystem(
            per_particle=[shifted],
            mean_measure=shifted,
            residual=0.0, iterations=0)
        exact = gaussian_on(axes, 0.0, 1.0)
        expected_gap = float(np.max(np.abs(shifted.weights - exact.weights)))
        got = proximal_residual(wrong, model)
        assert abs(got - expected_gap) < 1e-12

    def test_residual_invariant_under_relabeling(self):
        model = rescale_model(relu_preset())
        t = 0.5
        y = np.array([[0.4], [0.4]])  # identical tilts
        system = solve_self_consistent(model, tilt=TiltSpec(t, y))
        swapped = ProximalGibbsSystem(
            per_particle=system.per_particle[::-1],
            mean_measure=system.mean_measure,
            residual=system.residual,
            iterations=system.iterations,
            tilt=system.tilt)
        r0 = proximal_residual(system, model)
        r1 = proximal_residual(swapped, model)
        assert r0 == r1

    def test_structural_log_identity(self):
        # log pi^i + (2/sigma^2)(V + dF0(pibar, .)) is constant on the grid
        # (up to the tilt terms), within 1e-6 where mass is not negligible.
        model = quadratic_preset()
        system = solve_self_consistent(model)
        pibar = system.mean_measure
        x = pibar.nodes()[:, None]
        pot = (model.lam / model.sigma**2) * (x[:, 0] ** 2)
        pot += (2.0 / model.sigma**2) * np.asarray(
            first_variation(model, pibar, x))
        for p in system.per_particle:
            mask = p.weights > 1e-12 * p.weights.max()
            resid = np.log(p.weights[mask]) + pot[mask]
            assert resid.max() - resid.min() < 1e-6


class TestErrorPaths:
    def test_max_iter_exhaustion_carries_trace(self):
        # relu3 takes 4 Newton iterations to 1e-9, so 2 cannot reach it.
        with pytest.raises(NonconvergenceError) as err:
            solve_self_consistent(relu_preset(), max_iter=2)
        assert len(err.value.residual_trace) == 2

    def test_bad_tilt_shape(self):
        model = rescale_model(relu_preset())  # d = 1
        with pytest.raises(InvalidTargetError, match="2 columns"):
            solve_self_consistent(model, tilt=TiltSpec(0.5, np.zeros((3, 2))))

    def test_non_normalizable_tilt(self):
        model = zero_model(sigma=1.0, lam=0.25)  # 2 lam/sigma^2 = 0.5
        with pytest.raises(InvalidTargetError):
            solve_self_consistent(model, tilt=TiltSpec(1e9, np.zeros((1, 1))))


class TestGridDefaults:
    def test_default_axes_cover_tilt_centers(self):
        model = rescale_model(relu_preset())
        tilt = TiltSpec(0.3, np.array([[3.0], [-3.0]]))
        axes = default_axes(model, tilt)
        assert axes[0].lo < -3.0
        assert axes[0].hi > 3.0

    def test_mean_measure_is_average(self):
        model = rescale_model(relu_preset())
        tilt = TiltSpec(0.5, np.array([[0.6], [-0.6]]))
        system = solve_self_consistent(model, tilt=tilt)
        avg = 0.5 * (system.per_particle[0].weights
                     + system.per_particle[1].weights)
        assert np.max(np.abs(system.mean_measure.weights - avg)) < 1e-12
