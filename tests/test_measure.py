"""Grid densities, covariances, and transport distances against closed forms."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from mflab.errors import (
    DimensionMismatchError,
    EmptyMeasureError,
    IntegrationFailureError,
    UnsupportedDimensionError,
)
import mflab.measure
from mflab.measure import (
    BLOCK_ELEMENTS,
    CDF_STEP_FLOOR,
    Axis,
    GridDensity,
    Pchip,
    covariance_opnorm,
    _corrected_cdf,
    _write_csv,
    inverse_cdf,
    logit_quantile,
    normalize_from_log_potential,
    _search_right,
    sample_from_grid,
)
from mflab.meanfield import solve_self_consistent
from mflab.presets import relu_preset

from _oracles import (
    coverage_in_sd,
    gaussian_kl_1d,
    gaussian_kl_full,
    gaussian_w2_1d,
    gaussian_on_grid,
    grid_kl,
    grid_moments_two_pass,
    largest_eigenvalue_2x2,
    pchip_searchsorted,
    quantile_coupling,
    sample_from_grid_searchsorted,
    w2_distance_1d,
)


AX = Axis(-10.0, 10.0, 2048)
AX_2D = Axis(-10.0, 10.0, 256)


def grid_gaussian_1d(mean=0.0, sd=1.0, axis=AX):
    x = axis.nodes()
    return normalize_from_log_potential(-0.5 * ((x - mean) / sd) ** 2, (axis,))


class TestAxis:
    @pytest.mark.parametrize("lo,hi", [
        (math.nan, 1.0), (-1.0, math.nan), (-math.inf, 1.0),
        (-1.0, math.inf), (np.float64(-1.0), np.float64(np.inf))])
    def test_nonfinite_ends_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            Axis(lo, hi, 8)

    @pytest.mark.parametrize("lo,hi", [(-2, 3), (np.float64(-2.0), 3)])
    def test_int_and_numpy_ends_accepted(self, lo, hi):
        ax = Axis(lo, hi, 6)
        np.testing.assert_array_equal(ax.nodes(), np.arange(-2.0, 4.0))


class TestNormalization:
    def test_standard_gaussian_matches_closed_form(self):
        g = grid_gaussian_1d()
        x = AX.nodes()
        exact = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(g.weights - exact)) < 1e-8
        assert abs(np.sum(g.quad_weights() * g.weights) - 1.0) < 1e-8

    def test_constant_potential_gives_uniform(self):
        g = normalize_from_log_potential(np.zeros(AX.n), (AX,))
        np.testing.assert_allclose(g.weights, 1.0 / (AX.hi - AX.lo), rtol=1e-12)

    def test_shift_invariance(self):
        x = AX.nodes()
        g0 = normalize_from_log_potential(-0.5 * x * x, (AX,))
        g1 = normalize_from_log_potential(-0.5 * x * x + 123.4, (AX,))
        np.testing.assert_allclose(g0.weights, g1.weights, rtol=1e-12)

    def test_all_minus_inf_rejected(self):
        with pytest.raises(EmptyMeasureError):
            normalize_from_log_potential(np.full(AX.n, -np.inf), (AX,))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            normalize_from_log_potential(np.zeros(7), (AX,))

    def test_2d_gaussian_mass_and_moments(self):
        ax = Axis(-8.0, 8.0, 256)
        g = gaussian_on_grid((ax, ax), [0.3, -0.2],
                                 [[1.0, 0.3], [0.3, 0.7]])
        assert abs(np.sum(g.quad_weights() * g.weights) - 1.0) < 1e-8
        np.testing.assert_allclose(g.mean(), [0.3, -0.2], atol=1e-9)
        np.testing.assert_allclose(
            g.covariance(), [[1.0, 0.3], [0.3, 0.7]], atol=1e-8)


class TestGridMoments:
    @pytest.mark.parametrize("axes,mean,cov", [
        ((Axis(-9.0, 8.0, 2048),), [0.4], [[0.6]]),
        ((Axis(-8.0, 8.0, 192), Axis(-7.0, 9.0, 160)), [0.3, -0.2],
         [[1.0, 0.3], [0.3, 0.7]])])
    def test_one_pass_equals_two_passes(self, axes, mean, cov):
        g = gaussian_on_grid(axes, mean, cov)
        ref_mean, ref_cov = grid_moments_two_pass(g)
        for _ in range(2):  # computed, then read from the cache
            np.testing.assert_array_equal(g.mean(), ref_mean)
            np.testing.assert_array_equal(g.covariance(), ref_cov)

    def test_returned_moments_are_copies(self):
        g = grid_gaussian_1d(mean=0.2, sd=0.7)
        m, c = grid_moments_two_pass(g)
        g.mean()[0] = 5.0
        g.covariance()[0, 0] = 5.0
        np.testing.assert_array_equal(g.mean(), m)
        np.testing.assert_array_equal(g.covariance(), c)


class TestKL:
    """The grid KL of tests/_oracles.py, which the Talagrand check takes as
    its reference, against closed forms."""

    def test_identical_densities(self):
        g = grid_gaussian_1d()
        assert grid_kl(g, g) == 0.0

    def test_mean_shift(self):
        m = 0.7
        p = grid_gaussian_1d(mean=m)
        q = grid_gaussian_1d()
        assert abs(grid_kl(p, q) - m * m / 2.0) < 1e-6

    def test_variance_mismatch(self):
        s = 0.8
        p = grid_gaussian_1d(sd=s)
        q = grid_gaussian_1d()
        exact = gaussian_kl_1d(0.0, s * s, 0.0, 1.0)
        assert abs(grid_kl(p, q) - exact) < 1e-6

    def test_nonnegative(self):
        p = grid_gaussian_1d(mean=0.1, sd=1.3)
        q = grid_gaussian_1d()
        assert grid_kl(p, q) >= -1e-10

    def test_grid_refinement_stability(self):
        vals_kl, vals_w2 = [], []
        for n in (2048, 4096):
            ax = Axis(-10.0, 10.0, n)
            p = grid_gaussian_1d(mean=0.5, axis=ax)
            q = grid_gaussian_1d(axis=ax)
            vals_kl.append(grid_kl(p, q))
            vals_w2.append(w2_distance_1d(p, q))
        assert abs(vals_kl[0] - 0.125) < 1e-6
        assert abs(vals_kl[1] - vals_kl[0]) < 1e-6
        assert abs(vals_w2[1] - vals_w2[0]) < 1e-6


class TestCovarianceOpnorm:
    def test_gaussian_measure_exact(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        g = gaussian_on_grid((AX_2D, AX_2D), [0.0, 0.0], cov)
        got_cov = g.covariance()
        opnorm = covariance_opnorm(got_cov)
        np.testing.assert_allclose(got_cov, cov, atol=1e-9)
        assert abs(opnorm - np.linalg.eigvalsh(cov)[-1]) < 1e-9
        assert opnorm == pytest.approx(largest_eigenvalue_2x2(got_cov),
                                       rel=1e-12, abs=0.0)

    def test_grid_gaussian_variance(self):
        s = 1.3
        g = grid_gaussian_1d(sd=s)
        opnorm = covariance_opnorm(g.covariance())
        assert abs(opnorm - s * s) < 1e-6

    def test_two_point_empirical(self):
        # Mass 1/2 at -1 and at 1: nodes -1, 0, 1 with trapezoid weights
        # 1/2, 1, 1/2 and density 1, 0, 1.
        w = np.array([1.0, 0.0, 1.0])
        two_point = GridDensity((Axis(-1.0, 1.0, 3),), w)
        opnorm = covariance_opnorm(two_point.covariance())
        assert abs(opnorm - 1.0) < 1e-12

    def test_matches_2x2_closed_form(self):
        # Against the grid density's own covariance, whatever the error of
        # this coarse grid's quadrature.
        ax = Axis(-16.0, 16.0, 64)
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.normal(size=(2, 2))
            cov = a @ a.T + 0.05 * np.eye(2)
            for sign in (1.0, -1.0):
                c = cov * np.array([[1.0, sign], [sign, 1.0]])
                got_cov = gaussian_on_grid((ax, ax), np.zeros(2),
                                           c).covariance()
                opnorm = covariance_opnorm(got_cov)
                exact = largest_eigenvalue_2x2(got_cov)
                assert abs(opnorm - exact) < 1e-12 * exact

    def test_weak_negative_correlation(self):
        # The leading eigenvector is (1, -1); (1, 1) belongs to 0.999.
        cov = np.array([[1.0, -1e-3], [-1e-3, 1.0]])
        got_cov = gaussian_on_grid((AX_2D, AX_2D), np.zeros(2),
                                   cov).covariance()
        opnorm = covariance_opnorm(got_cov)
        assert opnorm == pytest.approx(largest_eigenvalue_2x2(got_cov),
                                       rel=1e-12, abs=0.0)
        assert abs(opnorm - 1.001) < 1e-12

    def test_negatively_correlated_leading_direction(self):
        cov = np.array([[1.0, -0.9], [-0.9, 1.0]])
        got_cov = gaussian_on_grid((AX_2D, AX_2D), np.zeros(2),
                                   cov).covariance()
        opnorm = covariance_opnorm(got_cov)
        assert opnorm == pytest.approx(largest_eigenvalue_2x2(got_cov),
                                       rel=1e-12, abs=0.0)
        assert abs(opnorm - 1.9) < 1e-9

    def test_product_opnorm_is_max_factor_variance(self):
        ax = Axis(-8.0, 8.0, 256)
        v1, v2 = 0.5, 1.4
        g = gaussian_on_grid((ax, ax), [0.0, 0.0], np.diag([v1, v2]))
        opnorm = covariance_opnorm(g.covariance())
        assert abs(opnorm - max(v1, v2)) < 1e-6

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stack_equals_each_matrix(self, dim):
        # A profile takes all its norms from one call on a (Y, T, d, d)
        # stack; each equals the norm of its matrix alone, a float.
        a = np.random.default_rng(dim).normal(size=(3, 4, dim, dim))
        covs = a @ a.swapaxes(-1, -2)
        got = covariance_opnorm(covs)
        assert got.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            alone = covariance_opnorm(covs[idx])
            assert isinstance(alone, float) and got[idx] == alone


class TestW2:
    def test_identical(self):
        g = grid_gaussian_1d()
        assert w2_distance_1d(g, g) < 1e-12

    def test_translation(self):
        m = 0.9
        p = grid_gaussian_1d()
        q = grid_gaussian_1d(mean=m)
        assert abs(w2_distance_1d(p, q) - m) < 1e-6

    def test_scaling(self):
        s = 0.8
        p = grid_gaussian_1d()
        q = grid_gaussian_1d(sd=s)
        assert abs(w2_distance_1d(p, q) - abs(s - 1.0)) < 1e-6

    def test_symmetry(self):
        p = grid_gaussian_1d(mean=0.4, sd=1.2)
        q = grid_gaussian_1d()
        assert abs(w2_distance_1d(p, q) - w2_distance_1d(q, p)) < 1e-9

    def test_general_gaussian_pair(self):
        p = grid_gaussian_1d(mean=0.3, sd=0.7)
        q = grid_gaussian_1d(mean=-0.5, sd=1.1)
        exact = gaussian_w2_1d(0.3, 0.7, -0.5, 1.1)
        assert abs(w2_distance_1d(p, q) - exact) < 1e-6

    def test_talagrand_against_strongly_logconcave_reference(self):
        # KL(p || q) >= (alpha/2) W2(p, q)^2 when q is alpha-strongly
        # log-concave; here q = N(0, 1/alpha).  Translations saturate the
        # inequality, so the slack is at grid accuracy.
        for alpha, mean, sd in [(1.0, 0.5, 1.0), (2.0, 0.3, 0.6),
                                (0.5, -0.8, 1.2)]:
            q = grid_gaussian_1d(sd=1.0 / math.sqrt(alpha))
            p = grid_gaussian_1d(mean=mean, sd=sd)
            kl = grid_kl(p, q)
            w2 = w2_distance_1d(p, q)
            assert kl >= 0.5 * alpha * w2 * w2 - 1e-6

    def test_2d_rejected(self):
        ax = Axis(-8.0, 8.0, 64)
        g = gaussian_on_grid((ax, ax), [0.0, 0.0], np.eye(2))
        with pytest.raises(UnsupportedDimensionError):
            logit_quantile(g)


class TestSampling:
    def test_moments_and_determinism(self):
        g = grid_gaussian_1d(mean=0.4, sd=0.9)
        inv = inverse_cdf(g)
        x = sample_from_grid(inv, 200_000, np.random.default_rng(3))
        assert abs(x.mean() - 0.4) < 0.01
        assert abs(x.std() - 0.9) < 0.01
        y = sample_from_grid(inv, 1000, np.random.default_rng(5))
        z = sample_from_grid(inv, 1000, np.random.default_rng(5))
        np.testing.assert_array_equal(y, z)

    # Blocks of 5 queries and of BLOCK_ELEMENTS, the last one partial.
    @pytest.mark.parametrize("block", [5, BLOCK_ELEMENTS])
    def test_blocked_evaluation_matches_one_shot(self, monkeypatch, block):
        # The inverse CDF, fitted once and evaluated in blocks, equals the
        # one-shot searchsorted evaluation bit for bit, at every draw and
        # at both ends of the CDF, each placed on a block boundary too.
        monkeypatch.setattr(mflab.measure, "BLOCK_ELEMENTS", block)
        p = solve_self_consistent(relu_preset()).per_particle[0]
        inv = inverse_cdf(p)
        lo, hi = inv.x[0], inv.x[-1]
        u = np.random.default_rng(7).random(2 * block + 3)
        ends = [lo, np.nextafter(lo, 1.0), 1e-300, np.nextafter(hi, 0.0),
                1.0 - 2.0**-53, hi]
        u[[0, block - 1, block, block + 1, -2, -1]] = ends
        u[block + 2:block + 2 + len(ends)] = ends

        class Draws:  # rng.random's stand-in: every rng gives these u
            def random(self, n):
                return u[:n].copy()

        np.testing.assert_array_equal(
            inv(u), pchip_searchsorted(inv.x, inv.y, u))
        np.testing.assert_array_equal(
            Pchip(inv.x, inv.y)(inv.x),
            pchip_searchsorted(inv.x, inv.y, inv.x))
        ref = sample_from_grid_searchsorted(p, u.size, Draws())
        assert ref[0, 0] == inv.y[0] and ref[-1, 0] == inv.y[-1]
        for fitted in (inv, inverse_cdf(p), inv):  # shared, not consumed
            np.testing.assert_array_equal(
                sample_from_grid(fitted, u.size, Draws()), ref)

    def test_underflowing_tail_drops_its_knots(self):
        # The left tail of exp(-6 x^2) on +-10 steps the CDF by 1e-262 and
        # less; kept, those knots gave 839 non-finite Pchip coefficients.
        p = normalize_from_log_potential(-6.0 * AX.nodes() ** 2, (AX,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = inverse_cdf(p)
            x = sample_from_grid(inv, 4096, np.random.default_rng(2))
        for coef in (inv.y, inv.d, inv.c0, inv.c1):
            assert np.all(np.isfinite(coef))
        assert np.all(np.diff(inv.x) >= CDF_STEP_FLOOR)
        assert np.all(np.isfinite(x)) and abs(x.std() - 12 ** -0.5) < 0.02

    def test_relu3_fit_unchanged_by_step_floor(self):
        p = solve_self_consistent(relu_preset()).per_particle[0]
        cdf = _corrected_cdf(p)
        keep = np.concatenate([[True], np.diff(cdf) > 0])
        ref, inv = Pchip(cdf[keep], p.nodes()[keep]), inverse_cdf(p)
        for name in ("x", "y", "d", "c0", "c1"):
            np.testing.assert_array_equal(getattr(inv, name),
                                          getattr(ref, name))


class TestSerialization:
    def test_coverage_reported(self):
        g = grid_gaussian_1d()
        assert coverage_in_sd(g) >= 8.0

    def test_csv_matches_per_row_reference(self, tmp_path):
        # 70,000 rows cross the 65,536-row chunk boundary.
        rng = np.random.default_rng(3)
        n = 70_000
        labels = [f"s{i % 7}" for i in range(n)]
        nums = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
                np.arange(n, dtype=float)]
        _write_csv(tmp_path / "t.csv", "label,a,b", [labels, *nums])
        expected = ["label,a,b"] + [
            label + "," + ",".join(map(repr, row.tolist()))
            for label, row in zip(labels, np.column_stack(nums))]
        text = (tmp_path / "t.csv").read_text()
        assert text.endswith("\n")
        assert text.split("\n")[:-1] == expected

    def test_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            _write_csv(tmp_path / "t.csv", "a,b", [[1.0, 2.0], [1.0]])

    # The writer does no quoting, so string cells hold no comma, quote or
    # line break.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.text(st.characters(min_codepoint=32, max_codepoint=0x2FFF,
                              blacklist_characters=',"')),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310,
                                   1.7e308, -1.7e308])))))
    def test_csv_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        labels = [r[0] for r in rows]
        values = np.array([r[1] for r in rows], dtype=float)
        _write_csv(path, "label,value", [labels, values])
        with open(path, newline="") as fh:
            back = list(csv.reader(fh))
        assert back[0] == ["label", "value"]
        assert [r[0] for r in back[1:]] == labels
        got = np.array([float(r[1]) for r in back[1:]], dtype=float)
        assert got.tobytes() == values.tobytes()


class TestGaussianKLOracle:
    def test_matches_scalar_formula(self):
        exact = gaussian_kl_1d(0.3, 0.8, -0.1, 1.2)
        assert abs(gaussian_kl_full([0.3], [[0.8]], [-0.1], [[1.2]])
                   - exact) < 1e-12

    def test_grid_kl_matches_gaussian_kl(self):
        p = grid_gaussian_1d(mean=0.3, sd=0.9)
        q = grid_gaussian_1d(mean=-0.1, sd=1.1)
        exact = gaussian_kl_full([0.3], [[0.81]], [-0.1], [[1.21]])
        assert abs(grid_kl(p, q) - exact) < 1e-6


# (mean, variance) of a Gaussian well inside AX.
GAUSSIANS = st.tuples(st.floats(-1.0, 1.0), st.floats(0.25, 1.5))
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)


class TestMonotoneImages:
    @PROPERTY
    @given(GAUSSIANS, GAUSSIANS)
    def test_gaussian_pair_map_is_affine(self, a, b):
        (m_p, v_p), (m_q, v_q) = a, b
        p = grid_gaussian_1d(m_p, math.sqrt(v_p))
        q = grid_gaussian_1d(m_q, math.sqrt(v_q))
        x = AX.nodes()
        inside = np.abs(x - m_p) <= 5.0 * math.sqrt(v_p)
        exact = m_q + math.sqrt(v_q / v_p) * (x[inside] - m_p)
        assert np.max(np.abs(quantile_coupling(p, q)[inside] - exact)) < 1e-6

    @PROPERTY
    @given(GAUSSIANS, GAUSSIANS)
    def test_round_trip_is_identity(self, a, b):
        (m_p, v_p), (m_q, v_q) = a, b
        p = grid_gaussian_1d(m_p, math.sqrt(v_p))
        q = grid_gaussian_1d(m_q, math.sqrt(v_q))
        x = AX.nodes()
        inside = np.abs(x - m_p) <= 5.0 * math.sqrt(v_p)
        there = quantile_coupling(p, q)[inside]
        back = np.interp(there, x, quantile_coupling(q, p))
        assert np.max(np.abs(back - x[inside])) < 1e-7

    @PROPERTY
    @given(GAUSSIANS, GAUSSIANS)
    def test_images_non_decreasing(self, a, b):
        (m_p, v_p), (m_q, v_q) = a, b
        p = grid_gaussian_1d(m_p, math.sqrt(v_p))
        q = grid_gaussian_1d(m_q, math.sqrt(v_q))
        assert np.all(np.diff(quantile_coupling(p, q)) >= 0)


    def test_unresolved_grid_rejected(self):
        # Both nodes of a 2-node grid carry an infinite logit.
        g = grid_gaussian_1d(axis=Axis(-1.0, 1.0, 2))
        with pytest.raises(IntegrationFailureError,
                           match="fewer than two CDF levels"):
            logit_quantile(g)


def assert_pchip_matches_scipy(x, y):
    mid = 0.5 * (x[1:] + x[:-1])
    q = np.sort(np.concatenate([x, mid, np.linspace(x[0], x[-1], 257)]))
    np.testing.assert_array_equal(Pchip(x, y)(q), PchipInterpolator(x, y)(q))


class TestPchip:
    # scipy's PchipInterpolator is the reference, bit for bit.
    @pytest.mark.parametrize("y, end_slope", [
        ([0.0, 1.0, 6.0, 7.0], 0.0),  # one-sided slope against m0's sign
        ([1.0, 1.0, 2.0, 2.5], 0.0),  # flat first segment
        ([0.0, 1.0, -4.0, -3.0], 3.0),  # clamped to 3 m0
    ])
    def test_edge_branches_match_scipy(self, y, end_slope):
        x, y = np.arange(4.0), np.array(y)
        assert PchipInterpolator(x, y).derivative()(0.0) == end_slope
        assert_pchip_matches_scipy(x, y)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(1e-3, 10.0),
                              st.one_of(st.floats(-10.0, 10.0),
                                        st.sampled_from([0.0, 1.0]))),
                    min_size=1, max_size=24),
           st.floats(-10.0, 10.0))
    def test_random_knots_match_scipy(self, steps, y0):
        gaps, values = np.array(steps).T
        x = np.concatenate([[0.0], np.cumsum(gaps)])
        with np.errstate(over="ignore"):  # slopes near the float range
            assert_pchip_matches_scipy(x, np.concatenate([[y0], values]))


def knots_from(family, values):
    """Strictly increasing finite knots of one family from raw floats."""
    v = np.asarray(values, dtype=float)
    if family == "uniform":
        return np.unique(v)
    if family == "cdf":  # crowds knots at 0 and 1, as a CDF's tails do
        return np.unique(0.5 * (1.0 + np.tanh(v)))
    return np.cumsum(10.0 ** v)  # spacings 1e-12 .. 1e2


def search_queries(x, rng):
    """Uniform draws, every knot, the float neighbours of every knot on
    both sides, values outside [x[0], x[-1]] and NaN, shuffled."""
    width = x[-1] - x[0]
    q = np.concatenate([
        rng.uniform(x[0], x[-1], 4 * x.size), x, np.nextafter(x, -np.inf),
        np.nextafter(x, np.inf),
        [x[0] - width, x[-1] + width, -1e300, 1e300, -np.inf, np.inf,
         np.nan]])
    return rng.permutation(q)


class TestGuideTableSearch:
    # np.searchsorted(x, q, side="right") is the reference, index for index.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_searchsorted(self, data):
        family = data.draw(st.sampled_from(["uniform", "cdf", "spacing"]))
        bounds = {"uniform": (-1e3, 1e3), "cdf": (-20.0, 20.0),
                  "spacing": (-12.0, 2.0)}[family]
        values = data.draw(st.lists(st.floats(*bounds), min_size=2,
                                    max_size=400))
        x = knots_from(family, values)
        if x.size < 2:
            x = np.array([0.0, 1.0])
        q = search_queries(x, np.random.default_rng(data.draw(
            st.integers(0, 2**32 - 1))))
        with np.errstate(over="ignore"):  # +-1e300 leave the float range
            got = _search_right(x)(q)
        np.testing.assert_array_equal(got, np.searchsorted(x, q, side="right"))

    @pytest.mark.parametrize("density", ["relu3_product", "flat_tails"])
    def test_sampling_equals_searchsorted_pchip(self, density):
        if density == "relu3_product":
            p = solve_self_consistent(relu_preset()).per_particle[0]
        else:  # sd 0.5 on a +-10 grid: the CDF is flat over most nodes
            p = grid_gaussian_1d(mean=-2.0, sd=0.5)
        got = sample_from_grid(inverse_cdf(p), 32768,
                               np.random.default_rng(11))
        ref = sample_from_grid_searchsorted(p, 32768,
                                            np.random.default_rng(11))
        np.testing.assert_array_equal(got, ref)
