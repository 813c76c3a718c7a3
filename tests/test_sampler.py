"""MALA exactness, dynamics discretization, and reproducibility."""

import math

import numpy as np
import pytest

from mflab.errors import InvalidTargetError, SimulationDivergedError
from mflab.measure import Axis, normalize_from_log_potential
from mflab.model import (
    RELU,
    example_nn,
    particle_features,
    quadratic_oracle,
    rescale_model,
    zero_model,
)
from mflab.presets import PRESETS, logistic_preset, relu_preset, tanh_preset
from mflab.sampler import (
    TargetSpec,
    TiltSpec,
    _interaction_terms,
    _log_density,
    effective_sample_size,
    mala_sample,
    mfld_simulate,
    n_particle_log_density,
    ndtri,
    split_rhat,
    states_to_csv,
)
from mflab.model import model_constants

from _oracles import (
    interaction_terms_reference,
    log_density_numpy_wrappers,
    particle_features_numpy_wrappers,
    quadratic_mu_gaussian,
    zero_model_tilted_moments,
)


def log_density_grad(target, x):
    """The gradient of the fused MALA kernel at one (N, d) state."""
    return _log_density(target, np.asarray(x, dtype=float)[None], True)[1][0]


class TestLogDensityGrad:
    def test_zero_model_is_linear(self):
        model = zero_model(sigma=1.0, lam=0.8)
        target = TargetSpec(model, n_particles=3)
        x = np.array([[0.5], [-1.0], [2.0]])
        grad = log_density_grad(target, x)
        np.testing.assert_allclose(grad, -(2.0 * 0.8 / 1.0) * x, rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        targets = [
            TargetSpec(quadratic_oracle(1.0, 1.0, kappa=0.7, c=0.2), 4),
            TargetSpec(relu_preset(), 3),
            TargetSpec(rescale_model(relu_preset()), 2,
                       tilt=TiltSpec(0.5, np.array([[0.3], [-0.2]]))),
        ]
        for target in targets:
            n, d = target.n_particles, target.model.d
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=(n, d))
                if target.model.activation is RELU:
                    # keep clear of relu kinks so the derivative exists
                    pre = x @ target.model.data_x.T
                    if np.min(np.abs(pre)) < 1e-2:
                        continue
                grad = log_density_grad(target, x)
                for i in range(n):
                    for j in range(d):
                        xp = x.copy()
                        xm = x.copy()
                        xp[i, j] += h
                        xm[i, j] -= h
                        fd = (n_particle_log_density(target, xp)
                              - n_particle_log_density(target, xm)) / (2 * h)
                        assert abs(grad[i, j] - fd) < 1e-5

    def test_permutation_equivariance(self):
        target = TargetSpec(relu_preset(), 4)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 1))
        perm = np.array([2, 0, 3, 1])
        g = log_density_grad(target, x)
        g_perm = log_density_grad(target, x[perm])
        np.testing.assert_array_equal(g_perm, g[perm])
        assert n_particle_log_density(target, x) == n_particle_log_density(
            target, x[perm])

    def test_tilt_terms_added(self):
        model = rescale_model(zero_model(sigma=1.0, lam=1.0))
        y = np.array([[0.4]])
        t = 0.7
        tilted = TargetSpec(model, 1, tilt=TiltSpec(t, y))
        plain = TargetSpec(model, 1)
        x = np.array([[0.9]])
        extra = log_density_grad(tilted, x) - log_density_grad(plain, x)
        np.testing.assert_allclose(extra, -(x - y) / t + x, rtol=1e-12)

    def test_tilt_argument_equals_tilted_target(self):
        # The tilt argument takes the place of the target's own tilt, bit
        # for bit; its centres must have the target's (N, d) shape.
        model = rescale_model(relu_preset())
        rng = np.random.default_rng(5)
        tilt, other = (TiltSpec(t, rng.normal(size=(3, 1))) for t in (0.5, 2))
        xb = rng.normal(size=(7, 3, 1))
        for own in (None, other):
            np.testing.assert_array_equal(
                n_particle_log_density(TargetSpec(model, 3, own), xb, tilt),
                n_particle_log_density(TargetSpec(model, 3, tilt), xb))
        assert n_particle_log_density(TargetSpec(model, 3), xb[2], tilt) == (
            n_particle_log_density(TargetSpec(model, 3, tilt), xb[2]))
        with pytest.raises(InvalidTargetError, match="tilt centers"):
            n_particle_log_density(TargetSpec(model, 3), xb,
                                   TiltSpec(0.5, np.zeros((1, 1))))

    def test_non_normalizable_tilt_rejected(self):
        model = zero_model(sigma=1.0, lam=0.25)  # 2 lam/sigma^2 = 0.5 < 1
        with pytest.raises(InvalidTargetError):
            TargetSpec(model, 1, tilt=TiltSpec(1e9, np.zeros((1, 1))))


class TestMala:
    def test_zero_model_standard_gaussian(self):
        # sigma^2/(2 lam) = 1, so the target is N(0, I) over particles.
        model = zero_model(sigma=1.0, lam=0.5)
        target = TargetSpec(model, n_particles=4)
        x, diag = mala_sample(target, n_samples=8000, n_burnin=1500,
                              step_size=0.5, seed=7)
        ess = min(diag.ess.values())
        mean = x.mean()
        sd_mean = x.std() / math.sqrt(ess * x.shape[1])
        assert abs(mean) < 3.0 * sd_mean + 1e-3
        assert abs(x.var() - 1.0) < 0.05
        assert diag.acceptance_ok

    def test_quadratic_oracle_covariance(self):
        kappa, c, lam, sigma, n = 0.5, 0.3, 1.0, 1.0, 4
        model = quadratic_oracle(sigma, lam, kappa=kappa, c=c)
        target = TargetSpec(model, n_particles=n)
        samples, _ = mala_sample(target, n_samples=30000, n_burnin=2000,
                                 step_size=0.5, seed=11)
        x = samples[:, :, 0]
        mean_oracle, cov_oracle = quadratic_mu_gaussian(kappa, c, lam, sigma, n)
        cov_hat = np.cov(x.T)
        np.testing.assert_allclose(x.mean(axis=0), mean_oracle, atol=0.02)
        scale = float(np.max(np.abs(np.diag(cov_oracle))))
        assert np.max(np.abs(cov_hat - cov_oracle)) < 0.05 * scale

    def test_tilted_zero_model_moments(self):
        model = rescale_model(zero_model(sigma=1.0, lam=1.0))
        t, y = 0.5, np.array([[0.8]])
        target = TargetSpec(model, 1, tilt=TiltSpec(t, y))
        mean_exact, var_exact = zero_model_tilted_moments(
            target.model.lam, 1.0, t, 0.8)
        samples, _ = mala_sample(target, n_samples=20000, n_burnin=2000,
                                 step_size=0.3, seed=3)
        x = samples.ravel()
        assert abs(x.mean() - mean_exact) < 0.02
        assert abs(x.var() - var_exact) < 0.05 * var_exact

    def test_seed_determinism_and_stream_independence(self):
        target = TargetSpec(relu_preset(), 2)
        s1, d1 = mala_sample(target, 500, 100, 0.4, seed=5)
        s2, d2 = mala_sample(target, 500, 100, 0.4, seed=5)
        s3, _ = mala_sample(target, 500, 100, 0.4, seed=6)
        np.testing.assert_array_equal(s1, s2)
        assert d1.acceptance_rate == d2.acceptance_rate
        assert not np.array_equal(s1, s3)

    @pytest.mark.parametrize("args", [(10, -5, 0.3), (0, 5, 0.3),
                                      (10, 5, 0.0)])
    def test_rejects_out_of_range_effort(self, args):
        # A negative burn-in once stopped with UnboundLocalError.
        with pytest.raises(ValueError):
            mala_sample(TargetSpec(relu_preset(), 2), *args, seed=0)

    def test_chain_does_not_depend_on_chains_beside_it(self):
        # Each chain has its own Philox stream and its own step size, and
        # the lockstep arithmetic is elementwise per chain, so chain 0 is
        # bit-identical whether it runs alone or beside three others.
        targets = [
            TargetSpec(relu_preset(), 4),
            TargetSpec(quadratic_oracle(1.0, 1.0, kappa=0.5, d=2,
                                        e=[0.6, 0.8]), 3),
            TargetSpec(rescale_model(relu_preset()), 2,
                       tilt=TiltSpec(0.5, np.array([[0.3], [-0.2]]))),
        ]
        for target in targets:
            alone, d1 = mala_sample(target, 300, 300, 0.3, seed=3)
            beside, d4 = mala_sample(target, 300, 300, 0.3, seed=3,
                                     n_chains=4)
            assert beside.shape == (4 * 300,) + alone.shape[1:]
            np.testing.assert_array_equal(alone, beside[:300])
            assert d4.n_chains == 4 and d4.n_samples == 300
            assert d4.acceptance_range[0] <= d1.acceptance_rate \
                <= d4.acceptance_range[1]
            assert d4.step_size_range[0] <= d1.step_size_range[0] \
                <= d4.step_size_range[1]

    def test_chains_differ_and_diagnostics_summarize_them(self):
        target = TargetSpec(relu_preset(), 2)
        x, diag = mala_sample(target, 400, 300, 0.4, seed=5, n_chains=3)
        chains = x.reshape(3, 400, 2, 1)
        assert not np.array_equal(chains[0], chains[1])
        means = chains.mean(axis=(2, 3))
        assert diag.ess["mean_coordinate"] == pytest.approx(
            sum(effective_sample_size(m) for m in means), rel=1e-12)
        assert diag.rhat["mean_coordinate"] == split_rhat(means)
        assert diag.acceptance_ok
        assert len(diag.warnings) == sum(v > 1.01 for v in diag.rhat.values())
        _, stuck = mala_sample(target, 200, 0, 50.0, seed=5, n_chains=2)
        assert not stuck.acceptance_ok
        assert stuck.warnings[0].startswith("chain acceptance rates")

    def test_histogram_matches_grid_density(self):
        # d = 1, N = 1: the binned long-run histogram agrees with the
        # grid density built from the same log potential.
        model = relu_preset()
        target = TargetSpec(model, 1)
        ax = Axis(-6.0, 6.0, 2048)
        log_u = n_particle_log_density(target, ax.nodes()[:, None, None])
        grid = normalize_from_log_potential(log_u, (ax,))
        samples, _ = mala_sample(target, 40000, 3000, 0.5, seed=13)
        x = samples.ravel()
        edges = np.linspace(-4.0, 4.0, 41)
        counts, _ = np.histogram(x, bins=edges)
        p_hat = counts / counts.sum()
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (grid.weights[1:] + grid.weights[:-1]) * ax.spacing)])
        cdf /= cdf[-1]
        q = np.interp(edges, ax.nodes(), cdf)
        q_bin = np.diff(q)
        q_bin /= q_bin.sum()
        mask = p_hat > 0
        kl = float(np.sum(p_hat[mask] * np.log(p_hat[mask] / q_bin[mask])))
        assert kl < 0.01

    def test_exchangeability_of_summaries(self):
        target = TargetSpec(relu_preset(), 4)
        samples, diag = mala_sample(target, 20000, 2000, 0.5, seed=17)
        x = samples[:, :, 0]
        ess = min(diag.ess.values())
        for i in range(1, 4):
            se = math.sqrt(x[:, 0].var() / ess + x[:, i].var() / ess)
            assert abs(x[:, 0].mean() - x[:, i].mean()) < 4.0 * se + 1e-3

    def test_interaction_gradient_bound_on_samples(self):
        model = relu_preset()
        target = TargetSpec(model, 3)
        bound = 2.0 * model_constants(model).B / model.sigma**2
        samples, _ = mala_sample(target, 2000, 500, 0.5, seed=19)
        rows = -(2.0 / model.sigma**2) * _interaction_terms(model, samples)[1]
        norms = np.linalg.norm(rows, axis=2)
        assert float(norms.max()) <= bound + 1e-12


KERNEL_MODELS = {
    "relu3": relu_preset(),
    "tanh2": tanh_preset(),
    "logistic2": logistic_preset(),
    "quadratic": quadratic_oracle(1.0, 1.0, kappa=0.7, c=0.2),
    "relu_d2": example_nn(1.0, 1.0, data_x=[[1.0, 0.5], [-0.3, 0.8],
                                             [0.6, -1.2]],
                          data_y=[0.2, -0.1, 0.4], activation=RELU),
}


class TestInteractionKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    @pytest.mark.parametrize("s", [1, 32])
    @pytest.mark.parametrize("n", [1, 2, 16, 2048])
    def test_matches_particle_last_reference(self, name, s, n):
        model = KERNEL_MODELS[name]
        xb = np.random.default_rng(n + s).normal(size=(s, n, model.d))
        eh, rows = _interaction_terms(model, xb)
        eh_ref, rows_ref = interaction_terms_reference(model, xb)
        assert rows.shape == (s, n, model.d)
        # Relative to each array's scale: a row can be a near-cancelling sum.
        for got, ref in ((eh, eh_ref), (rows, rows_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-13,
                                       atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_public_log_density_equals_fused_kernel_bitwise(self, name):
        # The value path runs data-major and the fused kernel particle-major,
        # so only this test keeps their bits equal, at every batch size s and
        # particle count N where their layouts differ.
        model = KERNEL_MODELS[name]
        n = 16
        rng = np.random.default_rng(3)
        tilt = TiltSpec(0.5, rng.normal(size=(n, model.d)))
        xb = rng.normal(size=(32, n, model.d))
        for target in (TargetSpec(model, n),
                       TargetSpec(rescale_model(model), n, tilt=tilt)):
            fused = _log_density(target, xb, with_grad=True)[0]
            np.testing.assert_array_equal(n_particle_log_density(target, xb),
                                          fused)
            assert n_particle_log_density(target, xb[5]) == fused[5]
        rng = np.random.default_rng(3)
        with np.errstate(invalid="ignore"):
            for s in (1, 7, 32, 2048):
                for n in (1, 2, 3, 16):
                    tilt = TiltSpec(0.5, rng.normal(size=(n, model.d)))
                    for target in (TargetSpec(model, n),
                                   TargetSpec(rescale_model(model), n,
                                              tilt=tilt)):
                        for kind, xb in kernel_states(rng, s, n,
                                                      model.d).items():
                            where = (f"s={s}, N={n}, {kind} states, "
                                     f"tilted: {target.tilt is not None}")
                            fused = _log_density(target, xb, True)[0]
                            assert_same_bits(
                                n_particle_log_density(target, xb), fused,
                                where)
                            if s == 1:  # one (N, d) state, not a batch
                                assert_same_bits(n_particle_log_density(
                                    target, xb[0]), fused[0], where)


def assert_same_bits(got, ref, where=""):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    np.testing.assert_array_equal(got, ref, err_msg=where)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref),
                                  err_msg=where)


def kernel_states(rng, s, n, d):
    """States by kind: Gaussian; spread far enough that relu3 residuals
    pass its clip radius 1; every coordinate 1.5, where relu3's first
    residual is exactly 1.5 - 0.5 = +1; all -0.0; one NaN coordinate."""
    z = rng.normal(size=(s, n, d))
    nan = z.copy()
    nan[:, 0, 0] = np.nan
    return {"gaussian": z, "past_clip": 50.0 * z, "at_clip": np.full_like(z, 1.5),
            "negative_zero": np.full_like(z, -0.0), "nan": nan}


class TestKernelWithoutNumpyWrappers:
    # The kernel as written with np.swapaxes, ndarray.mean, np.clip and
    # np.sum (tests/_oracles.py) is the reference, bit for bit.
    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("tilted", [False, True])
    def test_equals_numpy_wrapper_kernel(self, name, tilted):
        model = PRESETS[name]()
        rng = np.random.default_rng(len(name) + tilted)
        with np.errstate(invalid="ignore"):
            for s in (1, 32):
                for n in (1, 2, 3, 16):  # 3: 1/N is inexact
                    tilt = (TiltSpec(0.5, rng.normal(size=(n, model.d)))
                            if tilted else None)
                    target = TargetSpec(rescale_model(model) if tilted
                                        else model, n, tilt=tilt)
                    m = target.model
                    for xb in kernel_states(rng, s, n, m.d).values():
                        for got, ref in zip(
                                particle_features(m, xb),
                                particle_features_numpy_wrappers(m, xb)):
                            assert_same_bits(got, ref)
                        for grad in (False, True):
                            got = _log_density(target, xb, with_grad=grad)
                            ref = log_density_numpy_wrappers(target, xb, grad)
                            assert_same_bits(got[0], ref[0])
                            if grad:
                                assert_same_bits(got[1], ref[1])


class TestSerialization:
    def test_samples_to_csv_with_diagnostics_sidecar(self, tmp_path):
        target = TargetSpec(relu_preset(), 2)
        samples, diag = mala_sample(target, 50, 20, 0.4, seed=5)
        csv = tmp_path / "samples.csv"
        states_to_csv(samples, np.arange(21, 71), csv, 2, 1)
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "step,particle,x1"
        assert len(lines) == 1 + 50 * 2
        table = np.loadtxt(csv, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 0], np.repeat(np.arange(21, 71), 2))
        np.testing.assert_array_equal(table[:, 1], np.tile([0, 1], 50))
        np.testing.assert_array_equal(table[:, 2], samples.ravel())
        assert diag.seed == 5
        assert 0.0 <= diag.acceptance_rate <= 1.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_trajectory_csv_bytes_match_per_row_repr(self, tmp_path, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(5, 3, d)) * 10.0 ** rng.integers(-8, 8, (5, 3, d))
        x.flat[:6] = [-0.0, 1e-5, 1.5e16, 5e-324, -2.5e-300, -7.0]
        steps = np.array([0.0, 3.0, 1e16, 2.5, -1e-5, 7.0,
                          1e22, 0.1, 9.0, 11.0])[::2]
        assert not steps.flags.c_contiguous
        csv = tmp_path / "traj.csv"
        states_to_csv(x, steps, csv, 3, d)
        lines = csv.read_text().split("\n")
        expected = [",".join(map(repr, (float(step), float(p),
                                        *x[k, p].tolist())))
                    for k, step in enumerate(steps) for p in range(3)]
        assert lines[0] == "step,particle," + ",".join(
            f"x{j + 1}" for j in range(d))
        assert lines[1:] == expected + [""]

    @pytest.mark.parametrize("d", [1, 2])
    def test_states_streamed_one_at_a_time_give_the_same_bytes(self, tmp_path,
                                                                d):
        x = np.random.default_rng(d).normal(size=(6, 4, d))
        steps = np.arange(0, 12, 2)
        states_to_csv(x, steps, tmp_path / "array.csv", 4, d)
        states_to_csv(iter(x), steps, tmp_path / "stream.csv", 4, d)
        assert ((tmp_path / "array.csv").read_bytes()
                == (tmp_path / "stream.csv").read_bytes())
        for short_or_long in (x[:-1], np.concatenate([x, x[:1]])):
            with pytest.raises(ValueError):
                states_to_csv(iter(short_or_long), steps,
                              tmp_path / "bad.csv", 4, d)


class TestEffectiveSampleSize:
    def test_iid_series(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=20000)
        ess = effective_sample_size(x)
        assert ess > 15000

    def test_correlated_series_shrinks(self):
        rng = np.random.default_rng(29)
        n = 20000
        x = np.empty(n)
        x[0] = 0.0
        for i in range(1, n):
            x[i] = 0.95 * x[i - 1] + rng.normal()
        ess = effective_sample_size(x)
        # AR(1) with phi = 0.95 has tau ~ (1+phi)/(1-phi) = 39
        assert ess < n / 15


class TestSplitRhat:
    @staticmethod
    def reference(chains):
        # Vehtari et al. (2021), eqs. 3-4 and the rank normalization of
        # section 3, written out with scipy's average ranks.
        from scipy.stats import norm, rankdata

        half = chains.shape[1] // 2
        split = np.vstack([chains[:, :half], chains[:, -half:]])

        def rhat(theta):
            r = rankdata(theta, axis=None).reshape(theta.shape)
            z = norm.ppf((r - 3.0 / 8.0) / (theta.size + 1.0 / 4.0))
            n = z.shape[1]
            w = np.mean([np.var(row, ddof=1) for row in z])
            b = n * np.var(z.mean(axis=1), ddof=1)
            return math.sqrt(((n - 1) / n * w + b / n) / w)

        return max(rhat(split), rhat(np.abs(split - np.median(split))))

    def test_matches_reference_with_ties(self):
        rng = np.random.default_rng(3)
        for shape in ((4, 100), (8, 51), (1, 40)):
            chains = np.round(rng.normal(size=shape), 1)  # many ties
            assert split_rhat(chains) == pytest.approx(
                self.reference(chains), rel=1e-12)

    def test_separates_agreeing_from_shifted_chains(self):
        rng = np.random.default_rng(4)
        chains = rng.normal(size=(8, 500))
        assert split_rhat(chains) < 1.01
        chains[0] += 1.0
        assert split_rhat(chains) > 1.05

    def test_too_short_is_nan(self):
        assert math.isnan(split_rhat(np.zeros((4, 3))))


class TestNdtri:
    def test_matches_scipy(self):
        # Both tails, the centre, and each side of the AS241 branch
        # boundaries |p - 1/2| = 0.425 and p = e^-25.
        from scipy.special import ndtri as reference

        tail = np.geomspace(1e-300, 1e-3, 2001)
        p = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 200_001), tail,
                            1.0 - tail[tail > 1e-16],
                            [1e-300, math.exp(-25.0), 0.075, 0.5,
                             1.0 - 2.0**-53]])
        np.testing.assert_allclose(ndtri(p), reference(p), rtol=2e-15, atol=0)


class TestMfldSimulate:
    def test_zero_model_terminal_variance(self):
        model = zero_model(sigma=1.0, lam=1.0)
        traj = mfld_simulate(model, n_particles=8192, horizon=20.0,
                             step=1e-3, seed=31)
        terminal = traj[-1]
        assert abs(terminal.var() - 0.5) < 0.05 * 0.5

    def test_quadratic_terminal_mean(self):
        kappa, c = 0.5, 0.6
        model = quadratic_oracle(1.0, 1.0, kappa=kappa, c=c)
        traj = mfld_simulate(model, n_particles=4096, horizon=12.0,
                             step=1e-3, seed=37)
        terminal = traj[-1, :, 0]
        mean_exact = kappa * c / (1.0 + kappa)
        se = terminal.std() / math.sqrt(terminal.size)
        # interacting particles are correlated through the common mean;
        # inflate the naive se accordingly
        assert abs(terminal.mean() - mean_exact) < 5.0 * se + 0.01

    def test_noiseless_gradient_flow_decay(self):
        # sigma must stay positive; 1e-12 makes the noise term negligible
        # against the O(h) discretization error of the drift.
        model = zero_model(sigma=1e-12, lam=1.0)
        x0 = np.array([[2.0]])
        h = 1e-3
        horizon = 3.0
        traj = mfld_simulate(model, 1, horizon, h, seed=41, x0=x0)
        assert traj.shape == (3001, 1, 1)
        np.testing.assert_array_equal(traj[0], x0)
        got = traj[-1, 0, 0]
        exact = 2.0 * math.exp(-1.0 * horizon)
        assert abs(got - exact) < 10.0 * h

    def test_divergence_guard(self):
        model = zero_model(sigma=1.0, lam=1.0)
        with pytest.raises(SimulationDivergedError):
            mfld_simulate(model, 4, horizon=300.0, step=3.0, seed=43)

    def test_rejects_bad_start(self):
        model = zero_model(sigma=1.0, lam=1.0)
        with pytest.raises(ValueError, match="must be finite"):
            mfld_simulate(model, 1, 1.0, 1e-2, seed=53, x0=[[np.nan]])
        with pytest.raises(ValueError):
            mfld_simulate(model, 2, 1.0, 1e-2, seed=53, x0=[[0.0]])

    def test_determinism(self):
        model = zero_model(sigma=1.0, lam=1.0)
        t1 = mfld_simulate(model, 8, 1.0, 1e-2, seed=47)
        t2 = mfld_simulate(model, 8, 1.0, 1e-2, seed=47)
        np.testing.assert_array_equal(t1, t2)

    def test_record_every_keeps_strided_rows_and_terminal(self):
        model = relu_preset()
        full = mfld_simulate(model, 8, 1.0, 1e-2, seed=47)
        assert full.shape == (101, 8, 1)
        seen = []

        def record(state):  # the bytes a pipe writer would send
            assert state.flags.c_contiguous and state.dtype == np.float64
            seen.append(state.copy())

        for r in (1, 4, 7, 100, 150):
            seen.clear()
            kept = mfld_simulate(model, 8, 1.0, 1e-2, seed=47,
                                 record_every=r, on_record=record)
            rows = 100 // r + 1
            assert len(kept) == rows + (100 % r > 0)
            np.testing.assert_array_equal(kept[:rows], full[::r])
            # on_record gets the strided rows, not the extra terminal row.
            np.testing.assert_array_equal(seen, kept[:rows])
            np.testing.assert_array_equal(kept[-1], full[-1])
        with pytest.raises(ValueError, match="record_every"):
            mfld_simulate(model, 8, 1.0, 1e-2, seed=47, record_every=0)

    def test_record_every_does_not_change_the_path(self):
        model = relu_preset()
        full = mfld_simulate(model, 64, 0.2, 1e-3, seed=59)
        kept = mfld_simulate(model, 64, 0.2, 1e-3, seed=59, record_every=7)
        assert full.shape == (201, 64, 1) and kept.shape == (30, 64, 1)
        np.testing.assert_array_equal(kept[:-1], full[::7])
        np.testing.assert_array_equal(kept[-1], full[-1])
