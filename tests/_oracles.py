"""Independent closed-form oracles the tests check the library against.

Everything here is derived by hand (Gaussian algebra, scalar fixed
points, one-dimensional quadrature) and deliberately avoids calling the
code paths under test; `gaussian_on_grid` builds a library
object, through normalize_from_log_potential, `bregman_rows_reference`
reduces through the library's `_bregman`, downstream of the chunking it
checks, and the definitions at the end go through the library's kernels.
`pchip_searchsorted`, `sample_from_grid_searchsorted` and
`log_density_numpy_wrappers` keep earlier forms of library code (a plain
searchsorted index; numpy's Python-level mean, clip, sum and swapaxes) as
bit-for-bit references for their faster replacements, and
`loss_terms_two_pass` keeps each loss's value and slope as two separate
evaluations of the residual.  `grid_moments_two_pass` keeps a grid
density's mean and covariance as two separate passes, `tilted_measure`
is the earlier Gaussian tilt of a grid density on its own grid, which the
adapted-grid covariance profile replaced, and `adapted_tilted_opnorm` is
that profile's row as it was when each row built a grid density, with its
own `coverage_in_sd` and boundary check.  The energy, its first and
second variations, its Wasserstein gradient and the grid KL are the
paper's definitions, over a grid density or the empirical measure of an
(N, d) particle array, evaluated through the library's expected features
and its one loss kernel, `loss_terms`; the tests check identities between
them (Gateaux derivative, finite differences, convexity, closed forms).
`w2_distance_1d` is the quantile-coupling W2 through the library's
`monotone_images`, which the tests check against Gaussian closed forms.
`rescale_parameters` is the paper's substitution of the bound inputs
under the coordinate rescaling, which `model_constants(rescale_model(m))`
must reproduce.
"""

import dataclasses
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import norm


def gaussian_kl_1d(m0, v0, m1, v1):
    """KL(N(m0, v0) || N(m1, v1)) in one dimension."""
    return 0.5 * (v0 / v1 + (m0 - m1) ** 2 / v1 - 1.0 + math.log(v1 / v0))


def gaussian_w2_1d(m0, s0, m1, s1):
    """W2 between 1-d Gaussians: sqrt((m0-m1)^2 + (s0-s1)^2)."""
    return math.hypot(m0 - m1, s0 - s1)


def quadratic_pi_moments(kappa, c, lam, sigma):
    """Mean-field fixed point of the quadratic model: the self-consistency
    m = -(kappa/lam)(m - c) gives mean kappa c/(lam + kappa), variance
    sigma^2/(2 lam)."""
    mean = kappa * c / (lam + kappa)
    var = sigma**2 / (2.0 * lam)
    return mean, var


def quadratic_pi_moments_fixed_point(kappa, c, lam, sigma, tol=1e-14):
    """Same mean via damped scalar fixed-point iteration (independent of
    the closed form above)."""
    m = 0.0
    for _ in range(10_000):
        m_new = 0.5 * m + 0.5 * (-(kappa / lam) * (m - c))
        if abs(m_new - m) < tol:
            break
        m = m_new
    return m_new, sigma**2 / (2.0 * lam)


def quadratic_mu_gaussian(kappa, c, lam, sigma, n):
    """Exact N-particle Gaussian of the quadratic model in d = 1.

    -log density = (lam/sigma^2) sum x_i^2 + (N kappa / sigma^2)(mean - c)^2
    gives precision (2 lam/sigma^2) I + (2 kappa / (N sigma^2)) 11^T; the
    Sherman-Morrison inverse is written out explicitly.
    """
    mean = np.full(n, kappa * c / (lam + kappa))
    base = sigma**2 / (2.0 * lam)
    ones = np.ones((n, n))
    cov = base * (np.eye(n) - (kappa / (n * (lam + kappa))) * ones)
    return mean, cov


def quadratic_kl_exact(kappa, lam, n):
    """KL(mu^{1:N} || pi^{x N}) for the quadratic model, independent of N
    and of the offset c: (1/2)[log(1 + kappa/lam) - kappa/(lam + kappa)]."""
    return 0.5 * (math.log(1.0 + kappa / lam) - kappa / (lam + kappa))


def quadratic_bregman_mean_exact(kappa, lam, sigma, n):
    """E_mu[B] for the quadratic model, B = (kappa/2)(mean x - mean pi)^2:
    under mu^{1:N} the particle mean has variance
    1^T cov 1 / N^2 = sigma^2 / (2 N (lam + kappa)) (see
    quadratic_mu_gaussian), so E_mu[B] = kappa sigma^2 / (4 N (lam + kappa))."""
    return kappa * sigma**2 / (4.0 * n * (lam + kappa))


def gaussian_kl_full(m0, c0, m1, c1):
    """KL between multivariate Gaussians, written out longhand."""
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    c0 = np.atleast_2d(c0)
    c1 = np.atleast_2d(c1)
    d = m0.size
    p1 = np.linalg.inv(c1)
    dm = m1 - m0
    val = np.trace(p1 @ c0) + dm @ p1 @ dm - d
    val += np.linalg.slogdet(c1)[1] - np.linalg.slogdet(c0)[1]
    return 0.5 * float(val)


def expected_relu_gaussian(a, b, m=0.0, s=1.0):
    """E[relu(a X + b)] for X ~ N(m, s^2): with Y ~ N(mu, sd^2),
    E[Y_+] = mu Phi(mu/sd) + sd phi(mu/sd)."""
    mu = a * m + b
    sd = abs(a) * s
    return mu * norm.cdf(mu / sd) + sd * norm.pdf(mu / sd)


def tilted_gaussian_variance(s2, t):
    """Variance of exp(-(x-y)^2/2t + x^2/2) N(0, s2): 1/(1/t - 1 + 1/s2),
    independent of y (valid for s2 < 1 or t small enough)."""
    return 1.0 / (1.0 / t - 1.0 + 1.0 / s2)


def zero_model_tilted_moments(lam, sigma, t, y):
    """Tilted single-particle moments for the pure-confinement model:
    precision alpha_t = 2 lam/sigma^2 - 1 + 1/t, mean y/(t alpha_t)."""
    alpha = 2.0 * lam / sigma**2 - 1.0 + 1.0 / t
    return y / (t * alpha), 1.0 / alpha


def largest_eigenvalue_2x2(c):
    """Largest eigenvalue of a symmetric 2x2 matrix [[a, b], [b, d]]:
    (a + d)/2 + hypot((a - d)/2, b)."""
    a, b, d = c[0][0], c[0][1], c[1][1]
    return 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)


def bootstrap_log_mean_sd(log_w, n_boot, rng):
    """Standard deviation of log mean(w) over n_boot resamples of the
    log-weights with replacement, one logsumexp per replicate."""
    n = log_w.size
    boot = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        boot[b] = logsumexp(log_w[idx]) - math.log(n)
    return float(boot.std(ddof=1))


def interaction_terms_reference(model, xb):
    """Expected features and Wasserstein-gradient rows of states xb
    (S, N, d) from the particle-last (S, N, n_data) pre-activations:
    eh_j = mean_i act(<x^i, x_j>) and
    row^i = sum_j p_j loss'(eh_j, y_j) act'(<x^i, x_j>) x_j."""
    pre = np.einsum("snk,jk->snj", xb, model.data_x)
    eh = model.activation.value(pre).mean(axis=1)
    slopes = model.data_p * model.loss.d1(eh, model.data_y)
    rows = np.einsum("snj,sj,jk->snk", model.activation.deriv(pre), slopes,
                     model.data_x)
    return eh, rows


def bregman_rows_reference(model, x, pibar):
    """Bregman divergence of each row of states x (S, N, d), its expected
    features eh_j = mean_i act(<x^i, x_j>) taken one row at a time and
    reduced by the library's _bregman."""
    from mflab.chaos import _bregman

    eh = np.array([model.activation.value(model.data_x @ xi.T).mean(axis=1)
                   for xi in x]).reshape(len(x), len(model.data_x))
    return _bregman(model, eh, pibar)


def gaussian_on_grid(axes, mean, cov):
    """Grid restriction of a Gaussian density on 1 or 2 axes, renormalized
    to mass 1 by the library's normalize_from_log_potential."""
    from mflab.measure import normalize_from_log_potential

    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    prec = np.linalg.inv(np.atleast_2d(np.asarray(cov, dtype=float)))
    grids = np.meshgrid(*(ax.nodes() for ax in axes), indexing="ij")
    diff = np.stack([g.ravel() for g in grids], axis=1) - mean
    log_u = -0.5 * np.einsum("ij,jk,ik->i", diff, prec, diff)
    return normalize_from_log_potential(
        log_u.reshape(tuple(ax.n for ax in axes)), tuple(axes))


def heat_flow_integral_quadrature(alpha, k):
    """Numerical value of int_0^inf e^{2t}(e^{2t}-1)^{k-2}/(alpha(e^{2t}-1)+1)^k dt.

    Uses the substitution tau = e^{2t} - 1, which maps the integrand to
    tau^{k-2} / (2 (alpha tau + 1)^k); the closed form is
    1/(2 (k-1) alpha^{k-1}).
    """
    if alpha <= 0 or k <= 1:
        raise ValueError("need alpha > 0 and k > 1")

    def integrand(tau):
        return tau ** (k - 2.0) / (2.0 * (alpha * tau + 1.0) ** k)

    head, _ = quad(integrand, 0.0, 1.0, limit=200)
    tail, _ = quad(integrand, 1.0, np.inf, limit=200)
    return head + tail


def log_term_integral_quadrature(alpha):
    """Numerical value of int_0^inf (1-alpha)/(alpha(e^{2t}-1)+1) dt,
    whose closed form is -(1/2) log alpha."""
    if alpha <= 0:
        raise ValueError("need alpha > 0")

    def integrand(tau):
        return (1.0 - alpha) / ((alpha * tau + 1.0) * 2.0 * (tau + 1.0))

    head, _ = quad(integrand, 0.0, 1.0, limit=200)
    tail, _ = quad(integrand, 1.0, np.inf, limit=200)
    return head + tail


def fitted_small_t_remainder(profile, skip_smallest=0):
    """Per tilt centre of a covariance profile, the smallest C with
    |opnorm(t)/t - 1| <= C sqrt(t) over its times, leaving out the
    skip_smallest smallest."""
    keep = np.argsort(profile.ts)[skip_smallest:]
    t = profile.ts[keep]
    return np.max(np.abs(profile.opnorm[:, keep] / t - 1.0) / np.sqrt(t),
                  axis=1)


def pchip_searchsorted(x, y, q):
    """mflab.measure.Pchip with its interval index from np.searchsorted
    over the raw queries: the same slopes and evaluation order."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full(y.shape, m[0])
    if x.size > 2:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        smooth = np.sign(m[1:]) * np.sign(m[:-1]) > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(smooth, 1.0 / whmean, 0.0)
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        clamp = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                              np.where(clamp, 3.0 * m0, end))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1 = t / h, (m - d[:-1]) / h - t
    i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
    s = q - x[i]
    return y[i] + d[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)


def sample_from_grid_searchsorted(p, n, rng):
    """mflab.measure.sample_from_grid through pchip_searchsorted; the CDF
    is the library's _corrected_cdf, its knots those of inverse_cdf."""
    from mflab.measure import CDF_STEP_FLOOR, _corrected_cdf

    cdf = _corrected_cdf(p)
    keep = np.concatenate([[True], np.diff(cdf) >= CDF_STEP_FLOOR])
    cdf_k, x_k = cdf[keep], p.nodes()[keep]
    u = np.clip(rng.random(n), cdf_k[0], cdf_k[-1])
    return np.where(u == cdf_k[-1], x_k[-1],
                    pchip_searchsorted(cdf_k, x_k, u))[:, None]


def loss_terms_two_pass(loss, yhat, y):
    """(value, slope) of a loss, each from its own residual or margin: the
    clipped squared loss's value as np.where of its quadratic and linear
    branches and its slope through np.clip; the logistic slope through the
    library's expit."""
    from mflab.model import LogisticLoss, UnclippedSquaredLoss, expit

    yhat, y = np.asarray(yhat, dtype=float), np.asarray(y, dtype=float)
    if isinstance(loss, LogisticLoss):
        return (np.logaddexp(0.0, -y * yhat), -y * expit(-y * yhat))
    r = yhat - y
    if isinstance(loss, UnclippedSquaredLoss):
        return 0.5 * loss.scale * r * r, loss.scale * (yhat - y)
    c = loss.clip_radius
    quad = 0.5 * loss.scale * r * r
    lin = loss.scale * c * (np.abs(r) - 0.5 * c)
    return (np.where(np.abs(r) <= c, quad, lin),
            loss.scale * np.clip(yhat - y, -c, c))


def _slopes_numpy_wrappers(model, eh):
    """p_j loss'(eh_j, y_j), a clipped squared loss's through np.clip."""
    from mflab.model import SquaredLoss

    loss = model.loss
    if type(loss) is SquaredLoss:
        r = np.asarray(eh, dtype=float) - model.data_y
        d1 = loss.scale * np.clip(r, -loss.clip_radius, loss.clip_radius)
    else:
        d1 = loss.d1(eh, model.data_y)
    return model.data_p * d1


def particle_features_numpy_wrappers(model, x):
    """mflab.model.particle_features through np.swapaxes and ndarray.mean."""
    pre = model.data_x @ np.swapaxes(x, 1, 2)
    return pre, model.activation.value(pre).mean(axis=2)


def log_density_numpy_wrappers(target, xb, with_grad):
    """mflab.sampler._log_density, value and gradient, through numpy's
    Python-level np.swapaxes, ndarray.mean, np.clip and np.sum."""
    m = target.model
    pre, eh = particle_features_numpy_wrappers(m, xb)
    grad = None
    if with_grad:
        w = np.swapaxes(_slopes_numpy_wrappers(m, eh)[..., None] * m.data_x,
                        1, 2)
        rows = np.swapaxes(w @ m.activation.deriv(pre), 1, 2)
        grad = -(2.0 / m.sigma**2) * (m.lam * xb + rows)
    sq = np.sum(xb * xb, axis=(1, 2))
    out = -(m.lam / m.sigma**2) * sq
    out -= ((2.0 * target.n_particles / m.sigma**2)
            * (loss_terms_two_pass(m.loss, eh, m.data_y)[0] @ m.data_p))
    if target.tilt is not None:
        diff = xb - target.tilt.y
        out -= np.sum(diff * diff, axis=(1, 2)) / (2.0 * target.tilt.t)
        out += 0.5 * sq
        if with_grad:
            grad += -diff / target.tilt.t + xb
    return out, grad


def grid_moments_two_pass(p):
    """Mean and covariance of a grid density from two separate passes over
    its nodes, the covariance recomputing the mean."""
    pts = p.node_points()
    cw = (p.quad_weights() * p.weights).ravel()
    mean = pts.T @ cw
    centered = pts - pts.T @ cw
    return mean, (centered * cw[:, None]).T @ centered


def coverage_in_sd(p):
    """Smallest number of standard deviations between a grid density's
    mean and its grid's edge, over the axes."""
    m, cov = p.mean(), p.covariance()
    sd = np.sqrt(np.clip(np.diag(cov), 1e-300, None))
    return float(min(min(m[i] - ax.lo, ax.hi - m[i]) / sd[i]
                     for i, ax in enumerate(p.axes)))


def _check_interior_peak(log_u):
    from mflab.errors import TiltDomainError

    idx = np.unravel_index(np.argmax(log_u), log_u.shape)
    if any(i in (0, n - 1) for i, n in zip(idx, log_u.shape)):
        raise TiltDomainError("tilted exponent peaks on the grid boundary")


def tilted_measure(mu, t, y):
    """The Gaussian tilt exp(-|x - y|^2/2t + |x|^2/2) mu of a grid density,
    normalized on mu's own grid.  Raises TiltDomainError when the tilted
    exponent peaks on the boundary, the mass reaches within 8 sd of the
    grid edge, or a tilted sd is under 1.5 grid spacings."""
    from mflab.errors import TiltDomainError
    from mflab.measure import normalize_from_log_potential

    if t <= 0:
        raise TiltDomainError("tilt time t must be positive")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != mu.dim:
        raise TiltDomainError(f"tilt center has {y.size} coords, grid is "
                              f"{mu.dim}-d")
    pts = mu.node_points()
    diff = pts - y
    log_u = (np.log(mu.weights).ravel()
             - np.sum(diff * diff, axis=1) / (2.0 * t)
             + 0.5 * np.sum(pts * pts, axis=1)).reshape(mu.weights.shape)
    _check_interior_peak(log_u)
    out = normalize_from_log_potential(log_u, mu.axes)
    if coverage_in_sd(out) < 8.0:
        raise TiltDomainError("tilted mass reaches the grid edge")
    for sd, ax in zip(np.sqrt(np.diag(out.covariance())), mu.axes):
        if sd < 1.5 * ax.spacing:
            raise TiltDomainError(f"tilt width {sd:.3g} under-resolved by "
                                  f"grid spacing {ax.spacing:.3g}")
    return out


def adapted_tilted_opnorm(target, t, y, inputs):
    """Covariance operator norm of one covariance-profile row, the tilt of
    the target's N-particle Gibbs measure normalized as a grid density on a
    window of 14 tilt widths around the mode of a coarse scan, doubled at
    most twice until the mean lies 8 sd inside it.  Raises as the profile
    does: TiltDomainError for a y of the wrong size, alpha_t <= 0, a peak
    on the window's edge or three windows too narrow; ValueError for NaN or
    +inf in the exponent."""
    from mflab.bounds import tilted_alpha
    from mflab.errors import TiltDomainError
    from mflab.measure import Axis, grid_points, normalize_from_log_potential
    from mflab.sampler import n_particle_log_density

    m, n = target.model, target.n_particles
    dim = n * m.d
    if y.size != dim:
        raise TiltDomainError(
            f"tilt center has {y.size} coords, target is {dim}-d")
    a_t = tilted_alpha(inputs, t)
    if a_t <= 0:
        raise TiltDomainError(
            f"alpha_t = {a_t:.4g} <= 0: tilt not normalizable")
    n_nodes = 2048 if dim == 1 else 192
    sd_t = 1.0 / math.sqrt(a_t)
    center_proxy = y / (1.0 + tilted_alpha(inputs, math.inf) * t)
    base_sd = m.sigma / math.sqrt(2.0 * m.lam)

    def tilted_log(pts):
        untilted = n_particle_log_density(target, pts.reshape(-1, n, m.d))
        diff = pts - y
        return (untilted - np.add.reduce(diff * diff, axis=1) / (2.0 * t)
                + 0.5 * np.add.reduce(pts * pts, axis=1))

    box = tuple(Axis(min(-10.0 * base_sd, center_proxy[j] - 10.0 * sd_t),
                     max(10.0 * base_sd, center_proxy[j] + 10.0 * sd_t),
                     801 if dim == 1 else 121) for j in range(dim))
    coarse_pts = grid_points(box)
    mode = coarse_pts[int(np.argmax(tilted_log(coarse_pts)))]
    half_width = 14.0 * sd_t
    for _ in range(3):
        axes = tuple(Axis(mode[j] - half_width, mode[j] + half_width, n_nodes)
                     for j in range(dim))
        log_u = tilted_log(grid_points(axes)).reshape(
            tuple(ax.n for ax in axes))
        _check_interior_peak(log_u)
        out = normalize_from_log_potential(log_u, axes)
        if coverage_in_sd(out) >= 8.0:
            return float(np.linalg.eigvalsh(out.covariance())[-1])
        mode = out.mean()
        half_width *= 2.0
    raise TiltDomainError(
        f"could not cover the tilted measure at t={t:g} within 3 widenings")


def mean_features(model, nu):
    """E_nu h(., x_j) of a grid density, or of the empirical measure of an
    (N, d) particle array."""
    from mflab.model import expect_features, particle_features

    if isinstance(nu, np.ndarray):
        return particle_features(model, nu[None])[1][0]
    return expect_features(model, nu)


def energy(model, nu):
    """F0(nu) = sum_j p_j loss(E_nu h_j, y_j)."""
    from mflab.model import loss_terms

    return float(loss_terms(model, mean_features(model, nu)))


def first_variation(model, nu, x):
    """dF0(nu, x) = sum_j p_j loss'(E_nu h_j, y_j) h(x, x_j) at a point x
    (d,) or at each row of a batch (M, d)."""
    from mflab.model import features, loss_terms

    return features(model, x) @ loss_terms(model, mean_features(model, nu), 1)


def wasserstein_gradient(model, nu, x):
    """grad_x dF0(nu, x) = sum_j p_j loss'(E_nu h_j, y_j) act'(<x, x_j>) x_j
    at a point x (d,) or at each row of a batch (M, d)."""
    from mflab.model import loss_terms

    slope = loss_terms(model, mean_features(model, nu), 1)
    act_prime = model.activation.deriv(np.asarray(x, dtype=float)
                                       @ model.data_x.T)
    return (act_prime * slope) @ model.data_x


def second_variation(model, nu, x, y):
    """d2F0(nu, x, y) = sum_j p_j loss''(E_nu h_j, y_j) h(x, x_j) h(y, x_j)
    at points x and y (d,)."""
    from mflab.model import features, loss_terms

    curv = loss_terms(model, mean_features(model, nu), 2)
    return float(np.sum(curv * features(model, x) * features(model, y)))


def grid_kl(p, q):
    """KL(p || q) = sum_k w_k p_k log(p_k / q_k) over the trapezoid weights
    w_k of two densities on one grid, nodes where p is below 1e-300 left
    out."""
    support = p.weights > 1e-300
    ratio = np.log(p.weights[support]) - np.log(q.weights[support])
    return float(np.sum((p.quad_weights() * p.weights)[support] * ratio))


def w2_distance_1d(p, q):
    """Quantile-coupling W2 between 1-d grid densities, from
    W2^2 = E_p[(x - Q_q(F_p(x)))^2] with the library's monotone_images;
    0 for identical densities on one grid."""
    from mflab.measure import monotone_images

    if p.axes == q.axes and np.array_equal(p.weights, q.weights):
        return 0.0
    displacement = p.nodes() - monotone_images(p, q)
    w2sq = float(np.sum(p.quad_weights() * p.weights * displacement**2))
    return math.sqrt(max(w2sq, 0.0))


def rescale_parameters(inputs):
    """Bound inputs after the coordinate rescaling x -> (sqrt(lam)/sigma) x:
    beta_hat <- beta_hat sigma^2/lam, lam <- sigma^2 and
    B <- B sigma/sqrt(lam)."""
    s2 = inputs.sigma**2
    return dataclasses.replace(
        inputs, beta_hat=inputs.beta_hat * s2 / inputs.lam, lam=s2,
        B=inputs.B * inputs.sigma / math.sqrt(inputs.lam))
