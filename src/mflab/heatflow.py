"""Tilted-covariance profiles and the reverse-flow transport map, in total
dimension at most 2.

The central object is the Gaussian-tilted measure

    mu_{t,y}(dx) propto exp(-||x - y||^2 / 2t + ||x||^2 / 2) mu(dx),

whose covariance operator norm as a function of (t, y) is what certifies
a Lipschitz transport map from the standard Gaussian.  Profiles compare
the measured operator norms against small-time and large-time reference
envelopes; the unspecified universal constants in those envelopes are
fitted from the data and only their boundedness and stability are ever
asserted.

The transport map is the reverse heat flow of Kim and Milman reduced to
one dimension: the flow

    d/dt S_t(x) = -grad log (d mu_t / d gamma)(S_t(x)),

with mu_t the Ornstein-Uhlenbeck evolution of mu, carries mu to mu_t
monotonically, and in 1-d the monotone map is unique, so
S_t = Q_{mu_t} o F_mu.  As t -> infinity mu_t -> gamma, and the flow's
endpoint is S_inf = Phi^{-1} o F_mu in closed form.  The map from gamma
is its inverse, Q_mu o Phi, and its accuracy W2(T_# gamma, mu) is its
L^2(gamma) distance from that exact monotone map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundInputs,
    gaussian_proxy,
    heatflow_lipschitz_bound,
    tilted_alpha,
)
from .errors import (
    IntegrationFailureError,
    InvalidTargetError,
    TiltDomainError,
    UnsupportedDimensionError,
)
from .measure import (
    Axis,
    GridDensity,
    MIN_COVERAGE_SD,
    Pchip,
    covariance_opnorm,
    coverage_sd,
    grid_points,
    grid_quad_weights,
    monotone_images,
    normalize_from_log_potential,
    weighted_moments,
    _as_axes,
    _write_csv,
)
from .sampler import TargetSpec, n_particle_log_density

LIPSCHITZ_WINDOW_SD = 6.0


# -- profiling ---------------------------------------------------------------


def regime_threshold(inputs: BoundInputs) -> float:
    """Crossover time t* = (20 B^2/sigma^4 - 2 lam/sigma^2 + 1)^{-1}.

    When the bracket is nonpositive every t counts as the small regime
    and the threshold is +inf.
    """
    s2 = inputs.sigma**2
    denom = 20.0 * inputs.B**2 / (s2 * s2) - 2.0 * inputs.lam / s2 + 1.0
    return 1.0 / denom if denom > 0 else math.inf


def _small_regime_bump(inputs: BoundInputs) -> float:
    """sqrt(beta_hat)/sigma + B/sigma^2, the small-time envelope's term
    in 1/alpha_t."""
    return (math.sqrt(inputs.beta_hat) / inputs.sigma
            + inputs.B / inputs.sigma**2)


def small_regime_envelope(inputs: BoundInputs, t: float) -> float:
    """[1/sqrt(alpha_t) + (sqrt(beta_hat)/sigma + B/sigma^2)/alpha_t]^2,
    the small-time envelope with its universal constant set to 1."""
    a_t = tilted_alpha(inputs, t)
    return (1.0 / math.sqrt(a_t) + _small_regime_bump(inputs) / a_t) ** 2


def large_regime_envelope(inputs: BoundInputs, t: float) -> float:
    """[1/sqrt(alpha_t) + B/(alpha_t sigma^2)]^2
    + beta_hat B^2 / alpha_t^3 sigma^6 + beta_hat B^4 / alpha_t^4 sigma^10,
    the large-time envelope with both universal constants set to 1."""
    a_t = tilted_alpha(inputs, t)
    s2 = inputs.sigma**2
    head = (1.0 / math.sqrt(a_t) + inputs.B / (a_t * s2)) ** 2
    tail = (inputs.beta_hat * inputs.B**2 / (a_t**3 * s2**3)
            + inputs.beta_hat * inputs.B**4 / (a_t**4 * s2**5))
    return head + tail


@dataclass
class CovarianceProfile:
    """Measured tilted-covariance operator norms with reference envelopes,
    as one table: opnorm[i, j] is the norm at tilt center y_labels[i] and
    time ts[j]; alpha_t and the two envelopes are indexed by time alone."""

    ts: np.ndarray
    y_labels: np.ndarray
    opnorm: np.ndarray
    alpha_t: np.ndarray
    small_regime_ref: np.ndarray
    large_regime_ref: np.ndarray
    t_star: float
    a: float
    inputs: BoundInputs

    def reference(self) -> np.ndarray:
        """The unit-constant envelope of each time's regime."""
        return np.where(self.ts <= self.t_star, self.small_regime_ref,
                        self.large_regime_ref)

    def fitted_small_constants(self) -> np.ndarray:
        """Per tilt center, the smallest constant making the small-regime
        envelope cover the data."""
        bump = _small_regime_bump(self.inputs)
        if bump == 0.0:
            return np.zeros(len(self.y_labels))
        gap = (np.sqrt(np.maximum(self.opnorm, 0.0))
               - 1.0 / np.sqrt(self.alpha_t))
        return np.max(gap * self.alpha_t / bump, axis=1, initial=0.0,
                      where=self.ts <= self.t_star)

    def fitted_profile_ratios(self) -> np.ndarray:
        """Per tilt center, the smallest multiple of the Gaussian reference
        1/(a + 1/t) that dominates the measured norms; the quantity whose
        stability across tilt centers expresses tilt stability."""
        return np.max(self.opnorm * self.alpha_t, axis=1)

    def fitted_lipschitz_bound(self) -> tuple[float, float, float]:
        """(bound, C, k): C is the least with opnorm <= 1/(a + 1/t)
        + C/(a + 1/t)^k over the table, for the first k of 1.5, 2, 3, 4
        whose fitted envelope gives the smallest Lipschitz bound."""
        base = self.a + 1.0 / self.ts
        gaps = self.opnorm - 1.0 / base
        best = None
        for k in (1.5, 2.0, 3.0, 4.0):  # scalar k: numpy squares for k = 2
            c = float(max(0.0, (gaps * base**k).max()))
            bound = heatflow_lipschitz_bound(self.a, [(c, k)])
            if best is None or bound < best[0]:
                best = (bound, c, k)
        return best

    def to_csv(self, path):
        """One row per (y, t), y-major; each t's columns repeat per y."""
        n_y = len(self.y_labels)
        _write_csv(
            path, "t,y,opnorm,alpha_t,small_regime_ref,large_regime_ref,regime",
            [np.tile(self.ts, n_y), np.repeat(self.y_labels, self.ts.size),
             self.opnorm.ravel(), np.tile(self.alpha_t, n_y),
             np.tile(self.small_regime_ref, n_y),
             np.tile(self.large_regime_ref, n_y),
             np.tile(np.where(self.ts <= self.t_star, "small", "large"), n_y)])


def default_profile_times(inputs: BoundInputs, n: int = 40,
                          decades_around: float = 2.0) -> np.ndarray:
    """Log-spaced times around the regime threshold (or around 1 if the
    threshold is infinite)."""
    t_star = regime_threshold(inputs)
    center = t_star if math.isfinite(t_star) else 1.0
    lo = center / 10.0**decades_around
    hi = center * 10.0**decades_around
    return np.geomspace(lo, hi, n)


def covariance_profile(target: TargetSpec, t_list, y_list,
                       inputs: BoundInputs) -> CovarianceProfile:
    """Operator norms of tilted covariances against both reference envelopes.

    Each (t, y) of the target's untilted N-particle Gibbs measure gets its
    moments on a grid adapted to the tilt width, which small-t asymptotics
    require; the untilted log density is evaluated once per (t, y) and
    once per distinct coarse box.  The envelopes are evaluated once per t.
    """
    if target.tilt is not None:
        raise InvalidTargetError("covariance_profile tilts the untilted "
                                 "Gibbs measure; the target has a tilt")
    ts = np.array(t_list, dtype=float)
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in y_list]
    times, scans = ts.tolist(), {}
    opnorm = np.array([
        [covariance_opnorm(_tilted_moments(target, t, y, inputs, scans)[1])
         for t in times] for y in ys])
    per_t = np.array([[f(inputs, t) for t in times] for f in (
        tilted_alpha, small_regime_envelope, large_regime_envelope)])
    labels = np.array(["y=" + "/".join(f"{v:g}" for v in y) for y in ys])
    return CovarianceProfile(ts, labels, opnorm, *per_t,
                             t_star=regime_threshold(inputs),
                             a=tilted_alpha(inputs, math.inf), inputs=inputs)


def _tilted_moments(target: TargetSpec, t: float, y: np.ndarray,
                    inputs: BoundInputs, scans=None):
    """Mean and covariance of the tilt (t, y) of the target's N-particle
    Gibbs measure, by trapezoid quadrature on a grid centered at the tilted
    mode with width set by the Gaussian proxy's sd 1/sqrt(alpha_t), doubled
    at most twice until it covers the law (`coverage_sd`).  A grid with no
    width in float64, and alpha_t <= 0, are TiltDomainErrors.

    `scans` maps a coarse box to its nodes and untilted log density, so
    that tilts sharing a box evaluate it once (covariance_profile's store).
    """
    m, n = target.model, target.n_particles
    dim = n * m.d
    if y.size != dim:
        raise TiltDomainError(
            f"tilt center has {y.size} coords, target is {dim}-d")
    try:
        center_proxy, sd_t = gaussian_proxy(inputs, t, y)
    except InvalidTargetError as err:
        raise TiltDomainError(str(err)) from None
    n_nodes = 2048 if dim == 1 else 192
    base_sd = gaussian_proxy(m)[1]

    def untilted_log(pts):
        return n_particle_log_density(target, pts.reshape(-1, n, m.d))

    def tilted_log(pts, untilted):  # column sums: a row sum's bits, faster
        return (untilted - sum(c * c for c in (pts - y).T) / (2.0 * t)
                + 0.5 * sum(c * c for c in pts.T))

    def axis(lo, hi, nodes):  # far out or at tiny t, lo and hi can meet
        if not hi > lo:
            raise TiltDomainError(f"the tilt (t={t:g}, y={y}) leaves its grid "
                                  f"around {lo:g} no width in float64")
        return Axis(lo, hi, nodes)

    half_width = 14.0 * sd_t
    for c in center_proxy.tolist():  # before a coarse scan that would overflow
        if not c + half_width > c - half_width:
            axis(c - half_width, c + half_width, 2)  # raises
    # Coarse scan over a box that covers both the base measure and the
    # proxy tilt center, then a fine window around the located mode.
    box = tuple(axis(min(-10.0 * base_sd, center_proxy[j] - 10.0 * sd_t),
                     max(10.0 * base_sd, center_proxy[j] + 10.0 * sd_t),
                     801 if dim == 1 else 121) for j in range(dim))
    scans = {} if scans is None else scans
    if box not in scans:
        pts = grid_points(box)
        scans[box] = pts, untilted_log(pts)
    coarse_pts, coarse_log = scans[box]
    mode = coarse_pts[int(np.argmax(tilted_log(coarse_pts, coarse_log)))]

    for _ in range(3):
        axes = tuple(axis(mode[j] - half_width, mode[j] + half_width, n_nodes)
                     for j in range(dim))
        pts = grid_points(axes)
        log_u = tilted_log(pts, untilted_log(pts))
        peak = np.argmax(log_u)  # the first NaN, if there is one
        if any(i in (0, n_nodes - 1)
               for i in np.unravel_index(peak, (n_nodes,) * dim)):
            raise TiltDomainError(
                "tilted exponent peaks on the grid boundary; "
                "the tilt is not normalizable on this domain")
        if not math.isfinite(log_u[peak]):
            raise ValueError("log potential must not contain NaN or +inf")
        u = np.exp(log_u - log_u[peak])
        qw = grid_quad_weights(axes).ravel()
        mean, cov = weighted_moments(pts, qw * (u / np.sum(qw * u)))
        if coverage_sd(axes, mean, cov) >= MIN_COVERAGE_SD:
            return mean, cov
        mode = mean
        half_width *= 2.0
    raise TiltDomainError(
        f"could not cover the tilted measure at t={t:g} within 3 widenings")


def standard_gaussian_grid(axes) -> GridDensity:
    """gamma restricted to the grid (unit-mass renormalized)."""
    axes = _as_axes(axes)
    pts = grid_points(axes)
    log_u = -0.5 * np.sum(pts * pts, axis=1)
    return normalize_from_log_potential(
        log_u.reshape(tuple(ax.n for ax in axes)), axes)


# -- reverse flow map ---------------------------------------------------------


@dataclass
class FlowMap:
    """Monotone 1-d transport map from the standard Gaussian.

    `source` are gamma-side evaluation points on a uniform grid and
    `mapped` their images T(source).
    """

    source: np.ndarray
    mapped: np.ndarray


def reverse_flow_map(mu: GridDensity) -> FlowMap:
    """The endpoint of the 1-d reverse heat flow of Kim and Milman, inverted.

    S_inf = Phi^{-1} o F_mu is the monotone coupling of mu to gamma,
    evaluated on the nodes within 8 sd of the mean and inverted by
    :class:`~mflab.measure.Pchip` at 2048 gamma-side points.  Fails loudly
    if the forward map is not strictly increasing (mu has a gap in its mass).
    """
    if mu.dim != 1:
        raise UnsupportedDimensionError("flow maps are built in 1-d only")
    x = mu.axes[0].nodes()
    if np.any(mu.weights[1:-1] <= 0):
        raise ValueError("mu must be strictly positive on the grid interior")

    mean = float(mu.mean()[0])
    sd = math.sqrt(float(mu.covariance()[0, 0]))
    mask = (x >= mean - 8.0 * sd) & (x <= mean + 8.0 * sd)
    pts = x[mask]
    s = monotone_images(mu, standard_gaussian_grid(mu.axes))[mask]
    if np.any(np.diff(s) <= 0):
        raise IntegrationFailureError("forward map is not strictly increasing")

    src_lo = max(float(s[0]), -8.0)
    src_hi = min(float(s[-1]), 8.0)
    source = np.linspace(src_lo, src_hi, 2048)
    return FlowMap(source=source, mapped=Pchip(s, pts)(source))


def lipschitz_estimate(flow: FlowMap) -> float:
    """Max adjacent difference ratio of T inside the central +-6 sd window."""
    src = flow.source
    mapped = flow.mapped
    window = (src >= -LIPSCHITZ_WINDOW_SD) & (src <= LIPSCHITZ_WINDOW_SD)
    s = src[window]
    m = mapped[window]
    if s.size < 2:
        raise ValueError("flow map has fewer than 2 points in the window")
    return float(np.max(np.diff(m) / np.diff(s)))


def pushforward_w2(flow: FlowMap, mu: GridDensity) -> float:
    """W2 distance between T_# gamma and mu.

    For a monotone T this is ||T - Q_mu o Phi||_{L^2(gamma)} exactly: both
    maps push gamma forward monotonically, so their gamma-weighted RMS gap
    on the map's own gamma-side grid is the quantile-coupling distance.
    """
    src = flow.source
    gamma = standard_gaussian_grid(Axis(float(src[0]), float(src[-1]),
                                        src.size))
    gap = flow.mapped - monotone_images(gamma, mu)
    return float(np.sqrt(np.sum(gamma.quad_weights() * gamma.weights
                                * gap * gap)))
