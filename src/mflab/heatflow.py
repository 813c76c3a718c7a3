"""Tilted-covariance profiles and the reverse-flow transport map, in total
dimension at most 2.

The central object is the Gaussian-tilted measure

    mu_{t,y}(dx) propto exp(-||x - y||^2 / 2t + ||x||^2 / 2) mu(dx),

whose covariance operator norm as a function of (t, y) is what certifies
a Lipschitz transport map from the standard Gaussian.  Profiles measure
each (t, y) by one pass of the tilted log density over a grid window, and
all the norms by one eigensolve, against small-time and large-time
envelopes whose unspecified universal constants are fitted from the data;
only their boundedness and stability are ever asserted.

The transport map is the reverse heat flow of Kim and Milman reduced to
one dimension: the flow

    d/dt S_t(x) = -grad log (d mu_t / d gamma)(S_t(x)),

with mu_t the Ornstein-Uhlenbeck evolution of mu, carries mu to mu_t
monotonically, and in 1-d the monotone map is unique, so
S_t = Q_{mu_t} o F_mu.  As t -> infinity mu_t -> gamma, and the flow's
endpoint is S_inf = Phi^{-1} o F_mu in closed form: Phi^{-1} is the AS241
ndtri, and no grid holds gamma.  The map from gamma is its inverse,
Q_mu o Phi, and its accuracy W2(T_# gamma, mu) is its L^2(gamma) distance
from that exact monotone map, with Phi from erfc.
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
    logit_quantile,
    weighted_moments,
    _logit_cdf,
    _write_csv,
)
from .model import expit
from .sampler import TargetSpec, TiltSpec, n_particle_log_density, ndtri

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
    target: TargetSpec  # the untilted measure whose tilts these are

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


def default_profile_times(inputs: BoundInputs, n: int,
                          decades_around: float) -> np.ndarray:
    """n log-spaced times over decades_around decades either side of the
    regime threshold (or of 1 if the threshold is infinite)."""
    t_star = regime_threshold(inputs)
    center = t_star if math.isfinite(t_star) else 1.0
    span = 10.0**decades_around
    return np.geomspace(center / span, center * span, n)


def covariance_profile(target: TargetSpec, t_list, y_list,
                       inputs: BoundInputs) -> CovarianceProfile:
    """Operator norms of tilted covariances against both reference envelopes.

    Each (t, y) of the target's untilted N-particle Gibbs measure, t > 0,
    gets its moments on a grid adapted to the tilt width and centred at its
    Gaussian proxy, which small-t asymptotics require, from one pass of the
    sampler's tilted log density per window; one stacked eigensolve gives
    every operator norm, and the envelopes are evaluated once per t.
    """
    if target.tilt is not None:
        raise InvalidTargetError("covariance_profile tilts the untilted "
                                 "Gibbs measure; the target has a tilt")
    ts = np.array(t_list, dtype=float)
    if not np.all(ts > 0):  # NaN too
        raise TiltDomainError(f"tilt times must be > 0, got {ts[~(ts > 0)]}")
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in y_list]
    times, dim = ts.tolist(), target.n_particles * target.model.d
    opnorm = covariance_opnorm(np.reshape(
        [[_tilted_moments(target, t, y, inputs)[1] for t in times]
         for y in ys], (len(ys), ts.size, dim, dim)))
    per_t = np.array([[f(inputs, t) for t in times] for f in (
        tilted_alpha, small_regime_envelope, large_regime_envelope)])
    labels = np.array(["y=" + "/".join(f"{v:g}" for v in y) for y in ys])
    return CovarianceProfile(ts, labels, opnorm, *per_t,
                             t_star=regime_threshold(inputs),
                             a=tilted_alpha(inputs, math.inf), inputs=inputs,
                             target=target)


def _tilted_moments(target: TargetSpec, t: float, y: np.ndarray,
                    inputs: BoundInputs):
    """Mean and covariance of the tilt (t, y) of the target's N-particle
    Gibbs measure, by trapezoid quadrature on a window of 14 proxy sds
    1/sqrt(alpha_t) either side of the Gaussian proxy's center y/(1 + a t)
    (`gaussian_proxy`), doubled at most twice, each time around the measured
    mean, until it covers the law (`coverage_sd`).  A window with no width
    in float64, and alpha_t <= 0, are TiltDomainErrors.
    """
    m, n = target.model, target.n_particles
    dim = n * m.d
    if y.size != dim:
        raise TiltDomainError(
            f"tilt center has {y.size} coords, target is {dim}-d")
    try:
        center, sd_t = gaussian_proxy(inputs, t, y)
    except InvalidTargetError as err:
        raise TiltDomainError(str(err)) from None
    n_nodes = 2048 if dim == 1 else 192

    def axis(c, half):  # far out or at tiny t, lo and hi can meet
        lo, hi = c - half, c + half
        if not hi > lo:
            raise TiltDomainError(f"the tilt (t={t:g}, y={y}) leaves its grid "
                                  f"around {lo:g} no width in float64")
        return Axis(lo, hi, n_nodes)

    half_width = 14.0 * sd_t
    for _ in range(3):
        axes = tuple(axis(c, half_width) for c in center.tolist())
        pts = grid_points(axes)
        log_u = n_particle_log_density(target, pts.reshape(-1, n, m.d),
                                       TiltSpec(t, y.reshape(n, m.d)))
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
        center = mean
        half_width *= 2.0
    raise TiltDomainError(
        f"could not cover the tilted measure at t={t:g} within 3 widenings")


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

    S_inf = Phi^{-1} o F_mu, the monotone coupling of mu to gamma, is
    -sign(L) ndtri(expit(-|L|)) with L the logit of F_mu, each tail taken
    from its own side.  It is evaluated on the nodes within 8 sd of the mean
    and inverted by :class:`~mflab.measure.Pchip` at 2048 gamma-side points.
    Only those nodes are read: before ndtri runs, a zero of mu there, an L
    there that is not strictly increasing (mu has a gap in its mass) or not
    finite, or fewer than two nodes, fail loudly.
    """
    if mu.dim != 1:
        raise UnsupportedDimensionError("flow maps are built in 1-d only")
    x = mu.axes[0].nodes()
    mean, sd = float(mu.mean()[0]), math.sqrt(float(mu.covariance()[0, 0]))
    mask = (x >= mean - 8.0 * sd) & (x <= mean + 8.0 * sd)
    if np.any(mu.weights[mask] <= 0):  # an isolated zero keeps L increasing
        raise IntegrationFailureError("mu vanishes within 8 sd of its mean")
    logit = _logit_cdf(mu)[mask]
    if not np.all(logit[1:] > logit[:-1]):  # false where F is 0 or 1 twice
        raise IntegrationFailureError("forward map is not strictly increasing")
    if logit.size < 2 or not np.all(np.isfinite(logit)):
        raise IntegrationFailureError(
            f"a {x.size}-node grid resolves fewer than two CDF levels with "
            f"finite logits within 8 sd of the mean; use a finer grid")
    s = -np.sign(logit) * ndtri(expit(-np.abs(logit)))

    source = np.linspace(max(float(s[0]), -8.0), min(float(s[-1]), 8.0), 2048)
    return FlowMap(source=source, mapped=Pchip(s, x[mask])(source))


def lipschitz_estimate(flow: FlowMap) -> float:
    """Max adjacent difference ratio of T inside the central +-6 sd window."""
    window = np.abs(flow.source) <= LIPSCHITZ_WINDOW_SD
    s, m = flow.source[window], flow.mapped[window]
    if s.size < 2:
        raise ValueError("flow map has fewer than 2 points in the window")
    return float(np.max(np.diff(m) / np.diff(s)))


def pushforward_w2(flow: FlowMap, mu: GridDensity) -> float:
    """W2 distance between T_# gamma and mu.

    For a monotone T this is ||T - Q_mu o Phi||_{L^2(gamma)} exactly: both
    maps push gamma forward monotonically, so their gamma-weighted RMS gap
    is the quantile-coupling distance.  Q_mu o Phi comes by a second route,
    mu's :func:`~mflab.measure.logit_quantile` at logit Phi in closed form
    (each tail from its own side by erfc), and the gap is weighted by the
    trapezoid weights of the map's own gamma-side grid times phi.
    """
    src = flow.source
    quantile = logit_quantile(mu)
    level = np.log([math.erfc(-z) / math.erfc(z)  # logit Phi(z sqrt(2))
                    for z in (src / math.sqrt(2.0)).tolist()])
    gap = flow.mapped - quantile(np.clip(level, quantile.x[0], quantile.x[-1]))
    weights = (Axis(float(src[0]), float(src[-1]), src.size).quad_weights()
               * np.exp(-0.5 * src * src) / math.sqrt(2.0 * math.pi))
    return float(np.sqrt(np.sum(weights * gap * gap)))
