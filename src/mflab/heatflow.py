"""Tilted-covariance profiles, Ornstein-Uhlenbeck evolution, and the
reverse-flow transport map, in total dimension at most 2.

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

with mu_t the exact Ornstein-Uhlenbeck evolution of mu, carries mu to
mu_t monotonically, and in 1-d the monotone map is unique, so
S_t = Q_{mu_t} o F_mu in closed form.  The map from gamma is the inverse
of S_{t_max}, and its accuracy W2(T_# gamma, mu) is its L^2(gamma)
distance from the exact monotone map Q_mu o Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundInputs, heatflow_lipschitz_bound, tilted_alpha
from .errors import (
    IntegrationFailureError,
    TiltDomainError,
    UnsupportedDimensionError,
)
from .measure import (
    BLOCK_ELEMENTS,
    Axis,
    GridDensity,
    Pchip,
    covariance_opnorm,
    grid_points,
    monotone_images,
    normalize_from_log_potential,
    w2_distance_1d,
    _write_csv,
)
from .sampler import TargetSpec, n_particle_log_density

MIN_COVERAGE_SD = 8.0
DEFAULT_FLOW_T_MAX = 8.0
FLOW_GAMMA_W2_TOL = 1e-4
LIPSCHITZ_WINDOW_SD = 6.0


# -- tilting ----------------------------------------------------------------


def tilted_measure(mu: GridDensity, t: float, y) -> GridDensity:
    """The Gaussian tilt of a grid density, normalized on the same grid.

    Raises :class:`TiltDomainError` when the tilted exponent peaks on the
    grid boundary or the resulting mass escapes the grid, which is how a
    non-normalizable tilt (effective convexity <= 0) manifests here.
    """
    if t <= 0:
        raise TiltDomainError("tilt time t must be positive")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != mu.dim:
        raise TiltDomainError(f"tilt center has {y.size} coords, grid is {mu.dim}-d")
    pts = mu.node_points()
    diff = pts - y
    log_u = (mu.log_density.ravel()
             - np.sum(diff * diff, axis=1) / (2.0 * t)
             + 0.5 * np.sum(pts * pts, axis=1))
    log_u = log_u.reshape(mu.weights.shape)
    _check_interior_peak(log_u)
    out = normalize_from_log_potential(log_u, mu.axes)
    cov = out.coverage_in_sd()
    if cov < MIN_COVERAGE_SD:
        raise TiltDomainError(
            f"tilted mass reaches the grid edge (coverage {cov:.2f} sd < "
            f"{MIN_COVERAGE_SD}); tilt may be non-normalizable"
        )
    sds = np.sqrt(np.diag(out.covariance()))
    for sd, ax in zip(sds, mu.axes):
        if sd < 1.5 * ax.spacing:
            raise TiltDomainError(
                f"tilt width {sd:.3g} under-resolved by grid spacing "
                f"{ax.spacing:.3g}; profile a TargetSpec for adapted grids"
            )
    return out


def _check_interior_peak(log_u: np.ndarray):
    idx = np.unravel_index(np.argmax(log_u), log_u.shape)
    for i, n in zip(idx, log_u.shape):
        if i == 0 or i == n - 1:
            raise TiltDomainError(
                "tilted exponent peaks on the grid boundary; "
                "the tilt is not normalizable on this domain"
            )


# -- profiling ---------------------------------------------------------------


def regime_threshold(inputs: BoundInputs) -> float:
    """Crossover time t* = (20 B^2/sigma^4 - 2 lam/sigma^2 + 1)^{-1}.

    When the bracket is nonpositive every t counts as the small regime
    and the threshold is +inf.
    """
    s2 = inputs.sigma**2
    denom = 20.0 * inputs.B**2 / (s2 * s2) - 2.0 * inputs.lam / s2 + 1.0
    return 1.0 / denom if denom > 0 else math.inf


def small_regime_envelope(inputs: BoundInputs, t: float) -> float:
    """[1/sqrt(alpha_t) + (sqrt(beta_hat d_prox)/sigma + B/sigma^2)/alpha_t]^2,
    the small-time envelope with its universal constant set to 1."""
    a_t = tilted_alpha(inputs, t)
    bump = (math.sqrt(inputs.beta_hat * inputs.d_prox) / inputs.sigma
            + inputs.B / inputs.sigma**2)
    return (1.0 / math.sqrt(a_t) + bump / a_t) ** 2


def large_regime_envelope(inputs: BoundInputs, t: float) -> float:
    """[1/sqrt(alpha_t) + B/(alpha_t sigma^2)]^2
    + beta_hat B^2 d_prox / alpha_t^3 sigma^6 + beta_hat B^4 / alpha_t^4 sigma^10,
    the large-time envelope with both universal constants set to 1."""
    a_t = tilted_alpha(inputs, t)
    s2 = inputs.sigma**2
    head = (1.0 / math.sqrt(a_t) + inputs.B / (a_t * s2)) ** 2
    tail = (inputs.beta_hat * inputs.B**2 * inputs.d_prox / (a_t**3 * s2**3)
            + inputs.beta_hat * inputs.B**4 / (a_t**4 * s2**5))
    return head + tail


@dataclass(frozen=True)
class ProfileRow:
    t: float
    y_label: str
    opnorm: float
    alpha_t: float
    small_regime_ref: float
    large_regime_ref: float
    regime: str


@dataclass
class CovarianceProfile:
    """Measured tilted-covariance operator norms with reference envelopes."""

    rows: list[ProfileRow]
    t_star: float
    a: float
    inputs: BoundInputs

    def ts(self, y_label: str | None = None) -> np.ndarray:
        return np.array([r.t for r in self._rows(y_label)])

    def opnorms(self, y_label: str | None = None) -> np.ndarray:
        return np.array([r.opnorm for r in self._rows(y_label)])

    def _rows(self, y_label: str | None):
        if y_label is None:
            return self.rows
        return [r for r in self.rows if r.y_label == y_label]

    def y_labels(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.y_label not in seen:
                seen.append(r.y_label)
        return seen

    def fitted_small_constant(self, y_label: str | None = None) -> float:
        """Smallest constant making the small-regime envelope cover the data."""
        bump = (math.sqrt(self.inputs.beta_hat * self.inputs.d_prox)
                / self.inputs.sigma + self.inputs.B / self.inputs.sigma**2)
        if bump == 0.0:
            return 0.0
        best = 0.0
        for r in self._rows(y_label):
            if r.regime != "small":
                continue
            gap = math.sqrt(max(r.opnorm, 0.0)) - 1.0 / math.sqrt(r.alpha_t)
            best = max(best, gap * r.alpha_t / bump)
        return best

    def fitted_profile_ratio(self, y_label: str | None = None) -> float:
        """Smallest multiple of the Gaussian reference 1/(a + 1/t) that
        dominates the measured norms; the quantity whose stability across
        tilt centers expresses tilt stability."""
        return max(r.opnorm * r.alpha_t for r in self._rows(y_label))

    def to_csv(self, path):
        names = ("t", "y_label", "opnorm", "alpha_t", "small_regime_ref",
                 "large_regime_ref", "regime")
        _write_csv(
            path, "t,y,opnorm,alpha_t,small_regime_ref,large_regime_ref,regime",
            [[getattr(r, k) for r in self.rows] for k in names])


def default_profile_times(inputs: BoundInputs, n: int = 40,
                          decades_around: float = 2.0) -> np.ndarray:
    """Log-spaced times around the regime threshold (or around 1 if the
    threshold is infinite)."""
    t_star = regime_threshold(inputs)
    center = t_star if math.isfinite(t_star) else 1.0
    lo = center / 10.0**decades_around
    hi = center * 10.0**decades_around
    return np.geomspace(lo, hi, n)


def covariance_profile(mu, t_list, y_list,
                       inputs: BoundInputs) -> CovarianceProfile:
    """Operator norms of tilted covariances against both reference envelopes.

    `mu` may be a :class:`GridDensity` (tilts evaluated on its own grid)
    or the :class:`TargetSpec` of an N-particle Gibbs measure (each (t, y)
    gets a grid adapted to the tilt width, which small-t asymptotics
    require).
    """
    t_star = regime_threshold(inputs)
    a = tilted_alpha(inputs, math.inf)
    rows = []
    for y in y_list:
        y_vec = np.atleast_1d(np.asarray(y, dtype=float))
        label = "y=" + "/".join(f"{v:g}" for v in y_vec)
        for t in t_list:
            t = float(t)
            if isinstance(mu, GridDensity):
                tilted = tilted_measure(mu, t, y_vec)
            elif isinstance(mu, TargetSpec):
                tilted = _adapted_tilted_density(mu, t, y_vec, inputs)
            else:
                raise TypeError(
                    "mu must be a GridDensity or TargetSpec, "
                    f"got {type(mu)!r}")
            _, opnorm = covariance_opnorm(tilted)
            rows.append(ProfileRow(
                t=t, y_label=label, opnorm=float(opnorm),
                alpha_t=tilted_alpha(inputs, t),
                small_regime_ref=small_regime_envelope(inputs, t),
                large_regime_ref=large_regime_envelope(inputs, t),
                regime="small" if t <= t_star else "large",
            ))
    return CovarianceProfile(rows=rows, t_star=t_star, a=a, inputs=inputs)


def _adapted_tilted_density(target: TargetSpec, t: float,
                            y: np.ndarray, inputs: BoundInputs) -> GridDensity:
    """Tilted density of the target's N-particle Gibbs measure on a grid
    centered at the tilted mode with width set by 1/sqrt(alpha_t)."""
    m, n = target.model, target.n_particles
    dim = n * m.d
    if y.size != dim:
        raise TiltDomainError(
            f"tilt center has {y.size} coords, target is {dim}-d")
    a_t = tilted_alpha(inputs, t)
    if a_t <= 0:
        raise TiltDomainError(f"alpha_t = {a_t:.4g} <= 0: tilt not normalizable")
    n_nodes = 2048 if dim == 1 else 192
    sd_t = 1.0 / math.sqrt(a_t)
    a = tilted_alpha(inputs, math.inf)
    center_proxy = y / (1.0 + a * t)
    base_sd = m.sigma / math.sqrt(2.0 * m.lam)

    def tilted_log(pts):
        diff = pts - y
        return (n_particle_log_density(target, pts.reshape(-1, n, m.d))
                - np.sum(diff * diff, axis=1) / (2.0 * t)
                + 0.5 * np.sum(pts * pts, axis=1))

    # Coarse scan over a box that covers both the base measure and the
    # proxy tilt center, then a fine window around the located mode.
    coarse_axes = []
    for j in range(dim):
        lo = min(-10.0 * base_sd, center_proxy[j] - 10.0 * sd_t)
        hi = max(10.0 * base_sd, center_proxy[j] + 10.0 * sd_t)
        coarse_axes.append(Axis(lo, hi, 801 if dim == 1 else 121))
    coarse_pts = grid_points(coarse_axes)
    mode = coarse_pts[int(np.argmax(tilted_log(coarse_pts)))]

    half_width = 14.0 * sd_t
    for _ in range(3):
        axes = tuple(Axis(mode[j] - half_width, mode[j] + half_width, n_nodes)
                     for j in range(dim))
        pts = grid_points(axes)
        log_u = tilted_log(pts).reshape(tuple(ax.n for ax in axes))
        _check_interior_peak(log_u)
        out = normalize_from_log_potential(log_u, axes)
        if out.coverage_in_sd() >= MIN_COVERAGE_SD:
            return out
        mode = out.mean()
        half_width *= 2.0
    raise TiltDomainError(
        f"could not cover the tilted measure at t={t:g} within 3 widenings")


# -- Ornstein-Uhlenbeck evolution --------------------------------------------


def ou_evolve(mu: GridDensity, t: float) -> GridDensity:
    """Law of e^{-t} X + sqrt(1 - e^{-2t}) G for X ~ mu, G standard normal.

    The Gaussian kernel is applied by quadrature along each axis (the
    kernel factorizes), which realizes the exact semigroup action with no
    time stepping; the axis-0 kernel is built and applied in row blocks.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return GridDensity(mu.axes, mu.weights.copy(), mu.log_density.copy())
    bw = math.sqrt(-math.expm1(-2.0 * t))
    decay = math.exp(-t)
    for ax in mu.axes:
        if bw < 1.5 * ax.spacing:
            raise IntegrationFailureError(
                f"OU kernel width {bw:.3g} under-resolved by grid spacing "
                f"{ax.spacing:.3g}; use a finer grid or larger t"
            )
    # Blocks of 8k rows, a remainder of 8 rows or fewer joining the last: BLAS
    # groups rows by 4 and 8 and treats 1 or 2 apart, so rows sum as in K @ W.
    rows = max(8, BLOCK_ELEMENTS // mu.axes[0].n // 8 * 8)
    w = np.concatenate([block @ mu.weights for block in
                        _ou_kernel_blocks(mu.axes[0], decay, bw, rows)])
    if mu.dim == 2:
        w = w @ next(_ou_kernel_blocks(mu.axes[1], decay, bw, mu.axes[1].n)).T
    w = np.clip(w, 0.0, None)
    w /= np.sum(mu.quad_weights() * w)
    with np.errstate(divide="ignore"):
        return GridDensity(mu.axes, w, np.log(w))


def _ou_kernel_blocks(ax: Axis, decay: float, bw: float, rows: int):
    """Row blocks of an axis's quadrature-weighted OU kernel in one buffer."""
    x, qw = ax.nodes(), ax.quad_weights()
    source, norm = decay * x, bw * math.sqrt(2.0 * math.pi)
    edges = [*range(0, max(ax.n - 8, 1), rows), ax.n]
    buf = np.empty((max(np.diff(edges)), ax.n))
    for lo, hi in zip(edges, edges[1:]):
        kern = np.subtract(x[lo:hi, None], source, out=buf[:hi - lo])
        kern /= bw
        kern *= kern
        kern *= -0.5  # (z z)(-1/2) is (-1/2 z) z to the last bit
        np.exp(kern, out=kern)
        kern /= norm
        kern *= qw
        yield kern


def standard_gaussian_grid(axes) -> GridDensity:
    """gamma restricted to the grid (unit-mass renormalized)."""
    axes = (axes,) if isinstance(axes, Axis) else tuple(axes)
    pts = grid_points(axes)
    log_u = -0.5 * np.sum(pts * pts, axis=1)
    return normalize_from_log_potential(
        log_u.reshape(tuple(ax.n for ax in axes)), axes)


# -- reverse flow map ---------------------------------------------------------


@dataclass
class FlowMap:
    """Monotone 1-d transport map from the standard Gaussian.

    `source` are gamma-side evaluation points on a uniform grid,
    `mapped` their images T(source), and `gamma_w2` is the W2 distance
    from mu_{t_max} to gamma that the horizon check accepted.
    """

    source: np.ndarray
    mapped: np.ndarray
    gamma_w2: float
    t_max: float


def reverse_flow_map(mu: GridDensity,
                     t_max: float = DEFAULT_FLOW_T_MAX) -> FlowMap:
    """The monotone coupling of mu to its exact OU evolution, inverted.

    S_{t_max} = Q_{mu_{t_max}} o F_mu is the 1-d reverse heat flow of Kim
    and Milman at time t_max, evaluated on the nodes within 8 sd of the
    mean and inverted by :class:`~mflab.measure.Pchip` at 2048 gamma-side
    points.  Fails loudly if mu_{t_max} has not reached the Gaussian or the
    forward map is not strictly increasing (mu has a gap in its mass).
    """
    if mu.dim != 1:
        raise UnsupportedDimensionError("flow maps are built in 1-d only")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    x = mu.axes[0].nodes()
    if np.any(mu.weights[1:-1] <= 0):
        raise ValueError("mu must be strictly positive on the grid interior")

    final = ou_evolve(mu, t_max)
    gamma_w2 = w2_distance_1d(final, standard_gaussian_grid(mu.axes))
    if gamma_w2 >= FLOW_GAMMA_W2_TOL:
        raise IntegrationFailureError(
            f"final density is W2 = {gamma_w2:.3g} from the Gaussian; "
            f"increase t_max"
        )

    mean = float(mu.mean()[0])
    sd = math.sqrt(float(mu.covariance()[0, 0]))
    mask = (x >= mean - 8.0 * sd) & (x <= mean + 8.0 * sd)
    pts = x[mask]
    s = monotone_images(mu, final)[mask]
    if np.any(np.diff(s) <= 0):
        raise IntegrationFailureError("forward map is not strictly increasing")

    src_lo = max(float(s[0]), -8.0)
    src_hi = min(float(s[-1]), 8.0)
    source = np.linspace(src_lo, src_hi, 2048)
    return FlowMap(source=source, mapped=Pchip(s, pts)(source),
                   gamma_w2=gamma_w2, t_max=t_max)


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


def fit_envelope_constant(ts, opnorms, a: float, k: float) -> float:
    """Smallest C with opnorm(t) <= 1/(a + 1/t) + C/(a + 1/t)^k on the data."""
    ts = np.asarray(ts, dtype=float)
    ops = np.asarray(opnorms, dtype=float)
    base = a + 1.0 / ts
    gaps = (ops - 1.0 / base) * base**k
    return float(max(0.0, gaps.max()))


def fitted_lipschitz_bound(ts, opnorms, a: float) -> tuple[float, float, float]:
    """Best single-term envelope bound over the exponents 1.5, 2, 3 and 4.

    Returns (bound, C, k) for the exponent whose fitted envelope gives the
    smallest Lipschitz estimate.
    """
    best = None
    for k in (1.5, 2.0, 3.0, 4.0):
        c = fit_envelope_constant(ts, opnorms, a, k)
        bound = heatflow_lipschitz_bound(a, [(c, k)])
        if best is None or bound < best[0]:
            best = (bound, c, k)
    return best


# -- flow map serialization ----------------------------------------------------


def flow_map_to_csv(flow: FlowMap, path):
    _write_csv(path, "source,mapped",
               [flow.source, flow.mapped])
