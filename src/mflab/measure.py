"""Probability measures on grids, Gaussians, and particle clouds.

Grid densities live on uniform rectangular grids in 1 or 2 dimensions and
carry their log density alongside the weights so that downstream tilting
and normalization never exponentiate large numbers.  All integrals use
trapezoid quadrature, which is positivity-preserving and, for smooth
rapidly decaying integrands on wide grids, accurate far beyond its formal
second order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMeasureError,
    SupportViolationError,
    UnsupportedDimensionError,
)

# Grid nodes with density below this threshold contribute nothing to KL sums.
KL_SUPPORT_FLOOR = 1e-300
# Rows formatted per write by _write_csv; bounds its string buffer.
CSV_CHUNK_ROWS = 65_536
# Elements per block of the OU kernel (one buffer for all blocks) and of the
# draws-by-data and Pchip-query temporaries, reused from the heap at 128 KiB.
BLOCK_ELEMENTS = 2**14
# inverse_cdf drops knots whose CDF step h is below this: Pchip coefficients
# (up to about 4 dx / h^3 over a distance dx in x) stay finite for dx < 1e7.
CDF_STEP_FLOOR = 1e-100
# Pchip's index search: guide buckets per knot, forward passes from them.
GUIDE_BUCKETS_PER_KNOT = 2
GUIDE_PASSES = 1


@dataclass(frozen=True)
class Axis:
    """A uniform 1-d grid: `n` nodes from `lo` to `hi` inclusive."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("axis endpoints must be finite")
        if self.hi <= self.lo:
            raise ValueError("axis needs hi > lo")
        if self.n < 2:
            raise ValueError("axis needs at least 2 nodes")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    def quad_weights(self) -> np.ndarray:
        """Trapezoid-rule weights for this axis."""
        w = np.full(self.n, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def _as_axes(axes) -> tuple[Axis, ...]:
    if isinstance(axes, Axis):
        return (axes,)
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise UnsupportedDimensionError("grids support 1 or 2 dimensions only")
    return axes


@dataclass(frozen=True)
class GridDensity:
    """Normalized density sampled on a uniform rectangular grid.

    `weights` holds density values at the nodes (shape (n,) in 1-d,
    (n1, n2) in 2-d); `log_density` is kept alongside for numerically
    stable tilting.  Construct through :func:`normalize_from_log_potential`
    or the classmethods, which guarantee unit trapezoid mass.
    """

    axes: tuple[Axis, ...]
    weights: np.ndarray
    log_density: np.ndarray = field(repr=False)

    def __post_init__(self):
        axes = _as_axes(self.axes)
        object.__setattr__(self, "axes", axes)
        w = np.asarray(self.weights, dtype=float)
        shape = tuple(ax.n for ax in axes)
        if w.shape != shape:
            raise DimensionMismatchError(
                f"weights shape {w.shape} does not match grid shape {shape}"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("grid weights must be finite and nonnegative")
        object.__setattr__(self, "weights", w)
        object.__setattr__(
            self, "log_density", np.asarray(self.log_density, dtype=float)
        )

    # -- basic geometry -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.axes)

    def nodes(self, axis: int = 0) -> np.ndarray:
        return self.axes[axis].nodes()

    def node_points(self) -> np.ndarray:
        """All grid nodes as an (M, dim) array in C order."""
        return grid_points(self.axes)

    def quad_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, same shape as `weights`."""
        if self.dim == 1:
            return self.axes[0].quad_weights()
        return np.outer(self.axes[0].quad_weights(), self.axes[1].quad_weights())

    # -- integrals ------------------------------------------------------

    def mass(self) -> float:
        return float(np.sum(self.quad_weights() * self.weights))

    def mean(self) -> np.ndarray:
        pts = self.node_points()
        cw = (self.quad_weights() * self.weights).ravel()
        return pts.T @ cw

    def covariance(self) -> np.ndarray:
        pts = self.node_points()
        cw = (self.quad_weights() * self.weights).ravel()
        m = pts.T @ cw
        centered = pts - m
        return (centered * cw[:, None]).T @ centered

    def same_grid(self, other: "GridDensity") -> bool:
        return self.axes == other.axes

    # -- coverage sanity --------------------------------------------------

    def coverage_in_sd(self) -> float:
        """Smallest number of standard deviations between mean and grid edge.

        The grid-extent invariant asks for at least 8 along every axis.
        """
        m = self.mean()
        sd = np.sqrt(np.clip(np.diag(self.covariance()), 1e-300, None))
        return float(min(min(m[i] - ax.lo, ax.hi - m[i]) / sd[i]
                         for i, ax in enumerate(self.axes)))


@dataclass(frozen=True)
class GaussianMeasure:
    """Multivariate Gaussian given by mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        c = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if c.shape != (m.size, m.size):
            raise DimensionMismatchError("covariance shape must match mean")
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("covariance must be symmetric (1e-12)")
        if np.any(np.linalg.eigvalsh(c) <= 0):
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic measure on N points in R^d."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be an (N, d) array with N >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("particle coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)


Measure = GridDensity | GaussianMeasure | EmpiricalMeasure


def grid_points(axes) -> np.ndarray:
    """All nodes of a 1-d or 2-d grid as an (M, dim) array in C order."""
    axes = _as_axes(axes)
    if len(axes) == 1:
        return axes[0].nodes()[:, None]
    x, y = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
    return np.column_stack([x.ravel(), y.ravel()])


def normalize_from_log_potential(log_u, axes) -> GridDensity:
    """Build the grid density proportional to exp(log_u).

    Subtracts the maximum before exponentiating, so overflow cannot occur;
    the returned density has unit trapezoid mass.
    """
    axes = _as_axes(axes)
    log_u = np.asarray(log_u, dtype=float)
    shape = tuple(ax.n for ax in axes)
    if log_u.shape != shape:
        raise DimensionMismatchError(
            f"log potential shape {log_u.shape} != grid shape {shape}"
        )
    if np.any(np.isnan(log_u)) or np.any(log_u == np.inf):
        raise ValueError("log potential must not contain NaN or +inf")
    peak = np.max(log_u)
    if peak == -np.inf:
        raise EmptyMeasureError("log potential is -inf everywhere")
    u = np.exp(log_u - peak)
    if len(axes) == 1:
        qw = axes[0].quad_weights()
    else:
        qw = np.outer(axes[0].quad_weights(), axes[1].quad_weights())
    z = float(np.sum(qw * u))
    weights = u / z
    log_density = log_u - peak - np.log(z)
    return GridDensity(axes, weights, log_density)


def kl_divergence(p: GridDensity, q: GridDensity) -> float:
    """KL(p || q) for two densities on the same grid.

    Nodes where p < 1e-300 contribute zero.  Raises when q vanishes on
    the support of p, reporting how many nodes offend.
    """
    if not p.same_grid(q):
        raise DimensionMismatchError("KL needs both densities on one grid")
    pw, qw_density = p.weights, q.weights
    support = pw > KL_SUPPORT_FLOOR
    bad = int(np.sum(support & (qw_density <= KL_SUPPORT_FLOOR)))
    if bad:
        raise SupportViolationError(bad)
    quad = p.quad_weights()
    ratio = np.log(pw[support]) - np.log(qw_density[support])
    return float(np.sum(quad[support] * pw[support] * ratio))


def covariance_opnorm(p: Measure) -> tuple[np.ndarray, float]:
    """Covariance matrix and its operator norm, the largest eigenvalue.

    The eigenvalue comes from the symmetric eigensolver, which returns
    the entry itself for a 1x1 matrix.
    """
    if isinstance(p, GridDensity):
        cov = p.covariance()
    elif isinstance(p, GaussianMeasure):
        cov = p.cov.copy()
    elif isinstance(p, EmpiricalMeasure):
        pts = p.points
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / pts.shape[0]
    else:
        raise TypeError(f"unsupported measure type {type(p)!r}")
    return cov, float(np.linalg.eigvalsh(cov)[-1])


def _corrected_cdf(p: GridDensity) -> np.ndarray:
    """Cumulative trapezoid with the Euler-Maclaurin h^2/12 endpoint fix.

    The correction removes the O(h^2) pointwise error of the plain
    cumulative trapezoid, which the 1e-6 transport tolerances require.
    """
    f = p.weights
    h = p.axes[0].spacing
    cum = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * h)])
    fp = np.gradient(f, h)
    cdf = cum - (h * h / 12.0) * (fp - fp[0])
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
    return cdf / cdf[-1]


class Pchip:
    """The monotone piecewise-cubic Hermite (PCHIP) interpolant of y over
    strictly increasing knots x, called on queries in [x[0], x[-1]] in blocks
    of BLOCK_ELEMENTS.  Slopes (Fritsch-Butland inside, Moler's one-sided rule
    at the ends) and evaluation order are scipy's: values agree bit for bit."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.full(y.shape, m[0])
        if x.size > 2:
            w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
            smooth = np.sign(m[1:]) * np.sign(m[:-1]) > 0
            # The reciprocal of the harmonic mean, rounded as scipy rounds it.
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(smooth, 1.0 / whmean, 0.0)
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            clamp = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                                  np.where(clamp, 3.0 * m0, end))
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.x, self.y, self.d, self.search_right = x, y, d, _search_right(x)
        self.c0, self.c1 = t / h, (m - d[:-1]) / h - t

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return np.concatenate([self._at(q[lo:lo + BLOCK_ELEMENTS])
                               for lo in range(0, q.size or 1, BLOCK_ELEMENTS)])

    def _at(self, q: np.ndarray) -> np.ndarray:
        i = np.clip(self.search_right(q) - 1, 0, self.x.size - 2)
        s = q - self.x[i]
        return (self.y[i] + self.d[i] * s + self.c1[i] * (s * s)
                + self.c0[i] * (s * s * s))


def _search_right(x: np.ndarray):
    """np.searchsorted(x, ., side="right") for increasing x, by a guide table
    (Chen & Asau 1974) built once: start at the knots of lower buckets (never
    past the index), step GUIDE_PASSES times, leave the rest to searchsorted."""
    n_buckets = GUIDE_BUCKETS_PER_KNOT * x.size
    def bucket(v):  # monotone in v: a knot in a lower bucket lies below v
        return np.fmax(np.fmin((v - x[0]) * (n_buckets / (x[-1] - x[0])),
                               n_buckets - 1), 0.0).astype(np.intp)
    per_bucket = np.bincount(bucket(x), minlength=n_buckets)
    start = np.cumsum(per_bucket) - per_bucket
    padded = np.append(x, np.nan)  # stepping stops at x.size
    def search(q: np.ndarray) -> np.ndarray:
        i = start[bucket(q)]
        for _ in range(GUIDE_PASSES):
            i += padded[i] <= q
        late = ~(q < padded[i])  # crowded CDF tails, the top knot, NaN
        i[late] = np.searchsorted(x, q[late], side="right")
        return i
    return search


def _logit_cdf(p: GridDensity) -> np.ndarray:
    """log F - log(1 - F) at the nodes of a 1-d grid density.

    F is summed from the left end and 1 - F from the right end, each with
    the h^2/12 endpoint correction of :func:`_corrected_cdf`, so neither
    tail is lost to cancellation against 1.  The ends read -inf and +inf.
    """
    f = p.weights
    h = p.axes[0].spacing
    fp = np.gradient(f, h)
    seg = (f[1:] + f[:-1]) * 0.5 * h
    corr = h * h / 12.0
    left = np.concatenate([[0.0], np.cumsum(seg)]) - corr * (fp - fp[0])
    right = (np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
             - corr * (fp[-1] - fp))
    left = np.maximum.accumulate(np.clip(left, 0.0, None))
    right = np.maximum.accumulate(np.clip(right, 0.0, None)[::-1])[::-1]
    with np.errstate(divide="ignore"):
        return np.log(left) - np.log(right)


def monotone_images(p: GridDensity, q: GridDensity) -> np.ndarray:
    """The monotone coupling Q_q(F_p(x)) of p to q, at the nodes of p.

    F_p and F_q are matched in the logit coordinate of :func:`_logit_cdf`
    and q's nodes are interpolated monotonically (:class:`Pchip`) in it; images
    beyond the range q resolves are clamped to its end nodes.
    """
    if p.dim != 1 or q.dim != 1:
        raise UnsupportedDimensionError("monotone_images needs 1-d densities")
    u_q = _logit_cdf(q)
    x = q.nodes()
    finite = np.isfinite(u_q)
    u_q, x = u_q[finite], x[finite]
    keep = np.concatenate([[True], np.diff(u_q) > 0])
    u_q, x = u_q[keep], x[keep]
    return Pchip(u_q, x)(np.clip(_logit_cdf(p), u_q[0], u_q[-1]))


def w2_distance_1d(p: GridDensity, q: GridDensity) -> float:
    """Quantile-coupling 2-Wasserstein distance between 1-d grid densities.

    Uses W2^2 = E_p[(x - Q_q(F_p(x)))^2], the change of variables u = F_p(x)
    of the quantile formula, so the integrand carries the decay of p.
    """
    if p.dim != 1 or q.dim != 1:
        raise UnsupportedDimensionError("w2_distance_1d needs 1-d densities")
    if p.same_grid(q) and np.array_equal(p.weights, q.weights):
        return 0.0
    displacement = p.nodes() - monotone_images(p, q)
    w2sq = float(
        np.sum(p.quad_weights() * p.weights * displacement**2)
    )
    return float(np.sqrt(max(w2sq, 0.0)))


def inverse_cdf(p: GridDensity) -> Pchip:
    """The inverse CDF of a 1-d grid density, a :class:`Pchip`."""
    if p.dim != 1:
        raise UnsupportedDimensionError("grid sampling implemented in 1-d only")
    cdf = _corrected_cdf(p)
    keep = np.concatenate([[True], np.diff(cdf) >= CDF_STEP_FLOOR])
    return Pchip(cdf[keep], p.nodes()[keep])


def sample_from_grid(p: GridDensity | Pchip, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF i.i.d. draws from a 1-d grid density, shape (n, 1); p is
    the density or its :func:`inverse_cdf`, fitted once for many calls."""
    inv = p if isinstance(p, Pchip) else inverse_cdf(p)
    # The interpolant returns y[0] exactly at x[0]; pin the top end too.
    u = np.clip(rng.random(n), inv.x[0], inv.x[-1])
    return np.where(u == inv.x[-1], inv.y[-1], inv(u))[:, None]


def _write_csv(path, header: str, columns):
    """CSV with one column per sequence: string columns are written as
    given, numeric ones as repr(float).  Rows are formatted and written
    CSV_CHUNK_ROWS at a time."""
    cols = [c if c.dtype.kind in "US" else c.astype(float, copy=False)
            for c in map(np.asarray, columns)]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise DimensionMismatchError("CSV columns differ in length")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            cells = [c[lo:lo + CSV_CHUNK_ROWS].tolist() for c in cols]
            cells = [v if c.dtype.kind in "US" else map(repr, v)
                     for c, v in zip(cols, cells)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(path, payload, default=None):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=default)
        fh.write("\n")
