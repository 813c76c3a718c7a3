"""Probability densities on uniform grids.

A grid density is a normalized density's values at the nodes of a uniform
rectangular grid in 1 or 2 dimensions, built from a log potential less its
maximum so that normalization never exponentiates large numbers.  All
integrals use trapezoid quadrature, which is positivity-preserving and, for
smooth rapidly decaying integrands on wide grids, accurate far beyond its
formal second order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMeasureError,
    IntegrationFailureError,
    UnsupportedDimensionError,
)

# Rows formatted per write by _write_csv; bounds its string buffer.
CSV_CHUNK_ROWS = 65_536
# Elements per block of the draws-by-data and Pchip-query temporaries,
# reused from the heap at 128 KiB.
BLOCK_ELEMENTS = 2**14
# inverse_cdf drops knots whose CDF step h is below this: Pchip coefficients
# (up to about 4 dx / h^3 over a distance dx in x) stay finite for dx < 1e7.
CDF_STEP_FLOOR = 1e-100
# Pchip's index search: guide buckets per knot, forward passes from them.
GUIDE_BUCKETS_PER_KNOT = 2
GUIDE_PASSES = 1
# A grid covers a law whose mean lies at least this many sd inside each end,
# and resolves one whose sd along each axis is at least 1/MAX_SPACING_SD
# node spacings.
MIN_COVERAGE_SD = 8.0
MAX_SPACING_SD = 0.25


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
    (n1, n2) in 2-d).  Construct through :func:`normalize_from_log_potential`,
    which guarantees unit trapezoid mass.
    """

    axes: tuple[Axis, ...]
    weights: np.ndarray

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

    # -- basic geometry -------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        return self.axes[0].nodes()

    def node_points(self) -> np.ndarray:
        """All grid nodes as an (M, dim) array in C order."""
        return grid_points(self.axes)

    def quad_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, same shape as `weights`."""
        return grid_quad_weights(self.axes)

    # -- integrals ------------------------------------------------------

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance, kept on the frozen density; callers get
        copies."""
        return weighted_moments(self.node_points(),
                                (self.quad_weights() * self.weights).ravel())

    def mean(self) -> np.ndarray:
        return self._moments[0].copy()

    def covariance(self) -> np.ndarray:
        return self._moments[1].copy()


def grid_points(axes) -> np.ndarray:
    """All nodes of a 1-d or 2-d grid as an (M, dim) array in C order."""
    axes = _as_axes(axes)
    if len(axes) == 1:
        return axes[0].nodes()[:, None]
    x, y = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
    return np.column_stack([x.ravel(), y.ravel()])


def grid_quad_weights(axes) -> np.ndarray:
    """Trapezoid quadrature weights on the axes of a 1-d or 2-d grid, in
    the grid's shape."""
    if len(axes) == 1:
        return axes[0].quad_weights()
    return np.outer(axes[0].quad_weights(), axes[1].quad_weights())


def weighted_moments(pts: np.ndarray, cw: np.ndarray):
    """Mean and covariance of the nodes `pts` (M, dim) under the masses `cw`
    (M,) that sum to 1, from one pass over the nodes."""
    m = pts.T @ cw
    centered = pts - m
    return m, (centered * cw[:, None]).T @ centered


def coverage_sd(axes, mean: np.ndarray, cov: np.ndarray) -> float:
    """The least distance, in sd along its axis, from a law's mean to an end
    of the grid `axes`; at least MIN_COVERAGE_SD, the grid covers the law."""
    sd = np.sqrt(np.clip(np.diag(cov), 1e-300, None))
    return min(min(mean[j] - ax.lo, ax.hi - mean[j]) / sd[j]
               for j, ax in enumerate(axes))


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
    qw = grid_quad_weights(axes)
    z = float(np.sum(qw * u))
    return GridDensity(axes, u / z)


def covariance_opnorm(cov: np.ndarray):
    """Largest eigenvalues, operator norms, of a covariance matrix (an
    np.float64) or a stack (..., d, d) (an array) from one eigvalsh call."""
    return np.linalg.eigvalsh(cov).max(axis=-1)


def _cumulative_trapezoid(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid of nodal values f at spacing h from the first
    node, with the Euler-Maclaurin h^2/12 endpoint fix, clipped at 0 and
    made nondecreasing.

    The correction removes the O(h^2) pointwise error of the plain
    cumulative trapezoid, which the 1e-6 transport tolerances require.
    """
    cum = np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * h)])
    fp = np.gradient(f, h)
    cdf = cum - (h * h / 12.0) * (fp - fp[0])
    return np.maximum.accumulate(np.clip(cdf, 0.0, None))


def _corrected_cdf(p: GridDensity) -> np.ndarray:
    """The CDF of a 1-d grid density at its nodes, by
    :func:`_cumulative_trapezoid`."""
    cdf = _cumulative_trapezoid(p.weights, p.axes[0].spacing)
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

    F is summed from the left end and 1 - F from the right end, each by
    :func:`_cumulative_trapezoid`, so neither tail is lost to cancellation
    against 1.  The ends read -inf and +inf.
    """
    f, h = p.weights, p.axes[0].spacing
    left = _cumulative_trapezoid(f, h)
    right = _cumulative_trapezoid(f[::-1], h)[::-1]
    with np.errstate(divide="ignore"):
        return np.log(left) - np.log(right)


def logit_quantile(q: GridDensity) -> Pchip:
    """Q_q in the logit coordinate of :func:`_logit_cdf`: q's nodes
    interpolated (:class:`Pchip`) over the finite, strictly increasing
    levels q resolves, for queries clamped to their range.  A grid that
    resolves fewer than two is an IntegrationFailureError."""
    if q.dim != 1:
        raise UnsupportedDimensionError("logit_quantile needs a 1-d density")
    u = _logit_cdf(q)
    keep = np.isfinite(u) & (u > np.append(-np.inf, u[:-1]))
    if np.count_nonzero(keep) < 2:
        raise IntegrationFailureError(
            f"a {q.axes[0].n}-node grid resolves fewer than two CDF levels; "
            f"use a finer grid")
    return Pchip(u[keep], q.nodes()[keep])


def inverse_cdf(p: GridDensity) -> Pchip:
    """The inverse CDF of a 1-d grid density, a :class:`Pchip`."""
    if p.dim != 1:
        raise UnsupportedDimensionError("grid sampling implemented in 1-d only")
    cdf = _corrected_cdf(p)
    keep = np.concatenate([[True], np.diff(cdf) >= CDF_STEP_FLOOR])
    return Pchip(cdf[keep], p.nodes()[keep])


def sample_from_grid(inv: Pchip, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF i.i.d. draws, shape (n, 1), from a 1-d grid density's
    :func:`inverse_cdf`, fitted once for many calls."""
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
