"""Self-consistent solvers for mean-field fixed points on grids.

The object solved for is the system of per-particle densities

    pi^i propto exp(tilt_i - (2/sigma^2) [V + dF0(pibar, .)]),

closed through their mixture pibar = (1/N) sum_i pi^i.  Untilted and
homogeneous, all pi^i coincide: the system is the one mean-field fixed
point, whatever N.  With Gaussian tilts (t, y^i) each particle sees its
own quadratic reweighting.  The laws depend on pibar only through its
n_data expected features m, so Newton's method on m solves the system.
Uniqueness holds in the regimes exercised here but no algorithm is
prescribed for it, so nonconvergence is detected and reported rather
than assumed away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import tilted_alpha
from .errors import InvalidTargetError, NonconvergenceError
from .measure import (
    Axis,
    GridDensity,
    _as_axes,
    grid_points,
    normalize_from_log_potential,
)
from .model import ModelSpec, expect_features, features, loss_terms
from .sampler import TiltSpec

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 50


@dataclass
class ProximalGibbsSystem:
    """A converged family of per-particle densities with their mixture."""

    per_particle: list[GridDensity]
    mean_measure: GridDensity
    residual: float
    iterations: int
    tilt: TiltSpec | None = None
    residual_trace: list[float] | None = None


def default_axes(model: ModelSpec, tilt: TiltSpec | None = None,
                 n_nodes: int | None = None, span_sd: float = 10.0,
                 ) -> tuple[Axis, ...]:
    """Grid extents from the zero-interaction Gaussian proxy.

    Proxy variance 1/alpha; with tilts the proxy means y^i/(t alpha_t)
    must all be covered.  A chaos sweep re-validates coverage after the
    solve (:func:`~mflab.measure.coverage_sd`).
    """
    alpha = tilted_alpha(model, tilt.t if tilt else None)
    if alpha <= 0:
        raise InvalidTargetError(f"alpha = {alpha:.4g} <= 0: tilt not normalizable")
    sd = 1.0 / math.sqrt(alpha)
    if tilt is None:
        centers = np.zeros((1, model.d))
    else:
        centers = tilt.y / (tilt.t * alpha)
    if n_nodes is None:
        n_nodes = 2048 if model.d == 1 else 256
    axes = []
    for j in range(model.d):
        lo = float(centers[:, j].min() - span_sd * sd)
        hi = float(centers[:, j].max() + span_sd * sd)
        axes.append(Axis(lo, hi, n_nodes))
    return tuple(axes)


def _feature_laws(model: ModelSpec, axes, tilt: TiltSpec | None):
    """m -> (the laws pi^i propto exp(tilt_i - (2/sigma^2)(V + h . slope(m))),
    the mean over them of E h and of Cov h, by their trapezoid rule).  The
    confinement, the tilt rows and h at the nodes do not depend on m, so
    they are built once.  Untilted, the list holds the one law all particles share."""
    axes = _as_axes(axes)
    pts = grid_points(axes)
    h, sq = features(model, pts), np.sum(pts * pts, axis=1)
    rows = -(model.lam / model.sigma**2) * sq[None, :]
    if tilt is not None:
        diff = pts[None, :, :] - tilt.y[:, None, :]
        rows = rows - np.sum(diff * diff, axis=2) / (2.0 * tilt.t) + 0.5 * sq
    shape = tuple(ax.n for ax in axes)

    def at(m):
        log_u = rows - (2.0 / model.sigma**2) * (h @ loss_terms(model, m, 1))
        laws = [normalize_from_log_potential(r.reshape(shape), axes)
                for r in log_u]
        cw = np.stack([(p.quad_weights() * p.weights).ravel() for p in laws])
        eh = cw @ h  # one row per law
        cov = (h.T * cw.mean(axis=0)) @ h - eh.T @ eh / len(laws)
        return laws, eh.mean(axis=0), cov

    return at


def _mean_density(parts: list[GridDensity]) -> GridDensity:
    w = np.mean(np.stack([p.weights for p in parts]), axis=0)
    return GridDensity(parts[0].axes, w)


def solve_self_consistent(model: ModelSpec, tilt: TiltSpec | None = None,
                          axes=None, tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER,
                          ) -> ProximalGibbsSystem:
    """Newton's method on the expected features m of the system.

    The laws depend on pibar only through m = E_pibar h, so the fixed
    point is the root of G(m) = m - mean_i E_{pi^i(m)} h, whose Jacobian
    is I + (2/sigma^2) mean_i Cov_{pi^i(m)}(h) diag(p_j loss''_j(m_j)).
    From m = 0, each step is halved until sup|G| falls, and the iteration
    stops once sup|G| and then :func:`proximal_residual` are below `tol`.
    Untilted, the system is the one law every particle shares, whatever
    N; tilted, N is the row count of `tilt.y`.  Raises
    :class:`NonconvergenceError` with the trace of sup|G| on failure.
    """
    if tilt is not None and tilt.y.shape[1] != model.d:
        raise InvalidTargetError(
            f"tilt centers have {tilt.y.shape[1]} columns, model d = {model.d}"
        )
    alpha = tilted_alpha(model, tilt.t if tilt else None)
    if alpha <= 0:
        raise InvalidTargetError(f"alpha = {alpha:.4g} <= 0: tilt not normalizable")
    laws_at = _feature_laws(
        model, default_axes(model, tilt) if axes is None else axes, tilt)
    m = np.zeros(model.data_p.size)
    laws, eh, cov = laws_at(m)
    trace = [float(np.max(np.abs(m - eh), initial=0.0))]
    while True:
        if trace[-1] < tol:
            system = ProximalGibbsSystem(
                per_particle=laws, mean_measure=_mean_density(laws),
                residual=math.nan, iterations=len(trace), tilt=tilt,
                residual_trace=trace)
            system.residual = proximal_residual(system, model)
            if system.residual < tol:
                return system
        if len(trace) >= max_iter:
            raise NonconvergenceError(trace)
        jac = np.eye(m.size) + (2.0 / model.sigma**2) * cov * loss_terms(model, m, 2)
        step = np.linalg.solve(jac, m - eh)
        while True:  # halve the step until sup|G| falls
            m_new = m - step
            if np.array_equal(m_new, m):  # the step is lost in rounding
                raise NonconvergenceError(trace)
            laws, eh, cov = laws_at(m_new)
            residual = float(np.max(np.abs(m_new - eh)))
            if residual < trace[-1]:
                break
            step /= 2.0
        m = m_new
        trace.append(residual)


def proximal_residual(system: ProximalGibbsSystem, model: ModelSpec) -> float:
    """Recompute each pi^i from the stored mixture, through its expected
    features; max sup-norm gap."""
    pibar = system.mean_measure
    rebuilt = _feature_laws(model, pibar.axes, system.tilt)(
        expect_features(model, pibar))[0]
    return max(
        float(np.max(np.abs(a.weights - b.weights)))
        for a, b in zip(system.per_particle, rebuilt)
    )

