"""Self-consistent solvers for mean-field fixed points on grids.

The object solved for is the system of per-particle densities

    pi^i propto exp(tilt_i - (2/sigma^2) [V + dF0(pibar, .)]),

closed through their mixture pibar = (1/N) sum_i pi^i.  Untilted and
homogeneous, all pi^i coincide: the system is the one mean-field fixed
point, whatever N.  With Gaussian tilts (t, y^i) each particle sees its
own quadratic reweighting.  The iteration is a damped fixed point on
pibar: pibar <- (1 - theta) pibar + theta Mean(Rebuild(pibar)), with the
damping halved whenever the residual increases.  Uniqueness holds in the
regimes exercised here but no algorithm is prescribed for it, so
nonconvergence is detected and reported rather than assumed away.
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
    normalize_from_log_potential,
)
from .model import ModelSpec, first_variation
from .sampler import TiltSpec

# Initial fixed-point damping theta; halved whenever the residual grows.
DAMPING = 0.5
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 400


@dataclass
class ProximalGibbsSystem:
    """A converged family of per-particle densities with their mixture."""

    per_particle: list[GridDensity]
    mean_measure: GridDensity
    residual: float
    iterations: int
    alpha: float
    tilt: TiltSpec | None = None
    residual_trace: list[float] | None = None


def default_axes(model: ModelSpec, tilt: TiltSpec | None = None,
                 n_nodes: int | None = None, span_sd: float = 10.0,
                 ) -> tuple[Axis, ...]:
    """Grid extents from the zero-interaction Gaussian proxy.

    Proxy variance 1/alpha; with tilts the proxy means y^i/(t alpha_t)
    must all be covered.  Coverage is re-validated after the solve.
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


def _log_confinement(model: ModelSpec, pts: np.ndarray) -> np.ndarray:
    sq = np.sum(pts * pts, axis=1)
    return -(model.lam / model.sigma**2) * sq


def rebuild_particle_densities(model: ModelSpec, pibar: GridDensity,
                               tilt: TiltSpec | None) -> list[GridDensity]:
    """Per-particle densities induced by a fixed mixture pibar.

    Untilted, the particles are exchangeable: the list holds the one law
    they all share, at any N.  Tilted, it holds one law per row of
    `tilt.y`, each rebuilt from the same first-variation field.
    """
    pts = pibar.node_points()
    shape = pibar.weights.shape
    base = _log_confinement(model, pts)
    base = base - (2.0 / model.sigma**2) * np.asarray(
        first_variation(model, pibar, pts), dtype=float)
    if tilt is None:
        return [normalize_from_log_potential(base.reshape(shape), pibar.axes)]
    out = []
    sq = np.sum(pts * pts, axis=1)
    for y_i in tilt.y:
        diff = pts - y_i
        log_u = base - np.sum(diff * diff, axis=1) / (2.0 * tilt.t) + 0.5 * sq
        out.append(normalize_from_log_potential(log_u.reshape(shape), pibar.axes))
    return out


def _mean_density(parts: list[GridDensity]) -> GridDensity:
    w = np.mean(np.stack([p.weights for p in parts]), axis=0)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return GridDensity(parts[0].axes, w, logw)


def solve_self_consistent(model: ModelSpec, tilt: TiltSpec | None = None,
                          axes=None, tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER,
                          ) -> ProximalGibbsSystem:
    """Damped fixed-point iteration for the self-consistent system.

    Iterates pibar <- (1 - theta) pibar + theta Mean(Rebuild(pibar)) until
    the fixed-point residual sup|Mean(Rebuild(pibar)) - pibar| drops below
    `tol`, halving theta whenever the residual increases.  Untilted, the
    system is the one law every particle shares, whatever N; tilted, N is
    the row count of `tilt.y`.  Raises :class:`NonconvergenceError` with
    the residual trace on failure.
    """
    if tilt is not None and tilt.y.shape[1] != model.d:
        raise InvalidTargetError(
            f"tilt centers have {tilt.y.shape[1]} columns, model d = {model.d}"
        )
    alpha = tilted_alpha(model, tilt.t if tilt else None)
    if alpha <= 0:
        raise InvalidTargetError(f"alpha = {alpha:.4g} <= 0: tilt not normalizable")
    if axes is None:
        axes = default_axes(model, tilt)
    elif isinstance(axes, Axis):
        axes = (axes,)
    else:
        axes = tuple(axes)

    # Zero-interaction solution as the starting mixture.
    start_parts = rebuild_particle_densities(
        zero_like(model), _uniform_seed(axes), tilt)
    pibar = _mean_density(start_parts)

    theta = DAMPING
    trace: list[float] = []
    for iteration in range(1, max_iter + 1):
        parts = rebuild_particle_densities(model, pibar, tilt)
        target = _mean_density(parts)
        residual = float(np.max(np.abs(target.weights - pibar.weights)))
        if trace and residual > trace[-1]:
            theta = max(theta / 2.0, 1.0 / 64.0)
        trace.append(residual)
        if residual < tol:
            final_parts = rebuild_particle_densities(model, target, tilt)
            system = ProximalGibbsSystem(
                per_particle=final_parts,
                mean_measure=_mean_density(final_parts),
                residual=math.nan,
                iterations=iteration,
                alpha=alpha,
                tilt=tilt,
                residual_trace=trace,
            )
            system.residual = proximal_residual(system, model)
            if system.residual < tol:
                return system
        w = (1.0 - theta) * pibar.weights + theta * target.weights
        with np.errstate(divide="ignore"):
            logw = np.log(w)
        pibar = GridDensity(pibar.axes, w, logw)
    raise NonconvergenceError(trace)


def proximal_residual(system: ProximalGibbsSystem, model: ModelSpec,
                      tilt: TiltSpec | None = None) -> float:
    """Recompute each pi^i from the stored mixture; max sup-norm gap."""
    if tilt is None:
        tilt = system.tilt
    rebuilt = rebuild_particle_densities(model, system.mean_measure, tilt)
    return max(
        float(np.max(np.abs(a.weights - b.weights)))
        for a, b in zip(system.per_particle, rebuilt)
    )


def zero_like(model: ModelSpec) -> ModelSpec:
    """The same confinement with the interaction switched off."""
    from .model import zero_model

    return zero_model(sigma=model.sigma, lam=model.lam, d=model.d)


def _uniform_seed(axes) -> GridDensity:
    axes = axes if isinstance(axes, tuple) else tuple(axes)
    shape = tuple(ax.n for ax in axes)
    return normalize_from_log_potential(np.zeros(shape), axes)
