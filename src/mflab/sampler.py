"""MCMC for N-particle Gibbs measures and the time-discretized dynamics.

The stationary targets are sampled with MALA so that the Metropolis
correction removes all discretization bias; the only place an unadjusted
Euler-Maruyama scheme appears is :func:`mfld_simulate`, where the
discretized dynamics is itself the object of study.

Randomness comes from counter-based Philox streams keyed by
(master seed, chain id), so parallel chains reproduce independently of
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import gaussian_proxy
from .errors import InvalidTargetError, SimulationDivergedError
from .model import ModelSpec, loss_terms, particle_features

MALA_TARGET_ACCEPTANCE = 0.574
ACCEPTANCE_OK_RANGE = (0.2, 0.8)
DIVERGENCE_GUARD = 1e6
RHAT_WARN = 1.01
MALA_KEY_BASE = 1 << 32
NOISE_CHUNK = 256


@dataclass(frozen=True)
class TiltSpec:
    """Gaussian tilt parameters (t, y^{1:N}) for the per-particle quadratic
    reweighting exp(-||x - y^i||^2 / 2t + ||x^i||^2 / 2)."""

    t: float
    y: np.ndarray

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("tilt time t must be positive")
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if not np.all(np.isfinite(y)):
            raise ValueError("tilt centers must be finite")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class TargetSpec:
    """The Gibbs measure a chain targets.

    Untilted, the density is proportional to
    exp(-(2/sigma^2) [sum_i V(x^i) + N F0(rho_x)]); with a tilt the
    per-particle quadratic reweighting is added on top.  A tilt is
    refused unless its Gaussian proxy (:func:`~mflab.bounds.gaussian_proxy`)
    is normalizable, which holds for every t > 0 for a model mapped by
    :func:`~mflab.model.rescale_model`.
    """

    model: ModelSpec
    n_particles: int
    tilt: TiltSpec | None = None

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.tilt is not None:
            y = self.tilt.y
            if y.shape != (self.n_particles, self.model.d):
                raise InvalidTargetError(
                    f"tilt centers shape {y.shape} != (N, d) = "
                    f"({self.n_particles}, {self.model.d})"
                )
            gaussian_proxy(self.model, self.tilt.t, y)


def _interaction_terms(model: ModelSpec, xb: np.ndarray, order=1):
    """Expected features eh (S, n_data) of states xb (S, N, d), or with order
    (0, 1) their energies F0 (S,), and their gradient rows (S, N, d)."""
    pre, eh = particle_features(model, xb)
    lead, slope = (loss_terms(model, eh, order) if order == (0, 1)
                   else (eh, loss_terms(model, eh, 1)))
    w = (slope[..., None] * model.data_x).swapaxes(1, 2)
    return lead, (w @ model.activation.deriv(pre)).swapaxes(1, 2)


def _log_density(target: TargetSpec, xb: np.ndarray, with_grad: bool):
    """Unnormalized log density (S,) of states xb (S, N, d) and, if
    with_grad, its gradient (S, N, d) from the same loss evaluation."""
    m = target.model
    f0, rows = (_interaction_terms(m, xb, (0, 1)) if with_grad
                else (loss_terms(m, particle_features(m, xb)[1]), None))
    grad = -(2.0 / m.sigma**2) * (m.lam * xb + rows) if with_grad else None
    sq = np.add.reduce(xb * xb, axis=(1, 2))
    out = -(m.lam / m.sigma**2) * sq
    out -= (2.0 * target.n_particles / m.sigma**2) * f0
    if target.tilt is not None:
        diff = xb - target.tilt.y
        out -= np.add.reduce(diff * diff, axis=(1, 2)) / (2.0 * target.tilt.t)
        out += 0.5 * sq
        if with_grad:
            grad += -diff / target.tilt.t + xb
    return out, grad


def n_particle_log_density(target: TargetSpec, x: np.ndarray):
    """Unnormalized log density of the target at one state or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 2
    xb = x[None] if single else x
    n, d = target.n_particles, target.model.d
    if xb.shape[-2:] != (n, d):
        raise InvalidTargetError(
            f"state shape {x.shape} incompatible with (N, d) = ({n}, {d})"
        )
    out = _log_density(target, xb, with_grad=False)[0]
    return float(out[0]) if single else out


# -- diagnostics ------------------------------------------------------------


def effective_sample_size(series: np.ndarray) -> float:
    """ESS from the autocorrelation function, truncated by Geyer's initial
    positive sequence rule."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    nfft = int(2 ** math.ceil(math.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    tau = 1.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 2
    return float(n / tau)


# Wichura's AS241: numerator and denominator, highest degree first, for
# |p - 1/2| <= 0.425, then r = sqrt(-log min(p, 1 - p)) <= 5, then r > 5.
AS241 = np.array([
    [2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
     13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665],
    [5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
     5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0],
    [0.0007745450142783414, 0.022723844989269184, 0.2417807251774506,
     1.2704582524523684, 3.6478483247632045, 5.769497221460691, 4.630337846156546,
     1.4234371107496835],
    [1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
     0.14810397642748008, 0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0],
    [2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
     0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
     6.657904643501103],
    [2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
     0.0007868691311456133, 0.014875361290850615, 0.1369298809227358,
     0.599832206555888, 1.0],
]).reshape(3, 2, 8)


def ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile for 0 < p < 1 (AS241, about 1e-16 relative)."""
    q = p - 0.5
    mid = np.abs(q) <= 0.425
    u, r = 0.180625 - q[mid] ** 2, np.sqrt(-np.log(np.minimum(p, 1.0 - p)[~mid]))
    (a, b), (c, d), (e, f) = AS241
    x = np.empty_like(q)
    x[mid] = q[mid] * np.polyval(a, u) / np.polyval(b, u)
    x[~mid] = np.sign(q[~mid]) * np.where(
        r <= 5.0, np.polyval(c, r - 1.6) / np.polyval(d, r - 1.6),
        np.polyval(e, r - 5.0) / np.polyval(f, r - 5.0))
    return x


def split_rhat(chains: np.ndarray) -> float:
    """Rank-normalized split-R-hat (Vehtari et al. 2021) of draws shaped
    (chains, draws), the larger of the bulk and folded values; ties (a
    rejected MALA step repeats a state) share their mean rank.  NaN with
    fewer than 2 draws per half chain, inf when no half chain moves."""
    half = chains.shape[1] // 2
    if half < 2:
        return math.nan
    split = np.concatenate([chains[:, :half], chains[:, -half:]])
    # np.median's value, without the numpy.ma import its NaN check costs.
    flat = np.sort(split, axis=None)
    median = (flat[(flat.size - 1) // 2] + flat[flat.size // 2]) / 2
    rhat = []
    for theta in (split, np.abs(split - median)):
        _, inv, counts = np.unique(theta, return_inverse=True, return_counts=True)
        rank = np.cumsum(counts) - 0.5 * (counts - 1)
        z = ndtri((rank - 0.375) / (theta.size + 0.25))[inv].reshape(theta.shape)
        within = z.var(axis=1, ddof=1).mean()
        rhat.append(math.sqrt((half - 1) / half + z.mean(axis=1).var(ddof=1)
                              / within) if within > 0 else math.inf)
    return max(rhat)


@dataclass
class MalaDiagnostics:
    """Health of one :func:`mala_sample` call: pooled acceptance, per-chain
    [min, max] of acceptance and final step size, and per summary series
    the ESS summed over chains and the split-R-hat across them."""

    acceptance_rate: float
    acceptance_range: list[float]
    step_size_range: list[float]
    ess: dict[str, float]
    rhat: dict[str, float]
    n_chains: int
    n_samples: int
    n_burnin: int
    seed: int
    acceptance_ok: bool
    warnings: list[str] = field(default_factory=list)


def _stream(seed: int, chain_id: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(chain_id & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))


def mala_sample(target: TargetSpec, n_samples: int, n_burnin: int,
                step_size: float, seed: int, n_chains: int = 1,
                ) -> tuple[np.ndarray, MalaDiagnostics]:
    """Metropolis-adjusted Langevin chains targeting the exact density,
    run in lockstep on one (n_chains, N, d) state.

    The proposal is x' = x + tau * grad log p(x) + sqrt(2 tau) xi.  During
    burn-in each chain adapts its own tau on a log scale toward 57.4%
    acceptance by stochastic approximation, then freezes it.  Chain c
    draws its start, then per chunk of NOISE_CHUNK steps its noise and
    uniforms, from the Philox stream (seed, 2**32 + c): its samples do not
    depend on n_chains, memory does not grow with the run, and the keys
    never meet the (seed, 0..1) streams of the dynamics and of
    :mod:`mflab.chaos` (key (seed, 2) is retired).  Returns (samples,
    diagnostics), the samples an (n_chains * n_samples, N, d) array whose
    row c * n_samples + i is chain c's state after step n_burnin + i + 1.
    """
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if n_samples < 1 or n_chains < 1 or n_burnin < 0:
        raise ValueError("need n_samples, n_chains >= 1 and n_burnin >= 0")
    m = target.model
    n, d = target.n_particles, m.d
    rngs = [_stream(seed, MALA_KEY_BASE + c) for c in range(n_chains)]

    tilt = target.tilt
    center, sd = (gaussian_proxy(m) if tilt is None
                  else gaussian_proxy(m, tilt.t, tilt.y))
    x = center + sd * np.stack([g.standard_normal((n, d)) for g in rngs])
    logp, grad = _log_density(target, x, with_grad=True)
    log_tau = np.full(n_chains, math.log(step_size))

    total = n_burnin + n_samples
    out = np.empty((n_chains, n_samples, n, d))
    noise = np.zeros((n_chains, NOISE_CHUNK, n, d))
    u = np.empty((n_chains, NOISE_CHUNK))
    accepted = np.zeros(n_chains)
    for step in range(total):
        k = step % NOISE_CHUNK
        if k == 0:  # row k of the table: step k's 1/2 |xi|^2, then log u
            size = min(NOISE_CHUNK, total - step)
            for c, g in enumerate(rngs):
                g.standard_normal(out=noise[c, :size])
                g.random(out=u[c, :size])
            half = 0.5 * np.sum(noise * noise, axis=(2, 3))[:, :size]
            table = np.stack([half.T, np.log(u[:, :size]).T], axis=1)
        if step <= n_burnin:  # tau moved in the step before, or is new
            tau = np.exp(log_tau)
            t3 = tau[:, None, None]
            sd, tau4 = np.sqrt(2.0 * t3), 4.0 * tau
        half_xi2, log_u = table[k]
        prop = x + t3 * grad + sd * noise[:, k]
        logp_prop, grad_prop = _log_density(target, prop, with_grad=True)
        bwd = x - prop - t3 * grad_prop
        log_accept = (logp_prop - logp + half_xi2
                      - np.add.reduce(bwd * bwd, axis=(1, 2)) / tau4)
        acc = log_u < log_accept
        acc3 = acc[:, None, None]
        np.copyto(x, prop, where=acc3)
        np.copyto(logp, logp_prop, where=acc)
        np.copyto(grad, grad_prop, where=acc3)
        if step < n_burnin:
            log_tau += (step + 1) ** -0.6 * (acc - MALA_TARGET_ACCEPTANCE)
        else:
            out[:, step - n_burnin] = x
            accepted += acc

    rate = accepted / n_samples
    series = {"mean_coordinate": out.mean(axis=(2, 3)),
              "mean_square": (out * out).mean(axis=(2, 3))}
    rhat = {k: split_rhat(v) for k, v in series.items()}
    ok = bool(ACCEPTANCE_OK_RANGE[0] <= rate.min()
              and rate.max() <= ACCEPTANCE_OK_RANGE[1])
    warnings = [] if ok else [f"chain acceptance rates [{rate.min():.3f}, "
                              f"{rate.max():.3f}] outside {ACCEPTANCE_OK_RANGE}"]
    warnings += [f"split R-hat of {k} {v:.4f} > {RHAT_WARN}"
                 for k, v in rhat.items() if v > RHAT_WARN]
    diag = MalaDiagnostics(
        acceptance_rate=float(rate.mean()),
        acceptance_range=[float(rate.min()), float(rate.max())],
        step_size_range=[float(np.exp(log_tau.min())),
                         float(np.exp(log_tau.max()))],
        ess={k: float(sum(map(effective_sample_size, v)))
             for k, v in series.items()}, rhat=rhat, n_chains=n_chains,
        n_samples=n_samples, n_burnin=n_burnin, seed=seed, acceptance_ok=ok,
        warnings=warnings)
    return out.reshape(n_chains * n_samples, n, d), diag


def mfld_simulate(model: ModelSpec, n_particles: int, horizon: float,
                  step: float, seed: int, x0: np.ndarray | None = None,
                  record_every: int = 1, on_record=None) -> np.ndarray:
    """Euler-Maruyama discretization of the interacting-particle dynamics.

    Each particle moves by -(lam x^i + wgrad(rho_x, x^i)) h + sigma sqrt(h) xi,
    xi one (N, d) draw per step from the Philox stream (seed, 0).
    Of the n_steps = round(horizon / step) steps, keeps the states after
    j * record_every steps as rows j = 0 .. n_steps // record_every (row 0
    is x0, zeros by default), plus the terminal state as one more row if
    record_every does not divide n_steps: the last row is always terminal.
    on_record, if given, gets each row j = 0 .. n_steps // record_every as
    soon as it is filled, a C-contiguous (N, d) float64 array.
    Aborts with a diagnostic if any coordinate passes 1e6.
    """
    if step <= 0 or horizon <= 0:
        raise ValueError("horizon and step must be positive")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    rng = _stream(seed, 0)
    n_steps = int(round(horizon / step))
    n_rows = n_steps // record_every + 1 + (n_steps % record_every > 0)
    traj = np.empty((n_rows, n_particles, model.d))
    x = traj[0]
    x[...] = 0.0 if x0 is None else np.reshape(x0, (n_particles, model.d))
    if not np.all(np.isfinite(x)):
        raise ValueError("particle coordinates must be finite")
    record = on_record or (lambda state: None)
    record(x)
    noise_scale = model.sigma * math.sqrt(step)
    for k in range(1, n_steps + 1):
        drift = model.lam * x + _interaction_terms(model, x[None])[1][0]
        x = x - step * drift + noise_scale * rng.standard_normal(x.shape)
        worst = float(np.max(np.abs(x)))
        if worst > DIVERGENCE_GUARD:
            raise SimulationDivergedError(k, worst)
        if k % record_every == 0:
            traj[k // record_every] = x
            record(x)
    traj[-1] = x
    return traj


def states_to_csv(states, steps, path, n: int, d: int):
    """CSV rows (step, particle, x_1[, x_2]) for any iterable of (n, d)
    states (an (S, n, d) array, or a stream read as it is written), state s
    labelled with step number steps[s]; each label is formatted once.
    ValueError unless it yields exactly len(steps) states."""
    particles = [repr(float(i)) for i in range(n)]
    with open(path, "w") as fh:
        fh.write("step,particle," + ",".join(f"x{j + 1}" for j in range(d))
                 + "\n")
        for step, state in zip(np.asarray(steps, dtype=float).tolist(),
                               states, strict=True):
            rows = zip([repr(step)] * n, particles,
                       *(map(repr, c) for c in state.T.tolist()))
            fh.write("\n".join(map(",".join, rows)) + "\n")
