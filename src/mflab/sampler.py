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
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import tilted_alpha
from .errors import InvalidTargetError, SimulationDivergedError
from .model import ModelSpec, loss_terms, rescale_model
from .measure import _write_csv, _write_json

MALA_TARGET_ACCEPTANCE = 0.574
ACCEPTANCE_OK_RANGE = (0.2, 0.8)
DIVERGENCE_GUARD = 1e6


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
    per-particle quadratic reweighting is added on top.  The `rescaled`
    flag applies the coordinate map x -> (sqrt(lam)/sigma) x to the model
    first, which is required for tilts to be integrable in general.
    """

    model: ModelSpec
    n_particles: int
    tilt: TiltSpec | None = None
    rescaled: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        eff = rescale_model(self.model) if self.rescaled else self.model
        object.__setattr__(self, "_effective_model", eff)
        if self.tilt is not None:
            y = self.tilt.y
            if y.shape != (self.n_particles, eff.d):
                raise InvalidTargetError(
                    f"tilt centers shape {y.shape} != (N, d) = "
                    f"({self.n_particles}, {eff.d})"
                )
            alpha = tilted_alpha(eff, self.tilt.t)
            if alpha <= 0:
                raise InvalidTargetError(
                    f"tilted target is not normalizable: alpha_t = {alpha:.4g} <= 0"
                )

    @property
    def effective_model(self) -> ModelSpec:
        return self._effective_model


def _batch(x: np.ndarray, n: int, d: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 2
    xb = x[None] if single else x
    if xb.shape[-2:] != (n, d):
        raise InvalidTargetError(
            f"state shape {x.shape} incompatible with (N, d) = ({n}, {d})"
        )
    return xb, single


def _wgrad_rows(model: ModelSpec, xb: np.ndarray) -> np.ndarray:
    """Rows grad_{x^i} [N F0(rho_x)] = Wasserstein gradient at x^i of each
    state's empirical measure, for states xb of shape (S, N, d)."""
    pre = xb @ model.data_x.T
    eh = model.activation.value(pre).mean(axis=1)
    return np.einsum("snj,sj,jk->snk", model.activation.deriv(pre),
                     loss_terms(model, eh, 1), model.data_x)


def n_particle_log_density(target: TargetSpec, x: np.ndarray):
    """Unnormalized log density of the target at one state or a batch."""
    m = target.effective_model
    xb, single = _batch(x, target.n_particles, m.d)
    sq = np.sum(xb * xb, axis=(1, 2))
    out = -(m.lam / m.sigma**2) * sq
    eh = m.activation.value(xb @ m.data_x.T).mean(axis=1)
    out -= (2.0 * target.n_particles / m.sigma**2) * loss_terms(m, eh)
    if target.tilt is not None:
        diff = xb - target.tilt.y[None]
        out -= np.sum(diff * diff, axis=(1, 2)) / (2.0 * target.tilt.t)
        out += 0.5 * sq
    return float(out[0]) if single else out


def n_particle_log_density_grad(target: TargetSpec, x: np.ndarray) -> np.ndarray:
    """Gradient of the unnormalized log density, one (N, d) row per particle."""
    m = target.effective_model
    xb, single = _batch(x, target.n_particles, m.d)
    grad = -(2.0 / m.sigma**2) * (m.lam * xb + _wgrad_rows(m, xb))
    if target.tilt is not None:
        grad += -(xb - target.tilt.y[None]) / target.tilt.t + xb
    return grad[0] if single else grad


def interaction_gradient(target: TargetSpec, x: np.ndarray) -> np.ndarray:
    """The -(2/sigma^2) * Wasserstein-gradient rows alone (bound <= 2B/sigma^2)."""
    m = target.effective_model
    xb, single = _batch(x, target.n_particles, m.d)
    rows = -(2.0 / m.sigma**2) * _wgrad_rows(m, xb)
    return rows[0] if single else rows


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


@dataclass
class MalaDiagnostics:
    acceptance_rate: float
    step_size: float
    ess: dict[str, float]
    n_samples: int
    n_burnin: int
    seed: int
    chain_id: int
    acceptance_ok: bool
    warnings: list[str] = field(default_factory=list)

    def to_json(self, path):
        _write_json(path, asdict(self))


def _stream(seed: int, chain_id: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(chain_id & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))


def mala_sample(target: TargetSpec, n_samples: int, n_burnin: int,
                step_size: float, seed: int, chain_id: int = 0,
                ) -> tuple[np.ndarray, MalaDiagnostics]:
    """Metropolis-adjusted Langevin chain targeting the exact density.

    The proposal is x' = x + tau * grad log p(x) + sqrt(2 tau) xi.  During
    burn-in, tau adapts on a log scale toward 57.4% acceptance by
    stochastic approximation and then freezes, so the returned samples
    come from a fixed Markov kernel.  Deterministic given (seed, chain_id).

    Returns the samples as an (n_samples, N, d) array, sample i being the
    state after chain step n_burnin + i + 1, and the diagnostics.
    """
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = _stream(seed, chain_id)
    n, d = target.n_particles, target.effective_model.d
    m = target.effective_model

    sd0 = m.sigma / math.sqrt(2.0 * m.lam)
    x = sd0 * rng.standard_normal((n, d))
    if target.tilt is not None:
        a = tilted_alpha(m, target.tilt.t)
        x = target.tilt.y / (target.tilt.t * a) + rng.standard_normal((n, d)) / math.sqrt(a)

    log_tau = math.log(step_size)
    logp = n_particle_log_density(target, x)
    grad = n_particle_log_density_grad(target, x)

    total = n_burnin + n_samples
    out = np.empty((n_samples, n, d))
    accepted_main = 0
    for step in range(total):
        tau = math.exp(log_tau)
        noise = rng.standard_normal((n, d))
        prop = x + tau * grad + math.sqrt(2.0 * tau) * noise
        logp_prop = n_particle_log_density(target, prop)
        grad_prop = n_particle_log_density_grad(target, prop)
        fwd = prop - x - tau * grad
        bwd = x - prop - tau * grad_prop
        log_accept = (logp_prop - logp
                      + (np.sum(fwd * fwd) - np.sum(bwd * bwd)) / (4.0 * tau))
        accept = math.log(rng.random()) < log_accept
        if accept:
            x, logp, grad = prop, logp_prop, grad_prop
        if step < n_burnin:
            gain = (step + 1) ** -0.6
            log_tau += gain * ((1.0 if accept else 0.0) - MALA_TARGET_ACCEPTANCE)
        else:
            idx = step - n_burnin
            out[idx] = x
            accepted_main += int(accept)

    acc_rate = accepted_main / n_samples
    ess = {
        "mean_coordinate": effective_sample_size(out.mean(axis=(1, 2))),
        "mean_square": effective_sample_size((out * out).mean(axis=(1, 2))),
    }
    ok = ACCEPTANCE_OK_RANGE[0] <= acc_rate <= ACCEPTANCE_OK_RANGE[1]
    warnings = [] if ok else [
        f"acceptance rate {acc_rate:.3f} outside {ACCEPTANCE_OK_RANGE}"
    ]
    diag = MalaDiagnostics(
        acceptance_rate=acc_rate, step_size=math.exp(log_tau), ess=ess,
        n_samples=n_samples, n_burnin=n_burnin, seed=seed, chain_id=chain_id,
        acceptance_ok=ok, warnings=warnings,
    )
    return out, diag


def mfld_simulate(model: ModelSpec, n_particles: int, horizon: float,
                  step: float, seed: int, x0: np.ndarray | None = None,
                  chain_id: int = 0) -> np.ndarray:
    """Euler-Maruyama discretization of the interacting-particle dynamics.

    Each particle moves by -(lam x^i + wgrad(rho_x, x^i)) h + sigma sqrt(h) xi.
    Returns every state as an (n_steps + 1, N, d) array, row k the state
    after k steps and row 0 the start x0 (zeros by default), with
    n_steps = round(horizon / step).  Aborts with a diagnostic if any
    coordinate passes 1e6.
    """
    if step <= 0 or horizon <= 0:
        raise ValueError("horizon and step must be positive")
    rng = _stream(seed, chain_id)
    n_steps = int(round(horizon / step))
    traj = np.empty((n_steps + 1, n_particles, model.d))
    traj[0] = 0.0 if x0 is None else np.reshape(x0, (n_particles, model.d))
    if not np.all(np.isfinite(traj[0])):
        raise ValueError("particle coordinates must be finite")
    noise_scale = model.sigma * math.sqrt(step)
    for k in range(n_steps):
        x = traj[k]
        drift = model.lam * x + _wgrad_rows(model, x[None])[0]
        traj[k + 1] = (x - step * drift
                       + noise_scale * rng.standard_normal(x.shape))
        worst = float(np.max(np.abs(traj[k + 1])))
        if worst > DIVERGENCE_GUARD:
            raise SimulationDivergedError(k + 1, worst)
    return traj


def trajectory_to_csv(x: np.ndarray, steps, path, chain_id: int = 0):
    """CSV rows (chain, step, particle, x_1[, x_2]) for an (S, N, d) array
    of states or samples, state s labelled with step number steps[s]."""
    s, n, d = x.shape
    header = "chain,step,particle," + ",".join(f"x{j + 1}" for j in range(d))
    _write_csv(path, header,
               [np.full(s * n, float(chain_id)),
                np.repeat(np.asarray(steps, dtype=float), n),
                np.tile(np.arange(n, dtype=float), s),
                *x.reshape(s * n, d).T])
