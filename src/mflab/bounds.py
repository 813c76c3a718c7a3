"""Exact calculators for every closed-form constant used by the lab, and
the zero-interaction Gaussian proxy that the grids and samplers start from.

All functions are pure and total on their stated domains.  Asymptotic
estimates that carry unspecified universal constants are evaluated with
implied constant 1, a fixed choice that the experiment runner records in
its outputs (`implied_constants: 1.0`) so it is never a hidden
assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import CalculatorDomainError, InvalidTargetError


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundInputs:
    """Scalar constants that feed the closed-form bound calculators.

    `beta_hat` bounds the mixed second variation of the interaction
    energy and `B` its gradient; `d` is the per-particle dimension of the
    generic estimates, which the refined ones replace by 1.
    """

    sigma: float
    lam: float
    beta_hat: float
    B: float
    d: int = 1

    def __post_init__(self):
        if self.sigma <= 0 or self.lam <= 0:
            raise ValueError("sigma and lam must be positive")
        for name in ("beta_hat", "B"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.d < 1:
            raise ValueError("d must be at least 1")

    @property
    def pert_lipschitz(self) -> float:
        """2B/sigma^2, the Lipschitz constant of the log-perturbation that
        the interaction adds to each particle's confinement."""
        return 2.0 * self.B / self.sigma**2


def tilted_alpha(params, t: float | None = None) -> float:
    """Strong convexity of the per-particle confinement of `params` (any
    object with `lam` and `sigma`, such as a ModelSpec or BoundInputs).

    2 lam / sigma^2 untilted; 2 lam / sigma^2 - 1 + 1/t under a Gaussian
    tilt of time t, whose t -> inf limit (t = math.inf) is the profile
    offset a = 2 lam / sigma^2 - 1.
    """
    base = 2.0 * params.lam / params.sigma**2
    if t is None:
        return base
    return base - 1.0 + 1.0 / t


def gaussian_proxy(params, t: float | None = None, y=None):
    """(center, sd) of the zero-interaction Gaussian proxy of `params`.

    Untilted, N(0, 1/alpha); under the tilt (t, y), N(y/(1 + a t),
    1/alpha_t) with a the profile offset.  InvalidTargetError when
    alpha_t <= 0: the tilt is not normalizable.
    """
    alpha = tilted_alpha(params, t)
    if alpha <= 0:
        raise InvalidTargetError(
            f"alpha_t = {alpha:.4g} <= 0: tilt not normalizable")
    sd = 1.0 / math.sqrt(alpha)
    if t is None:
        return 0.0, sd
    return y / (1.0 + tilted_alpha(params, math.inf) * t), sd


def heatflow_lipschitz_bound(a: float, terms) -> float:
    """Lipschitz constant implied by a tilted-covariance envelope.

    The envelope is 1/(a + 1/t) plus sum of C_m/(a + 1/t)^{k_m}; each
    term with exponent k_m > 1 contributes C_m / (2 (k_m - 1) (a+1)^{k_m-1})
    to the exponent of the bound, and the leading term contributes the
    1/sqrt(a+1) prefactor.
    """
    if a <= -1:
        raise CalculatorDomainError("need a > -1")
    exponent = 0.0
    for c_m, k_m in terms:
        if k_m <= 1:
            raise CalculatorDomainError(
                f"envelope exponent k={k_m} <= 1 gives a divergent integral"
            )
        if c_m < 0:
            raise CalculatorDomainError("envelope coefficients must be >= 0")
        exponent += c_m / (2.0 * (k_m - 1.0) * (a + 1.0) ** (k_m - 1.0))
    return _exp(exponent) / math.sqrt(a + 1.0)


def generic_exponent_terms(inputs: BoundInputs) -> list[float]:
    """The four exponent terms of the generic transport-map estimate."""
    s2, lam, bh, b2 = inputs.sigma**2, inputs.lam, inputs.beta_hat, inputs.B**2
    return [
        bh * inputs.d / lam,
        b2 / (lam * s2),
        bh * b2 * inputs.d / (lam**2 * s2),
        bh * b2 * b2 / (lam**3 * s2 * s2),
    ]


def main_bound(inputs: BoundInputs, variant: str = "generic",
               include_cross_term: bool = True) -> float:
    """Transport-map Lipschitz estimate with implied constants set to 1.

    variant="generic" uses the dimension-dependent exponent; "specific"
    uses the feature-map constants, the generic terms at d = 1, where the
    cross (third) term is dominated by the others and dropped unless
    `include_cross_term` is set.
    """
    if variant == "generic":
        terms = generic_exponent_terms(inputs)
    elif variant == "specific":
        terms = generic_exponent_terms(replace(inputs, d=1))
        if not include_cross_term:
            terms = [terms[0], terms[1], terms[3]]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    prefactor = inputs.sigma / math.sqrt(inputs.lam)
    return prefactor * _exp(sum(terms))


def lsi_pert_bound(alpha: float, L: float) -> float:
    """Log-Sobolev constant of an L-Lipschitz perturbation of an
    alpha-strongly log-concave measure: (1/alpha) exp(L^2/alpha + 4L/sqrt(alpha))."""
    if alpha <= 0:
        raise CalculatorDomainError("alpha must be positive")
    if L < 0:
        raise CalculatorDomainError("L must be nonnegative")
    return _exp(L * L / alpha + 4.0 * L / math.sqrt(alpha)) / alpha


def lsi_pi_bound(inputs: BoundInputs) -> float:
    """Log-Sobolev constant of the mean-field fixed point:
    (sigma^2 / 2 lam) exp(2 B^2/(lam sigma^2) + 4 sqrt(2) B/(sqrt(lam) sigma))."""
    s2 = inputs.sigma**2
    lam = inputs.lam
    b = inputs.B
    return (s2 / (2.0 * lam)) * _exp(
        2.0 * b * b / (lam * s2) + 4.0 * math.sqrt(2.0) * b / (math.sqrt(lam) * inputs.sigma)
    )


def songbo_bound(kappa: float, d: int, epsilon: float, rho: float, N: int) -> float:
    """Concurrent-work LSI bound, reproduced for comparison tables only."""
    if not 0.0 < epsilon < 1.0:
        raise CalculatorDomainError("epsilon must lie in (0, 1)")
    if rho <= 0:
        raise CalculatorDomainError("rho must be positive")
    if kappa < 0:
        raise CalculatorDomainError("kappa must be nonnegative")
    if N <= kappa:
        raise CalculatorDomainError("need N > kappa")
    numerator = 1.0 + 2.0 * d * (5.0 + 3.0 * (1.0 / epsilon - 1.0) * kappa) * (
        kappa / (1.0 - kappa / N)
    )
    denominator = 1.0 - epsilon - (
        8.0 * kappa + 6.0 * (1.0 / epsilon - 1.0)
    ) * kappa * kappa / N
    if denominator <= 0:
        raise CalculatorDomainError("bound is vacuous: denominator <= 0")
    return (numerator / denominator) / rho


def winf_bound(alpha: float, L: float) -> float:
    """Infinity-Wasserstein shift of an L-Lipschitz log-perturbation: L/alpha."""
    if alpha <= 0:
        raise CalculatorDomainError("alpha must be positive")
    if L < 0:
        raise CalculatorDomainError("L must be nonnegative")
    return L / alpha
