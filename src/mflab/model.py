"""The mean-field interaction energy, its kernel, and derived constants.

Every interaction energy is the prediction loss of a two-layer network
read as a measure over neurons,

    F0(nu) = sum_j p_j * loss(E_nu h(., x_j), y_j),
    h(theta, x_j) = act(<theta, x_j>),

over a weighted dataset (x_j, y_j, p_j).  The closed-form models are data
of this one energy, not separate kinds:

* :func:`zero_model` -- the empty dataset, so F0 = 0 and the confinement
  acts alone.
* :func:`example_nn` -- a dataset with a pointwise activation and a loss.
* :func:`quadratic_oracle` -- the single datum (e, c) with weight 1,
  identity activation and an unclipped squared loss of scale kappa, so
  F0(nu) = (kappa/2) (<e, mean(nu)> - c)^2; the algebra oracle of the tests.

Every caller evaluates the loss through one kernel, :func:`loss_terms`,
at the expected features, value and slope from one residual.  Every
operation is a pure function of an immutable spec, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundInputs
from .errors import AlreadyRescaledError, DimensionMismatchError
from .measure import GridDensity

WEIGHT_SUM_TOL = 1e-12


# -- losses ---------------------------------------------------------------


@dataclass(frozen=True)
class SquaredLoss:
    """Scaled squared loss, linearized outside a clipping radius.

    value = (scale/2) r^2 for |r| <= clip_radius and continues linearly
    beyond, so the derivative is globally bounded by scale * clip_radius.
    The linear continuation keeps the loss convex with curvature at most
    `scale`, which is what the smoothness constants assume; at the scales
    of the presets the clip is never active and the loss is exactly
    quadratic.
    """

    scale: float = 1.0
    clip_radius: float = 10.0

    def __post_init__(self):
        if not (0 < self.scale < math.inf and 0 < self.clip_radius < math.inf):
            raise ValueError("scale and clip_radius must be positive and "
                             "finite")

    @property
    def beta_ell(self) -> float:
        return self.scale

    @property
    def L_ell(self) -> float:
        return self.scale * self.clip_radius

    def terms(self, yhat, y):
        """(value, slope) from one residual r and r_c = clip(r): scale r_c
        (r - r_c/2), +0.0 at r = -0.0 as (scale/2) r^2, and scale r_c."""
        r, c = np.asarray(yhat, dtype=float) - y, self.clip_radius
        r_c = np.minimum(np.maximum(r, -c), c)  # np.clip's value
        slope = self.scale * r_c
        return slope * (r - 0.5 * r_c) + 0.0, slope

    def d1(self, yhat, y):
        r, c = np.asarray(yhat, dtype=float) - y, self.clip_radius
        return self.scale * np.minimum(np.maximum(r, -c), c)  # np.clip's value

    def d2(self, yhat, y):
        r = np.asarray(yhat, dtype=float) - y
        return np.where(np.abs(r) <= self.clip_radius, self.scale, 0.0)


@dataclass(frozen=True)
class UnclippedSquaredLoss(SquaredLoss):
    """(scale/2) r^2 everywhere, scale >= 0.

    `clip_radius` does not alter the loss; it only sets the interval
    |r| <= clip_radius on which the reported L_ell is taken.
    """

    def __post_init__(self):
        if not (0 <= self.scale < math.inf
                and 0 < self.clip_radius < math.inf):
            raise ValueError("scale must be nonnegative, clip_radius "
                             "positive, both finite")

    def terms(self, yhat, y):
        r = np.asarray(yhat, dtype=float) - y
        return 0.5 * self.scale * r * r, self.scale * r

    def d1(self, yhat, y):
        return self.scale * (np.asarray(yhat, dtype=float) - y)

    def d2(self, yhat, y):
        return np.full_like(np.asarray(yhat, dtype=float) - y, self.scale)


def expit(z):
    """Logistic sigmoid 1 / (1 + exp(-z)), without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LogisticLoss:
    """Binary logistic loss with labels in {-1, +1}."""

    @property
    def beta_ell(self) -> float:
        return 0.25

    @property
    def L_ell(self) -> float:
        return 1.0

    def terms(self, yhat, y):
        y = np.asarray(y)
        z = -y * np.asarray(yhat, dtype=float)  # one margin for both terms
        return np.logaddexp(0.0, z), -y * expit(z)

    def d1(self, yhat, y):
        y = np.asarray(y)
        return -y * expit(-y * np.asarray(yhat, dtype=float))

    def d2(self, yhat, y):
        margin = np.asarray(y) * np.asarray(yhat, dtype=float)
        return expit(margin) * expit(-margin)


# -- activations ----------------------------------------------------------


@dataclass(frozen=True)
class Activation:
    """Scalar activation with a pointwise derivative.

    For ReLU the derivative at the kink is taken to be 0; any choice in
    [0, 1] satisfies the gradient bound, and 0 keeps it tight and
    deterministic.
    """

    name: str

    def __post_init__(self):
        if self.name not in ("relu", "tanh", "identity"):
            raise ValueError(f"unknown activation {self.name!r}")

    def value(self, u):
        if self.name == "relu":
            return np.maximum(u, 0.0)
        if self.name == "tanh":
            return np.tanh(u)
        return np.asarray(u, dtype=float)

    def deriv(self, u):
        if self.name == "relu":
            return (np.asarray(u) > 0.0).astype(float)
        if self.name == "tanh":
            t = np.tanh(u)
            return 1.0 - t * t
        return np.ones_like(np.asarray(u, dtype=float))


RELU = Activation("relu")
TANH = Activation("tanh")
IDENTITY = Activation("identity")


# -- model spec -----------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of a confined mean-field energy.

    The full energy is F(nu) = F0(nu) + (lam/2) E_nu ||.||^2 with noise
    scale `sigma`, and F0 is the prediction loss of the weighted dataset
    (`data_x`, `data_y`, `data_p`) under `activation` and `loss`.  The
    zero model and the quadratic oracle are encodings of that energy (an
    empty dataset; one identity feature), so every operation treats all
    models alike.  Construct through :func:`zero_model`,
    :func:`example_nn`, or :func:`quadratic_oracle`.
    """

    sigma: float
    lam: float
    d: int
    data_x: np.ndarray
    data_y: np.ndarray
    data_p: np.ndarray
    loss: SquaredLoss | LogisticLoss
    activation: Activation
    rescaled: bool = False

    def __post_init__(self):
        if not (0 < self.sigma < math.inf and 0 < self.lam < math.inf):
            raise ValueError("sigma and lam must be positive and finite")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        x = np.atleast_2d(np.asarray(self.data_x, dtype=float))
        y = np.atleast_1d(np.asarray(self.data_y, dtype=float))
        p = np.atleast_1d(np.asarray(self.data_p, dtype=float))
        if x.shape[1] != self.d:
            raise DimensionMismatchError("data covariates must have d columns")
        if y.shape[0] != x.shape[0] or p.shape[0] != x.shape[0]:
            raise ValueError("data arrays must share the leading length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("data must be finite")
        if not (np.all(p >= 0)
                and (p.size == 0 or abs(p.sum() - 1.0) <= WEIGHT_SUM_TOL)):
            raise ValueError("data weights must be >= 0 and sum to 1 (1e-12)")
        if isinstance(self.loss, LogisticLoss) and not np.all(np.abs(y) == 1.0):
            raise ValueError("logistic labels must be +-1")
        if self.loss is None or self.activation is None:
            raise ValueError("a model needs a loss and an activation")
        object.__setattr__(self, "data_x", x)
        object.__setattr__(self, "data_y", y)
        object.__setattr__(self, "data_p", p)


def zero_model(sigma: float, lam: float, d: int = 1) -> ModelSpec:
    """Pure confinement: the empty dataset, so F0 = 0."""
    return ModelSpec(sigma=sigma, lam=lam, d=d, data_x=np.zeros((0, d)),
                     data_y=np.zeros(0), data_p=np.zeros(0),
                     loss=UnclippedSquaredLoss(scale=0.0),
                     activation=IDENTITY)


def example_nn(sigma: float, lam: float, data_x, data_y, weights=None,
               loss=None, activation=RELU) -> ModelSpec:
    """Prediction-loss interaction energy over a weighted dataset."""
    data_x = np.atleast_2d(np.asarray(data_x, dtype=float))
    data_y = np.atleast_1d(np.asarray(data_y, dtype=float))
    n = data_x.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    loss = loss or SquaredLoss()
    return ModelSpec(
        sigma=sigma, lam=lam, d=data_x.shape[1],
        data_x=data_x, data_y=data_y, data_p=np.asarray(weights, dtype=float),
        loss=loss, activation=activation,
    )


def quadratic_oracle(sigma: float, lam: float, kappa: float, c: float = 0.0,
                     e=None, d: int = 1, clip_radius: float = 10.0) -> ModelSpec:
    """F0(nu) = (kappa/2) (<e, mean(nu)> - c)^2, exactly quadratic.

    Encoded as the datum (e, c) with weight 1, identity activation and an
    unclipped squared loss of scale kappa.  The clip radius does not alter
    the functional; it only sets the interval on which the reported
    Lipschitz constant L_ell = kappa * clip_radius is taken.
    """
    if e is None:
        e = np.zeros(d)
        e[0] = 1.0
    e = np.atleast_1d(np.asarray(e, dtype=float))
    if e.shape[0] != d:
        raise DimensionMismatchError("direction e must live in R^d")
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise ValueError("direction e must be a unit vector")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return ModelSpec(
        sigma=sigma, lam=lam, d=d, data_x=e[None, :], data_y=[c],
        data_p=[1.0], activation=IDENTITY,
        loss=UnclippedSquaredLoss(scale=kappa, clip_radius=clip_radius),
    )


# -- features -------------------------------------------------------------


def features(model: ModelSpec, theta: np.ndarray) -> np.ndarray:
    """Feature values h(theta, x_j) for a batch of parameters.

    theta: (..., d) array; returns (..., n_data).
    """
    pre = np.asarray(theta, dtype=float) @ model.data_x.T
    return model.activation.value(pre)


def particle_features(model: ModelSpec, x: np.ndarray):
    """Pre-activations (S, n_data, N) of states x (S, N, d), particle-major,
    and the particle means E_{rho_x} h(., x_j), (S, n_data), of features."""
    pre = model.data_x @ x.swapaxes(1, 2)
    h = model.activation.value(pre)
    return pre, np.add.reduce(h, axis=2) / x.shape[1]  # h.mean(axis=2)


def expect_features(model: ModelSpec, nu: GridDensity) -> np.ndarray:
    """E_nu h(., x_j) per datum, by the trapezoid rule of the grid density."""
    if nu.dim != model.d:
        raise DimensionMismatchError(
            f"measure dimension {nu.dim} != model dimension {model.d}"
        )
    h = features(model, nu.node_points())
    cw = (nu.quad_weights() * nu.weights).ravel()
    return h.T @ cw


# -- kernel and constants -------------------------------------------------


def loss_terms(model: ModelSpec, eh: np.ndarray, order: int | tuple = 0):
    """The interaction kernel, evaluated at expected features eh (..., n_data).

    order 0 gives the energy sum_j p_j loss(eh_j, y_j), summed in C order
    whatever eh's layout; order 1 the slopes p_j loss'(eh_j, y_j) and order
    2 the curvatures p_j loss''(eh_j, y_j), one per datum; order (0, 1)
    gives the energy and the slopes, both from one evaluation of the residual.
    """
    if order in (0, (0, 1)):
        value, slope = model.loss.terms(eh, model.data_y)
        f0 = np.ascontiguousarray(value) @ model.data_p
        return f0 if order == 0 else (f0, model.data_p * slope)
    if order == 1:
        return model.data_p * model.loss.d1(eh, model.data_y)
    if order == 2:
        return model.data_p * model.loss.d2(eh, model.data_y)
    raise ValueError(f"order must be 0, 1 or 2, got {order!r}")


def model_constants(model: ModelSpec) -> BoundInputs:
    """Bound inputs (sigma, lam, beta_hat, B, d) of the model.

    beta_hat = L_h^2 beta_ell and B = L_h L_ell, from the loss's
    constants and L_h = max_j ||x_j||, the Lipschitz constant of the
    feature map (0 without data; the activations are 1-Lipschitz).
    """
    l_h = float(np.max(np.linalg.norm(model.data_x, axis=1), initial=0.0))
    return BoundInputs(
        sigma=model.sigma, lam=model.lam,
        beta_hat=l_h * l_h * model.loss.beta_ell, B=l_h * model.loss.L_ell,
        d=model.d,
    )


def rescale_model(model: ModelSpec) -> ModelSpec:
    """Pushforward of the model under x -> (sqrt(lam)/sigma) x.

    After rescaling the confinement satisfies 2 lam / sigma^2 = 2, which
    makes every Gaussian tilt with t > 0 normalizable.  Only the data
    scales (x_j -> x_j / eta); the loss is unchanged.  Rescaling twice is
    refused.
    """
    if model.rescaled:
        raise AlreadyRescaledError("model is already rescaled")
    eta = math.sqrt(model.lam) / model.sigma
    return replace(model, lam=model.sigma**2, data_x=model.data_x / eta,
                   rescaled=True)
