"""Preset models used by the tests, demos, and experiment configs.

Scales are chosen so grid oracles stay comfortable: d = 1, order-one
constants, and clipping radii that are never touched at equilibrium.
"""

from __future__ import annotations

import numpy as np

from .model import (
    LogisticLoss,
    ModelSpec,
    RELU,
    SquaredLoss,
    TANH,
    example_nn,
    quadratic_oracle,
    zero_model,
)


def standard_zero() -> ModelSpec:
    """Pure confinement whose stationary law is the standard Gaussian."""
    return zero_model(sigma=1.0, lam=0.5)


def unit_zero() -> ModelSpec:
    """Pure confinement with stationary variance sigma^2/(2 lam) = 1/2."""
    return zero_model(sigma=1.0, lam=1.0)


def quadratic_preset(kappa: float = 0.5, c: float = 0.3, sigma: float = 1.0,
                     lam: float = 1.0) -> ModelSpec:
    """The closed-form Gaussian-algebra model for the chaos sweeps."""
    return quadratic_oracle(sigma=sigma, lam=lam, kappa=kappa, c=c,
                            clip_radius=10.0)


def relu_preset(sigma: float = 1.0, lam: float = 1.0) -> ModelSpec:
    """Three-datum ReLU network with unit feature and gradient constants.

    Covariates have norm <= 1 so L_h = 1; the squared loss has scale 1 and
    clip radius 1, hence beta_hat = 1 and B = 1.
    """
    return example_nn(
        sigma=sigma, lam=lam,
        data_x=np.array([[1.0], [-0.8], [0.6]]),
        data_y=np.array([0.5, -0.3, 0.2]),
        weights=np.array([0.4, 0.35, 0.25]),
        loss=SquaredLoss(scale=1.0, clip_radius=1.0),
        activation=RELU,
    )


def tanh_preset() -> ModelSpec:
    """Smooth-activation variant used where quadrature oracles need
    spectral accuracy."""
    return example_nn(
        sigma=1.0, lam=1.0,
        data_x=np.array([[0.9], [-0.7]]),
        data_y=np.array([0.4, -0.2]),
        weights=np.array([0.5, 0.5]),
        loss=SquaredLoss(scale=1.0, clip_radius=2.0),
        activation=TANH,
    )


def logistic_preset() -> ModelSpec:
    """Classification variant: logistic loss, labels +-1."""
    return example_nn(
        sigma=1.0, lam=1.0,
        data_x=np.array([[1.0], [-0.9]]),
        data_y=np.array([1.0, -1.0]),
        weights=np.array([0.6, 0.4]),
        loss=LogisticLoss(),
        activation=RELU,
    )


PRESETS = {
    "standard_zero": standard_zero,
    "unit_zero": unit_zero,
    "quadratic": quadratic_preset,
    "relu3": relu_preset,
    "tanh2": tanh_preset,
    "logistic2": logistic_preset,
}
