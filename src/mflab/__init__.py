"""Numerical laboratory for interacting-particle Langevin measures.

Submodules:

* :mod:`mflab.measure`   -- grid densities, covariances, 1-d transport
* :mod:`mflab.model`     -- the mean-field energy's kernel and constants
* :mod:`mflab.sampler`   -- MALA for Gibbs targets, Euler-Maruyama dynamics
* :mod:`mflab.meanfield` -- self-consistent proximal Gibbs systems
* :mod:`mflab.chaos`     -- KL estimates vs closed-form chaos bounds
* :mod:`mflab.heatflow`  -- tilt profiles, reverse transport maps
* :mod:`mflab.bounds`    -- exact calculators for every closed-form constant
* :mod:`mflab.cli`       -- experiment runner and report generation
"""

__version__ = "0.1.0"

from .bounds import (
    BoundInputs,
    heatflow_lipschitz_bound,
    lsi_pert_bound,
    lsi_pi_bound,
    main_bound,
    songbo_bound,
    winf_bound,
)
from .chaos import (
    ChaosReport,
    McmcConfig,
    chaos_sweep,
    estimate_kl,
    poc_bound,
)
from .heatflow import (
    CovarianceProfile,
    FlowMap,
    covariance_profile,
    lipschitz_estimate,
    reverse_flow_map,
)
from .meanfield import ProximalGibbsSystem, proximal_residual, solve_self_consistent
from .measure import (
    Axis,
    GridDensity,
    covariance_opnorm,
    normalize_from_log_potential,
)
from .model import (
    ModelSpec,
    example_nn,
    model_constants,
    quadratic_oracle,
    rescale_model,
    zero_model,
)
from .sampler import (
    TargetSpec,
    TiltSpec,
    mala_sample,
    mfld_simulate,
    n_particle_log_density,
)
