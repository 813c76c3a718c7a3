#!/usr/bin/env python3
"""Building a Lipschitz transport map from the Gaussian by reverse flow.

The Ornstein-Uhlenbeck semigroup carries the target measure to the
Gaussian; in 1-d the reverse heat flow is the monotone coupling of the
target to its evolution, and at t = infinity that is Phi^{-1} o F_mu in
closed form.  Inverting it transports the Gaussian back onto the target.
The empirical Lipschitz constant is then compared against the bound
implied by the tilted-covariance envelope, fitted by the profile of the
previous demo over its whole (y, t) table, and against the closed-form
estimate with unit implied constants (enormous by design; the envelope
route is the informative one).
"""

import numpy as np

from mflab.bounds import main_bound
from mflab.heatflow import (
    covariance_profile,
    default_profile_times,
    lipschitz_estimate,
    pushforward_w2,
    reverse_flow_map,
)
from mflab.measure import Axis, normalize_from_log_potential
from mflab.model import model_constants, rescale_model
from mflab.presets import relu_preset
from mflab.sampler import TargetSpec, n_particle_log_density

print(__doc__)

model = rescale_model(relu_preset())
target = TargetSpec(model, 1)
ax = Axis(-9.0, 9.0, 2048)
log_u = n_particle_log_density(target, ax.nodes()[:, None, None])
mu = normalize_from_log_potential(log_u, (ax,))
print(f"target: mean {float(mu.mean()[0]):+.4f}, "
      f"sd {float(np.sqrt(mu.covariance()[0, 0])):.4f}")

flow = reverse_flow_map(mu)
print(f"map strictly increasing: {bool(np.all(np.diff(flow.mapped) > 0))}")
print(f"W2(T#gamma, mu) = {pushforward_w2(flow, mu):.2e}")

lip = lipschitz_estimate(flow)
inputs = model_constants(model)
prof = covariance_profile(
    target, default_profile_times(inputs, n=40, decades_around=2.0),
    [np.array([0.0]), np.array([3.0]), np.array([-3.0])], inputs)
fitted, c_fit, k_fit = prof.fitted_lipschitz_bound()
closed_form = main_bound(model_constants(relu_preset()), "generic")
print(f"\nempirical Lipschitz constant  {lip:.4f}")
print(f"fitted-envelope bound         {fitted:.4f} "
      f"(single term C={c_fit:.3f}, k={k_fit})")
print(f"closed-form bound             {closed_form:.3g} (unit constants)")
