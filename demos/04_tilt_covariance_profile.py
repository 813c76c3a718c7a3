#!/usr/bin/env python3
"""Covariance profiles of Gaussian-tilted Gibbs measures.

Tilting a measure by exp(-|x - y|^2/2t + |x|^2/2) concentrates it near y
at scale sqrt(t) for small t and removes a unit of convexity for large t.
Uniform-in-y control of the tilted covariance operator norm is the
certificate behind Lipschitz transport maps, so this demo profiles it
over four decades of t around the small/large regime threshold against
both reference envelopes.  The profile is one table of operator norms,
one row per tilt center y and one column per time t, with each time's
alpha_t and both envelopes; it lands as CSV in demos/output/, one line
per (y, t).
"""

import os

import numpy as np

from mflab.heatflow import (
    covariance_profile,
    default_profile_times,
    regime_threshold,
)
from mflab.model import model_constants, rescale_model
from mflab.presets import relu_preset
from mflab.sampler import TargetSpec

print(__doc__)

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

model = rescale_model(relu_preset())
inputs = model_constants(model)
t_star = regime_threshold(inputs)
print(f"regime threshold t* = {t_star:.5f} "
      f"(small-t statistics below, large-t statistics above)")

ts = default_profile_times(inputs, n=40, decades_around=2.0)
ys = [np.array([-3.0]), np.array([0.0]), np.array([3.0])]
prof = covariance_profile(TargetSpec(model, 1), ts, ys, inputs)

first, last = np.argmin(prof.ts), np.argmax(prof.ts)
for y, ops, ratio in zip(prof.y_labels, prof.opnorm,
                         prof.fitted_profile_ratios()):
    print(f"{y:>6}: opnorm/t at t={prof.ts[first]:.2e} is "
          f"{ops[first] / prof.ts[first]:.4f} (goes to 1), "
          f"profile ratio {ratio:.4f}, large-t opnorm {ops[last]:.4f}")

prof.to_csv(os.path.join(out_dir, "tilt_profile.csv"))
print(f"\nwrote the profile CSV to {out_dir}")
