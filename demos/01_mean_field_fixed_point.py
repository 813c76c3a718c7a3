#!/usr/bin/env python3
"""Self-consistent mean-field fixed points on a grid.

The stationary law of the interacting dynamics solves an implicit
equation: the density is a Gibbs measure whose potential depends on the
density itself through the first variation of the interaction energy.
The law depends on itself only through its expected features, so this
demo solves that equation by Newton's method on those few numbers for
three models and checks the two cases with closed forms.
"""

import numpy as np

from mflab.meanfield import solve_self_consistent
from mflab.model import rescale_model, zero_model
from mflab.presets import quadratic_preset, relu_preset
from mflab.sampler import TiltSpec

print(__doc__)

# --- no interaction: the fixed point is the confinement Gaussian ----------
model = zero_model(sigma=1.0, lam=0.5)
system = solve_self_consistent(model)
pibar = system.mean_measure
print(f"zero model:       mean {float(pibar.mean()[0]):+.6f}, "
      f"variance {float(pibar.covariance()[0, 0]):.6f} "
      f"(exact: 0, {model.sigma**2 / (2 * model.lam):.6f}), "
      f"{system.iterations} iterations")

# --- quadratic interaction: scalar self-consistency in closed form --------
kappa, c = 0.5, 0.3
quad = quadratic_preset(kappa=kappa, c=c)
system = solve_self_consistent(quad)
pibar = system.mean_measure
mean_exact = kappa * c / (quad.lam + kappa)
print(f"quadratic model:  mean {float(pibar.mean()[0]):+.6f} "
      f"(scalar fixed point: {mean_exact:+.6f}), "
      f"residual {system.residual:.2e}")

# --- relu network energy: no closed form, report the converged shape ------
relu = relu_preset()
system = solve_self_consistent(relu)
pibar = system.mean_measure
print(f"relu model:       mean {float(pibar.mean()[0]):+.6f}, "
      f"variance {float(pibar.covariance()[0, 0]):.6f}, "
      f"{system.iterations} iterations, residual {system.residual:.2e}")

# --- heterogeneous tilted system: each particle sees its own quadratic ----
tilted_model = rescale_model(relu_preset())
tilt = TiltSpec(t=0.5, y=np.array([[1.0], [-1.0]]))
system = solve_self_consistent(tilted_model, tilt=tilt)
for i, p in enumerate(system.per_particle):
    print(f"tilted particle {i}: mean {float(p.mean()[0]):+.6f}, "
          f"variance {float(p.covariance()[0, 0]):.6f}")
print(f"tilted system residual {system.residual:.2e} "
      f"after {system.iterations} iterations")
