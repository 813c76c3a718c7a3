#!/usr/bin/env python3
"""Estimating KL(mu^{1:N} || pi^{xN}) and comparing it to closed-form bounds.

The estimator never touches an intractable density ratio: the N-particle
measure differs from the product of mean-field marginals exactly by the
Bregman-divergence factor exp(-(2N/sigma^2) B), so

    KL = -(2N/sigma^2) E_mu[B] - log E_pi[exp(-(2N/sigma^2) B)].

The first expectation comes from MALA chains, the second from i.i.d.
product draws.  The table compares the estimates with both chaos bounds:
the estimates stay flat in N (with the quadratic model's exact value
independent of N), far below either bound.
"""

import math

from mflab.chaos import McmcConfig, chaos_sweep
from mflab.presets import quadratic_preset, relu_preset

print(__doc__)

mcmc = McmcConfig(n_samples=8000, n_burnin=1500, n_pi_samples=16000)

kappa, lam = 0.5, 1.0
kl_exact = 0.5 * (math.log(1 + kappa / lam) - kappa / (lam + kappa))

for name, model in (("quadratic", quadratic_preset()), ("relu", relu_preset())):
    print(f"\nmodel: {name}")
    header = f"{'N':>3} {'KL est':>9} {'+-':>8} {'bound':>8} {'bound-II':>9}"
    if name == "quadratic":
        header += f"  (exact {kl_exact:.4f} for every N)"
    print(header)
    for r in chaos_sweep(model, [2, 4, 8, 16], mcmc=mcmc, seed=0):
        print(f"{r.n_particles:>3} {r.kl_estimate:>9.4f} "
              f"{r.kl_halfwidth:>8.4f} {r.bound_poc:>8.3g} "
              f"{r.bound_poc_ii:>9.3g}")
    print("proof-chain flags on the last run:", r.flags)
