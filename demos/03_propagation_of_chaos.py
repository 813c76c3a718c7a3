#!/usr/bin/env python3
"""Estimating KL(mu^{1:N} || pi^{xN}) and comparing it to closed-form bounds.

The estimator never touches an intractable density ratio: the N-particle
measure differs from the product of mean-field marginals exactly by the
Bregman-divergence factor w = exp(-(2N/sigma^2) B), so i.i.d. draws from
the product give the whole KL by self-normalized importance sampling,

    KL = E_mu[log w] - log E_pi[w],   E_mu[f] = E_pi[w f] / E_pi[w].

MALA chains on the N-particle measure run at the smallest N only, as an
independent cross-check of E_mu[B].  The table compares the estimates
with both chaos bounds: the estimates stay flat in N (with the quadratic
model's exact value independent of N), far below either bound.
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
    reports = chaos_sweep(model, [2, 4, 8, 16], mcmc=mcmc, seed=0)
    for r in reports:
        print(f"{r.n_particles:>3} {r.kl_estimate:>9.4f} "
              f"{r.kl_halfwidth:>8.4f} {r.bound_poc:>8.3g} "
              f"{r.bound_poc_ii:>9.3g}")
    first = reports[0]
    print(f"MALA cross-check at N={first.n_particles}: E_mu[B] "
          f"{first.mala_bregman_mean:.5f} +- "
          f"{first.mala_bregman_halfwidth:.5f} (MALA) vs "
          f"{first.bregman_mean_under_mu:.5f} +- "
          f"{first.bregman_mu_halfwidth:.5f} (IS)")
    print("flags at the smallest N:", first.flags)
