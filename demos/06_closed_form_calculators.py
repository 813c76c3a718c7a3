#!/usr/bin/env python3
"""Tour of the closed-form constant calculators.

Everything here is exact arithmetic: transport-map Lipschitz estimates,
log-Sobolev constants under Lipschitz perturbations, the infinity-
Wasserstein shift, the comparison bound from concurrent work, and the
parameter substitution of the coordinate rescaling.  Asymptotic
estimates evaluate their unspecified universal constants as 1, which is
a visible knob rather than a claim.
"""

from mflab.bounds import (
    heatflow_lipschitz_bound,
    lsi_pert_bound,
    lsi_pi_bound,
    main_bound,
    rescale_parameters,
    songbo_bound,
    winf_bound,
)
from mflab.model import model_constants
from mflab.presets import relu_preset

print(__doc__)

model = relu_preset()
consts = model_constants(model)
print(f"relu preset constants: beta_hat = {consts.beta_hat}, "
      f"B = {consts.B}, L_ell = {model.loss.L_ell}")

print("\ntransport-map estimates (unit implied constants):")
print(f"  generic            {main_bound(consts, 'generic'):.4g}")
print(f"  refined            "
      f"{main_bound(consts, 'specific', include_cross_term=False):.4g}")
print(f"  refined w/ cross   "
      f"{main_bound(consts, 'specific', include_cross_term=True):.4g}")

print("\nenvelope-driven Lipschitz bound:")
print(f"  no perturbation, a=3:      {heatflow_lipschitz_bound(3.0, []):.4g}")
print(f"  one term (C=2, k=2), a=1:  "
      f"{heatflow_lipschitz_bound(1.0, [(2.0, 2.0)]):.4g}")

alpha = 2.0 * consts.lam / consts.sigma**2
lip = 2.0 * consts.B / consts.sigma**2
print("\nfunctional-inequality constants:")
print(f"  LSI of the mean-field fixed point  <= {lsi_pi_bound(consts):.4g}")
print(f"  LSI under the {lip:.0f}-Lipschitz tilt     "
      f"<= {lsi_pert_bound(alpha, lip):.4g}")
print(f"  Winf shift of the same tilt        <= {winf_bound(alpha, lip):.4g}")

print("\ncomparison bound from concurrent work (kappa=0.25, eps=0.3):")
for n in (2, 8, 32, 128):
    val = songbo_bound(0.25, d=1, epsilon=0.3, rho=1.0, N=n)
    print(f"  N={n:<4d} -> {val:.4f}")

scaled = rescale_parameters(consts)
print(f"\nrescaled parameters: beta_hat {consts.beta_hat} -> "
      f"{scaled.beta_hat}, B {consts.B} -> {scaled.B}, "
      f"lam {consts.lam} -> {scaled.lam}")
