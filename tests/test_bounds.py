"""Exact-value regression for every closed-form calculator."""

import math

import numpy as np
import pytest

from mflab.bounds import (
    BoundInputs,
    generic_exponent_terms,
    heatflow_lipschitz_bound,
    lsi_pert_bound,
    lsi_pi_bound,
    main_bound,
    rescale_parameters,
    songbo_bound,
    winf_bound,
)
from mflab.errors import AlreadyRescaledError, CalculatorDomainError

from _oracles import heat_flow_integral_quadrature, log_term_integral_quadrature

REL = 1e-12


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-300)


class TestHeatflowLipschitzBound:
    def test_no_terms_a0(self):
        assert close(heatflow_lipschitz_bound(0.0, []), 1.0)

    def test_no_terms_a3(self):
        assert close(heatflow_lipschitz_bound(3.0, []), 0.5)

    def test_single_term(self):
        got = heatflow_lipschitz_bound(1.0, [(2.0, 2.0)])
        assert close(got, math.exp(0.5) / math.sqrt(2.0))

    def test_divergent_exponent_rejected(self):
        with pytest.raises(CalculatorDomainError):
            heatflow_lipschitz_bound(1.0, [(1.0, 1.0)])

    def test_exponent_matches_quadrature(self):
        # log L + (1/2) log(a+1) must equal C times the numerically
        # integrated kernel for a single envelope term.
        for a in (0.5, 1.0, 3.0):
            for c, k in [(2.0, 1.5), (1.0, 2.0), (0.7, 3.0)]:
                lhs = math.log(heatflow_lipschitz_bound(a, [(c, k)]))
                lhs += 0.5 * math.log(a + 1.0)
                rhs = c * heat_flow_integral_quadrature(a + 1.0, k)
                assert abs(lhs - rhs) < 1e-6


class TestHeatflowIntegralIdentities:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 4.0])
    def test_generic_integral(self, alpha, k):
        exact = 1.0 / (2.0 * (k - 1.0) * alpha ** (k - 1.0))
        got = heat_flow_integral_quadrature(alpha, k)
        assert abs(got - exact) < 1e-6

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_log_term_integral(self, alpha):
        exact = -0.5 * math.log(alpha)
        got = log_term_integral_quadrature(alpha)
        assert abs(got - exact) < 1e-6


class TestMainBound:
    def test_no_perturbation(self):
        inputs = BoundInputs(sigma=1.3, lam=0.7, beta_hat=0.0, B=0.0)
        assert close(main_bound(inputs, "generic"), 1.3 / math.sqrt(0.7))

    def test_unit_parameters(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=1.0, B=0.0, d=1)
        assert close(main_bound(inputs, "generic"), math.e)

    def test_monotone_in_beta_b_d(self):
        base = BoundInputs(sigma=1.0, lam=1.0, beta_hat=0.5, B=0.5, d=1)
        v0 = main_bound(base, "generic")
        import dataclasses

        assert main_bound(dataclasses.replace(base, beta_hat=0.6), "generic") > v0
        assert main_bound(dataclasses.replace(base, B=0.6), "generic") > v0
        assert main_bound(dataclasses.replace(base, d=2), "generic") > v0

    def test_specific_exponent_terms(self):
        # With feature constants L_h, L_ell, beta_ell, so beta_hat =
        # L_h^2 beta_ell and B = L_h L_ell, the three-term exponent is
        # L_h^2 beta_ell/lam + L_h^2 L_ell^2/(lam s2)
        # + L_h^6 L_ell^4 beta_ell/(lam^3 s4).
        lh, lell, bell, lam, sigma = 1.5, 0.8, 0.6, 1.1, 0.9
        inputs = BoundInputs(
            sigma=sigma, lam=lam, beta_hat=lh * lh * bell, B=lh * lell, d=3)
        s2 = sigma * sigma
        expected_exp = (lh**2 * bell / lam + lh**2 * lell**2 / (lam * s2)
                        + lh**6 * lell**4 * bell / (lam**3 * s2 * s2))
        got = main_bound(inputs, "specific", include_cross_term=False)
        assert close(got, sigma / math.sqrt(lam) * math.exp(expected_exp))

    def test_specific_never_exceeds_generic(self):
        # The refined estimate drops dimension factors, so on feature
        # models it is dominated by the generic one on a parameter grid.
        rng = np.random.default_rng(11)
        for _ in range(100):
            lh, lell, bell = rng.uniform(0.2, 2.0, 3)
            sigma, lam = rng.uniform(0.5, 2.0, 2)
            d = int(rng.integers(1, 5))
            inputs = BoundInputs(
                sigma=sigma, lam=lam, beta_hat=lh * lh * bell, B=lh * lell,
                d=d)
            spec = main_bound(inputs, "specific", include_cross_term=False)
            gen = main_bound(inputs, "generic")
            assert spec <= gen * (1.0 + 1e-12)

    def test_cross_term_toggle(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=1.0, B=1.0)
        with_cross = main_bound(inputs, "specific", include_cross_term=True)
        without = main_bound(inputs, "specific", include_cross_term=False)
        assert with_cross >= without


class TestLsiPerturbation:
    def test_no_lipschitz_part(self):
        assert close(lsi_pert_bound(2.0, 0.0), 0.5)

    def test_unit_case(self):
        assert close(lsi_pert_bound(1.0, 1.0), math.exp(5.0))

    def test_alpha4_l2(self):
        assert close(lsi_pert_bound(4.0, 2.0), math.exp(5.0) / 4.0)

    def test_domain(self):
        with pytest.raises(CalculatorDomainError):
            lsi_pert_bound(0.0, 1.0)


class TestLsiPi:
    def test_gaussian_case(self):
        inputs = BoundInputs(sigma=1.2, lam=0.8, beta_hat=0.0, B=0.0)
        assert close(lsi_pi_bound(inputs), 1.44 / 1.6)

    def test_unit_case(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=1.0, B=1.0)
        assert close(lsi_pi_bound(inputs),
                     0.5 * math.exp(2.0 + 4.0 * math.sqrt(2.0)))

    def test_sigma_scaling_at_b0(self):
        a = BoundInputs(sigma=1.0, lam=1.0, beta_hat=0.0, B=0.0)
        b = BoundInputs(sigma=2.0, lam=1.0, beta_hat=0.0, B=0.0)
        assert close(lsi_pi_bound(b), 4.0 * lsi_pi_bound(a))


class TestSongbo:
    def test_kappa0_eps_half(self):
        assert close(songbo_bound(0.0, 1, 0.5, 1.0, 4), 2.0)

    def test_kappa0_eps_to_zero(self):
        got = songbo_bound(0.0, 1, 1e-9, 1.0, 4)
        assert abs(got - 1.0) < 1e-6

    def test_increasing_in_kappa(self):
        vals = [songbo_bound(k, 2, 0.3, 1.0, 64) for k in np.linspace(0, 1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_vacuous_denominator_rejected(self):
        with pytest.raises(CalculatorDomainError):
            songbo_bound(3.0, 1, 0.1, 1.0, 4)


class TestWinf:
    def test_zero_lipschitz(self):
        assert winf_bound(2.0, 0.0) == 0.0

    def test_ratio(self):
        assert close(winf_bound(2.0, 3.0), 1.5)

    def test_scale_invariance(self):
        assert close(winf_bound(2.0, 3.0), winf_bound(4.0, 6.0))


class TestRescaleParameters:
    def test_identity_when_lam_equals_sigma_sq(self):
        inputs = BoundInputs(sigma=1.0, lam=1.0, beta_hat=0.7, B=0.4)
        out = rescale_parameters(inputs)
        assert close(out.beta_hat, 0.7)
        assert close(out.lam, 1.0)
        assert close(out.B, 0.4)
        assert out.rescaled

    def test_substitution(self):
        inputs = BoundInputs(sigma=1.0, lam=4.0, beta_hat=1.0, B=1.0)
        out = rescale_parameters(inputs)
        assert close(out.beta_hat, 0.25)
        assert close(out.lam, 1.0)
        assert close(out.B, 0.5)

    def test_double_rescale_refused(self):
        inputs = BoundInputs(sigma=1.0, lam=4.0, beta_hat=1.0, B=1.0)
        with pytest.raises(AlreadyRescaledError):
            rescale_parameters(rescale_parameters(inputs))

    def test_exponent_invariance(self):
        # The exponent of the transport estimate is invariant under the
        # substitution; the prefactor collects the full sigma/sqrt(lam).
        inputs = BoundInputs(sigma=1.3, lam=2.5, beta_hat=0.8, B=0.9, d=2)
        out = rescale_parameters(inputs)
        np.testing.assert_allclose(
            generic_exponent_terms(inputs), generic_exponent_terms(out),
            rtol=1e-12)
        pref = inputs.sigma / math.sqrt(inputs.lam)
        assert close(main_bound(inputs, "generic"),
                     pref * main_bound(out, "generic"))
