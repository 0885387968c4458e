import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from netmoments import (EDGE, TRIANGLE, DegeneracyError, EdgeworthCoefficients,
                        cornish_fisher_quantile, expansion_cdf, rate_bound)
from netmoments.edgeworth import DEFAULT_GRID, check_expansion_applicability


def coeffs(xi1=1.0, e3=0.0, e112=0.0, r=3, n=100):
    return EdgeworthCoefficients(xi1=xi1, e_g1_cubed=e3, e_g1g1g2=e112, r=r, n=n)


class TestExpansionCdf:
    def test_zero_correction_is_normal(self):
        c = coeffs()
        x = np.linspace(-4, 4, 33)
        assert np.allclose(expansion_cdf(c, x), ndtr(x), atol=0.0)
        assert expansion_cdf(c, 0.0) == 0.5

    def test_hand_computed_value(self):
        # r=3, n=100, xi1=1, E[g1^3]=0.6, corrections at x=0:
        # 0.5 + phi(0)/10 * (0.6/6) = 0.50398942280...
        c = coeffs(e3=0.6)
        assert expansion_cdf(c, 0.0) == pytest.approx(0.5039894228040143, abs=1e-9)

    def test_tail_limits(self):
        c = coeffs(e3=0.4, e112=0.2)
        assert expansion_cdf(c, -40.0) == pytest.approx(0.0, abs=1e-12)
        assert expansion_cdf(c, 40.0) == pytest.approx(1.0, abs=1e-12)

    def test_correction_shrinks_like_sqrt_n(self):
        # The deviation from the normal CDF scales exactly as n^(-1/2).
        x = np.linspace(-2, 2, 41)
        d1 = expansion_cdf(coeffs(e3=0.5, n=50), x) - ndtr(x)
        d2 = expansion_cdf(coeffs(e3=0.5, n=200), x) - ndtr(x)
        assert np.allclose(d2, d1 / 2.0, atol=1e-15)

    def test_clamp_is_opt_in(self):
        # Oversized corrections push the expansion out of [0, 1], and it
        # is returned as it is: only `edgeworth --clamp` clips, for plots.
        assert expansion_cdf(coeffs(e3=-40.0, n=9, r=2), -2.5) < 0.0
        assert expansion_cdf(coeffs(e3=40.0, n=9, r=2), -1.5) > 1.0

    def test_degenerate_xi_rejected(self):
        with pytest.raises(DegeneracyError):
            coeffs(xi1=0.0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="n >= r"):
            coeffs(r=5, n=3)


class TestCornishFisher:
    def test_zero_correction_is_z(self):
        c = coeffs()
        for a in (0.025, 0.2, 0.5, 0.9):
            assert cornish_fisher_quantile(c, a) == pytest.approx(float(ndtri(a)), abs=0.0)
        assert cornish_fisher_quantile(c, 0.5) == 0.0

    def test_alpha_validation(self):
        c = coeffs()
        for bad in (0.0, 1.0, -0.1, 1.1, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="alpha"):
                cornish_fisher_quantile(c, bad)

    def test_symmetric_pair_identity(self):
        # z-evenness: q(a) + q(1-a) = -2 * correction(z_a).
        c = coeffs(e3=0.3, e112=0.1, n=64)
        for a in (0.05, 0.1, 0.25):
            q_lo = cornish_fisher_quantile(c, a)
            q_hi = cornish_fisher_quantile(c, 1 - a)
            corr = float(ndtri(a)) - q_lo
            assert q_lo + q_hi == pytest.approx(-2 * corr, abs=1e-12)

    def test_consistency_with_bisection(self):
        # Root-finding on the expansion is the oracle: the closed-form
        # quantile may differ from the exact root only at O(1/n).
        for n in (50, 100, 200):
            c = coeffs(e3=0.4, e112=0.15, n=n)
            for a in (0.1, 0.5, 0.9):
                q_hat = cornish_fisher_quantile(c, a)
                q_star = brentq(lambda x: expansion_cdf(c, x) - a, -10, 10, xtol=1e-13)
                resid = abs(expansion_cdf(c, q_hat) - a)
                assert resid <= abs(expansion_cdf(c, q_hat) - expansion_cdf(c, q_star)) + 1e-9
                assert abs(q_hat - q_star) <= 30.0 / n

    def test_deviation_bound(self):
        # |q_hat - z| is the correction itself, bounded via coefficient sizes.
        c = coeffs(e3=0.4, e112=0.15, n=400, r=3)
        for a in (0.05, 0.3, 0.7):
            z = float(ndtri(a))
            bound = ((2 * z * z + 1) / 6 * abs(c.e_g1_cubed)
                     + (c.r - 1) / 2 * (z * z + 1) * abs(c.e_g1g1g2))
            bound /= math.sqrt(c.n) * c.xi1 ** 3
            assert abs(cornish_fisher_quantile(c, a) - z) <= bound + 1e-15


class TestRateBound:
    def test_acyclic_value(self):
        v = rate_bound(1.0, 100, EDGE)
        log_n = math.log(100)
        expected = math.sqrt(log_n) / 100 + log_n ** 1.5 / 100
        assert v == pytest.approx(expected, abs=1e-15)
        assert v == pytest.approx(0.12028, abs=1e-4)

    def test_cyclic_equals_acyclic_at_rho_one(self):
        assert rate_bound(1.0, 100, TRIANGLE) == pytest.approx(
            rate_bound(1.0, 100, EDGE), abs=1e-15)

    def test_monotone_in_rho(self):
        vals = [rate_bound(rho, 200, EDGE) for rho in (1.0, 0.5, 0.2, 0.05)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_cyclic_sparsity_blows_up_faster(self):
        assert rate_bound(0.1, 200, TRIANGLE) > rate_bound(0.1, 200, EDGE)

    def test_acyclic_dense_limit_ratio(self):
        # With rho = 1 the bound is log^(3/2)n/n * (1 + 1/log n): the
        # normalized ratio approaches 1 from above.
        ratios = []
        for n in (10_000, 1_000_000, 10 ** 9):
            v = rate_bound(1.0, n, EDGE)
            ratio = v * n / math.log(n) ** 1.5
            assert ratio == pytest.approx(1.0 + 1.0 / math.log(n), abs=1e-12)
            ratios.append(ratio)
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rho"):
            rate_bound(0.0, 100, EDGE)
        with pytest.raises(ValueError, match="n >= 3"):
            rate_bound(1.0, 2, EDGE)


class TestGridHelpers:
    def test_default_grid_lattice(self):
        assert DEFAULT_GRID[0] == -2.0 and DEFAULT_GRID[-1] == 2.0
        assert len(DEFAULT_GRID) == 41
        assert np.allclose(np.diff(DEFAULT_GRID), 0.1)
        assert not DEFAULT_GRID.flags.writeable  # every truth shares it


class TestApplicability:
    def test_sparse_enough_passes(self):
        assert check_expansion_applicability(rho=0.05, n=100)

    def test_dense_without_assertion_warns(self):
        with pytest.warns(UserWarning, match="non-lattice"):
            assert not check_expansion_applicability(rho=1.0, n=100)

    def test_message_names_the_limit_it_applies(self):
        # At n = 2 the limit is 1/log 3, not 1/log 2 = 1.443, which rho = 1 is below.
        limit = f"{1 / math.log(3):.4g}"
        with pytest.warns(UserWarning, match=re.escape(f"exceeds 1/log(max(n, 3))={limit};")):
            assert not check_expansion_applicability(rho=1.0, n=2)
        assert check_expansion_applicability(rho=1 / math.log(3), n=2)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_nodes_rejected(self, n):
        with pytest.raises(ValueError, match=f"need n >= 2, got {n}"):
            check_expansion_applicability(rho=0.5, n=n)
