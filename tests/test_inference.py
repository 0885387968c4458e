import numpy as np
import pytest
from scipy.special import ndtri

from netmoments import (EDGE, TRIANGLE, DegeneracyError, compute_stats,
                        confidence_interval, one_sample_test, sample_graph)
from netmoments.moments import MomentStats

from conftest import paper_block_model, random_graph


def synthetic_stats(u_hat=0.5, s_hat_sq=0.01, xi1_sq=None, e3=0.0, e112=0.0,
                    n=100, motif=TRIANGLE):
    r = motif.r
    xi1_sq = n * s_hat_sq / r ** 2 if xi1_sq is None else xi1_sq
    return MomentStats(
        n=n, motif=motif, u_hat=u_hat, s_hat_sq=s_hat_sq,
        g1_hat=np.zeros(n), g2_hat=np.zeros((n, n)),
        xi1_hat_sq=xi1_sq, e_g1_cubed=e3, e_g1g1g2=e112,
        degenerate=(s_hat_sq == 0.0),
    )


class TestOneSampleTest:
    def test_null_at_observed(self):
        stats = synthetic_stats(e3=0.2, e112=0.05)
        res = one_sample_test(stats, c_n=stats.u_hat)
        assert res.t_obs == 0.0
        assert res.p_value <= 1.0

    def test_zero_corrections_give_exact_one(self):
        stats = synthetic_stats()
        res = one_sample_test(stats, c_n=stats.u_hat)
        assert res.p_value == 1.0

    def test_p_value_in_unit_interval(self):
        stats = synthetic_stats(e3=0.3, e112=0.1)
        for c in np.linspace(0.3, 0.7, 21):
            res = one_sample_test(stats, float(c))
            assert 0.0 <= res.p_value <= 1.0

    def test_p_continuous_and_peaked_at_u_hat(self):
        # With zero corrections the p-value is maximal at c_n = u_hat.
        stats = synthetic_stats()
        peak = one_sample_test(stats, stats.u_hat).p_value
        grid = np.linspace(stats.u_hat - 0.1, stats.u_hat + 0.1, 41)
        ps = [one_sample_test(stats, float(c)).p_value for c in grid]
        assert max(ps) == pytest.approx(peak)
        assert np.abs(np.diff(ps)).max() < 0.15  # no jumps on a fine grid

    def test_one_sided_tails_sum_to_one(self):
        stats = synthetic_stats(e3=0.2, e112=0.03)
        for c in (0.45, 0.5, 0.58):
            lo = one_sample_test(stats, c, alternative="less").p_value_raw
            hi = one_sample_test(stats, c, alternative="greater").p_value_raw
            assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        stats = synthetic_stats(s_hat_sq=0.0)
        with pytest.raises(DegeneracyError):
            one_sample_test(stats, 0.5)

    def test_unknown_alternative(self):
        with pytest.raises(ValueError, match="alternative"):
            one_sample_test(synthetic_stats(), 0.5, alternative="both")

    @pytest.mark.parametrize("c_n", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_null_rejected(self, c_n):
        # max(0.0, nan) is 0.0: a NaN null would otherwise reject at every level.
        with pytest.raises(ValueError, match="c_n"):
            one_sample_test(synthetic_stats(e3=0.2, e112=0.05), c_n)


class TestConfidenceInterval:
    def test_zero_corrections_equal_normal(self):
        stats = synthetic_stats()
        ci_e = confidence_interval(stats, 0.2, method="edgeworth")
        ci_n = confidence_interval(stats, 0.2, method="normal")
        assert ci_e.lo == pytest.approx(ci_n.lo, abs=1e-12)
        assert ci_e.hi == pytest.approx(ci_n.hi, abs=1e-12)

    def test_lengths_equal_and_shift_matches_correction(self):
        stats = synthetic_stats(e3=0.4, e112=0.1)
        ci_e = confidence_interval(stats, 0.2, method="edgeworth")
        ci_n = confidence_interval(stats, 0.2, method="normal")
        assert ci_e.length == pytest.approx(ci_n.length, abs=1e-12)
        assert ci_n.length == pytest.approx(
            (ndtri(0.9) - ndtri(0.1)) * stats.s_hat, abs=1e-12)
        # The Edgeworth interval is the normal one shifted by the
        # (even-in-z) quantile correction times s_hat.
        shift = ci_e.lo - ci_n.lo
        assert ci_e.hi - ci_n.hi == pytest.approx(shift, abs=1e-12)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                confidence_interval(synthetic_stats(), bad)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            confidence_interval(synthetic_stats(s_hat_sq=0.0), 0.2)

    def test_symmetric_interval_always_ordered(self):
        # The quantile correction is even in z, so it cancels between the
        # alpha/2 and 1-alpha/2 endpoints: even wild corrections cannot
        # invert the symmetric interval.
        stats = synthetic_stats(e3=-80.0, e112=30.0, n=9, motif=EDGE, s_hat_sq=0.04)
        for alpha in (0.05, 0.2, 0.5, 0.9):
            ci = confidence_interval(stats, alpha, method="edgeworth")
            assert ci.lo < ci.hi
            assert ci.note is None

    def test_quantile_monotonicity_can_fail_off_symmetric_pairs(self):
        # Why the defensive swap exists: with huge corrections the raw
        # Cornish-Fisher quantile is not monotone in alpha.
        from netmoments import EdgeworthCoefficients, cornish_fisher_quantile
        c = EdgeworthCoefficients(xi1=1.0, e_g1_cubed=-80.0, e_g1g1g2=0.0,
                                  r=2, n=9, provenance="population")
        qs = [cornish_fisher_quantile(c, a) for a in np.linspace(0.05, 0.95, 19)]
        assert (np.diff(qs) < 0).any()

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(3)
        A = random_graph(rng, 12)
        perm = rng.permutation(12)
        for motif in (EDGE, TRIANGLE):
            ci_a = confidence_interval(compute_stats(A, motif), 0.2)
            ci_b = confidence_interval(compute_stats(A.relabeled(perm), motif), 0.2)
            assert ci_b.lo == pytest.approx(ci_a.lo, abs=1e-12)
            assert ci_b.hi == pytest.approx(ci_a.hi, abs=1e-12)

    def test_sampled_graph_end_to_end(self):
        bm = paper_block_model()
        A = sample_graph(bm, 60, 1.0, seed=77)
        stats = compute_stats(A, TRIANGLE)
        ci = confidence_interval(stats, 0.2)
        assert ci.lo < stats.u_hat < ci.hi
        res = one_sample_test(stats, c_n=ci.lo)
        assert res.p_value <= 0.5
