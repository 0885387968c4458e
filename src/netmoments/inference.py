"""One-sample moment tests and Cornish-Fisher confidence intervals."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.special import ndtri

from .edgeworth import EdgeworthCoefficients, cornish_fisher_quantile, expansion_cdf
from .moments import MomentStats

__all__ = ["TestResult", "ConfidenceInterval", "one_sample_test", "confidence_interval"]


@dataclass(frozen=True)
class TestResult:
    """Outcome of the one-sample moment test against a null value ``c_n``."""

    t_obs: float
    p_value: float
    c_n: float
    u_hat: float
    s_hat: float
    alternative: str
    p_value_raw: float  # before clamping to [0, 1]; the expansion is not a true CDF


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    alpha: float
    method: str
    note: str | None = None

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def covers(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def one_sample_test(stats: MomentStats, c_n: float,
                    alternative: str = "two-sided") -> TestResult:
    """Test ``H0: mu_n = c_n`` using the empirical expansion of the CDF.

    Two-sided p-value: ``2 * min(G_hat(t), 1 - G_hat(t))`` at the
    observed studentized statistic; one-sided variants use the
    corresponding tail directly.  Values are clamped to [0, 1] (the raw
    value is kept) because the expansion can leave [0, 1] in the tails.
    A null that is not finite raises ``ValueError``, and a degenerate
    sample ``DegeneracyError``.
    """
    if not math.isfinite(c_n):
        raise ValueError(f"c_n must be finite, got {c_n}")
    coeffs = EdgeworthCoefficients.from_moment_stats(stats)
    t_obs = (stats.u_hat - c_n) / stats.s_hat
    g = float(expansion_cdf(coeffs, t_obs))
    if alternative == "two-sided":
        raw = 2.0 * min(g, 1.0 - g)
    elif alternative == "greater":
        raw = 1.0 - g
    elif alternative == "less":
        raw = g
    else:
        raise ValueError(f"unknown alternative {alternative!r}")
    return TestResult(
        t_obs=t_obs, p_value=min(1.0, max(0.0, raw)), c_n=c_n,
        u_hat=stats.u_hat, s_hat=stats.s_hat,
        alternative=alternative, p_value_raw=raw,
    )


def confidence_interval(stats: MomentStats, alpha: float,
                        method: str = "edgeworth") -> ConfidenceInterval:
    """Two-sided symmetric ``1 - alpha`` confidence interval for ``mu_n``.

    ``method="edgeworth"`` uses Cornish-Fisher quantiles,
    ``(U_hat - q_{1-a/2} * S_hat, U_hat - q_{a/2} * S_hat)``; because the
    quantile correction is even in ``z`` this has exactly the normal
    interval's length and differs by a mean shift.  ``method="normal"``
    is the plain z interval.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    coeffs = EdgeworthCoefficients.from_moment_stats(stats)  # raises if degenerate
    if method == "edgeworth":
        q_lo = cornish_fisher_quantile(coeffs, alpha / 2.0)
        q_hi = cornish_fisher_quantile(coeffs, 1.0 - alpha / 2.0)
    elif method == "normal":
        q_lo = float(ndtri(alpha / 2.0))
        q_hi = float(ndtri(1.0 - alpha / 2.0))
    else:
        raise ValueError(f"unknown method {method!r}; use 'edgeworth' or 'normal'")
    lo = stats.u_hat - q_hi * stats.s_hat
    hi = stats.u_hat - q_lo * stats.s_hat
    note = None
    if lo > hi:
        # Possible only when the correction overwhelms the normal term
        # (tiny n with huge skew); keep a valid interval and say so.
        lo, hi = hi, lo
        note = "quantile order inverted by the correction; endpoints swapped"
        warnings.warn(note, UserWarning, stacklevel=2)
    return ConfidenceInterval(lo=lo, hi=hi, alpha=alpha, method=method, note=note)
