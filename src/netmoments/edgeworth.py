"""One-term Edgeworth expansion, Cornish-Fisher quantiles, and rate bound.

The expansion refines the normal approximation of the studentized
moment by an order ``n^(-1/2)`` skewness correction built from three
scalar coefficients (population or plug-in estimates):

    G(x) = Phi(x) + phi(x) / (sqrt(n) * xi1^3)
           * { (2x^2+1)/6 * E[g1^3] + (r-1)/2 * (x^2+1) * E[g1 g1 g2] }

``G`` is generally not a valid CDF; quantile work goes through the
Cornish-Fisher inversion instead of clamping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegeneracyError
from .motif import Motif

__all__ = [
    "EdgeworthCoefficients",
    "expansion_cdf",
    "cornish_fisher_quantile",
    "rate_bound",
    "check_expansion_applicability",
    "DEFAULT_GRID",
]

# Lattice u in [-2, 2] with 10u integer; read-only, as every truth shares it.
DEFAULT_GRID = np.round(np.arange(-20, 21) / 10.0, 1)
DEFAULT_GRID.setflags(write=False)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class EdgeworthCoefficients:
    """The scalar inputs of the expansion, population values or plug-in
    estimates alike."""

    xi1: float
    e_g1_cubed: float
    e_g1g1g2: float
    r: int
    n: int

    def __post_init__(self):
        if not self.xi1 > 0.0:
            raise DegeneracyError(f"xi1 must be positive, got {self.xi1}")
        if not (2 <= self.r <= self.n):
            raise ValueError(f"need n >= r >= 2, got r={self.r}, n={self.n}")

    @classmethod
    def from_moment_stats(cls, stats) -> "EdgeworthCoefficients":
        """Plug-in coefficients from a :class:`~netmoments.moments.MomentStats`."""
        if stats.degenerate or stats.xi1_hat_sq <= 0.0:
            raise DegeneracyError(
                "degenerate sample (zero variance estimate); cannot studentize")
        return cls(
            xi1=math.sqrt(stats.xi1_hat_sq),
            e_g1_cubed=stats.e_g1_cubed,
            e_g1g1g2=stats.e_g1g1g2,
            r=stats.motif.r,
            n=stats.n,
        )


def _correction(c: EdgeworthCoefficients, x: np.ndarray) -> np.ndarray:
    bracket = ((2.0 * x * x + 1.0) / 6.0 * c.e_g1_cubed
               + (c.r - 1) / 2.0 * (x * x + 1.0) * c.e_g1g1g2)
    return bracket / (math.sqrt(c.n) * c.xi1 ** 3)


def expansion_cdf(c: EdgeworthCoefficients, x):
    """Evaluate the one-term expansion at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    out = ndtr(x) + _phi(x) * _correction(c, x)
    return float(out) if out.ndim == 0 else out


def cornish_fisher_quantile(c: EdgeworthCoefficients, alpha):
    """Cornish-Fisher approximation of the lower-``alpha`` quantile.

    ``q_alpha = z_alpha - correction(z_alpha)``: the inversion of the
    one-term expansion, with ``z_alpha`` the normal quantile.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if not ((alpha > 0.0) & (alpha < 1.0)).all():
        raise ValueError("alpha must lie strictly inside (0, 1)")
    z = ndtri(alpha)
    out = z - _correction(c, z)
    return float(out) if out.ndim == 0 else out


def rate_bound(rho: float, n: int, motif: Motif) -> float:
    """Shape-dependent theoretical error-rate bound of the expansion.

    Acyclic motifs: ``(rho*n)^-1 * log^(1/2) n + n^-1 * log^(3/2) n``;
    cyclic motifs replace the first factor by ``rho^(-r/2) * n^-1``.
    Natural logarithm.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    log_n = math.log(n)
    tail = math.sqrt(log_n) * log_n / n
    if motif.shape_class == "acyclic":
        return math.sqrt(log_n) / (rho * n) + tail
    return rho ** (-motif.r / 2.0) * math.sqrt(log_n) / n + tail


def check_expansion_applicability(rho: float, n: int) -> bool:
    """Warn when the sparsity route of the theory does not clearly apply.

    The higher-order guarantee needs either enough sparsity
    (``rho <= 1/log(max(n, 3))``) to self-smooth a lattice projection,
    or a non-lattice projection, which is not checked here.  The
    expansion is computed regardless; this only surfaces the caveat.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    limit = 1.0 / math.log(max(n, 3))
    if rho <= limit:
        return True
    warnings.warn(
        f"rho={rho:.4g} exceeds 1/log(max(n, 3))={limit:.4g}; unless the projection "
        "is non-lattice, the expansion's higher-order guarantee may not apply",
        UserWarning, stacklevel=2)
    return False
