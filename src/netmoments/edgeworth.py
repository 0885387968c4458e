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

import csv
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
    "evaluate_on_grid",
    "write_grid_csv",
    "check_expansion_applicability",
    "DEFAULT_GRID",
]

# Lattice u in [-2, 2] with 10u integer.
DEFAULT_GRID = np.round(np.arange(-20, 21) / 10.0, 1)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class EdgeworthCoefficients:
    """The scalar inputs of the expansion.

    ``provenance`` records whether the coefficients are population
    values or plug-in estimates; the formulas are identical.
    """

    xi1: float
    e_g1_cubed: float
    e_g1g1g2: float
    r: int
    n: int
    provenance: str = "empirical"

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
            provenance="empirical",
        )


def _correction(c: EdgeworthCoefficients, x: np.ndarray) -> np.ndarray:
    bracket = ((2.0 * x * x + 1.0) / 6.0 * c.e_g1_cubed
               + (c.r - 1) / 2.0 * (x * x + 1.0) * c.e_g1g1g2)
    return bracket / (math.sqrt(c.n) * c.xi1 ** 3)


def expansion_cdf(c: EdgeworthCoefficients, x, clamp: bool = False):
    """Evaluate the one-term expansion at ``x`` (scalar or array).

    ``clamp`` clips the result to [0, 1] for plotting only; quantile
    and p-value code works with the raw value.
    """
    x = np.asarray(x, dtype=np.float64)
    out = ndtr(x) + _phi(x) * _correction(c, x)
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def cornish_fisher_quantile(c: EdgeworthCoefficients, alpha):
    """Cornish-Fisher approximation of the lower-``alpha`` quantile.

    ``q_alpha = z_alpha - correction(z_alpha)``: the inversion of the
    one-term expansion, with ``z_alpha`` the normal quantile.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if (alpha <= 0.0).any() or (alpha >= 1.0).any():
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


def evaluate_on_grid(c: EdgeworthCoefficients, grid=None,
                     clamp: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Expansion values on a grid (default: the -2..2 lattice, step 0.1)."""
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    return grid, expansion_cdf(c, grid, clamp=clamp)


def write_grid_csv(path, grid, values) -> None:
    """Write (x, value) rows as CSV for plotting."""
    grid = np.asarray(grid)
    values = np.asarray(values)
    if grid.shape != values.shape:
        raise ValueError("grid and values must have equal length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for x, v in zip(grid, values):
            writer.writerow([repr(float(x)), repr(float(v))])


def check_expansion_applicability(rho: float, n: int,
                                  assume_non_lattice: bool = False) -> bool:
    """Warn when neither theoretical smoothing route clearly applies.

    The higher-order guarantee needs either enough sparsity
    (``rho = O(1/log n)``) to self-smooth a lattice projection, or a
    non-lattice projection asserted by the user.  The expansion is
    computed regardless; this only surfaces the caveat.
    """
    if assume_non_lattice or rho <= 1.0 / math.log(max(n, 3)):
        return True
    warnings.warn(
        f"rho={rho:.4g} exceeds 1/log(n)={1.0 / math.log(n):.4g} and the "
        "projection was not asserted non-lattice; the expansion's "
        "higher-order guarantee may not apply",
        UserWarning, stacklevel=2)
    return False
