"""Node sub-sampling and re-sampling bootstrap baselines.

Both schemes approximate the sampling distribution of the studentized
moment by replicating ``T* = (U*_b - U_hat_n) / S*_b`` over random node
draws.  Replicates with a zero variance estimate cannot be studentized;
they are dropped and counted, and the run fails if more than 10% drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import DegenerateReplicatesError
from .moments import _jackknife_from_counts, motif_counts, sample_moment, studentize
from .motif import Motif
from .rng import KeyedStreams

__all__ = ["EmpiricalCdf", "subsample_distribution", "resample_distribution"]

MAX_DROP_FRACTION = 0.10


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted bootstrap replicates with right-continuous step evaluation."""

    samples: np.ndarray
    B: int
    n_dropped: int = 0

    def __post_init__(self):
        if self.B != self.samples.size:
            raise ValueError("B must equal the number of retained samples")
        if self.B < 1:
            raise ValueError("empty replicate set")
        if (np.diff(self.samples) < 0).any():
            raise ValueError("samples must be sorted ascending")

    def evaluate(self, u):
        """F(u) = (#samples <= u) / B."""
        u = np.asarray(u, dtype=np.float64)
        out = np.searchsorted(self.samples, u, side="right") / self.B
        return float(out) if out.ndim == 0 else out

    def quantile(self, q: float) -> float:
        """Lower empirical quantile (order statistic at ceil(qB))."""
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {q}")
        k = min(self.B - 1, max(0, math.ceil(q * self.B) - 1))
        return float(self.samples[k])


def _replicate_t(A_star: AdjacencyMatrix, motif: Motif, u_full: float,
                 use_jackknife: bool) -> float | None:
    """Studentized replicate value, or None when degenerate."""
    total, per = motif_counts(A_star, motif)
    u_star, _, s_sq, _ = studentize(total, per, A_star.n, motif.r)
    if use_jackknife:
        s_sq = _jackknife_from_counts(total, per, A_star.n, motif.r)
    if s_sq == 0.0:
        return None
    return float((u_star - u_full) / math.sqrt(s_sq))


def _replicates(A: AdjacencyMatrix, motif: Motif, B: int, seed: int, label: str,
                draw, use_jackknife: bool) -> EmpiricalCdf:
    """Studentize ``B`` induced subgraphs, replicate ``b`` on the nodes ``draw(rng)``.

    ``rng`` is replicate ``b``'s own stream ``(seed, label, b)``.
    Degenerate replicates are dropped and counted.
    """
    if B < 1:
        raise ValueError(f"need at least one replicate, got B={B}")
    u_full = sample_moment(A, motif)
    streams = KeyedStreams()
    values = []
    for b in range(B):
        t = _replicate_t(A.induced(draw(streams(seed, label, b))), motif, u_full,
                         use_jackknife)
        if t is not None:
            values.append(t)
    dropped = B - len(values)
    if dropped > MAX_DROP_FRACTION * B:
        raise DegenerateReplicatesError(
            f"{dropped} of {B} bootstrap replicates were degenerate "
            f"(> {MAX_DROP_FRACTION:.0%})", n_dropped=dropped, n_total=B)
    return EmpiricalCdf(samples=np.sort(np.asarray(values)), B=len(values),
                        n_dropped=dropped)


def subsample_distribution(A: AdjacencyMatrix, motif: Motif, n_star: int,
                           B: int, seed: int,
                           use_jackknife: bool = False) -> EmpiricalCdf:
    """Node sub-sampling: each replicate draws ``n_star`` distinct nodes.

    The replicate statistic is computed on the induced subgraph and
    studentized by the moment-based variance estimate (``use_jackknife``
    switches to the jackknife for fidelity experiments).
    """
    n = A.n
    if not (motif.r <= n_star < n):
        raise ValueError(f"need r <= n_star < n, got n_star={n_star}, n={n}")
    return _replicates(A, motif, B, seed, "subsample",
                       lambda rng: np.sort(rng.choice(n, size=n_star, replace=False)),
                       use_jackknife)


def resample_distribution(A: AdjacencyMatrix, motif: Motif, B: int, seed: int,
                          use_jackknife: bool = False) -> EmpiricalCdf:
    """Node re-sampling: each replicate draws ``n`` node indices with replacement.

    The resampled adjacency takes entry ``A[i_a, i_b]`` for drawn indices,
    i.e. the induced subgraph on the drawn list.  Coincident draws
    (``i_a == i_b``) read the zero diagonal and contribute no edge, so the
    result stays a simple graph.
    """
    n = A.n
    return _replicates(A, motif, B, seed, "resample",
                       lambda rng: rng.integers(0, n, size=n), use_jackknife)
