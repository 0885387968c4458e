"""Node sub-sampling and re-sampling bootstrap baselines.

Both schemes approximate the sampling distribution of the studentized
moment by replicating ``T* = (U*_b - U_hat_n) / S*_b`` over random node
draws.  Replicates with a zero variance estimate cannot be studentized;
they are dropped and counted, and the run fails if more than 10% drop.
:func:`_studentized` counts and studentizes replicate graphs in blocks,
for these bootstraps and for the harness's Monte-Carlo truths alike.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import DegenerateReplicatesError
from .moments import motif_counts_block, sample_moment, studentize
from .motif import Motif
from .rng import KeyedStreams

__all__ = ["EmpiricalCdf", "subsample_distribution", "resample_distribution"]

MAX_DROP_FRACTION = 0.10

# Replicates are counted in blocks of about this many adjacency entries
# (b * n^2), which keeps a block's float64 temporaries within a few
# hundred kB per thread.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted bootstrap replicates with right-continuous step evaluation."""

    samples: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        if self.samples.size < 1:
            raise ValueError("empty replicate set")
        if (np.diff(self.samples) < 0).any():
            raise ValueError("samples must be sorted ascending")

    @property
    def B(self) -> int:
        """The number of retained replicates."""
        return self.samples.size

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


def _studentized(count: int, n: int, graphs, motif: Motif, center: float,
                 max_fraction: float, what: str, threads: int = 1) -> EmpiricalCdf:
    """Sorted ``(U_hat - center) / S_hat`` of ``count`` replicate graphs on ``n`` nodes.

    ``graphs(k0, k1)`` returns the int8 stack of replicates ``k0 .. k1-1``
    (thread-safe if ``threads > 1`` workers take the blocks).  ``S_hat^2``
    is the moment-based variance estimate of :func:`studentize`.  Replicates
    where it is exactly zero are dropped and counted; more than
    ``max_fraction`` of them, or all, raise ``DegenerateReplicatesError``.
    """
    if count < 1:
        raise ValueError(f"need at least one replicate, got {count}")
    r = motif.r
    block = max(1, _BLOCK_ELEMENTS // (n * n))

    def run_block(k0: int) -> np.ndarray:
        total, per = motif_counts_block(graphs(k0, min(k0 + block, count)), motif)
        u_hat, _, s_sq, degenerate = studentize(total, per, n, r)
        return (u_hat[~degenerate] - center) / np.sqrt(s_sq[~degenerate])

    starts = range(0, count, block)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            kept = np.sort(np.concatenate(list(pool.map(run_block, starts))))
    else:
        kept = np.sort(np.concatenate([run_block(k0) for k0 in starts]))
    dropped = count - kept.size
    if dropped > max_fraction * count or dropped == count:
        why = "all" if dropped == count else f"> {max_fraction:.1%}"
        raise DegenerateReplicatesError(
            f"{dropped} of {count} {what} replicates were degenerate ({why}); "
            "near-degenerate configuration", n_dropped=dropped, n_total=count)
    return EmpiricalCdf(samples=kept, n_dropped=dropped)


def _replicates(A: AdjacencyMatrix, motif: Motif, B: int, seed: int, label: str,
                size: int, draw) -> EmpiricalCdf:
    """Studentize ``B`` induced subgraphs on ``size`` nodes; replicate ``b``
    takes the nodes ``draw(rng)``, with ``rng`` its own stream ``(seed, label, b)``."""
    streams = KeyedStreams()

    def graphs(k0: int, k1: int) -> np.ndarray:
        idx = np.array([draw(streams(seed, label, b)) for b in range(k0, k1)])
        return A.a.ravel()[idx[:, :, None] * A.n + idx[:, None, :]]

    return _studentized(B, size, graphs, motif, sample_moment(A, motif),
                        MAX_DROP_FRACTION, "bootstrap")


def subsample_distribution(A: AdjacencyMatrix, motif: Motif, n_star: int,
                           B: int, seed: int) -> EmpiricalCdf:
    """Node sub-sampling: each replicate draws ``n_star`` distinct nodes.

    The replicate statistic is computed on the induced subgraph and
    studentized by the moment-based variance estimate.
    """
    n = A.n
    if not (motif.r <= n_star < n):
        raise ValueError(f"need r <= n_star < n, got n_star={n_star}, n={n}")
    return _replicates(A, motif, B, seed, "subsample", n_star,
                       lambda rng: np.sort(rng.choice(n, size=n_star, replace=False)))


def resample_distribution(A: AdjacencyMatrix, motif: Motif, B: int, seed: int) -> EmpiricalCdf:
    """Node re-sampling: each replicate draws ``n`` node indices with replacement.

    The resampled adjacency takes entry ``A[i_a, i_b]`` for drawn indices,
    i.e. the induced subgraph on the drawn list.  Coincident draws
    (``i_a == i_b``) read the zero diagonal and contribute no edge, so the
    result stays a simple graph.
    """
    n = A.n
    return _replicates(A, motif, B, seed, "resample", n,
                       lambda rng: rng.integers(0, n, size=n))
