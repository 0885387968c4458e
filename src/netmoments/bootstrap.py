"""Node sub-sampling and re-sampling bootstrap baselines.

Both schemes approximate the sampling distribution of the studentized
moment by replicating ``T* = (U*_b - U_hat_n) / S*_b`` over random node
draws.  Replicates with a zero variance estimate cannot be studentized;
they are dropped and counted, and the run fails if more than 10% drop.
:func:`_studentized` counts and studentizes replicate graphs in blocks,
for these bootstraps and for the harness's Monte-Carlo truths alike.
A replicate is the induced graph on a node draw, counted by the route
that ``moments._route`` picks once per bootstrap: on the observed graph
from the draw's node multiplicities, or gathered into an int8 stack.  The
counts are the same integers either way.  A block holds the replicates
that route counts at once (``moments._replicate_counter``).

Draw rule: replicate b's nodes come from its own stream
``(seed, scheme, b)``: ``integers(0, n, size=n)`` for a resample, the
sorted ``choice(n, size=n_star, replace=False)`` for a subsample.  A chunk
of replicates is drawn at once from each stream's raw words, by numpy's
own rules: Lemire's bounded integers and Floyd's sample set.  Each row
equals numpy's per-replicate draw, byte for byte (:func:`_batch_draws`).
A draw chunk holds whole blocks, so no block spans two chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments
from .adjacency import AdjacencyMatrix, _integer
from .errors import DegenerateReplicatesError
from .moments import sample_moment, studentize
from .motif import Motif
from .rng import thread_streams

__all__ = ["EmpiricalCdf", "subsample_distribution", "resample_distribution"]

MAX_DROP_FRACTION = 0.10

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


def _studentized(count: int, n: int, blocks, motif: Motif, center: float,
                 max_fraction: float, what: str) -> EmpiricalCdf:
    """Sorted ``(U_hat - center) / S_hat`` of ``count`` replicate graphs on ``n`` nodes.

    ``blocks`` yields the ``(total, per_node)`` motif counts of the
    replicates (as :func:`motif_counts_block` does), a block at a time,
    read in the calling thread.  ``S_hat^2`` is the moment-based variance
    estimate of :func:`studentize`.  Replicates where it is exactly zero
    are dropped and counted; more than ``max_fraction`` of them, or all,
    raise ``DegenerateReplicatesError``.
    """
    if count < 1:
        raise ValueError(f"need at least one replicate, got {count}")
    kept = []
    for total, per in blocks:
        u_hat, _, s_sq, degenerate = studentize(total, per, n, motif.r)
        kept.append((u_hat[~degenerate] - center) / np.sqrt(s_sq[~degenerate]))
    kept = np.sort(np.concatenate(kept))
    dropped = count - kept.size
    if dropped > max_fraction * count or dropped == count:
        why = "all" if dropped == count else f"> {max_fraction:.1%}"
        raise DegenerateReplicatesError(
            f"{dropped} of {count} {what} replicates were degenerate ({why}); "
            "near-degenerate configuration", n_dropped=dropped, n_total=count)
    return EmpiricalCdf(samples=kept, n_dropped=dropped)


def _draw(rng: np.random.Generator, n: int, s: int) -> np.ndarray:
    """One replicate's nodes from its own stream: ``n`` draws with
    replacement (``s = n``), or ``s < n`` distinct nodes, sorted."""
    if s == n:
        return rng.integers(0, n, size=n)
    return np.sort(rng.choice(n, size=s, replace=False))


def _lemire(words: np.ndarray, bound: np.ndarray):
    """numpy's bounded draw from each 32-bit word: ``(w * bound) >> 32``
    (Lemire 2019), int64, and whether numpy rejects ``w`` and reads the next
    word instead (the low half of ``w * bound`` is below
    ``(2^32 - bound) mod bound``)."""
    m = words.astype(np.uint64) * bound
    return (m >> 32).astype(np.int64), (m & 0xFFFFFFFF) < (2 ** 32 - bound) % bound


def _batch_draws(n: int, s: int, seed: int, label: str, b0: int, b1: int) -> np.ndarray:
    """:func:`_draw` for replicates ``b0 .. b1-1`` at once, int64 ``(b1 - b0, s)``.

    A fresh Philox stream hands out 32-bit words low half first, so draw t
    reads word t of the stream's first raw words.  A resample takes each
    word's bounded draw below n.  A subsample is numpy's ``choice`` branch
    (Floyd's algorithm, Bentley & Floyd 1987): step t draws below
    ``j + 1``, ``j = n - s + t``, and takes j instead if the drawn node is
    already held; a bool table holds each row's set, read out sorted.  A row
    where numpy would reject a word (under 1e-6 of rows at n = 80) is drawn
    again by :func:`_draw`, and so is every row of a chunk of fewer than
    ``s`` rows.  So every row equals :func:`_draw` on its stream.
    """
    streams = thread_streams()
    if b1 - b0 < s:
        return np.array([_draw(streams(seed, label, b), n, s) for b in range(b0, b1)])
    words = streams.words(seed, label, b0, b1, (s + 1) // 2)
    words = np.ascontiguousarray(words, dtype="<u8").view("<u4")[:, :s]
    bound = np.uint64(n) if s == n else np.arange(n - s + 1, n + 1, dtype=np.uint64)
    nodes, redo = _lemire(words, bound)
    if s < n:  # step t over all rows at once, on flat indices row * n + node
        base = n * np.arange(b1 - b0)
        held, steps = np.zeros(base.size * n, dtype=bool), (nodes + base[:, None]).T.copy()
        for j, v in enumerate(steps, start=n - s):
            np.copyto(v, base + j, where=held.take(v))
            held.put(v, True)
        nodes = np.flatnonzero(held).reshape(-1, s) - base[:, None]
    for row in np.flatnonzero(redo.any(axis=1)):
        nodes[row] = _draw(streams(seed, label, b0 + row), n, s)
    return nodes


def _replicates(A: AdjacencyMatrix, motif: Motif, B: int, seed: int, label: str,
                size: int) -> EmpiricalCdf:
    """Studentize ``B`` induced subgraphs on ``size`` nodes; replicate ``b``
    takes the nodes :func:`_draw` gives on its own stream ``(seed, label, b)``.

    ``moments._replicate_counter`` counts a block of replicates at a time,
    by the route it picks once.  Replicates are drawn by :func:`_batch_draws`
    in chunks of whole blocks, as many as fit in ``_PAIR_CHUNK // n`` rows
    and at least one, so no block spans two chunks; the bytes do not
    depend on the chunk.  Beyond 10 000 nodes numpy's ``choice`` takes its
    Floyd branch only up to ``n // 50`` draws.  A batched chunk there has
    ``size <= 32``: it holds at least ``size`` rows, and at most
    ``_PAIR_CHUNK // n`` or one gathered block of ``_BLOCK_ELEMENTS // size^2``.
    """
    B = _integer("B", B)
    n = A.n
    block, count = moments._replicate_counter(A, motif, size)
    chunk = block * max(1, moments._PAIR_CHUNK // n // block)

    def blocks():
        for c0 in range(0, B, chunk):
            drawn = _batch_draws(n, size, seed, label, c0, min(c0 + chunk, B))
            for k in range(0, drawn.shape[0], block):
                yield count(drawn[k:k + block])

    return _studentized(B, size, blocks(), motif, sample_moment(A, motif),
                        MAX_DROP_FRACTION, "bootstrap")


def subsample_distribution(A: AdjacencyMatrix, motif: Motif, n_star: int,
                           B: int, seed: int) -> EmpiricalCdf:
    """Node sub-sampling: each replicate draws ``n_star`` distinct nodes.

    The replicate statistic is computed on the induced subgraph and
    studentized by the moment-based variance estimate.
    """
    n, n_star = A.n, _integer("n_star", n_star)
    if not (motif.r <= n_star < n):
        raise ValueError(f"need r <= n_star < n, got n_star={n_star}, n={n}")
    return _replicates(A, motif, B, seed, "subsample", n_star)


def resample_distribution(A: AdjacencyMatrix, motif: Motif, B: int, seed: int) -> EmpiricalCdf:
    """Node re-sampling: each replicate draws ``n`` node indices with replacement.

    The resampled adjacency takes entry ``A[i_a, i_b]`` for drawn indices,
    i.e. the induced subgraph on the drawn list.  Coincident draws
    (``i_a == i_b``) read the zero diagonal and contribute no edge, so the
    result stays a simple graph.
    """
    return _replicates(A, motif, B, seed, "resample", A.n)
