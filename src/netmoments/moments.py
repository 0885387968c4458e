"""Sample network moments and their projection/variance estimators.

Everything here is driven by exact integer subset counts: the number of
r-node subsets whose induced subgraph contains the motif, in total and
per node (and, for the pairwise projection, per node pair).  Counts are
accumulated exactly and divided once at the end.  Edge, triangle and
V-shape statistics use closed counting formulas evaluated with matrix
products (0/1 matrices in float64 keep every intermediate value exactly
integer); other motifs fall back to explicit subset enumeration, guarded
by cost caps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import CostCapError
from .motif import Motif, _PAIRS

__all__ = [
    "MomentStats",
    "sample_moment",
    "local_projection",
    "pair_projection",
    "variance_estimator",
    "jackknife_variance",
    "edgeworth_coefficients",
    "compute_stats",
    "motif_counts",
    "motif_counts_block",
    "studentize",
    "MAX_GENERIC_SUBSETS",
    "MAX_PAIRWISE_NODES",
]

# Generic enumeration is allowed up to this many subsets; the O(n^4)
# pairwise projections are capped at this many nodes.  Both overridable.
MAX_GENERIC_SUBSETS = 100_000_000
MAX_PAIRWISE_NODES = 256


def _structural_kind(motif: Motif) -> str:
    """Isomorphism class used for fast-path dispatch."""
    if motif.r == 2:
        return "edge"
    if motif.r == 3:
        return "triangle" if motif.s == 3 else "vshape"
    if motif.r == 4 and motif.s == 3 and sorted(motif.degrees) == [1, 1, 1, 3]:
        return "threestar"
    return "generic"


_CLOSED_FORM = ("edge", "triangle", "vshape")


def _round_int(x: np.ndarray | float):
    return np.rint(x).astype(np.int64)


def _choose2(d: np.ndarray) -> np.ndarray:
    return d * (d - 1) // 2


def _closed_form_counts(af: np.ndarray, degrees: np.ndarray,
                        kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Edge, triangle or V-shape counts of one graph ``(n, n)`` or a stack ``(b, n, n)``.

    ``af`` is the 0/1 adjacency in float64 (BLAS products stay exactly
    integer-valued) and ``degrees`` its int64 row sums.  Returns
    ``(total, per_node)`` with shapes ``(...)`` and ``(..., n)``.
    """
    if kind == "edge":
        per = degrees.copy()
        return per.sum(axis=-1) // 2, per
    tri = _round_int((af @ af * af).sum(axis=-1) / 2.0)
    if kind == "triangle":
        return tri.sum(axis=-1) // 3, tri
    d = degrees
    # Subsets {i,j,k} with >= 2 edges, per node: wedge patterns centered
    # at i plus patterns through a neighbor, minus 2 per triangle.
    through = _round_int((af @ (d - 1).astype(np.float64)[..., None])[..., 0])
    per = _choose2(d) + through - 2 * tri
    total = _choose2(d).sum(axis=-1) - 2 * (tri.sum(axis=-1) // 3)
    return total, per


def motif_counts(A: AdjacencyMatrix, motif: Motif,
                 max_subsets: int = MAX_GENERIC_SUBSETS) -> tuple[int, np.ndarray]:
    """Exact motif-containment counts: total and per node.

    Returns ``(total, per_node)`` where ``total`` is the number of
    r-subsets containing the motif and ``per_node[i]`` counts those
    subsets that include node ``i``.  Every subset contributes to exactly
    ``r`` per-node counts, so ``per_node.sum() == r * total``.
    """
    kind = _structural_kind(motif)
    if A.n < motif.r:
        raise ValueError(f"graph has {A.n} nodes but motif needs {motif.r}")
    if kind in _CLOSED_FORM:
        af = A.afloat if kind != "edge" else None
        total, per = _closed_form_counts(af, A.degrees, kind)
        return int(total), per
    return _generic_counts(A, motif, max_subsets)


def motif_counts_block(a: np.ndarray, motif: Motif) -> tuple[np.ndarray, np.ndarray]:
    """:func:`motif_counts` of every graph in an int8 adjacency stack ``(b, n, n)``.

    The stack must hold valid simple graphs (as the graphon block
    sampler makes them); it is not re-validated.  Edge, triangle and
    V-shape counts use batched matrix products; other motifs count
    row by row through :func:`motif_counts`.  Returns int64 arrays
    ``total`` ``(b,)`` and ``per_node`` ``(b, n)``.
    """
    b, n = a.shape[0], a.shape[-1]
    if n < motif.r:
        raise ValueError(f"graph has {n} nodes but motif needs {motif.r}")
    kind = _structural_kind(motif)
    if kind in _CLOSED_FORM:
        af = a.astype(np.float64) if kind != "edge" else None
        return _closed_form_counts(af, a.sum(axis=-1, dtype=np.int64), kind)
    total = np.empty(b, dtype=np.int64)
    per = np.empty((b, n), dtype=np.int64)
    for k in range(b):
        total[k], per[k] = motif_counts(AdjacencyMatrix._trusted(a[k]), motif)
    return total, per


def _generic_counts(A: AdjacencyMatrix, motif: Motif,
                    max_subsets: int) -> tuple[int, np.ndarray]:
    n, r = A.n, motif.r
    # A node whose graph degree is below the motif's minimum degree can
    # never occupy any position, so subsets containing it never match.
    min_deg = int(motif.degrees.min())
    keep = np.flatnonzero(A.degrees >= min_deg)
    per = np.zeros(n, dtype=np.int64)
    if keep.size < r:
        return 0, per
    work = math.comb(keep.size, r)
    if work > max_subsets:
        raise CostCapError(
            f"generic enumeration needs {work:.3g} subsets (cap {max_subsets:.3g}); "
            "raise max_subsets to override")
    rows = A.a.tolist()
    h_table = motif.h_table
    pairs = _PAIRS[r]
    total = 0
    for subset in itertools.combinations(keep.tolist(), r):
        mask = 0
        for idx, (a, b) in enumerate(pairs):
            if rows[subset[a]][subset[b]]:
                mask |= 1 << idx
        if h_table[mask]:
            total += 1
            for v in subset:
                per[v] += 1
    return total, per


def sample_moment(A: AdjacencyMatrix, motif: Motif,
                  max_subsets: int = MAX_GENERIC_SUBSETS) -> float:
    """Sample network moment: fraction of r-subsets containing the motif."""
    total, _ = motif_counts(A, motif, max_subsets)
    return total / math.comb(A.n, motif.r)


def local_projection(A: AdjacencyMatrix, motif: Motif,
                     max_subsets: int = MAX_GENERIC_SUBSETS) -> np.ndarray:
    """Per-node projection estimates ``g1_hat``.

    For node ``i``: the average of the containment indicator over all
    (r-1)-subsets of the other nodes joined with ``i``, minus the sample
    moment.  Sums to zero up to rounding because each r-subset hits
    exactly r nodes and ``n * C(n-1, r-1) = r * C(n, r)``.
    """
    total, per = motif_counts(A, motif, max_subsets)
    return studentize(total, per, A.n, motif.r)[1]


def _pairwise_inner_counts(A: AdjacencyMatrix, motif: Motif,
                           node_cap: int, max_subsets: int) -> np.ndarray:
    """Counts of (r-2)-subsets completing each pair to a containing r-set."""
    n, r = A.n, motif.r
    kind = _structural_kind(motif)
    if kind == "edge":
        return A.a.astype(np.int64)
    if kind == "triangle":
        Af = A.afloat
        codeg = _round_int(Af @ Af)
        np.fill_diagonal(codeg, 0)
        return A.a * codeg
    if kind == "vshape":
        Af = A.afloat
        codeg = _round_int(Af @ Af)
        np.fill_diagonal(codeg, 0)
        d = A.degrees
        # With the pair edge present any third node adjacent to either end
        # works; without it the third node must close both edges.
        union = d[:, None] + d[None, :] - 2 - codeg
        counts = np.where(A.a == 1, union, codeg)
        np.fill_diagonal(counts, 0)
        return counts
    if r >= 4 and n > node_cap:
        raise CostCapError(
            f"pairwise projection for r={r} motifs is O(n^4); n={n} exceeds the "
            f"cap of {node_cap}; raise node_cap to override")
    if kind == "threestar":
        return _threestar_pair_counts(A)
    return _generic_pair_counts(A, motif, max_subsets)


def _threestar_pair_counts(A: AdjacencyMatrix) -> np.ndarray:
    """Three-star completion counts by the (vectorized) double loop over pairs."""
    n = A.n
    a = A.a.astype(bool)
    counts = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    for i, j in zip(*iu):
        bi = a[i]
        bj = a[j]
        both = bi & bj
        if a[i, j]:
            # Star centered at i needs k,l in N(i); at j needs k,l in N(j).
            centered = np.outer(bi, bi) | np.outer(bj, bj)
        else:
            centered = np.zeros((n, n), dtype=bool)
        # Star centered at k (or l) needs that node adjacent to i, j and
        # the remaining node.
        outer_center = (both[:, None] | both[None, :]) & a
        good = centered | outer_center
        good[i, :] = good[j, :] = good[:, i] = good[:, j] = False
        c = int(np.triu(good, 1).sum())
        counts[i, j] = counts[j, i] = c
    return counts


def _generic_pair_counts(A: AdjacencyMatrix, motif: Motif,
                         max_subsets: int) -> np.ndarray:
    n, r = A.n, motif.r
    work = math.comb(n, 2) * math.comb(n - 2, r - 2)
    if work > max_subsets:
        raise CostCapError(
            f"generic pairwise enumeration needs {work:.3g} subsets "
            f"(cap {max_subsets:.3g}); raise max_subsets to override")
    rows = A.a.tolist()
    h_table = motif.h_table
    pairs = _PAIRS[r]
    counts = np.zeros((n, n), dtype=np.int64)
    all_nodes = list(range(n))
    for i, j in itertools.combinations(all_nodes, 2):
        others = [v for v in all_nodes if v != i and v != j]
        c = 0
        for rest in itertools.combinations(others, r - 2):
            subset = (i, j) + rest
            mask = 0
            for idx, (a, b) in enumerate(pairs):
                if rows[subset[a]][subset[b]]:
                    mask |= 1 << idx
            if h_table[mask]:
                c += 1
        counts[i, j] = counts[j, i] = c
    return counts


def pair_projection(A: AdjacencyMatrix, motif: Motif,
                    g1: np.ndarray | None = None, u_hat: float | None = None,
                    node_cap: int = MAX_PAIRWISE_NODES,
                    max_subsets: int = MAX_GENERIC_SUBSETS) -> np.ndarray:
    """Pairwise projection estimates ``g2_hat`` (symmetric, zero diagonal).

    For ``r = 2`` the inner average is the adjacency entry itself (the
    remaining subset is empty).  The three-star path runs the double
    loop over the remaining pair and is cost-capped via ``node_cap``.
    """
    n, r = A.n, motif.r
    if n < r:
        raise ValueError(f"graph has {n} nodes but motif needs {r}")
    if g1 is None:
        g1 = local_projection(A, motif, max_subsets)
    if u_hat is None:
        u_hat = sample_moment(A, motif, max_subsets)
    inner = _pairwise_inner_counts(A, motif, node_cap, max_subsets)
    h2 = inner / math.comb(n - 2, r - 2)
    # Grouping the pair sum keeps the result bitwise symmetric.
    g2 = (h2 - u_hat) - (g1[:, None] + g1[None, :])
    np.fill_diagonal(g2, 0.0)
    return g2


def variance_estimator(g1: np.ndarray, r: int):
    """Moment-based variance estimate ``S_hat^2 = (r^2/n^2) * sum(g1^2)``.

    ``g1`` is one projection vector ``(n,)`` (returns a float) or a
    stack ``(b, n)`` (returns one estimate per row).
    """
    g1 = np.asarray(g1, dtype=np.float64)
    if g1.size == 0:
        raise ValueError("empty projection vector")
    n = g1.shape[-1]
    s_sq = r * r * np.sum(g1 * g1, axis=-1) / (n * n)
    return float(s_sq) if s_sq.ndim == 0 else s_sq


def studentize(total, per_node, n: int, r: int):
    """Moment, projections and variance from subset counts.

    Maps ``(total, per_node, n, r)`` to ``(u_hat, g1, s_hat_sq,
    degenerate)``: the sample moment, the per-node projections
    ``g1_hat``, the moment-based variance estimate, and whether that
    estimate is exactly zero (the statistic cannot be studentized).
    ``total`` may be a scalar with ``per_node`` of shape ``(n,)``, or an
    array ``(b,)`` with ``per_node`` ``(b, n)``, computed row by row
    with the same arithmetic either way.
    """
    u_hat = np.asarray(total) / math.comb(n, r)
    g1 = np.asarray(per_node) / math.comb(n - 1, r - 1) - u_hat[..., None]
    s_hat_sq = variance_estimator(g1, r)
    return u_hat, g1, s_hat_sq, np.equal(s_hat_sq, 0.0)


def jackknife_variance(A: AdjacencyMatrix, motif: Motif,
                       max_subsets: int = MAX_GENERIC_SUBSETS) -> float:
    """Leave-one-node-out jackknife variance estimate.

    Deleting node ``i`` removes exactly the containing subsets counted
    by ``per_node[i]``, so each leave-one-out moment comes from the same
    single counting pass as the full moment.
    """
    n, r = A.n, motif.r
    if n < r + 1:
        raise ValueError(f"jackknife needs at least r+1 = {r + 1} nodes, got {n}")
    total, per = motif_counts(A, motif, max_subsets)
    u_hat = total / math.comb(n, r)
    u_loo = (total - per) / math.comb(n - 1, r)
    dev = u_loo - u_hat
    return float((n - 1) * np.sum(dev * dev) / n)


def edgeworth_coefficients(g1: np.ndarray, g2: np.ndarray) -> tuple[float, float, float]:
    """Plug-in moments ``(xi1_hat^2, E_hat[g1^3], E_hat[g1 g1 g2])``."""
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    n = g1.size
    if g2.shape != (n, n):
        raise ValueError(f"g2 must be {n}x{n} to match g1, got {g2.shape}")
    xi1_sq = float(np.mean(g1 * g1))
    e_g1_cubed = float(np.mean(g1 ** 3))
    # Zero diagonal makes the quadratic form twice the sum over i < j.
    e_g1g1g2 = float(g1 @ (g2 @ g1) / (2.0 * math.comb(n, 2)))
    return xi1_sq, e_g1_cubed, e_g1g1g2


@dataclass
class MomentStats:
    """Sample moment, projections, variance and expansion coefficients."""

    n: int
    motif: Motif
    u_hat: float
    s_hat_sq: float
    g1_hat: np.ndarray = field(repr=False)
    g2_hat: np.ndarray = field(repr=False)
    xi1_hat_sq: float
    e_g1_cubed: float
    e_g1g1g2: float
    degenerate: bool

    @property
    def s_hat(self) -> float:
        return math.sqrt(self.s_hat_sq)

    @property
    def r(self) -> int:
        return self.motif.r


def compute_stats(A: AdjacencyMatrix, motif: Motif,
                  node_cap: int = MAX_PAIRWISE_NODES,
                  max_subsets: int = MAX_GENERIC_SUBSETS) -> MomentStats:
    """All moment statistics of one graph in a single record.

    Sets ``degenerate`` when the variance estimate is exactly zero
    (e.g. empty or complete graphs); downstream studentization must
    check the flag rather than divide.
    """
    n, r = A.n, motif.r
    if n < r:
        raise ValueError(f"graph has {n} nodes but motif needs {r}")
    total, per = motif_counts(A, motif, max_subsets)
    u_hat, g1, s_hat_sq, degenerate = studentize(total, per, n, r)
    u_hat = float(u_hat)
    g2 = pair_projection(A, motif, g1=g1, u_hat=u_hat,
                         node_cap=node_cap, max_subsets=max_subsets)
    xi1_sq, e3, e112 = edgeworth_coefficients(g1, g2)
    return MomentStats(
        n=n, motif=motif, u_hat=u_hat, s_hat_sq=s_hat_sq,
        g1_hat=g1, g2_hat=g2, xi1_hat_sq=xi1_sq,
        e_g1_cubed=e3, e_g1g1g2=e112,
        degenerate=bool(degenerate),
    )
