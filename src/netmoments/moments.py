"""Sample network moments and their projection/variance estimators.

Everything here is driven by one table of exact integer counts, the pair
completion counts: ``inner[i, j]`` is the number of (r-2)-subsets that
complete the pair {i, j} to an r-node subset whose induced subgraph
contains the motif.  Every containing r-set through node ``i`` pairs
``i`` with its other r - 1 members, so the table fixes the per-node
counts, ``per_node = inner.sum(1) / (r - 1)``, and the total,
``per_node.sum() / r``; ``g2`` follows from the table itself.  One
kernel, :func:`_inner_counts`, builds it for one graph or a stack of
graphs.  Edge, triangle, V-shape and three-star tables use closed
counting formulas evaluated with matrix products of 0/1 matrices, whose
values stay exact integers.  The triangle and V-shape tables are built
in float32: every value they form is an integer of size at most 2n,
exact for n < 2^23.  The three-star's terms reach n^2, so it stays in
float64.  Row sums reach 2n^2 and are accumulated in float64, and
``g2`` divides in float64.  Other motifs enumerate the r-subsets once,
guarded by the cost cap ``max_subsets``.
On one large sparse graph (:func:`_sparse_route`) the triangle and
V-shape tables and the three-star's ``A @ A`` are scipy CSR products;
counts are exact, so the route never changes a byte.
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
]

# Generic enumeration is allowed up to this many subsets (overridable);
# the closed-form motifs ignore it.
MAX_GENERIC_SUBSETS = 100_000_000

# _sparse_route sends a single graph with at least this many nodes and
# at most this share of nonzero adjacency entries (mean degree / n) to
# sparse products.  Set from a measured crossover against BLAS (1 and 2
# threads): the sparse product wins from n = 200 up to density 0.02
# (1.3x at n = 200, 2.5-4x at n = 1000), is even at 0.03 and loses at
# 0.05; below n = 200 either takes a fraction of a millisecond.
_SPARSE_MIN_NODES = 200
_SPARSE_MAX_DENSITY = 0.02


def _structural_kind(motif: Motif) -> str:
    """Isomorphism class used for fast-path dispatch."""
    if motif.r == 2:
        return "edge"
    if motif.r == 3:
        return "triangle" if motif.s == 3 else "vshape"
    if motif.r == 4 and motif.s == 3 and sorted(motif.degrees) == [1, 1, 1, 3]:
        return "threestar"
    return "generic"


def _round_int(x: np.ndarray | float):
    return np.rint(x).astype(np.int64)


def _inner_counts(a: np.ndarray, motif: Motif, max_subsets: int):
    """Pair completion counts of one graph ``(n, n)`` or a stack ``(b, n, n)``.

    ``a`` is the int8 adjacency of valid simple graphs.  The table has
    ``a``'s shape and holds exact integers: ``a`` itself for the edge,
    float32 for the triangle and V-shape and int64 for the three-star
    and generic motifs, which are counted one graph at a time; on the
    sparse route, triangle and V-shape tables are float64 CSR arrays
    (:func:`_sparse_inner_counts`).  Every entry of ``A @ A``,
    of the triangle table and of each V-shape intermediate is an integer
    of size at most 2n, and every partial sum of the product is at most
    n, so float32 is exact for n < 2^23 and halves the temporaries of a
    replicate block.  Row sums reach 2n^2, past float32's exact range
    from n ~ 2900, so consumers accumulate and divide in float64
    (:func:`_counts_from_inner`, :func:`_pair_projection_from_inner`).
    Raises ``CostCapError`` when a generic enumeration would visit more
    than ``max_subsets`` subsets.
    """
    n = a.shape[-1]
    if n < motif.r:
        raise ValueError(f"graph has {n} nodes but motif needs {motif.r}")
    kind = _structural_kind(motif)
    if kind == "edge":
        return a
    if kind in ("triangle", "vshape") and _sparse_route(a):
        return _sparse_inner_counts(a, kind)
    if kind in ("threestar", "generic") and a.ndim == 3:
        # No batched form; reshape keeps the shape of an empty stack.
        return np.array([_inner_counts(g, motif, max_subsets) for g in a]).reshape(a.shape)
    if kind == "threestar":
        return _threestar_inner_counts(a)
    if kind == "generic":
        return _enumerated_inner_counts(a, motif, max_subsets)
    af = a.astype(np.float32)
    codeg = af @ af
    if kind == "triangle":
        codeg *= af
        return codeg
    # V-shape.  With the pair edge present any third node adjacent to
    # either end works (d_i + d_j - 2 - codeg of them); without it the
    # third node must close both edges (codeg).  The diagonal of the
    # codegree matrix holds the degrees.
    d = np.diagonal(codeg, axis1=-2, axis2=-1)
    inner = d[..., :, None] + d[..., None, :]
    inner -= 2.0
    inner -= 2.0 * codeg
    inner *= af
    inner += codeg
    diag = np.arange(n)
    inner[..., diag, diag] = 0.0
    return inner


def _sparse_route(a: np.ndarray) -> bool:
    """Whether ``a`` is one graph (not a stack) to count with CSR products."""
    n = a.shape[-1]
    return a.ndim == 2 and n >= _SPARSE_MIN_NODES \
        and np.count_nonzero(a) <= _SPARSE_MAX_DENSITY * n * n


def _csr(a: np.ndarray):
    """The int8 adjacency ``a`` of one graph as a float64 scipy CSR array."""
    # Imported here: the simulations never take the sparse route.
    from scipy import sparse

    # Row-major nonzeros give CSR column indices in order; the row
    # lengths give the row pointer.  Cheaper than csr_array(a), and
    # the 0/1 bytes read as bool are found 5x faster than as int8.
    n = a.shape[0]
    idx = np.flatnonzero(a.view(np.bool_))
    rows, cols = np.divmod(idx, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array((np.ones(idx.size), cols, indptr), shape=(n, n))


def _sparse_inner_counts(a: np.ndarray, kind: str):
    """Triangle or V-shape pair completion counts as a CSR array.

    With ``C = A @ A`` and ``*`` elementwise: ``C*A`` and
    ``C + A*(d_i + d_j - 2) - 2*C*A`` with a zero diagonal, the dense
    route's exact integers in O(sum of squared degrees) memory.
    """
    s = _csr(a)
    codeg = s @ s
    if kind == "triangle":
        return codeg.multiply(s)
    from scipy import sparse

    n, deg = a.shape[0], np.diff(s.indptr)
    rows, d = np.repeat(np.arange(n), deg), deg.astype(np.float64)
    ends = sparse.csr_array((d[rows] + d[s.indices] - 2.0, s.indices, s.indptr), shape=(n, n))
    degrees = sparse.csr_array((d, np.arange(n), np.arange(n + 1)), shape=(n, n))
    return codeg + ends - 2.0 * codeg.multiply(s) - degrees


def _codegrees(a: np.ndarray, af: np.ndarray) -> np.ndarray:
    """Codegrees ``A @ A`` in float64 of one graph or a stack, from the int8
    ``a`` and float64 ``af``: a CSR product on the sparse route, BLAS
    otherwise, exact integers (the same bytes) either way."""
    if _sparse_route(a):
        s = _csr(a)
        return (s @ s).toarray()
    return af @ af


def _counts_from_inner(inner: np.ndarray, r: int):
    """``(total, per_node)`` from the pair completion counts of an r-node motif.

    For one graph ``total`` is an int and ``per_node`` an int64 array
    ``(n,)``; for a stack they are int64 arrays ``(b,)`` and ``(b, n)``.
    """
    # A float32 row sum would be inexact from 2n^2 > 2^24 (n ~ 2900) on.
    per = _round_int(inner.sum(axis=-1, dtype=np.float64)) // (r - 1)
    total = per.sum(axis=-1) // r
    return (int(total) if per.ndim == 1 else total), per


def motif_counts(A: AdjacencyMatrix, motif: Motif,
                 max_subsets: int = MAX_GENERIC_SUBSETS) -> tuple[int, np.ndarray]:
    """Exact motif-containment counts: total and per node.

    Returns ``(total, per_node)`` where ``total`` is the number of
    r-subsets containing the motif and ``per_node[i]`` counts those
    subsets that include node ``i``.  Every subset contributes to exactly
    ``r`` per-node counts, so ``per_node.sum() == r * total``.
    """
    return _counts_from_inner(_inner_counts(A.a, motif, max_subsets), motif.r)


def motif_counts_block(a: np.ndarray, motif: Motif) -> tuple[np.ndarray, np.ndarray]:
    """:func:`motif_counts` of every graph in an int8 adjacency stack ``(b, n, n)``.

    The stack must hold valid simple graphs (as the graphon block
    sampler makes them); it is not re-validated.  It goes through the
    same pair-count kernel as a single graph: edge, triangle and V-shape
    tables are batched matrix products, three-star and generic tables
    are built one graph at a time.  Returns int64 arrays ``total``
    ``(b,)`` and ``per_node`` ``(b, n)``.
    """
    return _counts_from_inner(_inner_counts(a, motif, MAX_GENERIC_SUBSETS), motif.r)


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


def _enumerated_inner_counts(a: np.ndarray, motif: Motif, max_subsets: int) -> np.ndarray:
    """Pair completion counts of any motif from one pass over the r-subsets.

    A node whose graph degree is below the motif's minimum degree can
    never occupy any position, so only subsets of the other nodes are
    visited; each containing subset adds 1 to each of its C(r, 2) pairs.
    """
    n, r = a.shape[0], motif.r
    keep = np.flatnonzero(a.sum(axis=1) >= motif.degrees.min())
    work = math.comb(keep.size, r)
    if work > max_subsets:
        raise CostCapError(
            f"generic enumeration needs {work:.3g} subsets (cap {max_subsets:.3g}); "
            "raise max_subsets to override")
    rows = a.tolist()
    h_table = motif.h_table.tolist()
    pairs = _PAIRS[r]
    # Flat upper-triangle counts: subsets are increasing, so x < y.
    upper = [0] * (n * n)
    for subset in itertools.combinations(keep.tolist(), r):
        mask = 0
        for idx, (x, y) in enumerate(pairs):
            if rows[subset[x]][subset[y]]:
                mask |= 1 << idx
        if h_table[mask]:
            for x, y in pairs:
                upper[subset[x] * n + subset[y]] += 1
    inner = np.array(upper, dtype=np.int64).reshape(n, n)
    return inner + inner.T


# Rows of the edge-product matrix W in _common_neighbour_edges are built
# and multiplied in chunks of at most this many float64 elements.
_EDGE_PRODUCT_ELEMENTS = 1 << 18


def _threestar_inner_counts(a: np.ndarray) -> np.ndarray:
    """Three-star pair completion counts in closed form.

    ``inner[i, j]`` is the number of pairs {k, l} for which {i, j, k, l}
    contains a three-star.  Let c(S) be the number of nodes of a 4-set S
    adjacent to the other three.  c is 0, 1, 2 or 4 (c = 4 exactly when
    S is a K4), so S contains a three-star iff
    ``c - C(c, 2) + 3*[c = 4]`` is 1, and it is 0 otherwise.  Summing
    the three terms over {k, l}, with ``d`` the degrees, ``C = A@A``
    with a zero diagonal (codegrees), ``M = (A*(C - 1))@A`` and ``E[i, j]``
    the number of edges among the common neighbours of i and j:

        inner = A*(C(d_i-1, 2) + C(d_j-1, 2)) + (A*(d - 2))@A
                - A*(C(C, 2) + M + M^T) - E + 3*A*E

    with a zero diagonal.  Sum c: centre i or j (needs edge ij), then
    centre k or l.  Sum C(c, 2), pairs of centres: {i, j}, {i or j, k or
    l} (the M terms) and {k, l} (the E term).  K4s: 3*A*E.  Every value
    is an exact integer in float64.  Per-node counts follow as
    ``inner.sum(1) // 3``.  ``a`` is one int8 adjacency ``(n, n)``.
    """
    af = a.astype(np.float64)
    d = af.sum(axis=1)
    codeg = _codegrees(a, af)
    np.fill_diagonal(codeg, 0.0)
    m = (af * (codeg - 1.0)) @ af
    e = _common_neighbour_edges(a, codeg)
    c2 = (d - 1.0) * (d - 2.0) * 0.5
    on_edge = c2[:, None] + c2[None, :] - codeg * (codeg - 1.0) * 0.5 - m - m.T + 3.0 * e
    inner = af * on_edge + (af * (d - 2.0)) @ af - e
    np.fill_diagonal(inner, 0.0)
    return _round_int(inner)


def _common_neighbour_edges(a: np.ndarray, codeg: np.ndarray) -> np.ndarray:
    """``E[i, j]``: edges among the common neighbours of i and j (off-diagonal).

    Each edge {k, l} adds ``w w^T`` with ``w = A[k] * A[l]``, the
    indicator of the common neighbours of k and l, so ``E = W^T W`` for
    the matrix W of those rows.  An edge with fewer than two common
    neighbours adds only to the diagonal, which is not needed, so only
    edges in two or more triangles become rows: with m2 of them this
    costs O(m2 n^2) flops.  W is multiplied in row chunks, so memory
    stays O(n^2).  The diagonal is left unspecified.
    """
    n = a.shape[0]
    k, l = np.nonzero(np.triu(codeg >= 2.0) & (a == 1))
    e = np.zeros((n, n))
    step = max(1, _EDGE_PRODUCT_ELEMENTS // n)
    for s in range(0, k.size, step):
        w = (a[k[s:s + step]] & a[l[s:s + step]]).astype(np.float64)
        e += w.T @ w
    return e


def pair_projection(A: AdjacencyMatrix, motif: Motif,
                    g1: np.ndarray | None = None, u_hat: float | None = None,
                    max_subsets: int = MAX_GENERIC_SUBSETS) -> np.ndarray:
    """Pairwise projection estimates ``g2_hat`` (symmetric, zero diagonal).

    ``g2_hat[i, j]`` is the fraction of (r-2)-subsets that complete the
    pair {i, j} to a containing r-set, minus ``u_hat + g1[i] + g1[j]``.
    For ``r = 2`` the inner average is the adjacency entry itself (the
    remaining subset is empty).  The completion counts come from the
    pair-count kernel (closed forms for edge, triangle, V-shape and
    three-star; one enumeration of the r-subsets, refused above
    ``max_subsets`` subsets, for other motifs).  ``g1`` and ``u_hat``
    default to the values implied by the same completion counts.
    """
    n, r = A.n, motif.r
    inner = _inner_counts(A.a, motif, max_subsets)
    if g1 is None or u_hat is None:
        u, g, _, _ = studentize(*_counts_from_inner(inner, r), n, r)
        g1 = g if g1 is None else g1
        u_hat = float(u) if u_hat is None else u_hat
    return _pair_projection_from_inner(inner, g1, u_hat, r)


# Row chunks of g2's pair sums: at n = 1000, 2^16 float64 elements took
# 3.0 ms against 4.2 ms for 2^18 and 7.8 ms for one n x n temporary.
_PAIR_SUM_ELEMENTS = 1 << 16


def _pair_projection_from_inner(inner, g1: np.ndarray, u_hat: float, r: int) -> np.ndarray:
    """``g2`` in one buffer: ``(inner[i, j] / C(n-2, r-2) - u_hat) - (g1[i] + g1[j])``,
    bitwise symmetric; an entry a CSR table omits gives ``0.0 - u_hat``."""
    n = inner.shape[0]
    comb = math.comb(n - 2, r - 2)
    if isinstance(inner, np.ndarray):
        # In float64: a float32 table divided by an int would stay float32.
        g2 = np.divide(inner, comb, dtype=np.float64)
        g2 -= u_hat
    else:
        g2 = np.full((n, n), 0.0 - u_hat)
        rows = np.repeat(np.arange(n), np.diff(inner.indptr))
        g2.reshape(-1)[rows * n + inner.indices] = inner.data / comb - u_hat
    step = max(1, _PAIR_SUM_ELEMENTS // n)
    for start in range(0, n, step):
        g2[start:start + step] -= g1[start:start + step, None] + g1[None, :]
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
    u_hat = np.asarray(total) / math.comb(n, r)
    dev = (total - per) / math.comb(n - 1, r) - u_hat
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
                  max_subsets: int = MAX_GENERIC_SUBSETS) -> MomentStats:
    """All moment statistics of one graph in a single record.

    The pair completion counts are computed once and give the per-node
    counts too (see the module docstring); ``max_subsets`` caps the
    subsets a generic motif's enumeration may visit.  Sets
    ``degenerate`` when the variance estimate is exactly zero (e.g.
    empty or complete graphs); downstream studentization must check the
    flag rather than divide.
    """
    n, r = A.n, motif.r
    inner = _inner_counts(A.a, motif, max_subsets)
    u_hat, g1, s_hat_sq, degenerate = studentize(*_counts_from_inner(inner, r), n, r)
    u_hat = float(u_hat)
    g2 = _pair_projection_from_inner(inner, g1, u_hat, r)
    xi1_sq, e3, e112 = edgeworth_coefficients(g1, g2)
    return MomentStats(
        n=n, motif=motif, u_hat=u_hat, s_hat_sq=s_hat_sq,
        g1_hat=g1, g2_hat=g2, xi1_hat_sq=xi1_sq,
        e_g1_cubed=e3, e_g1g1g2=e112,
        degenerate=bool(degenerate),
    )
