"""Sample network moments and their projection/variance estimators.

Everything here is driven by one table of exact integer counts, the pair
completion counts: ``inner[i, j]`` is the number of (r-2)-subsets that
complete the pair {i, j} to an r-node subset whose induced subgraph
holds the motif.  Every containing r-set through node ``i`` pairs
``i`` with its other r - 1 members, so the table fixes the per-node
counts, ``per_node = inner.sum(1) / (r - 1)``, the total,
``per_node.sum() / r``, and E[g1 g1 g2], through the exact sums
``inner @ per_node``; only :func:`pair_projection` builds the n x n ``g2``.
:func:`_route` picks the counting route of a graph, and of a bootstrap's
replicates, once each; counts are exact, so no route changes a byte.  A
large sparse graph lists its nonzeros once and keeps them
(``AdjacencyMatrix._nonzeros``; an edge-list graph lists them, and its
edge count, from its edge keys, with no n^2 pass), and its triangles
(``AdjacencyMatrix._triangles``), on a degree-ordered orientation in
O(m sqrt(m)) time for m edges.  The edge, triangle and V-shape are
counted from these, with a table scattered only for
:func:`pair_projection` (:func:`_listed_counts`); the three-star scatters
its codegrees from them.  Other graphs, and stacks, get their table from
:func:`_inner_counts`: closed formulas for the edge, triangle, V-shape
and three-star, products of 0/1 matrices whose values stay exact
integers (float32 for the triangle and V-shape, exact for n < 2^23; row
sums and ``g2`` are formed in float64), and chunks of r-subsets looked up
in ``Motif.h_table`` for other motifs, refused with ``CostCapError``
above ``MAX_GENERIC_SUBSETS``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import CostCapError
from .motif import Motif, _PAIRS, _pattern_masks

__all__ = [
    "MomentStats",
    "sample_moment",
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

# Generic enumeration is allowed up to this many subsets; the closed-form
# motifs ignore it.  Read at call time, so every entry point shares it.
MAX_GENERIC_SUBSETS = 100_000_000

# The route thresholds, read only through _route, which quotes their measurements.
_SPARSE_MIN_NODES = 200
_SPARSE_MAX_DENSITY = 0.02
_INCIDENCE_MAX_BYTES = 1 << 24


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


def _inner_counts(a: np.ndarray, motif: Motif):
    """Pair completion counts of one graph ``(n, n)`` or a stack ``(b, n, n)``.

    The table kernel of the ``"table"`` and ``"stack"`` routes (:func:`_route`).
    ``a`` is the int8 adjacency of valid simple graphs.  The table has
    ``a``'s shape and holds exact integers: ``a`` itself for the edge,
    float32 for the triangle and V-shape and int64 for the three-star
    and generic motifs, which are counted one graph at a time.
    Every entry of ``A @ A``, of the triangle table and of each V-shape
    intermediate is an integer of size at most 2n, and every partial sum
    of the product is at most n, so float32 is exact for n < 2^23 and
    halves the temporaries of a replicate block.  Row sums reach 2n^2,
    past float32's exact range from n ~ 2900, so consumers accumulate
    and divide in float64
    (:func:`_counts_from_inner`, :func:`_pair_projection_from_inner`).
    Raises ``CostCapError`` when a generic enumeration would visit more
    than ``MAX_GENERIC_SUBSETS`` subsets.
    """
    n = a.shape[-1]
    if n < motif.r:
        raise ValueError(f"graph has {n} nodes but motif needs {motif.r}")
    kind = _structural_kind(motif)
    if kind == "edge":
        return a
    if kind in ("threestar", "generic") and a.ndim == 3:
        # No batched form; reshape keeps the shape of an empty stack.
        return np.array([_inner_counts(g, motif) for g in a]).reshape(a.shape)
    if kind == "threestar":
        return _threestar_inner_counts(a)
    if kind == "generic":
        return _enumerated_inner_counts(a, motif)
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


def _sparse_route(A: AdjacencyMatrix, edges: int | None = None) -> bool:
    """Whether the one graph ``A``, of ``edges`` edges (``A.edge_count`` if
    not given), is large and sparse enough to count from listed structures."""
    n = A.n
    if n < _SPARSE_MIN_NODES:
        return False
    return 2 * (A.edge_count if edges is None else edges) <= _SPARSE_MAX_DENSITY * n * n


def _route(A: AdjacencyMatrix, motif: Motif, s: int | None = None) -> str:
    """The counting route of the graph ``A`` (no ``s``), or of the graphs it
    induces on draws of ``s`` nodes: the one place that picks a route, and
    reads ``A.edge_count``, at most once.  Counts are exact, so no route
    changes a byte.

    A graph (:func:`_graph_counts`) on at least ``_SPARSE_MIN_NODES`` nodes
    with at most ``_SPARSE_MAX_DENSITY`` of its pairs joined
    (:func:`_sparse_route`) counts the edge, triangle and V-shape from its
    listed nonzeros and triangles, ``"listed"``, and scatters the
    three-star's codegrees, ``"codegrees"``.  Anything else takes
    :func:`_inner_counts`' ``"table"``, which refuses a graph smaller than
    the motif.  The thresholds came from a crossover against a CSR product
    that is gone and are not yet retuned.  Triangle and V-shape counts and
    sums, dense / listed, best of 7 (ms), show listed counting winning at
    density 0.05 from n = 200 and losing 3x at 0.1:

      n, density:  40, 0.3    200, 0.05  500, 0.05  1000, 0.05  1000, 0.1  2000, 0.05
      triangle     0.02/0.09  0.23/0.20  2.7/1.6    20/9.6      19/63      163/74
      V-shape      0.03/0.11  0.30/0.25  5.2/1.8    30/10.5     31/57      182/73

    Replicates (:func:`_replicate_counter`) of the edge, triangle and
    V-shape are counted on ``A`` from their draws' node multiplicities
    (:func:`_multiplicity_counts`): ``"listed"`` on a sparse-route graph,
    whatever s, else by products with ``A``.  These are ``"products"`` for
    the edge, and for the triangle and V-shape ``"incidence"``, with the
    edge-triangle incidence table (``A._incidence``, edges x n entries of
    :func:`_product_dtype`) while it takes under ``_INCIDENCE_MAX_BYTES``
    and a gathered stack's ``2 s^3`` multiply-adds are not below its
    ``edges * n`` (at n = 80-300 and one BLAS thread the stack won below
    ``9 s^3`` and lost above ``1.2 s^3``).  Past the budget a resample takes
    held-row products, ``"held"``.  Everything else (such subsamples, the
    three-star and generic motifs) is an int8 ``"stack"`` of induced
    subgraphs.  Held-row / incidence ms per replicate triangle count (blocks
    of 8 resamples, best of 9, 2-vCPU Xeon), OpenBLAS at 2 threads and at 1:

      n, density   table    2 threads   1 thread
      150, 0.3     1.9 MB   0.12/0.05   0.12/0.06
      300, 0.1     5.2 MB   0.47/0.07   0.52/0.13
      300, 0.3     15 MB    0.28/0.24   0.53/0.36
      600, 0.05    20 MB    1.78/0.26   2.44/0.32
      400, 0.3     36 MB    0.66/0.44   0.81/0.98

    Dense graphs gain least, and the table is kept with the graph: below
    16 MB it won every case measured.
    """
    n, kind = A.n, _structural_kind(motif)
    if s is None:
        if kind == "generic" or n < motif.r or not _sparse_route(A):
            return "table"
        return "codegrees" if kind == "threestar" else "listed"
    if kind not in ("edge", "triangle", "vshape") or n < motif.r:
        return "stack"
    edges = A.edge_count
    if _sparse_route(A, edges):
        return "listed"
    if kind == "edge":
        return "products"
    if edges * n * np.dtype(_product_dtype(n)).itemsize < _INCIDENCE_MAX_BYTES:
        return "incidence" if 2 * s ** 3 >= edges * n else "stack"
    return "held" if s == n else "stack"


# Wedges, codegree pairs, replicate sums and row chunks of g2 come in
# chunks of about this many: a few MB.  For g2's pair sums at n = 1000,
# 2^16 float64 elements took 3.0 ms against 4.2 ms for 2^18 and 7.8 ms
# for one n x n temporary.
_PAIR_CHUNK = 1 << 16

# _listed_counts forms its sums in int64 below this top (see there).
_LISTED_SUMS_MAX_TOP = 2 ** 59


def _node_sums(nodes: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Exact sums of int64 or Python-int ``values`` into their ``nodes``."""
    out = np.zeros(n, dtype=values.dtype)
    np.add.at(out, nodes, values)
    return out


def _oriented(rows: np.ndarray, cols: np.ndarray, d: np.ndarray):
    """Each edge once as ``(src, dst)``, from its lower-ranked end, grouped by ``src``.

    ``rows``, ``cols`` are the nonzeros of one adjacency in row-major
    order and ``d`` its degrees.  Nodes are ranked by (degree, id), so a
    node with k out-edges has k neighbours of degree at least k: no
    out-list is longer than sqrt(2m) (Chiba & Nishizeki 1985; Latapy
    2008), wherever a hub sits among the ids.  The key ``d*n + id`` orders
    nodes as that rank does, without a sort (it is below n^2, inside intp).
    """
    key = d * d.size + np.arange(d.size)
    up = (key.take(rows) < key.take(cols)).nonzero()[0]
    return rows.take(up), cols.take(up)


def _pair_chunks(start: np.ndarray, count: np.ndarray):
    """Index pairs ``(e, f)``, f in ``start[e] .. start[e] + count[e] - 1``, as
    arrays of about ``_PAIR_CHUNK`` pairs; at least one, empty if no pairs.
    Pair k of edge e is pair ``cum[e] - count[e] + k`` of all, for every chunk."""
    cum = np.cumsum(count)
    cuts = np.searchsorted(cum, np.arange(_PAIR_CHUNK, cum[-1] if cum.size else 0, _PAIR_CHUNK))
    for e0, e1 in zip([0, *cuts], [*cuts, count.size]):
        w, first = count[e0:e1], cum[e0 - 1] if e0 else 0
        e = np.repeat(np.arange(e0, e1), w)
        yield e, np.repeat(start[e0:e1] + w - cum[e0:e1], w) + np.arange(first, first + e.size)


def _triangles(a: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Every triangle of one graph once, as three int64 node arrays ``(k, i, j)``.

    A triangle is listed at its lowest-ranked node k as the pair {i, j}
    of k's out-neighbours (:func:`_oriented`) that the adjacency ``a``
    joins: O(m sqrt(m)) wedges, and nothing of size the sum of squared
    degrees.
    """
    n = a.shape[0]
    # The wedges of edge e pair it with the later edges of its out-list.
    later = np.cumsum(np.bincount(src, minlength=n))[src] - 1 - np.arange(src.size)
    flat = a.reshape(-1).view(np.bool_)
    found = []
    for first, second in _pair_chunks(np.arange(1, src.size + 1), later):
        i, j = dst[first], dst[second]
        closed = flat[i * n + j]
        found.append((src[first[closed]], i[closed], j[closed]))
    if len(found) == 1:
        return found[0]
    k, i, j = (np.concatenate(x) for x in zip(*found))
    return k, i, j


def _codegrees(rows: np.ndarray, cols: np.ndarray, indptr: np.ndarray, dtype) -> np.ndarray:
    """``A @ A`` of one graph from its nonzeros ``(rows, cols, indptr)``, in exact integers.

    Edge e = (i, k) adds 1 at (i, j) for every edge (k, j), so a chunk
    fills a band of rows.  np.add.at of a scalar of the buffer's dtype took
    half the time of np.unique counts at n = 2000."""
    n = indptr.size - 1
    codeg = np.zeros((n, n), dtype=dtype)
    for e, f in _pair_chunks(indptr[cols], np.diff(indptr)[cols]):
        np.add.at(codeg.reshape(-1), rows[e] * n + cols[f], codeg.dtype.type(1))
    return codeg


def _listed_counts(A: AdjacencyMatrix, motif: Motif):
    """:func:`_graph_counts` for the edge, triangle or V-shape on the sparse
    route: from the graph's nonzeros (``A._nonzeros``) and listed triangles.

    With ``d`` the degrees, ``tri`` the triangles at each node and
    ``T(x)_i`` the sum over the triangles at i of ``x`` at their other
    two nodes, ``per`` is ``d`` (edge), ``tri`` (triangle) or
    ``C(d, 2) + A@d - d - 2*tri`` (V-shape: i as centre, then as an end
    of a path that is not a triangle), and ``inner @ per`` is ``A@d``,
    ``T(per)`` or, from the V-shape table's entries ``C_ij`` off edges
    and ``d_i + d_j - 2 - C_ij`` on them,

        A@(A@per + d*per) - d*per + (d - 2)*(A@per) - 2*T(per),

    one sum over the neighbours for ``A@(A@per) + A@(d*per)``.  Everything
    is exact int64.  The sums come back in the dtype that
    :func:`_pair_table_sums` picks.  With ``top = (r-1) * max(per)^2``, the
    first of the four V-shape terms (and every entry of ``A@per + d*per``)
    is at most 4*top and each other at most 2*top, so every partial sum is
    at most 10*top, inside int64 for top < ``_LISTED_SUMS_MAX_TOP``; above
    it (a hub of degree ~33k) the same sums are formed in Python ints.
    The table is the dense one, in its bytes, without its n^2 passes: C on
    the edges scattered from the triangles, or C (:func:`_codegrees`) with
    ``d_i + d_j - 2 - C_ij`` on the edges and a zero diagonal.
    """
    a, n, kind, r = A.a, A.n, _structural_kind(motif), motif.r
    rows, cols, indptr = A._nonzeros
    d = np.diff(indptr)

    def adj(x):  # A @ x
        return _node_sums(rows, x[cols], n)

    if kind == "edge":
        per, table = d, lambda: a
    else:
        k, i, j = A._triangles
        corners = np.concatenate([k, i, j])
        tri = np.bincount(corners, minlength=n)
        per = tri if kind == "triangle" else d * (d - 1) // 2 + adj(d) - d - 2 * tri

        def around(x):  # T(x)
            return _node_sums(corners, np.concatenate([x[i] + x[j], x[k] + x[j], x[k] + x[i]]), n)

        def table():
            if kind == "vshape":
                inner = _codegrees(rows, cols, indptr, np.float32)
                flat, on_edge = inner.reshape(-1), rows * n + cols
                flat[on_edge] = (d[rows] + d[cols] - 2).astype(np.float32) - flat[on_edge]
                np.fill_diagonal(inner, 0.0)
                return inner
            inner = np.zeros((n, n), dtype=np.float32)
            ends = np.concatenate([k, i, k, j, i, j]) * n + np.concatenate([i, k, j, k, j, i])
            np.add.at(inner.reshape(-1), ends, np.float32(1))
            return inner

    def sums():
        big = (r - 1) * int(per.max(initial=0)) ** 2 >= _LISTED_SUMS_MAX_TOP
        dx, x = (d.astype(object), per.astype(object)) if big else (d, per)
        if kind == "edge":
            y = adj(dx)
        elif kind == "triangle":
            y = around(x)
        else:
            a_x = adj(x)
            y = adj(a_x + dx * x) - dx * x + (dx - 2) * a_x - 2 * around(x)
        return y.astype(_sums_dtype(per, r), copy=False)

    return per, sums, table


def _graph_counts(A: AdjacencyMatrix, motif: Motif):
    """``(per_node, sums, table)`` of the graph ``A`` by its :func:`_route`:
    its per-node counts, and functions of no argument that give the exact
    ``inner @ per_node`` (in :func:`_sums_dtype`) and the pair table."""
    route = _route(A, motif)
    if route == "listed":
        return _listed_counts(A, motif)
    inner = (_inner_counts(A.a, motif) if route == "table"
             else _threestar_inner_counts(A.a, A._nonzeros))
    per = _counts_from_inner(inner, motif.r)[1]
    return per, functools.partial(_pair_table_sums, inner, per, motif.r), lambda: inner


def _product_dtype(n: int):
    """The float dtype of :func:`_multiplicity_counts`' dense products on n
    nodes: every value there is an integer of at most n^2, so float32 is
    exact while n^2 <= 2^24 (n <= 4096), and float64 (exact to 2^53) beyond."""
    return np.float32 if n * n <= 2 ** 24 else np.float64


def _multiplicity_counts(A: AdjacencyMatrix, motif: Motif, mult: np.ndarray,
                         route: str) -> np.ndarray:
    """Per-node counts ``F`` (b, n), int64, of the edge, triangle or V-shape in
    the induced graphs of ``A`` that node multiplicities ``mult`` (b, n) give.

    Row b takes ``mult[b, u]`` copies of node u (0/1 for a subsample,
    counts for a resample; s nodes in all, s <= n).  Copies of one node
    are never adjacent, so every copy of u has the count ``F[b, u]``
    (unspecified where ``mult[b, u]`` is 0).  With ``m = mult[b]`` and
    ``D = A @ m``, F is ``D`` (edge), the sum over the triangles {u, v, w}
    of ``m_v * m_w`` (triangle), or the single-graph V-shape
    ``C(d, 2) + A@d - d - 2*tri`` of :func:`_listed_counts` with ``d -> D``
    and ``A@d -> A@(m*D)``.  Every value is an integer of at most s^2.  By
    the given :func:`_route`, the sums are bincounts of float64 weights over
    ``A._nonzeros`` and ``A._triangles`` (``"listed"``, exact below 2^53), or
    products in :func:`_product_dtype` with ``A._products``: the triangle's
    ``(m_v * m_w over the edges) @ A._incidence`` (``"incidence"``), else
    ``1/2 sum_w A_uw m_w (A diag(m) A)_uw`` over the rows of held nodes only.
    """
    b, n = mult.shape
    kind = _structural_kind(motif)
    if route == "listed":
        rows, cols, _ = A._nonzeros
        shift = (n * np.arange(b))[:, None]
        m = mult

        def adj(x):  # A @ x, row by row
            return np.bincount((rows + shift).ravel(), x[:, cols].ravel(), b * n).reshape(b, n)

        def triangles():  # each corner u of a listed triangle adds m_v * m_w
            k, i, j = A._triangles
            corners = np.concatenate([k, i, j])
            ends = mult[:, np.concatenate([i, k, k])] * mult[:, np.concatenate([j, j, i])]
            return np.bincount((corners + shift).ravel(), ends.ravel(), b * n).reshape(b, n)
    else:
        af = A._products
        m = mult.astype(af.dtype)

        def adj(x):  # A @ x, row by row: A is symmetric
            return x @ af

        def triangles():
            if route == "incidence":  # each edge {v, w} adds m_v * m_w at the u it closes
                v, w, inc = A._incidence
                mt = np.ascontiguousarray(m.T)  # rows gather faster than columns
                pairs = mt[v]
                pairs *= mt[w]
                return pairs.T @ inc
            # rows of A diag(m) and A diag(m) A at the held nodes
            held = np.flatnonzero(mult)  # b * n + u
            left = af[held % n] * m[held // n]
            paths = left @ af
            paths *= left
            tri = np.zeros(b * n, dtype=af.dtype)
            tri[held] = paths.sum(axis=1) / 2
            return tri.reshape(b, n)
    if kind == "triangle":
        return _round_int(triangles())
    d = _round_int(adj(m))
    if kind == "edge":
        return d
    tri = _round_int(triangles())
    return d * (d - 1) // 2 + _round_int(adj(m * d.astype(m.dtype))) - d - 2 * tri


# Stacks of gathered bootstrap replicates are counted in blocks of about
# this many adjacency entries (b * n^2), and the graphon sampler draws
# edge uniforms and probabilities in chunks of about this many pairs,
# which keeps their float64 temporaries within a few hundred kB.
_BLOCK_ELEMENTS = 1 << 15


def _stack_block(n: int) -> int:
    """Replicate graphs on ``n`` nodes per block of a stacked count."""
    return max(1, _BLOCK_ELEMENTS // (n * n))


def _replicate_counter(A: AdjacencyMatrix, motif: Motif, s: int):
    """``(block, count)`` for the graphs that ``A`` induces on draws of ``s``
    nodes, by their :func:`_route`: ``count(idx)`` gives the
    :func:`motif_counts_block` ``(total, per_node)``, int64 arrays (b,) and
    (b, s), of at most ``block`` draws ``idx`` (b, s) at once.

    A block takes about ``_PAIR_CHUNK`` entries: per draw n multiplicities,
    plus a term per edge end and triangle corner (listed), a pair product
    per edge (incidence) or n^2 held-row product entries (held).  Incidence
    blocks hold at least n draws, so the table is read once per n draws or
    fewer (read for every 4 draws, a 15 MB table took 5x as long a draw as
    for 64).  A stack holds :func:`_stack_block` draws.
    """
    n, route = A.n, _route(A, motif, s)
    if route == "stack":
        return _stack_block(s), lambda idx: motif_counts_block(
            A.a.ravel()[idx[:, :, None] * n + idx[:, None, :]], motif)
    if route == "listed":
        corners = 0 if motif.r == 2 else 3 * A._triangles[0].size
        block = _PAIR_CHUNK // (n + A._nonzeros[0].size + corners)
    elif route == "incidence":
        block = max(n, _PAIR_CHUNK // (n + A.edge_count))
    else:
        block = _PAIR_CHUNK // (n * n if route == "held" else n)

    def count(idx):
        flat = idx + (n * np.arange(idx.shape[0]))[:, None]
        mult = np.bincount(flat.ravel(), minlength=flat.shape[0] * n).reshape(-1, n)
        return _totals(_multiplicity_counts(A, motif, mult, route).ravel()[flat], motif.r)

    return max(1, block), count


def _counts_from_inner(inner: np.ndarray, r: int):
    """``(total, per_node)`` from the pair completion counts of an r-node motif.

    For one graph ``total`` is an int and ``per_node`` an int64 array
    ``(n,)``; for a stack they are int64 arrays ``(b,)`` and ``(b, n)``.
    Integer tables sum exactly in int64, the int8 edge table first in int16
    when n < 2^15 (a row sums to at most n - 1; 2.7 against 4.8 us per
    n = 80 graph); float32 tables sum in float64 (exact below 2^53) and round.
    """
    if inner.dtype.kind == "f":
        sums = _round_int(inner.sum(axis=-1, dtype=np.float64))
    elif inner.dtype == np.int8 and inner.shape[-1] < 2 ** 15:
        sums = inner.sum(axis=-1, dtype=np.int16).astype(np.int64)
    else:
        sums = inner.sum(axis=-1, dtype=np.int64)
    return _totals(sums // (r - 1), r)


def _totals(per: np.ndarray, r: int):
    """``(total, per)``: each containing r-set is counted at its r nodes."""
    total = per.sum(axis=-1) // r
    return (int(total) if per.ndim == 1 else total), per


def motif_counts(A: AdjacencyMatrix, motif: Motif) -> tuple[int, np.ndarray]:
    """Exact motif-containment counts: total and per node.

    Returns ``(total, per_node)`` where ``total`` is the number of
    r-subsets containing the motif and ``per_node[i]`` counts those
    subsets that include node ``i``.  Every subset contributes to exactly
    ``r`` per-node counts, so ``per_node.sum() == r * total``.
    """
    return _totals(_graph_counts(A, motif)[0], motif.r)


def motif_counts_block(a: np.ndarray, motif: Motif) -> tuple[np.ndarray, np.ndarray]:
    """:func:`motif_counts` of every graph in an int8 adjacency stack ``(b, n, n)``.

    The stack must hold valid simple graphs (as the graphon block
    sampler makes them); it is not re-validated.  It goes through the
    same pair-count kernel as a single graph: edge, triangle and V-shape
    tables are batched matrix products, three-star and generic tables
    are built one graph at a time.  Returns int64 arrays ``total``
    ``(b,)`` and ``per_node`` ``(b, n)``.
    """
    return _counts_from_inner(_inner_counts(a, motif), motif.r)


def sample_moment(A: AdjacencyMatrix, motif: Motif) -> float:
    """Sample network moment: fraction of r-subsets containing the motif."""
    total, _ = motif_counts(A, motif)
    return total / math.comb(A.n, motif.r)


def _enumerated_inner_counts(a: np.ndarray, motif: Motif) -> np.ndarray:
    """Pair completion counts of any motif from one pass over the r-subsets.

    A node whose graph degree is below the motif's minimum degree can
    never occupy any position, so only subsets of the other nodes are
    visited, in chunks of ``_PAIR_CHUNK // C(r, 2)``, each looked up in
    ``motif.h_table`` by its :func:`motif._pattern_masks` mask; each
    containing subset adds 1 to each of its C(r, 2) pairs.
    More than ``MAX_GENERIC_SUBSETS`` of them raise ``CostCapError``.
    """
    n, r = a.shape[0], motif.r
    keep = np.flatnonzero(a.sum(axis=1) >= motif.degrees.min())
    work = math.comb(keep.size, r)
    if work > MAX_GENERIC_SUBSETS:
        raise CostCapError(
            f"generic enumeration needs {work:.3g} subsets, above the cap "
            f"MAX_GENERIC_SUBSETS = {MAX_GENERIC_SUBSETS:.3g}; count a smaller graph")
    i, j = np.array(_PAIRS[r]).T
    step = max(1, _PAIR_CHUNK // i.size)
    # One flat stream of ids: np.fromiter fills twice as fast as from r-tuples.
    ids = itertools.chain.from_iterable(itertools.combinations(keep.tolist(), r))
    # Flat upper-triangle counts: subsets are increasing, so x < y.
    upper = np.zeros((n, n), dtype=np.int64)
    for _ in range(0, work, step):
        nodes = np.fromiter(itertools.islice(ids, step * r), dtype=np.int64).reshape(-1, r)
        held = nodes[motif.h_table[_pattern_masks(a, nodes)]]
        np.add.at(upper.reshape(-1), held[:, i] * n + held[:, j], 1)
    return upper + upper.T


# Rows of the edge-product matrix W in _common_neighbour_edges are built
# and multiplied in chunks of at most this many float64 elements.
_EDGE_PRODUCT_ELEMENTS = 1 << 18


def _threestar_inner_counts(a: np.ndarray, nonzeros=None) -> np.ndarray:
    """Three-star pair completion counts in closed form.

    ``inner[i, j]`` is the number of pairs {k, l} for which {i, j, k, l}
    holds a three-star.  Let c(S) be the number of nodes of a 4-set S
    adjacent to the other three.  c is 0, 1, 2 or 4 (c = 4 exactly when
    S is a K4), so S holds a three-star iff
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
    ``inner.sum(1) // 3``.  ``a`` is one int8 adjacency ``(n, n)``; given
    its nonzeros ``(rows, cols, indptr)``, the codegrees are scattered,
    with the same bytes.
    """
    af = a.astype(np.float64)
    d = af.sum(axis=1)
    codeg = af @ af if nonzeros is None else _codegrees(*nonzeros, np.float64)
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


def pair_projection(A: AdjacencyMatrix, motif: Motif) -> np.ndarray:
    """Pairwise projection estimates ``g2`` (n x n, symmetric, zero diagonal).

    ``g2[i, j]`` is the fraction of (r-2)-subsets that complete the pair
    {i, j} to a containing r-set, minus ``u_hat + g1[i] + g1[j]``, all
    from the one table of pair completion counts (module docstring).
    """
    per, _, table = _graph_counts(A, motif)
    u_hat, g1, _, _ = studentize(*_totals(per, motif.r), A.n, motif.r)
    return _pair_projection_from_inner(table(), g1, float(u_hat), motif.r)


def _pair_projection_from_inner(inner, g1: np.ndarray, u_hat: float, r: int) -> np.ndarray:
    """``g2`` in one buffer: ``(inner[i, j] / C(n-2, r-2) - u_hat) - (g1[i] + g1[j])``,
    bitwise symmetric."""
    n = inner.shape[0]
    comb = math.comb(n - 2, r - 2)
    g2 = np.empty((n, n))
    step = max(1, _PAIR_CHUNK // n)
    for start in range(0, n, step):
        block = g2[start:start + step]
        # In float64: a float32 table divided by an int would stay float32.
        np.divide(inner[start:start + step], comb, out=block, dtype=np.float64)
        block -= u_hat
        block -= g1[start:start + step, None] + g1[None, :]
    np.fill_diagonal(g2, 0.0)
    return g2


def _sums_dtype(per: np.ndarray, r: int):
    """The exact dtype of ``inner @ per``, see :func:`_pair_table_sums`."""
    top = (r - 1) * int(per.max(initial=0)) ** 2
    return np.float64 if top < 2 ** 53 else np.int64 if top < 2 ** 63 else object


def _pair_table_sums(inner: np.ndarray, per: np.ndarray, r: int) -> np.ndarray:
    """``inner @ per`` in exact integers, whatever the BLAS thread count.

    Row i sums nonnegative integers to at most ``(r-1) * per_i * max(per)``,
    so float64 is exact in any order below 2^53, then int64 to 2^63, then
    Python ints (dense three-star graphs from n ~ 2200).  einsum casts the
    table in its buffers: it is not copied into an n x n float64 array."""
    dtype = _sums_dtype(per, r)
    table = inner.astype(np.int64, copy=False) if dtype is object else inner
    return np.einsum("ij,j->i", table, per, dtype=dtype, casting="unsafe")


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


def jackknife_variance(A: AdjacencyMatrix, motif: Motif) -> float:
    """Leave-one-node-out jackknife variance estimate.

    Deleting node ``i`` removes exactly the containing subsets counted
    by ``per_node[i]``, so each leave-one-out moment comes from the same
    single counting pass as the full moment.
    """
    n, r = A.n, motif.r
    if n < r + 1:
        raise ValueError(f"jackknife needs at least r+1 = {r + 1} nodes, got {n}")
    total, per = motif_counts(A, motif)
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
    xi1_hat_sq: float
    e_g1_cubed: float
    e_g1g1g2: float
    degenerate: bool

    @property
    def s_hat(self) -> float:
        return math.sqrt(self.s_hat_sq)


def compute_stats(A: AdjacencyMatrix, motif: Motif) -> MomentStats:
    """All moment statistics of one graph in a single record.

    One :func:`_graph_counts` pass gives the per-node counts and the sums
    behind ``e_g1g1g2`` (module docstring); only :func:`pair_projection`
    builds the n x n ``g2``.  ``g1 = per / C(n-1, r-1) - u_hat`` has one
    value per distinct count, so when every count is below n, ``g1 ** 3``
    is gathered from the cubes of ``0 .. per.max()``: the same float64
    powers of the same inputs, so the same bytes and the same pairwise sum
    (a float64 pow took ~75 us of a request at n = 1000).  Sets
    ``degenerate`` when the variance estimate is exactly zero (e.g. empty
    or complete graphs); downstream studentization must check the flag
    rather than divide.
    """
    n, r = A.n, motif.r
    per, sums, _ = _graph_counts(A, motif)
    total, per = _totals(per, r)
    u_hat, g1, s_hat_sq, degenerate = studentize(total, per, n, r)
    u_hat = float(u_hat)
    # y = inner @ g1 (row i of inner sums to (r - 1) * per_i); q = g1' g2 g1.
    y = sums() / math.comb(n - 1, r - 1) - u_hat * (r - 1) * per
    top = int(per.max())
    cubes = ((np.arange(top + 1) / math.comb(n - 1, r - 1) - u_hat) ** 3).take(per) \
        if top < n else g1 ** 3
    s1, s2, s3 = np.sum(g1), np.sum(g1 * g1), np.sum(cubes)
    q = np.sum(g1 * y) / math.comb(n - 2, r - 2) - u_hat * (s1 * s1 - s2) - 2.0 * (s1 * s2 - s3)
    return MomentStats(n=n, motif=motif, u_hat=u_hat, s_hat_sq=s_hat_sq, g1_hat=g1,
                       xi1_hat_sq=float(s2 / n), e_g1_cubed=float(s3 / n),
                       e_g1g1g2=float(q / (2.0 * math.comb(n, 2))), degenerate=bool(degenerate))
