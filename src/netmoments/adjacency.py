"""Simple undirected binary graphs and edge-list input."""

from __future__ import annotations

import functools
import operator
from pathlib import Path

import numpy as np

__all__ = ["AdjacencyMatrix", "from_edges", "load_edge_list"]


def _check_square_binary(m, what: str) -> np.ndarray:
    """``m`` as int8, after checking it is square, 0/1, symmetric and hollow."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ValueError(f"{what} must be binary (0/1 entries)")
    m = m.astype(np.int8)
    if (m != m.T).any():
        raise ValueError(f"{what} must be symmetric")
    if np.diagonal(m).any():
        raise ValueError(f"{what} must have a zero diagonal (no self-loops)")
    return m


def _integer(key: str, value) -> int:
    """``value`` as an int, for a config key that must hold an integer."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _check_keys(spec, allowed, required, what: str) -> None:
    """Reject a ``what`` mapping with keys outside ``allowed``, then one lacking ``required``."""
    for problem, keys in (("unknown", set(spec) - set(allowed)),
                          ("missing", set(required) - set(spec))):
        if keys:
            raise ValueError(f"{problem} {what} keys: {sorted(keys)}")


class AdjacencyMatrix:
    """Adjacency matrix of a simple undirected graph.

    Wraps a symmetric, hollow 0/1 int8 matrix.  A graph built by
    :func:`from_edges` also keeps its edge keys (``_keys``: ``i*n + j`` and
    ``j*n + i`` of each checked pair, intp, duplicates included), so its
    edge count and edge listing come from them without a pass over the n^2
    bytes.
    """

    def __init__(self, a):
        self._wrap(_check_square_binary(a, "adjacency"))

    @classmethod
    def _trusted(cls, a: np.ndarray, keys=None) -> "AdjacencyMatrix":
        """Wrap an int8 matrix that is symmetric, hollow and 0/1 by construction.

        Skips the O(n^2) checks of the public constructor; only code that
        builds ``a`` from an already valid graph (or samples it that way)
        may call this.
        """
        self = cls.__new__(cls)
        self._wrap(a, keys)
        return self

    def _wrap(self, a: np.ndarray, keys=None) -> None:
        a.setflags(write=False)
        self.a = a
        self.n = a.shape[0]
        self._keys = keys

    @property
    def edge_count(self) -> int:
        if self._keys is None:
            return int(np.count_nonzero(self.a)) // 2
        return self._nonzeros[0].size // 2

    @functools.cached_property
    def _nonzeros(self):
        """``(rows, cols, indptr)``: the nonzeros of ``a`` in row-major order, as CSR.

        Built on first use: from the edge keys, sorted, and copied without
        their repeats only if a key equals the one before it (np.unique took
        10x longer at 5k edges), or else from the bytes of ``a``.  A key
        splits as ``keys // n`` and ``keys - rows * n`` (np.divmod took 2.5x
        as long at 10k keys).
        """
        n = self.n
        if self._keys is None:
            keys = _byte_keys(self.a)
        else:
            keys = np.sort(self._keys)
            repeat = keys[1:] == keys[:-1]
            if repeat.any():
                keys = np.delete(keys, repeat.nonzero()[0] + 1)
        rows = keys // n
        cols = keys - rows * n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return rows, cols, indptr

    @functools.cached_property
    def _triangles(self):
        """``(k, i, j)``: every triangle once, as three int64 node arrays.

        Listed on first use from the nonzeros (``moments._triangles``), and
        shared by every sparse-route count of this graph: its statistics
        and each bootstrap replicate.
        """
        from . import moments  # moments imports this module

        rows, cols, indptr = self._nonzeros
        return moments._triangles(self.a, *moments._oriented(rows, cols, np.diff(indptr)))

    @functools.cached_property
    def _products(self) -> np.ndarray:
        """``a`` in ``moments._product_dtype(n)``: the matrix of every dense-route
        replicate product of this graph, cast once."""
        from . import moments

        return self.a.astype(moments._product_dtype(self.n))

    @functools.cached_property
    def _incidence(self):
        """``(v, w, inc)``: each edge {v, w} once, v < w, and its row
        ``inc[e, u] = a[u, v] * a[u, w]`` (1 where the edge closes a triangle
        at u), ``(edges, n)`` in the dtype of :attr:`_products`.  Built on
        first use and shared by every dense-route replicate triangle count
        (``moments._multiplicity_counts``).
        """
        rows, cols, _ = self._nonzeros
        up = rows < cols
        v, w = rows[up], cols[up]
        inc = self._products[v]
        inc *= self._products[w]
        return v, w, inc

    def induced(self, nodes) -> "AdjacencyMatrix":
        """Induced subgraph on the given node indices.

        A repeated index yields two non-adjacent copies of the node,
        because ``a[i, i] == 0``, so the result is always a simple graph.
        """
        idx = np.asarray(nodes, dtype=np.intp)
        return AdjacencyMatrix._trusted(self.a[np.ix_(idx, idx)])

    def __repr__(self) -> str:
        return f"AdjacencyMatrix(n={self.n}, edges={self.edge_count})"


def from_edges(n: int, edges) -> AdjacencyMatrix:
    """Build a graph on ``n`` nodes from 0-based edge pairs.

    ``edges`` is an iterable of integer pairs or an ``(m, 2)`` integer
    array.  Duplicates collapse.  A ``ValueError`` names the first pair,
    in input order, that has a non-integer id, an id outside
    ``[0, n)`` or equal ids; then :func:`_built` makes the graph, or
    refuses an ``n`` whose n x n matrix cannot be allocated.
    """
    return _built(n, _checked_pairs(n, edges))


def _built(n: int, pairs) -> AdjacencyMatrix:
    """The graph on ``n`` nodes of already checked 0-based ``pairs`` (ids in
    ``[0, n)``, not equal): from :func:`from_edges` or an edge-list parser.

    A ``ValueError`` refuses an ``n`` whose n x n matrix of n^2 bytes
    cannot be allocated, before any id is read as intp.  The flat keys
    ``i*n + j`` and ``j*n + i`` set both triangles in one scatter, so the
    matrix is symmetric, hollow and 0/1 by construction and is not
    validated again.  The graph keeps the keys, for its edge count and
    edge listing.
    """
    try:  # numpy refuses a size past intp with a ValueError of its own
        if n * n > np.iinfo(np.intp).max:
            raise MemoryError
        a = np.zeros((n, n), dtype=np.int8)
    except MemoryError:
        raise ValueError(f"a graph on n = {n} nodes needs an n x n matrix of n^2 = "
                         f"{n * n:.3g} bytes, more than can be allocated") from None
    i, j = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    keys = np.concatenate([i * n + j, j * n + i])
    a.reshape(-1)[keys] = 1
    return AdjacencyMatrix._trusted(a, keys)


def _byte_keys(a: np.ndarray) -> np.ndarray:
    """Flat indices of the nonzeros of an int8 adjacency, read as bool: 5x faster."""
    return np.flatnonzero(a.view(np.bool_))


def _checked_pairs(n: int, edges):
    """``edges`` as valid edges on ``n`` nodes: an ``(m, 2)`` integer array,
    or the list of pairs checked one by one.

    Integer arrays are checked by whole-array reductions (a row mask over
    ``(m, 2)`` took 5x longer), and one that fails is searched for its first
    bad pair; anything else (floats, ids beyond int64, ragged input) pair by
    pair, so that no id is truncated or wrapped before it is checked.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges)
    except ValueError:  # ragged
        pairs = None
    if pairs is not None and pairs.dtype.kind in "iu" and pairs.shape[1:] == (2,):
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n
                           or (pairs[:, 0] == pairs[:, 1]).any()):
            bad = ~((pairs >= 0) & (pairs < n)).all(axis=1) | (pairs[:, 0] == pairs[:, 1])
            raise ValueError(_pair_error(n, *pairs[np.argmax(bad)].tolist()))
        return pairs
    for i, j in edges:
        error = _pair_error(n, i, j)
        if error:
            raise ValueError(error)
    return edges


def _pair_error(n: int, i, j) -> str | None:
    """Why ``(i, j)`` is not an edge of a simple graph on ``n`` nodes, or None."""
    try:
        operator.index(i), operator.index(j)
    except TypeError:
        return f"edge ({i}, {j}) has a non-integer node id"
    if not (0 <= i < n and 0 <= j < n):
        return f"edge ({i}, {j}) has a node id outside [0, {n})"
    if i == j:
        return f"self-loop ({i}, {j}) not allowed"
    return None


def load_edge_list(path) -> AdjacencyMatrix:
    """Read an undirected edge list with 1-based node ids.

    Each non-empty line holds one edge as two ids separated by
    whitespace or a comma; lines starting with ``#`` are comments.
    Duplicate edges are ignored; self-loops are rejected.  The node
    count is the largest id seen.  Errors name the file and line.  The
    file is read once; valid edges in plain text (digits, blanks, commas,
    newlines) are parsed in one vectorised pass over its bytes
    (:func:`_plain_pairs`), anything else by the line parser.  Either
    parser has checked its pairs (ids at least 1, no self-loop, n the
    largest id), so :func:`_built` takes them without the checks of
    :func:`from_edges` and never re-validates the matrix it builds.
    """
    text = Path(path).read_text()
    pairs = _plain_pairs(text)
    if pairs is not None:
        return _built(int(pairs.max()), pairs - 1)
    edges = []
    max_id = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two node ids, got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: node ids must be integers, got {raw!r}") from None
        if i < 1 or j < 1:
            raise ValueError(f"{path}:{lineno}: node ids are 1-based, got {raw!r}")
        if i == j:
            raise ValueError(f"{path}:{lineno}: self-loop {i} rejected")
        max_id = max(max_id, i, j)
        edges.append((i - 1, j - 1))
    if max_id < 2:
        raise ValueError(f"{path}: no edges found")
    return _built(max_id, edges)


def _plain_pairs(text: str) -> np.ndarray | None:
    """The ``(m, 2)`` int64 1-based edges of a plain, valid edge list, else None.

    One vectorised pass over the bytes (np.loadtxt took twice as long): the
    digit runs are cut at their boundaries, each id is summed from its
    digits by place value, and the runs are counted per line from where the
    newlines fall.  None (use the line parser) for another character, no
    digit, an id of more than 18 digits (18 always fit int64), a line of
    other than two ids or none, comma text with a line that holds no edge
    (the line parser refuses a line of commas), an id below 1 or a
    self-loop.
    """
    raw = text.encode()
    if not text.isascii() or raw.translate(None, b"0123456789 \t,\n"):
        return None
    z = np.frombuffer(b" " + raw + b" ", dtype=np.uint8) - np.uint8(48)
    digit = z < 10  # blanks, commas and newlines wrap past 200
    starts, ends = (digit[1:] != digit[:-1]).nonzero()[0].reshape(-1, 2).T.copy()
    width = int((ends - starts).max(initial=0))
    if starts.size % 2 or not 0 < width <= 18:
        return None
    # Among the run starts and newlines, in text order, runs 2e and 2e+1
    # must be adjacent (one line) and runs 2e+1 and 2e+2 not.
    marks = z[1:] == 218  # b"\n" - 48
    marks[starts] = True
    runs = (z[1:][marks.nonzero()[0]] != 218).nonzero()[0]  # event index of each run
    gap = runs[1:] - runs[:-1]
    if gap[0::2].max(initial=1) > 1 or gap[1::2].min(initial=2) < 2 or "," in text \
            and starts.size != 2 * (text.count("\n") + (not text.endswith("\n"))):
        return None
    # Each id from the last ``width`` places of its run, z[ends] the units;
    # a shorter run reads z[starts], the 0 before it, for its missing ones.
    # One place per step: a (width, runs) table made every request refault
    # ~200 pages in some processes (the heap top was trimmed after it).
    z *= digit
    ids, at = np.zeros(starts.size, dtype=np.int64), ends + (1 - width)
    for _ in range(width):
        ids *= 10
        ids += z.take(np.maximum(at, starts))
        at += 1
    pairs = ids.reshape(-1, 2)
    return None if pairs.min() < 1 or (pairs[:, 0] == pairs[:, 1]).any() else pairs
