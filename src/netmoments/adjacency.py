"""Simple undirected binary graphs and edge-list input."""

from __future__ import annotations

import functools
import io
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

        Built on first use by :func:`_csr`: from the edge keys, sorted as
        int32 while n <= 46340 (:func:`_sorted_keys`), or else from the bytes
        of ``a``.  ``rows`` and ``cols`` are intp either way, the index dtype
        numpy takes without a cast.
        """
        keys = _byte_keys(self.a) if self._keys is None else _sorted_keys(self.n, self._keys)
        return _csr(self.n, keys)

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


def _sorted_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """Flat keys on ``n`` nodes sorted, and copied without their repeats only
    if a key equals the one before it (np.unique took 10x longer at 5k edges).

    Sorted as int32 while every key fits, n^2 <= 2^31 - 1 (n <= 46340):
    sort, dedupe and split took 62 us against 92 us in int64 at 10k keys.
    """
    keys = np.sort(keys.astype(np.int32) if n * n <= np.iinfo(np.int32).max else keys)
    repeat = keys[1:] == keys[:-1]
    return np.delete(keys, repeat.nonzero()[0] + 1) if repeat.any() else keys


def _csr(n: int, keys: np.ndarray):
    """``(rows, cols, indptr)`` of sorted, repeat-free flat keys ``i*n + j``
    (int32 or intp) on ``n`` nodes.

    A key splits as ``keys // n`` and ``keys - rows * n`` (np.divmod took
    2.5x as long at 10k keys), in the keys' dtype.  ``rows`` and ``cols``
    are returned as intp whatever that dtype: numpy casts a non-intp index
    on every take (13.6 against 10.1 us per take at 14k int32 indices).
    """
    rows = keys // n
    cols = (keys - rows * n).astype(np.intp, copy=False)
    rows = rows.astype(np.intp, copy=False)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return rows, cols, indptr


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
    file's bytes are read once; valid edges in plain text (digits,
    blanks, commas, line ends) are parsed in one vectorised pass over
    them (:func:`_plain_pairs`), anything else by :func:`_line_parsed`,
    on the text ``Path.read_text`` gives (the same decoder and newline
    translation, through ``io.TextIOWrapper``).  Either parser has
    checked its pairs (ids at least 1, no self-loop, n the largest id),
    so :func:`_built` takes them without the checks of
    :func:`from_edges` and never re-validates the matrix it builds.
    """
    raw = Path(path).read_bytes()
    pairs = _plain_pairs(raw)
    if pairs is not None:
        return _built(int(pairs.max()), pairs - 1)
    text = io.TextIOWrapper(io.BytesIO(raw), encoding=io.text_encoding(None)).read()
    return _line_parsed(path, text)


def _line_parsed(path, text: str) -> AdjacencyMatrix:
    """The graph of the edge list ``text`` (read from ``path``), parsed line
    by line: any text :func:`load_edge_list` accepts, and every message."""
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


def _plain_pairs(raw: bytes) -> np.ndarray | None:
    """The ``(m, 2)`` 1-based edges of a plain, valid edge list's bytes, else None.

    One vectorised pass over the bytes (np.loadtxt took twice as long): the
    digit runs are cut at their boundaries, each id is summed from its
    digits by place value, and the runs are counted per line from where the
    newlines fall.  CRLF and a lone CR end a line as a newline does, as in
    the text ``read_text`` gives.  Ids of up to 9 digits are summed
    in int32 (they fit below 2^31), longer ones in int64.  None (use the
    line parser) for another byte (``translate`` refuses non-ASCII too), no
    digit, an id of more than 18 digits (18 always fit int64), a line of
    other than two ids or none, comma text with a line that holds no edge
    (the line parser refuses a line of commas), an id below 1 or a
    self-loop.
    """
    if raw.translate(None, b"0123456789 \t,\n\r"):
        return None
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    z = np.frombuffer(b" " + raw + b" ", dtype=np.uint8) - np.uint8(48)
    digit = z < 10  # blanks, commas and newlines wrap past 200
    # Copied: as strided views, starts slowed each np.maximum of the place
    # loop below (~10 us more per parse at 10k runs).
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
    if gap[0::2].max(initial=1) > 1 or gap[1::2].min(initial=2) < 2 or b"," in raw \
            and starts.size != 2 * (raw.count(b"\n") + (not raw.endswith(b"\n"))):
        return None
    # Each id from the last ``width`` places of its run, z[ends] the units;
    # a shorter run reads z[starts], the 0 before it, for its missing ones.
    # One place per step: a (width, runs) table made every request refault
    # ~200 pages in some processes (the heap top was trimmed after it).
    z *= digit
    ids = np.zeros(starts.size, dtype=np.int32 if width <= 9 else np.int64)
    at = ends + (1 - width)
    for _ in range(width):
        ids *= 10
        ids += z.take(np.maximum(at, starts))
        at += 1
    pairs = ids.reshape(-1, 2)
    return None if pairs.min() < 1 or (pairs[:, 0] == pairs[:, 1]).any() else pairs
