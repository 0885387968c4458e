"""Simple undirected binary graphs and edge-list input."""

from __future__ import annotations

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

    Wraps a symmetric, hollow 0/1 int8 matrix.
    """

    def __init__(self, a):
        self._wrap(_check_square_binary(a, "adjacency"))

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "AdjacencyMatrix":
        """Wrap an int8 matrix that is symmetric, hollow and 0/1 by construction.

        Skips the O(n^2) checks of the public constructor; only code that
        builds ``a`` from an already valid graph (or samples it that way)
        may call this.
        """
        self = cls.__new__(cls)
        self._wrap(a)
        return self

    def _wrap(self, a: np.ndarray) -> None:
        a.setflags(write=False)
        self.a = a
        self.n = a.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.a)) // 2

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
    ``[0, n)`` or equal ids; before any pair, a ``ValueError`` refuses
    an ``n`` whose n x n matrix of n^2 bytes cannot be allocated.  Both
    triangles are set from the checked pairs, so the matrix is
    symmetric, hollow and 0/1 by construction and is not validated again.
    """
    try:  # numpy refuses a size past intp with a ValueError of its own
        if n * n > np.iinfo(np.intp).max:
            raise MemoryError
        a = np.zeros((n, n), dtype=np.int8)
    except MemoryError:
        raise ValueError(f"a graph on n = {n} nodes needs an n x n matrix of n^2 = "
                         f"{n * n:.3g} bytes, more than can be allocated") from None
    pairs = _checked_pairs(n, edges)
    a[pairs[:, 0], pairs[:, 1]] = 1
    a[pairs[:, 1], pairs[:, 0]] = 1
    return AdjacencyMatrix._trusted(a)


def _checked_pairs(n: int, edges) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` integer array of valid edges on ``n`` nodes.

    Integer arrays are checked in one vectorised pass; anything else
    (floats, ids beyond int64, ragged input) pair by pair, so that no
    id is truncated or wrapped before it is checked.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges)
    except ValueError:  # ragged
        pairs = None
    if pairs is not None and pairs.dtype.kind in "iu" and pairs.shape[1:] == (2,):
        bad = ~((pairs >= 0) & (pairs < n)).all(axis=1) | (pairs[:, 0] == pairs[:, 1])
        if bad.any():
            raise ValueError(_pair_error(n, *pairs[np.argmax(bad)].tolist()))
        return pairs
    for i, j in edges:
        error = _pair_error(n, i, j)
        if error:
            raise ValueError(error)
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


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
    newlines) are parsed in one vectorised pass, anything else by the
    line parser.  The checked pairs go to :func:`from_edges`, whose
    scatter makes a valid matrix by construction, so the n x n matrix is
    never re-validated.
    """
    text = Path(path).read_text()
    pairs = _plain_pairs(text)
    if pairs is not None:
        return from_edges(int(pairs.max()), pairs - 1)
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
    return from_edges(max_id, edges)


def _plain_pairs(text: str) -> np.ndarray | None:
    """The ``(m, 2)`` 1-based edges of a plain, valid edge list, else None.

    None (use the line parser) for another character, no digit, a row
    not of two int64 ids, an id below 1, a self-loop, or comma text with
    a skipped line (``loadtxt`` skips a line of commas; the parser fails).
    """
    if not text.isascii() or text.encode().translate(None, b"0123456789 \t,\n") \
            or not text.strip(" \t,\n"):
        return None
    try:
        pairs = np.loadtxt(io.StringIO(text.replace(",", " ")), dtype=np.int64,
                           comments=None, ndmin=2)
    except ValueError:  # a short or long row, or an id beyond int64
        return None
    lines = text.count("\n") + (not text.endswith("\n"))
    if pairs.shape[1] != 2 or (pairs.shape[0] != lines and "," in text) \
            or pairs.min() < 1 or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return pairs
