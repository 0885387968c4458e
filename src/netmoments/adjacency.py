"""Simple undirected binary graphs and edge-list input."""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = ["AdjacencyMatrix", "from_edges", "load_edge_list"]


class AdjacencyMatrix:
    """Adjacency matrix of a simple undirected graph.

    Wraps a symmetric, hollow 0/1 matrix and caches the derived views
    the counting code needs (degrees, and a float64 copy for exact
    integer-valued BLAS products).
    """

    def __init__(self, a):
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("adjacency must be binary (0/1 entries)")
        a = a.astype(np.int8)
        if (a != a.T).any():
            raise ValueError("adjacency must be symmetric")
        if np.diagonal(a).any():
            raise ValueError("adjacency must have a zero diagonal (no self-loops)")
        self._wrap(a)

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
        self.degrees = a.sum(axis=1, dtype=np.int64)

    @cached_property
    def afloat(self) -> np.ndarray:
        # 0/1 in float64: BLAS products of these stay exactly integer-valued.
        return self.a.astype(np.float64)

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def induced(self, nodes) -> "AdjacencyMatrix":
        """Induced subgraph on the given node indices.

        A repeated index yields two non-adjacent copies of the node,
        because ``a[i, i] == 0``, so the result is always a simple graph.
        """
        idx = np.asarray(nodes, dtype=np.intp)
        return AdjacencyMatrix._trusted(self.a[np.ix_(idx, idx)])

    def relabeled(self, perm) -> "AdjacencyMatrix":
        """Graph with node ``i`` renamed to ``perm[i]``."""
        perm = np.asarray(perm, dtype=np.intp)
        if perm.shape != (self.n,) or not np.array_equal(np.sort(perm), np.arange(self.n)):
            raise ValueError(f"perm must be a permutation of 0..{self.n - 1}")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.n)
        return AdjacencyMatrix._trusted(self.a[np.ix_(inv, inv)])

    def __repr__(self) -> str:
        return f"AdjacencyMatrix(n={self.n}, edges={self.edge_count})"


def from_edges(n: int, edges) -> AdjacencyMatrix:
    """Build a graph on ``n`` nodes from 0-based edge pairs."""
    a = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has a node id outside [0, {n})")
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) not allowed")
        a[i, j] = a[j, i] = 1
    return AdjacencyMatrix(a)


def load_edge_list(path) -> AdjacencyMatrix:
    """Read an undirected edge list with 1-based node ids.

    Each non-empty line holds one edge as two ids separated by
    whitespace or a comma.  Duplicate edges are ignored; self-loops are
    rejected.  The node count is the largest id seen.
    """
    edges = []
    max_id = 0
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two node ids, got {raw!r}")
        i, j = int(parts[0]), int(parts[1])
        if i < 1 or j < 1:
            raise ValueError(f"{path}:{lineno}: node ids are 1-based, got {raw!r}")
        if i == j:
            raise ValueError(f"{path}:{lineno}: self-loop {i} rejected")
        max_id = max(max_id, i, j)
        edges.append((i - 1, j - 1))
    if max_id < 2:
        raise ValueError(f"{path}: no edges found")
    return from_edges(max_id, edges)
