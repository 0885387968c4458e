"""Motif patterns: containment table and containment probability.

A motif is a small connected pattern graph on ``r <= 5`` nodes.  A binary
r-node pattern holds the motif when some relabeling of the motif's nodes
makes every motif edge present in the pattern (extra edges are allowed).
A pattern is an edge-set mask, bit k the k-th node pair in lexicographic
order (:func:`_pattern_masks`).  :attr:`Motif.h_table` holds the motif's
indicator on all ``2^(r choose 2)`` masks; :func:`containment_probability`
sums it into the exact probability under independent Bernoulli edges.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .adjacency import _check_keys, _check_square_binary, _integer
from .errors import NotConnectedError

__all__ = [
    "Motif",
    "containment_probability",
    "builtin_motif",
    "motif_from_config",
    "EDGE",
    "TRIANGLE",
    "VSHAPE",
    "THREESTAR",
    "MAX_MOTIF_NODES",
]

MAX_MOTIF_NODES = 5

# Unordered node pairs of an r-node graph, in lexicographic order.  The
# position of a pair in this list is its bit index in edge-set masks.
_PAIRS = {r: tuple(itertools.combinations(range(r), 2)) for r in range(2, MAX_MOTIF_NODES + 1)}


def _pattern_masks(adjacency: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The int64 edge-set mask of the pattern that each row of ``nodes``
    ``(m, r)`` induces in ``adjacency``: bit k is the k-th pair of ``_PAIRS[r]``."""
    i, j = np.array(_PAIRS[nodes.shape[1]]).T
    return adjacency[nodes[:, i], nodes[:, j]].astype(np.int64) @ (1 << np.arange(i.size))


class Motif:
    """A connected pattern graph, classified as acyclic or cyclic.

    The constructor checks that ``adjacency`` is a connected simple graph
    on 2 to ``MAX_MOTIF_NODES`` nodes.

    Attributes
    ----------
    adjacency : (r, r) int8 array, read-only
    r, s : node and edge counts
    shape_class : "acyclic" if the edge set is a tree, else "cyclic"
    name : optional label
    """

    def __init__(self, adjacency: np.ndarray, name: str | None = None):
        adj = _check_square_binary(adjacency, "motif adjacency")
        r = adj.shape[0]
        if r < 2:
            raise ValueError("a motif needs at least 2 nodes")
        if r > MAX_MOTIF_NODES:
            raise ValueError(f"motifs are capped at {MAX_MOTIF_NODES} nodes, got {r}")
        # Connected: every node reaches every other in at most r - 1 steps.
        if not (np.linalg.matrix_power(np.eye(r, dtype=np.int64) + adj, r - 1) > 0).all():
            raise NotConnectedError("motif must be connected")
        adj.setflags(write=False)
        self.adjacency = adj
        self.r = r
        self.s = int(adj.sum()) // 2
        # Connected, so acyclic (forest edge set) is equivalent to s == r - 1.
        self.shape_class = "acyclic" if self.s == r - 1 else "cyclic"
        self.name = name
        self.degrees = adj.sum(axis=1).astype(np.int64)

    def __repr__(self) -> str:
        label = self.name or "motif"
        return f"Motif({label!r}, r={self.r}, s={self.s}, {self.shape_class})"

    @cached_property
    def h_table(self) -> np.ndarray:
        """Containment indicator of every edge-set mask: whether it covers
        the mask of one of the motif's r! relabelings."""
        perms = np.array(list(itertools.permutations(range(self.r))))
        variants = np.unique(_pattern_masks(self.adjacency, perms))
        masks = np.arange(1 << len(_PAIRS[self.r]))
        return ((masks[:, None] & variants) == variants).any(axis=1)

    @cached_property
    def containing_masks(self) -> np.ndarray:
        """All edge-set masks whose pattern holds the motif."""
        return np.flatnonzero(self.h_table).astype(np.int64)


def containment_probability(motif: Motif, pair_probs: np.ndarray) -> np.ndarray:
    """Containment probability under independent Bernoulli edges.

    Parameters
    ----------
    pair_probs : (..., n_pairs) array
        Edge probabilities indexed by the lexicographic pair order of an
        r-node graph (``n_pairs = r*(r-1)/2``).

    Returns
    -------
    array of shape ``(...)`` with ``E[h(A_sub)]`` for each row, summing
    the probability of every containing edge pattern.
    """
    p = np.asarray(pair_probs, dtype=np.float64)
    n_pairs = len(_PAIRS[motif.r])
    if p.shape[-1] != n_pairs:
        raise ValueError(f"expected {n_pairs} pair probabilities, got {p.shape[-1]}")
    if (p < 0).any() or (p > 1).any():
        raise ValueError("edge probabilities must lie in [0, 1]")
    masks = motif.containing_masks.tolist()
    rows = p.reshape(-1, n_pairs)
    total = np.zeros(rows.shape[0])
    # Each mask's product is formed in pair order and added in mask order,
    # one in-place multiply or add at a time over a chunk of rows, with
    # each pair's probabilities contiguous.  A chunk's temporaries take
    # (2 * n_pairs + 1) * 128 kB; 2^14 rows ran fastest of 2^11 to 2^20.
    chunk = 1 << 14
    for start in range(0, total.size, chunk):
        present = np.ascontiguousarray(rows[start:start + chunk].T)
        factors = (1.0 - present, present)
        acc = total[start:start + chunk]
        term = np.empty(acc.size)
        for mask in masks:
            np.copyto(term, factors[mask & 1][0])
            for idx in range(1, n_pairs):
                term *= factors[(mask >> idx) & 1][idx]
            acc += term
    return total.reshape(p.shape[:-1])


EDGE = Motif([[0, 1], [1, 0]], name="edge")
TRIANGLE = Motif([[0, 1, 1], [1, 0, 1], [1, 1, 0]], name="triangle")
VSHAPE = Motif([[0, 1, 1], [1, 0, 0], [1, 0, 0]], name="vshape")
THREESTAR = Motif(
    [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]], name="threestar"
)

_BUILTINS = {m.name: m for m in (EDGE, TRIANGLE, VSHAPE, THREESTAR)}


def builtin_motif(name: str) -> Motif:
    """Look up a built-in motif: edge, triangle, vshape, threestar."""
    try:
        return _BUILTINS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown motif {name!r}; built-ins: {sorted(_BUILTINS)}") from None


def motif_from_config(spec) -> Motif:
    """Build a motif from a config value.

    Accepts a built-in name or an edge-list mapping such as
    ``{"nodes": 4, "edges": [[1, 2], [1, 3], [1, 4]]}`` (1-based integer
    ids) with an optional string ``"name"``.
    """
    if isinstance(spec, str):
        return builtin_motif(spec)
    if isinstance(spec, Motif):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"motif spec must be a name or mapping, got {type(spec).__name__}")
    _check_keys(spec, {"nodes", "edges", "name"}, {"nodes", "edges"}, "motif config")
    r = _integer("nodes", spec["nodes"])
    if not 2 <= r <= MAX_MOTIF_NODES:
        raise ValueError(f"nodes must be from 2 to {MAX_MOTIF_NODES}, got {r}")
    name, edges = spec.get("name"), spec["edges"]
    if not isinstance(name, (str, type(None))):
        raise ValueError(f"name must be a string or null, got {name!r}")
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f"edges must be a list of [i, j] pairs, got {edges!r}")
    adj = np.zeros((r, r), dtype=np.int8)
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ValueError(f"edge {edge!r} must be a pair [i, j]")
        i, j = (_integer(f"node id in edge {edge!r}", v) for v in edge)
        if not (1 <= i <= r and 1 <= j <= r):
            raise ValueError(f"edge {edge} out of range for {r} nodes (ids are 1-based)")
        if i == j:
            raise ValueError(f"self-loop {edge} not allowed")
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1
    return Motif(adj, name=name)
