"""Golden ``compute_stats`` records, pinned byte for byte.

``tests/data/golden_stats.csv`` holds, for fixed small graphs, the
``repr`` of every scalar of :class:`MomentStats` and the sha256 of the
``g1_hat`` bytes and of the ``pair_projection`` (g2) bytes.  The cases cover the edge, triangle,
V-shape and three-star closed forms and the generic enumeration (a
four-node path and the five-node bull), with an empty and a complete
graph among them.  Counts are exact integers, so any change to how they
are computed must reproduce the file exactly; a change that is meant to
alter the statistics regenerates it with
``PYTHONPATH=src python tests/test_golden_stats.py`` and says so.
"""

import hashlib
from pathlib import Path

import numpy as np

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, Motif, compute_stats, from_edges,
                        pair_projection)
from conftest import random_graph

GOLDEN = Path(__file__).parent / "data" / "golden_stats.csv"

FOUR_PATH = Motif(from_edges(4, [(0, 1), (1, 2), (2, 3)]).a, name="four_path")
BULL = Motif(from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]).a, name="bull")

FIELDS = ("u_hat", "s_hat_sq", "xi1_hat_sq", "e_g1_cubed", "e_g1g1g2", "degenerate")


def complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    return from_edges(n, [(0, v) for v in range(1, n)])


def sampled(seed, n, p):
    return random_graph(np.random.default_rng(seed), n, p)


# (case label, graph, motif)
CASES = (
    ("empty6", from_edges(6, []), TRIANGLE),
    ("complete6", complete(6), THREESTAR),
    ("path3", from_edges(3, [(0, 1), (1, 2)]), EDGE),
    ("star7", star(7), VSHAPE),
    ("random9", sampled(1, 9, 0.5), EDGE),
    ("random10", sampled(2, 10, 0.4), TRIANGLE),
    ("random12", sampled(3, 12, 0.6), TRIANGLE),
    ("random11", sampled(4, 11, 0.3), VSHAPE),
    ("random13", sampled(5, 13, 0.55), VSHAPE),
    ("random9b", sampled(6, 9, 0.5), THREESTAR),
    ("random14", sampled(7, 14, 0.45), THREESTAR),
    ("random8", sampled(8, 8, 0.4), FOUR_PATH),
    ("random10b", sampled(9, 10, 0.5), BULL),
)


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def render() -> bytes:
    rows = [",".join(("case", "motif", "n") + FIELDS + ("g1_sha256", "g2_sha256"))]
    for label, A, motif in CASES:
        stats = compute_stats(A, motif)
        rows.append(",".join(
            [label, motif.name, str(stats.n)]
            + [repr(getattr(stats, f)) for f in FIELDS]
            + [sha256(stats.g1_hat), sha256(pair_projection(A, motif))]))
    return ("\n".join(rows) + "\n").encode("utf-8")


def test_stats_match_golden_file():
    assert render() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(render())
