import itertools
import re

import numpy as np
import pytest

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix, Motif,
                        NotConnectedError, from_edges, motif_from_config)
from netmoments.motif import containment_probability
from conftest import Oracle, expected_h, pattern_mask

TRI = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


class TestMakeMotif:
    def test_triangle_is_cyclic(self):
        assert Motif(TRI).shape_class == "cyclic"

    def test_three_star_is_acyclic(self):
        m = Motif([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        assert m.shape_class == "acyclic"
        assert (m.r, m.s) == (4, 3)

    def test_four_cycle_is_cyclic(self):
        m = Motif([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
        assert m.shape_class == "cyclic"

    def test_disconnected_rejected(self):
        two_edges = np.zeros((4, 4), dtype=int)
        two_edges[0, 1] = two_edges[1, 0] = 1
        two_edges[2, 3] = two_edges[3, 2] = 1
        with pytest.raises(NotConnectedError):
            Motif(two_edges)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Motif([[0, 1], [0, 0]])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            Motif([[1, 1], [1, 0]])

    def test_size_cap(self):
        a = np.ones((6, 6), dtype=int) - np.eye(6, dtype=int)
        with pytest.raises(ValueError, match="capped"):
            Motif(a)
        with pytest.raises(ValueError, match="at least 2"):
            Motif([[0]])

    def test_accepts_exactly_the_connected_labelled_graphs(self):
        # All 2 + 8 + 64 + 1024 labelled graphs on 2 to 5 nodes, against a BFS.
        def bfs_connected(a):
            seen, frontier = {0}, [0]
            while frontier:
                for w in np.flatnonzero(a[frontier.pop()]).tolist():
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            return len(seen) == len(a)

        verdicts = []
        for r in range(2, 6):
            pairs = list(itertools.combinations(range(r), 2))
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                a = np.zeros((r, r), dtype=np.int8)
                for (i, j), bit in zip(pairs, bits):
                    a[i, j] = a[j, i] = bit
                try:
                    Motif(a)
                    accepted = True
                except NotConnectedError:
                    accepted = False
                assert accepted == bfs_connected(a), a
                verdicts.append(accepted)
        assert (len(verdicts), sum(verdicts)) == (1098, 771)

    def test_builtin_shapes(self):
        assert (EDGE.r, EDGE.s, EDGE.shape_class) == (2, 1, "acyclic")
        assert (TRIANGLE.r, TRIANGLE.s, TRIANGLE.shape_class) == (3, 3, "cyclic")
        assert (VSHAPE.r, VSHAPE.s, VSHAPE.shape_class) == (3, 2, "acyclic")
        assert (THREESTAR.r, THREESTAR.s, THREESTAR.shape_class) == (4, 3, "acyclic")


@pytest.mark.parametrize("build", [AdjacencyMatrix, Motif])
@pytest.mark.parametrize("bad, match", [
    ([[0, 1, 0], [1, 0, 1]], "square"),
    ([[0, 2], [2, 0]], "binary"),
    ([[0, 1], [0, 0]], "symmetric"),
    ([[1, 1], [1, 0]], "zero diagonal"),
], ids=["not_square", "not_binary", "asymmetric", "self_loop"])
def test_adjacency_validation(build, bad, match):
    with pytest.raises(ValueError, match=match):
        build(bad)


def h(sub, motif) -> int:
    """The library's containment indicator of ``sub``, checked against the oracle."""
    value = int(motif.h_table[pattern_mask(sub)])
    assert value == Oracle(motif).h(np.asarray(sub))
    return value


def patterns(r):
    """Every r-node pattern as ``(mask, pattern)``, bit k set for the k-th pair."""
    pairs = list(itertools.combinations(range(r), 2))
    for mask in range(1 << len(pairs)):
        sub = np.zeros((r, r), dtype=np.int8)
        for k, (i, j) in enumerate(pairs):
            sub[i, j] = sub[j, i] = (mask >> k) & 1
        yield mask, sub


# Every connected graph on 3 and 4 nodes, and two on 5, as edge lists.
CONNECTED = {
    "vshape": (3, [(0, 1), (0, 2)]),
    "triangle": (3, [(0, 1), (0, 2), (1, 2)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "threestar": (4, [(0, 1), (0, 2), (0, 3)]),
    "cycle4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "paw": (4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    "diamond": (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "bull": (5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]),
    "cycle5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
}


class TestContains:
    """``Motif.h_table``, the library's containment indicator, against the oracle."""

    def test_triangle_contains_vshape(self):
        assert h(TRI, VSHAPE) == 1

    def test_path_lacks_triangle(self):
        assert h(PATH3, TRIANGLE) == 0

    def test_path_contains_vshape(self):
        assert h(PATH3, VSHAPE) == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = np.zeros((4, 4), dtype=int)
            iu = np.triu_indices(4, 1)
            a[iu] = rng.integers(0, 2, iu[0].size)
            a |= a.T
            base = h(a, THREESTAR)
            perm = rng.permutation(4)
            assert h(a[np.ix_(perm, perm)], THREESTAR) == base

    def test_monotone_in_edges(self):
        rng = np.random.default_rng(8)
        for motif in (TRIANGLE, VSHAPE):
            for _ in range(50):
                a = np.zeros((3, 3), dtype=int)
                iu = np.triu_indices(3, 1)
                a[iu] = rng.integers(0, 2, iu[0].size)
                a |= a.T
                before = h(a, motif)
                zeros = [(i, j) for i, j in zip(*iu) if a[i, j] == 0]
                if not zeros:
                    continue
                i, j = zeros[rng.integers(len(zeros))]
                b = a.copy()
                b[i, j] = b[j, i] = 1
                assert h(b, motif) >= before

    def test_vshape_iff_two_edges(self):
        # 3-node special case: containment is exactly "at least 2 edges".
        for bits in itertools.product((0, 1), repeat=3):
            a = np.zeros((3, 3), dtype=int)
            for (i, j), b in zip(((0, 1), (0, 2), (1, 2)), bits):
                a[i, j] = a[j, i] = b
            assert h(a, VSHAPE) == (1 if sum(bits) >= 2 else 0)

    def test_h_table_matches_oracle_on_every_pattern(self):
        # Every pattern on 3 and 4 nodes; a fixed sample of the 1024 on 5.
        rng = np.random.default_rng(14)
        for name, (r, edges) in CONNECTED.items():
            motif, cases = Motif(from_edges(r, edges).a), list(patterns(r))
            if r == 5:
                cases = [cases[k] for k in sorted(rng.choice(len(cases), 96, replace=False))]
            masks = np.array([mask for mask, _ in cases])
            oracle = Oracle(motif)
            expected = np.array([oracle.h(sub) for _, sub in cases])
            assert np.array_equal(motif.h_table[masks], expected), name
            # At 0/1 edge probabilities the containment probability is the indicator.
            bits = (masks[:, None] >> np.arange(r * (r - 1) // 2)) & 1
            assert np.array_equal(containment_probability(motif, bits), expected), name


class TestConditionalExpectation:
    """``E[h | W_sub]`` through ``containment_probability``, as the graphon code reads it."""

    def test_triangle_is_product(self):
        p, q, t = 0.3, 0.7, 0.45
        w = np.array([[0, p, q], [p, 0, t], [q, t, 0]])
        assert expected_h(w, TRIANGLE) == pytest.approx(p * q * t, abs=1e-15)

    def test_vshape_at_half(self):
        w = np.full((3, 3), 0.5)
        np.fill_diagonal(w, 0.0)
        assert expected_h(w, VSHAPE) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_in_each_entry(self):
        rng = np.random.default_rng(12)
        for motif in (TRIANGLE, VSHAPE, THREESTAR):
            r = motif.r
            for _ in range(25):
                w = np.zeros((r, r))
                iu = np.triu_indices(r, 1)
                w[iu] = rng.random(iu[0].size)
                w += w.T
                base = expected_h(w, motif)
                k = rng.integers(iu[0].size)
                i, j = iu[0][k], iu[1][k]
                w2 = w.copy()
                w2[i, j] = w2[j, i] = min(1.0, w[i, j] + rng.uniform(0, 1 - w[i, j]))
                assert expected_h(w2, motif) >= base - 1e-12

    def test_multilinear_in_each_entry(self):
        # Linear in any single entry: the value at the midpoint matches
        # the average of the endpoint values.
        rng = np.random.default_rng(13)
        for motif in (TRIANGLE, THREESTAR):
            r = motif.r
            w = np.zeros((r, r))
            iu = np.triu_indices(r, 1)
            w[iu] = rng.random(iu[0].size)
            w += w.T
            for k in range(iu[0].size):
                i, j = iu[0][k], iu[1][k]
                vals = []
                for t in (0.0, 0.5, 1.0):
                    wt = w.copy()
                    wt[i, j] = wt[j, i] = t
                    vals.append(expected_h(wt, motif))
                assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, abs=1e-12)

    def test_bytes_of_the_sequential_sum(self):
        # Each containing mask's product in pair order, added in mask order:
        # the float operations the golden population moments were made
        # with.  Rows cross a chunk boundary; a lone row and a grid of rows
        # keep their shapes.
        rng = np.random.default_rng(15)
        for name, (r, edges) in CONNECTED.items():
            motif, n_pairs = Motif(from_edges(r, edges).a), r * (r - 1) // 2
            for shape in [(n_pairs,), (3, 7, n_pairs), ((1 << 14) + 3, n_pairs)][:2 + (r == 5)]:
                p = rng.random(shape)
                expected = np.zeros(shape[:-1])
                for mask in motif.containing_masks:
                    term = np.ones(shape[:-1])
                    for k in range(n_pairs):
                        term = term * (p[..., k] if (mask >> k) & 1 else 1.0 - p[..., k])
                    expected += term
                got = containment_probability(motif, p)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            containment_probability(EDGE, [1.2])
        with pytest.raises(ValueError, match="expected 3 pair probabilities, got 2"):
            containment_probability(TRIANGLE, [0.5, 0.5])


class TestConfig:
    def test_three_star_from_edges(self):
        m = motif_from_config({"nodes": 4, "edges": [[1, 2], [1, 3], [1, 4]]})
        assert (m.r, m.s, m.shape_class) == (4, 3, "acyclic")
        assert sorted(m.degrees) == [1, 1, 1, 3]

    def test_builtin_names(self):
        assert motif_from_config("triangle") is not None
        with pytest.raises(ValueError, match="unknown motif"):
            motif_from_config("pentagon")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown motif config"):
            motif_from_config({"nodes": 3, "edges": [[1, 2]], "weight": 2})

    @pytest.mark.parametrize("spec, missing", [
        ({"nodes": 3}, "['edges']"),
        ({"edges": [[1, 2]]}, "['nodes']"),
        ({"name": "x"}, "['edges', 'nodes']"),
    ])
    def test_missing_keys_named(self, spec, missing):
        with pytest.raises(ValueError, match=re.escape(f"missing motif config keys: {missing}")):
            motif_from_config(spec)

    @pytest.mark.parametrize("spec, message", [
        ({"nodes": 3.9, "edges": [[1, 2]]}, "nodes must be an integer, got 3.9"),
        ({"nodes": "3", "edges": [[1, 2]]}, "nodes must be an integer, got '3'"),
        ({"nodes": True, "edges": [[1, 2]]}, "nodes must be an integer, got True"),
        ({"nodes": 6, "edges": [[1, 2]]}, "nodes must be from 2 to 5, got 6"),
        ({"nodes": 3, "edges": [[1.7, 2]]}, "node id in edge [1.7, 2] must be an integer"),
        ({"nodes": 3, "edges": [["1", "2"]]}, "node id in edge ['1', '2'] must be an integer"),
        ({"nodes": 3, "edges": [[1, 2, 3]]}, "edge [1, 2, 3] must be a pair [i, j]"),
        ({"nodes": 3, "edges": [12]}, "edge 12 must be a pair [i, j]"),
        ({"nodes": 3, "edges": "12"}, "edges must be a list of [i, j] pairs, got '12'"),
        ({"nodes": 3, "edges": [[1, 2]], "name": 5}, "name must be a string or null, got 5"),
        ([[1, 2]], "motif spec must be a name or mapping, got list"),
    ], ids=["float-nodes", "string-nodes", "bool-nodes", "too-many-nodes", "float-id",
            "string-id", "three-ids", "scalar-edge", "string-edges", "numeric-name", "list-spec"])
    def test_malformed_values_named(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            motif_from_config(spec)

    def test_bad_edges(self):
        with pytest.raises(ValueError, match="1-based"):
            motif_from_config({"nodes": 3, "edges": [[0, 1], [1, 2]]})
        with pytest.raises(ValueError, match="self-loop"):
            motif_from_config({"nodes": 3, "edges": [[1, 1], [1, 2]]})
