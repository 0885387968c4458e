import collections
import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix,
                        CostCapError, MomentStats, Motif, compute_stats, edgeworth_coefficients,
                        from_edges, jackknife_variance, load_edge_list,
                        motif_counts, motif_counts_block, pair_projection,
                        sample_graph, sample_moment, studentize, variance_estimator)
from netmoments import adjacency, moments
from netmoments.moments import _threestar_inner_counts
from conftest import Oracle, paper_block_model, random_graph, relabel
from test_golden_stats import CASES as GOLDEN_STATS_CASES

PATH3 = from_edges(3, [(0, 1), (1, 2)])
K4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
MOTIFS = (EDGE, TRIANGLE, VSHAPE, THREESTAR)
# Generic (enumerated) motifs: no closed form, and the cost cap applies.
FOUR_PATH = Motif(from_edges(4, [(0, 1), (1, 2), (2, 3)]).a)
FOUR_CYCLE = Motif(from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).a)
PAW = Motif(from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).a)
BULL = Motif(from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]).a)
GENERIC = (FOUR_PATH, FOUR_CYCLE, PAW, BULL)


class TestSampleMoment:
    def test_path_examples(self):
        assert sample_moment(PATH3, EDGE) == pytest.approx(2 / 3, abs=1e-15)
        assert sample_moment(PATH3, TRIANGLE) == 0.0
        assert sample_moment(PATH3, VSHAPE) == 1.0

    def test_complete_graph(self):
        assert sample_moment(K4, TRIANGLE) == 1.0
        assert sample_moment(K4, THREESTAR) == 1.0

    def test_size_error(self):
        with pytest.raises(ValueError, match="motif needs"):
            sample_moment(PATH3, THREESTAR)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = random_graph(rng, int(rng.integers(4, 10)))
            for motif in MOTIFS:
                u = sample_moment(A, motif)
                assert 0.0 <= u <= 1.0


class TestLocalProjection:
    def test_path_edge_values(self):
        g1 = compute_stats(PATH3, EDGE).g1_hat
        assert np.allclose(g1, [-1 / 6, 1 / 3, -1 / 6], atol=1e-15)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            A = random_graph(rng, int(rng.integers(4, 11)))
            for motif in MOTIFS:
                assert abs(compute_stats(A, motif).g1_hat.sum()) <= 1e-9

    def test_vertex_transitive_zero(self):
        assert np.allclose(compute_stats(C5, EDGE).g1_hat, 0.0, atol=1e-15)


class TestPairProjection:
    def test_path_edge_value(self):
        g2 = pair_projection(PATH3, EDGE)
        assert g2[0, 1] == pytest.approx(1 / 6, abs=1e-12)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = random_graph(rng, 8)
            for motif in MOTIFS:
                g2 = pair_projection(A, motif)
                assert np.array_equal(g2, g2.T)
                assert (np.diag(g2) == 0.0).all()


class TestVariance:
    def test_path_edge(self):
        g1 = compute_stats(PATH3, EDGE).g1_hat
        assert variance_estimator(g1, 2) == pytest.approx(2 / 27, abs=1e-15)

    def test_zero_and_scaling(self):
        assert variance_estimator(np.zeros(5), 3) == 0.0
        g1 = np.array([0.1, -0.3, 0.2])
        assert variance_estimator(3 * g1, 2) == pytest.approx(9 * variance_estimator(g1, 2))

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            variance_estimator(np.array([]), 2)


class TestJackknife:
    def test_regular_graph_loo_constant(self):
        # All leave-one-out moments of a vertex-transitive graph coincide.
        total, per = motif_counts(C5, EDGE)
        u_loo = (total - per) / math.comb(4, 2)
        assert np.allclose(u_loo, u_loo[0])

    def test_matches_scratch_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            A = random_graph(rng, int(rng.integers(5, 11)))
            for motif in MOTIFS:
                if A.n < motif.r + 1:
                    continue
                oracle = Oracle(motif)
                assert jackknife_variance(A, motif) == pytest.approx(
                    oracle.jackknife(A), abs=1e-12)

    def test_size_error(self):
        with pytest.raises(ValueError, match="r\\+1"):
            jackknife_variance(PATH3, TRIANGLE)


class TestEdgeworthCoefficients:
    def test_symmetric_g1_zero_cube(self):
        g1 = np.array([0.2, -0.2, 0.2, -0.2])
        g2 = np.zeros((4, 4))
        _, e3, _ = edgeworth_coefficients(g1, g2)
        assert e3 == pytest.approx(0.0, abs=1e-15)

    def test_all_zero(self):
        assert edgeworth_coefficients(np.zeros(4), np.zeros((4, 4))) == (0.0, 0.0, 0.0)

    def test_g2_shape_must_match_g1(self):
        with pytest.raises(ValueError, match=re.escape("g2 must be 4x4 to match g1, got (3, 3)")):
            edgeworth_coefficients(np.zeros(4), np.zeros((3, 3)))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = random_graph(rng, int(rng.integers(5, 11)))
            for motif in MOTIFS:
                oracle = Oracle(motif)
                stats = compute_stats(A, motif)
                assert stats.e_g1g1g2 == pytest.approx(oracle.e_g1g1g2(A), abs=1e-12)


def _gate_cases():
    """Graphs for the E[g1 g1 g2] tolerance gate: the golden graphs, sparse-route
    graphs to n = 4000, the three-star to n = 300, four-path and bull."""
    yield from ((label, A, motif) for label, A, motif in GOLDEN_STATS_CASES)
    rng = np.random.default_rng(72)
    for n, degree in ((300, 5), (1000, 10), (2000, 20), (4000, 8)):
        A = random_graph(rng, n, degree / (n - 1))
        assert moments._sparse_route(A)
        for motif in (EDGE, TRIANGLE, VSHAPE):
            yield f"sparse{n}", A, motif
    for n, p in ((40, 0.3), (120, 0.1), (300, 0.04)):
        yield f"random{n}", random_graph(rng, n, p), THREESTAR
    yield "random30", random_graph(rng, 30, 0.2), FOUR_PATH
    yield "random18", random_graph(rng, 18, 0.35), BULL


def test_e_g1g1g2_within_tolerance_of_dense_form():
    # The bound scales with the absolute terms: on near-regular graphs the
    # value itself is a cancellation of much larger terms.
    for label, A, motif in _gate_cases():
        stats, g2 = compute_stats(A, motif), pair_projection(A, motif)
        g1, pairs = stats.g1_hat, 2.0 * math.comb(stats.n, 2)
        dense = g1 @ (g2 @ g1) / pairs
        scale = np.abs(g1) @ (np.abs(g2) @ np.abs(g1)) / pairs
        assert abs(stats.e_g1g1g2 - dense) <= 1e-12 * scale, (label, motif.name)


def test_e_g1g1g2_bytes_independent_of_blas_threads():
    # A BLAS product with g1 once gave 2.399294640659426e-08 at one thread
    # and 2.3992946406594262e-08 at two for this graph.
    code = ("import numpy as np; from conftest import random_graph; "
            "from netmoments import EDGE, compute_stats; "
            "A = random_graph(np.random.default_rng(0), 722, 10 / 721); "
            "print(repr(compute_stats(A, EDGE).e_g1g1g2))")
    tests = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(Path(moments.__file__).parents[1]), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    outputs = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path,
                                                  OPENBLAS_NUM_THREADS=threads,
                                                  OMP_NUM_THREADS=threads)).stdout
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1] != ""


class TestPairTableSums:
    """``inner @ per`` is exact in float64 below 2^53, in int64 up to 2^63 and
    in Python ints beyond."""

    def test_exact_on_both_sides_of_each_bound(self):
        rng = np.random.default_rng(73)
        s = np.triu(rng.integers(0, 1000, (6, 6)), 1)
        s += s.T
        # A V-shape-like table: rows sum to (r - 1) * per with r = 3.
        top = 2 * int(s.sum(1).max()) ** 2
        for bound, below, above in ((2 ** 53, np.float64, np.int64), (2 ** 63, np.int64, object)):
            c = math.isqrt(bound // top)
            for scale, dtype in ((c, below), (c + 1, above)):
                table, per = 2 * scale * s, scale * s.sum(1)
                assert (2 * int(per.max()) ** 2 < bound) == (dtype is below)
                got = moments._pair_table_sums(table, per, 3)
                assert got.dtype == dtype
                exact = [sum(int(x) * int(p) for x, p in zip(row, per.tolist()))
                         for row in (2 * scale * s).tolist()]
                assert [int(v) for v in got] == exact


class TestComputeStats:
    def test_path_record(self):
        stats = compute_stats(PATH3, EDGE)
        assert stats.u_hat == pytest.approx(2 / 3, abs=1e-15)
        assert stats.s_hat_sq == pytest.approx(2 / 27, abs=1e-15)
        assert not stats.degenerate

    def test_complete_graph_degenerate(self):
        stats = compute_stats(K4, TRIANGLE)
        assert stats.u_hat == 1.0
        assert np.allclose(stats.g1_hat, 0.0)
        assert stats.s_hat_sq == 0.0
        assert stats.degenerate

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        A = random_graph(rng, 9)
        s1 = compute_stats(A, TRIANGLE)
        s2 = compute_stats(A, TRIANGLE)
        assert s1.u_hat == s2.u_hat
        assert np.array_equal(s1.g1_hat, s2.g1_hat)
        assert np.array_equal(pair_projection(A, TRIANGLE), pair_projection(A, TRIANGLE))

    @pytest.mark.parametrize("n, p", [(40, 0.3), (600, 0.012)], ids=["table", "listed"])
    def test_record_pickles(self, n, p):
        A = random_graph(np.random.default_rng(80), n, p)
        assert moments._sparse_route(A) == (n == 600)
        for motif in MOTIFS:
            stats = compute_stats(A, motif)
            copy = pickle.loads(pickle.dumps(stats))
            assert type(copy) is MomentStats and _fields(copy) == _fields(stats)

    @pytest.mark.parametrize("motif", [TRIANGLE, THREESTAR], ids=lambda m: m.name)
    def test_records_hold_no_pair_table(self, motif):
        # 20 records at n = 300 hold their g1 (2.4 KB each) and scalars, not
        # the n x n table (360 KB float32 triangle, 720 KB int64 three-star).
        A = random_graph(np.random.default_rng(81), 300, 0.05)
        compute_stats(A, motif)  # warms up outside the measurement
        tracemalloc.start()
        try:
            records = [compute_stats(A, motif) for _ in range(20)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == 20 and held < 20 * 10_000

    def test_consistency_identities(self):
        rng = np.random.default_rng(7)
        A = random_graph(rng, 10)
        for motif in MOTIFS:
            stats = compute_stats(A, motif)
            n, r = stats.n, motif.r
            assert stats.xi1_hat_sq == pytest.approx(
                float(np.mean(stats.g1_hat ** 2)), abs=1e-15)
            assert stats.s_hat_sq == pytest.approx(
                r * r * stats.xi1_hat_sq / n, abs=1e-15)


def assert_fast_paths_equal_brute_force(motifs):
    rng = np.random.default_rng(8)
    for _ in range(12):
        n = int(rng.integers(5, 13))
        A = random_graph(rng, n)
        for motif in motifs:
            if n < motif.r:
                continue
            oracle = Oracle(motif)
            t_fast, per_fast = motif_counts(A, motif)
            t_slow, per_slow = oracle.counts(A)
            assert t_fast == t_slow
            assert np.array_equal(per_fast, per_slow)
            assert np.allclose(pair_projection(A, motif), oracle.g2(A), atol=1e-12)


class TestOracleEquivalence:
    def test_fast_paths_equal_brute_force(self):
        assert_fast_paths_equal_brute_force(MOTIFS + GENERIC)

    def test_block_counts_equal_brute_force(self):
        # Stacked graphs of one size, with an empty and a complete graph
        # among them, through the batched kernel and row by row.
        rng = np.random.default_rng(10)
        for n in (4, 7, 10):
            graphs = [random_graph(rng, n) for _ in range(5)]
            graphs += [random_graph(rng, n, p=0.0), random_graph(rng, n, p=1.0)]
            stack = np.stack([A.a for A in graphs])
            for motif in MOTIFS + GENERIC:
                if n < motif.r:
                    continue
                oracle = Oracle(motif)
                totals, per = motif_counts_block(stack, motif)
                assert totals.shape == (len(graphs),) and per.shape == (len(graphs), n)
                empty = motif_counts_block(stack[:0], motif)
                assert empty[0].shape == (0,) and empty[1].shape == (0, n)
                for k, A in enumerate(graphs):
                    t_slow, per_slow = oracle.counts(A)
                    assert totals[k] == t_slow
                    assert np.array_equal(per[k], per_slow)

    def test_studentize_rows_equal_single(self):
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, 12) for _ in range(6)] + [K4.induced([0, 1, 2, 3] * 3)]
        stack = np.stack([A.a for A in graphs])
        for motif in (EDGE, TRIANGLE, VSHAPE):
            totals, per = motif_counts_block(stack, motif)
            rows = studentize(totals, per, 12, motif.r)
            for k, A in enumerate(graphs):
                stats = compute_stats(A, motif)
                assert rows[0][k] == stats.u_hat
                assert rows[1][k].tobytes() == stats.g1_hat.tobytes()
                assert rows[2][k] == stats.s_hat_sq
                assert rows[3][k] == stats.degenerate

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(5, 11))
            A = random_graph(rng, n)
            perm = rng.permutation(n)
            B = relabel(A, perm)
            for motif in MOTIFS:
                sa = compute_stats(A, motif)
                sb = compute_stats(B, motif)
                assert sb.u_hat == pytest.approx(sa.u_hat, abs=1e-15)
                assert sb.s_hat_sq == pytest.approx(sa.s_hat_sq, abs=1e-12)
                assert sb.e_g1g1g2 == pytest.approx(sa.e_g1g1g2, abs=1e-12)
                assert np.allclose(sb.g1_hat[perm], sa.g1_hat, atol=1e-12)

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(4, 10))
            A = random_graph(rng, n, 0.4)
            zeros = [(i, j) for i in range(n) for j in range(i + 1, n) if not A.a[i, j]]
            if not zeros:
                continue
            i, j = zeros[rng.integers(len(zeros))]
            b = A.a.copy()
            b[i, j] = b[j, i] = 1
            from netmoments import AdjacencyMatrix
            B = AdjacencyMatrix(b)
            for motif in MOTIFS:
                assert sample_moment(B, motif) >= sample_moment(A, motif)


def _star(n):
    return from_edges(n, [(0, v) for v in range(1, n)])


def _k4_with_pendant():
    return from_edges(5, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(3, 4)])


def _with_isolated(A, extra):
    a = np.zeros((A.n + extra, A.n + extra), dtype=np.int8)
    a[:A.n, :A.n] = A.a
    return AdjacencyMatrix(a)


def _edges_among_common_neighbours(A):
    """Per pair, edges among its common neighbours, node by node over N(i)."""
    n = A.n
    af = A.a.astype(np.float64)
    e = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        nb = np.flatnonzero(A.a[i])
        p = af[:, nb]
        e[i] = np.rint(((p @ af[np.ix_(nb, nb)]) * p).sum(axis=1) / 2)
    return e


def _threestar_total(A):
    """sum_v C(d_v, 3) - sum_{uv in E} C(codeg_uv, 2) + 3 * #K4."""
    d = A.a.sum(1)
    codeg = A.a.astype(np.int64) @ A.a.astype(np.int64)
    upper = np.triu(A.a, 1) == 1
    n_k4 = int((_edges_among_common_neighbours(A)[upper]).sum()) // 6
    return (int((d * (d - 1) * (d - 2) // 6).sum())
            - int((codeg[upper] * (codeg[upper] - 1) // 2).sum()) + 3 * n_k4)


class TestThreestarKernel:
    """The closed-form three-star counts against enumeration."""

    ORACLE = Oracle(THREESTAR)

    def assert_exact(self, A):
        inner = _threestar_inner_counts(A.a)
        total, per = motif_counts(A, THREESTAR)
        o_total, o_per = self.ORACLE.counts(A)
        assert inner.dtype == np.int64
        assert np.array_equal(inner, self.ORACLE.inner(A))
        assert total == o_total and isinstance(total, int)
        assert np.array_equal(per, o_per)
        assert total == _threestar_total(A)

    def test_random_graphs_across_densities(self):
        rng = np.random.default_rng(40)
        for p in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            for n in range(4, 13):
                self.assert_exact(random_graph(rng, n, p))

    @pytest.mark.parametrize("n", [4, 5, 8, 11])
    def test_edge_cases(self, n):
        rng = np.random.default_rng(n)
        self.assert_exact(random_graph(rng, n, p=0.0))
        self.assert_exact(random_graph(rng, n, p=1.0))
        self.assert_exact(_star(n))
        self.assert_exact(_with_isolated(random_graph(rng, n, 0.6), 3))

    def test_known_values(self):
        # K_n: every 4-set; star: every 4-set through the centre;
        # K4 plus a pendant at node 3: the K4 and the sets {3, 4, x, y}.
        assert motif_counts(K4, THREESTAR)[0] == 1
        assert motif_counts(_star(9), THREESTAR)[0] == math.comb(8, 3)
        total, per = motif_counts(_k4_with_pendant(), THREESTAR)
        assert total == 4
        assert per.tolist() == [3, 3, 3, 4, 3]
        self.assert_exact(_k4_with_pendant())

    def test_pair_projection_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            A = random_graph(rng, int(rng.integers(4, 11)))
            assert np.allclose(pair_projection(A, THREESTAR),
                               self.ORACLE.g2(A), atol=1e-12)

    def test_compute_stats_counts_once(self):
        # compute_stats derives the counts from the pair counts; both
        # routes must give the same bytes.
        rng = np.random.default_rng(42)
        for _ in range(10):
            A = random_graph(rng, int(rng.integers(4, 14)))
            stats = compute_stats(A, THREESTAR)
            u, g1, s_sq, _ = studentize(*motif_counts(A, THREESTAR), A.n, 4)
            assert stats.u_hat == float(u) and stats.s_hat_sq == s_sq
            assert stats.g1_hat.tobytes() == g1.tobytes()
            g2 = moments._pair_projection_from_inner(_threestar_inner_counts(A.a), g1,
                                                     float(u), 4)
            assert pair_projection(A, THREESTAR).tobytes() == g2.tobytes()

    def test_default_caps_at_300_nodes(self):
        n = 300
        A = sample_graph(paper_block_model(), n, 1.0, seed=3)
        stats = compute_stats(A, THREESTAR)  # no CostCapError
        inner = _threestar_inner_counts(A.a)
        total, per = motif_counts(A, THREESTAR)
        assert np.array_equal(inner.sum(axis=1), 3 * per)
        assert int(per.sum()) == 4 * total
        assert total == _threestar_total(A)
        # Deleting a node removes exactly the sets through it.
        for v in (0, 150, 299):
            keep = [u for u in range(n) if u != v]
            assert total - per[v] == _threestar_total(A.induced(keep))
        assert stats.u_hat == total / math.comb(n, 4)
        perm = np.random.default_rng(43).permutation(n)
        sb = compute_stats(relabel(A, perm), THREESTAR)
        assert sb.u_hat == stats.u_hat
        assert sb.s_hat_sq == pytest.approx(stats.s_hat_sq, rel=1e-12)
        assert np.array_equal(sb.g1_hat[perm], stats.g1_hat)
        assert np.array_equal(pair_projection(relabel(A, perm), THREESTAR)[np.ix_(perm, perm)],
                              pair_projection(A, THREESTAR))


class TestDenseTables:
    """The float32 triangle and V-shape tables, entry by entry."""

    ORACLES = {m.name: Oracle(m) for m in (TRIANGLE, VSHAPE)}

    @pytest.mark.parametrize("motif", [TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_tables_equal_oracle(self, motif):
        oracle = self.ORACLES[motif.name]
        rng = np.random.default_rng(80)
        for n in (3, 4, 7, 11):
            graphs = [random_graph(rng, n) for _ in range(6)]
            graphs += [random_graph(rng, n, p=0.0), random_graph(rng, n, p=1.0), _star(n)]
            expected = np.stack([oracle.inner(A) for A in graphs])
            stack = moments._inner_counts(np.stack([A.a for A in graphs]), motif)
            assert stack.dtype == np.float32 and stack.shape == expected.shape
            assert np.array_equal(stack, expected)
            for A, table in zip(graphs, expected):
                single = moments._inner_counts(A.a, motif)
                assert single.dtype == np.float32
                assert np.array_equal(single, table)

    @pytest.mark.parametrize("motif", [TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_complete_graph_at_600_nodes(self, motif):
        # Degree sums reach 2n - 2 inside the V-shape table.
        n = 600
        a = np.ones((n, n), dtype=np.int8)
        np.fill_diagonal(a, 0)
        A = AdjacencyMatrix(a)
        assert not moments._sparse_route(A)
        table = moments._inner_counts(a, motif)
        assert table.dtype == np.float32
        assert np.array_equal(table, (n - 2) * (1 - np.eye(n)))
        total, per = motif_counts(A, motif)
        assert total == math.comb(n, 3)
        assert np.array_equal(per, np.full(n, math.comb(n - 1, 2)))
        totals, pers = motif_counts_block(np.stack([a, np.zeros_like(a)]), motif)
        assert totals.tolist() == [math.comb(n, 3), 0]
        assert np.array_equal(pers[0], per) and not pers[1].any()

    def test_row_sums_accumulate_in_float64(self):
        # Odd row sums above 2^24 have no float32 value.
        n = 3001
        table = np.broadcast_to(np.float32(5999), (n, n))
        total, per = moments._counts_from_inner(table, 3)
        assert np.array_equal(per, np.full(n, n * 5999 // 2))
        assert total == n * (n * 5999 // 2) // 3

    @pytest.mark.parametrize("n", [2 ** 15 - 1, 2 ** 15])
    def test_edge_table_row_sums_on_both_sides_of_2_15(self, n):
        # int8 rows of n ones: 2^15 - 1 is int16's top, 2^15 wraps in int16.
        # The accumulator depends on the row length only, so 8 rows suffice.
        total, per = moments._counts_from_inner(np.broadcast_to(np.int8(1), (8, n)), 2)
        assert per.dtype == np.int64 and np.array_equal(per, np.full(8, n))
        assert total == 4 * n


@pytest.fixture
def sparse_route(monkeypatch):
    """Send every single graph, however small or dense, to listed counting and
    scattered tables."""
    monkeypatch.setattr(moments, "_SPARSE_MIN_NODES", 0)
    monkeypatch.setattr(moments, "_SPARSE_MAX_DENSITY", 1.0)


class TestCodegreeRoute:
    """The three-star's scattered and BLAS codegrees give the same bytes."""

    @pytest.fixture
    def routes(self, monkeypatch):
        # Records which route each _graph_counts call takes.
        taken = []
        codegrees = moments._codegrees

        def spy(*args):
            taken.append("listed")
            return codegrees(*args)

        monkeypatch.setattr(moments, "_codegrees", spy)
        return taken

    def assert_route(self, A, route, taken):
        assert moments._route(A, THREESTAR) == ("codegrees" if route == "listed" else "table")
        taken.clear()
        per, sums, table = moments._graph_counts(A, THREESTAR)
        assert taken == (["listed"] if route == "listed" else [])
        with mock.patch.object(moments, "_SPARSE_MIN_NODES", 10 ** 9):
            dense_per, dense_sums, dense_table = moments._graph_counts(A, THREESTAR)
        assert taken == (["listed"] if route == "listed" else [])
        for x, y in ((per, dense_per), (sums(), dense_sums()), (table(), dense_table())):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert np.array_equal(table(), _threestar_inner_counts(A.a))

    def test_both_sides_of_the_threshold(self, routes):
        rng = np.random.default_rng(60)
        n_min, density = moments._SPARSE_MIN_NODES, moments._SPARSE_MAX_DENSITY
        self.assert_route(random_graph(rng, 2 * n_min, density / 2), "listed", routes)
        self.assert_route(random_graph(rng, 600, 0.01), "listed", routes)
        self.assert_route(AdjacencyMatrix(np.zeros((n_min, n_min), dtype=np.int8)),
                          "listed", routes)
        self.assert_route(_with_isolated(random_graph(rng, n_min, 0.01), 50),
                          "listed", routes)
        self.assert_route(_star(n_min + 1), "listed", routes)
        # Dense or small: BLAS.
        self.assert_route(random_graph(rng, 300, 0.3), "blas", routes)
        self.assert_route(random_graph(rng, 300, 2 * density), "blas", routes)
        self.assert_route(random_graph(rng, n_min - 1, density / 2), "blas", routes)

    def test_forced_route_on_small_graphs(self, sparse_route, routes):
        rng = np.random.default_rng(61)
        for n in (1, 2, 5, 12):
            for p in (0.0, 0.4, 1.0):
                A = random_graph(rng, n, p)
                if n >= THREESTAR.r:
                    self.assert_route(A, "listed", routes)
                    continue
                # Too small for the motif, on either route; the kernel itself
                # still gives the same bytes.
                with pytest.raises(ValueError, match="motif needs 4"):
                    moments._graph_counts(A, THREESTAR)
                scattered = _threestar_inner_counts(A.a, A._nonzeros)
                assert scattered.tobytes() == _threestar_inner_counts(A.a).tobytes()

    def test_forced_route_equals_brute_force(self, sparse_route):
        assert_fast_paths_equal_brute_force((EDGE, TRIANGLE, VSHAPE, THREESTAR))


def _two_components(rng):
    a = np.zeros((400, 400), dtype=np.int8)
    a[:250, :250] = random_graph(rng, 250, 0.015).a
    a[250:, 250:] = random_graph(rng, 150, 0.02).a
    return AdjacencyMatrix(a)


def _with_matching(A, pairs):
    """``A`` plus ``pairs`` disjoint edges on new nodes: nodes in no V-shape."""
    n = A.n + 2 * pairs
    a = np.zeros((n, n), dtype=np.int8)
    a[:A.n, :A.n] = A.a
    for k in range(A.n, n, 2):
        a[k, k + 1] = a[k + 1, k] = 1
    return AdjacencyMatrix(a)


def _fields(stats):
    """Every field of a ``MomentStats``, as comparable bytes."""
    return [(f.name, v.tobytes() if isinstance(v, np.ndarray) else repr(v))
            for f in dataclasses.fields(stats) for v in [getattr(stats, f.name)]]


def _outputs(A, motif):
    """Every public result for one graph and motif, as comparable bytes."""
    fields = _fields(compute_stats(A, motif))
    total, per = motif_counts(A, motif)
    return (fields, pair_projection(A, motif).tobytes(), type(total), total,
            per.dtype, per.tobytes(), repr(jackknife_variance(A, motif)))


def _sparse_graphs():
    """Sparse-route graphs: random, empty, a star, isolated nodes, two
    components, and nodes in no V-shape."""
    rng = np.random.default_rng(70)
    return {
        "random200": random_graph(rng, 200, 0.02),
        "random600": random_graph(rng, 600, 0.012),
        "empty": AdjacencyMatrix(np.zeros((250, 250), dtype=np.int8)),
        "star": _star(300),
        "isolated": _with_isolated(random_graph(rng, 300, 0.015), 200),
        "components": _two_components(rng),
        "matching": _with_matching(random_graph(rng, 300, 0.012), 20),
    }


class TestSparseTables:
    """On the sparse route the edge table is the adjacency itself, and the
    triangle and V-shape tables are the dense route's float32 arrays."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return _sparse_graphs()

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_equal_to_dense_route(self, graphs, motif, monkeypatch):
        for name, A in graphs.items():
            assert moments._sparse_route(A), name
            table = moments._graph_counts(A, motif)[2]()
            assert motif is not EDGE or table is A.a, name
            sparse = _outputs(A, motif)
            with monkeypatch.context() as m:
                m.setattr(moments, "_SPARSE_MIN_NODES", 10 ** 9)
                dense_table = moments._graph_counts(A, motif)[2]()
                dense = _outputs(A, motif)
            assert np.array_equal(dense_table, moments._inner_counts(A.a, motif)), name
            assert type(table) is type(dense_table) is np.ndarray, name
            assert table.dtype == dense_table.dtype == (np.int8 if motif is EDGE else np.float32)
            assert table.tobytes() == dense_table.tobytes(), name
            assert sparse == dense, name

    def test_node_in_no_vshape(self, graphs):
        A = graphs["matching"]
        _, per = motif_counts(A, VSHAPE)
        assert per[-40:].tolist() == [0] * 40 and per[:300].any()

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_peak_memory(self, motif):
        # Tables of O(sum of squared degrees) and no n x n float64 array:
        # the bound, 4 n^2 bytes, is half of one.
        n = 2000
        A = random_graph(np.random.default_rng(71), n, 10 / (n - 1))
        compute_stats(A, motif)  # warms up outside the measurement
        tracemalloc.start()
        try:
            compute_stats(A, motif)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n


def _hub_at_either_end(n):
    """A degree-10 random graph plus a hub joined to every node, with the hub
    at id 1, then at id n."""
    a = random_graph(np.random.default_rng(75), n, 10 / (n - 1)).a.copy()
    a[0, 1:] = a[1:, 0] = 1
    return a, a[::-1, ::-1].copy()


def _traced_peak(A, motif):
    """Peak bytes traced by ``compute_stats(A, motif)``, after one call to warm up."""
    compute_stats(A, motif)
    tracemalloc.start()
    try:
        compute_stats(A, motif)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_route_imports_no_scipy_sparse():
    # g2 and the three-star on sparse-route graphs, in a fresh interpreter.
    code = ("import sys; import numpy as np; from conftest import random_graph; "
            "from netmoments import (EDGE, TRIANGLE, VSHAPE, THREESTAR, compute_stats, "
            "moments, pair_projection); "
            "A = random_graph(np.random.default_rng(78), 600, 0.012); "
            "assert moments._sparse_route(A); "
            "[pair_projection(A, m) for m in (EDGE, TRIANGLE, VSHAPE)]; "
            "compute_stats(A, THREESTAR); "
            "print('scipy.sparse' in sys.modules)")
    tests = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(Path(moments.__file__).parents[1]), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out == "False\n"


def _forbid_byte_listing(monkeypatch):
    monkeypatch.setattr(adjacency, "_byte_keys", lambda a: pytest.fail("adjacency bytes listed"))


class TestEdgeListGraphs:
    """A graph built from edge pairs lists its nonzeros from them: its sparse-route
    results never read the adjacency bytes and equal those from the bytes."""

    @pytest.fixture(scope="class")
    def edge_list_graph(self):
        # Both orientations of some pairs, repeats, and isolated nodes up to id 599.
        rng = np.random.default_rng(82)
        pairs = rng.integers(0, 590, (2200, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        return from_edges(600, np.concatenate([pairs, pairs[:300, ::-1], pairs[:100]]))

    @pytest.mark.parametrize("motif", MOTIFS, ids=lambda m: m.name)
    def test_sparse_route_reads_no_bytes(self, edge_list_graph, motif, monkeypatch):
        A = edge_list_graph
        from_bytes = _outputs(AdjacencyMatrix(A.a), motif)
        with monkeypatch.context() as m:
            _forbid_byte_listing(m)
            assert moments._sparse_route(A)
            assert _outputs(A, motif) == from_bytes

    def test_isolated_top_id(self, tmp_path, monkeypatch):
        # n = 15000 from four lines: the n^2 bytes are neither scanned nor listed.
        path = tmp_path / "sparse.edges"
        path.write_text("1 2\n2 3\n1 3\n3 15000\n")
        A = load_edge_list(path)
        stats = {}
        with monkeypatch.context() as m:
            _forbid_byte_listing(m)
            assert A.n == 15000 and A.edge_count == 4 and moments._sparse_route(A)
            for motif, total in ((EDGE, 4), (TRIANGLE, 1), (VSHAPE, 3)):
                assert motif_counts(A, motif)[0] == total
                stats[motif.name] = _fields(compute_stats(A, motif))
        # The same bytes from the listed adjacency bytes, and for the edge from
        # the dense route (the triangle's would be a 0.9 GB float32 product).
        for motif in (EDGE, TRIANGLE, VSHAPE):
            assert _fields(compute_stats(AdjacencyMatrix._trusted(A.a), motif)) \
                == stats[motif.name]
        monkeypatch.setattr(moments, "_SPARSE_MIN_NODES", 10 ** 9)
        assert _fields(compute_stats(A, EDGE)) == stats[EDGE.name]


class TestListedCounts:
    """On the sparse route the edge, triangle and V-shape counts and ``inner @ per``
    come from edges and listed triangles, exactly as from the pair table."""

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_equal_to_table_route(self, motif):
        graphs = {**_sparse_graphs(),
                  "random2000": random_graph(np.random.default_rng(74), 2000, 40 / 1999)}
        for name, A in graphs.items():
            assert moments._sparse_route(A), name
            per, sums, _ = moments._graph_counts(A, motif)
            sums = sums()
            inner = moments._inner_counts(A.a, motif)
            _, table_per = moments._counts_from_inner(inner, motif.r)
            table_sums = moments._pair_table_sums(inner, table_per, motif.r)
            assert per.dtype == table_per.dtype and per.tobytes() == table_per.tobytes(), name
            assert sums.dtype == table_sums.dtype, name
            assert sums.tobytes() == table_sums.tobytes(), name

    @pytest.mark.parametrize("n, dtype", [(11_400, np.float64), (11_700, np.int64)])
    def test_vshape_star_on_both_sides_of_2_53(self, n, dtype, monkeypatch):
        # The pair table would be n x n float32, over 0.5 GB.
        def no_table(*args):
            raise AssertionError("pair table built")

        for name in ("_inner_counts", "_codegrees"):
            monkeypatch.setattr(moments, name, no_table)
        a = np.zeros((n, n), dtype=np.int8)
        a[0, 1:] = a[1:, 0] = 1
        A = AdjacencyMatrix._trusted(a)
        assert moments._sparse_route(A)
        per, sums, _ = moments._graph_counts(A, VSHAPE)
        sums = sums()
        # Hub-leaf pairs complete through any other leaf, leaf pairs through the hub.
        hub, leaf = math.comb(n - 1, 2), n - 2
        assert (2 * hub ** 2 < 2 ** 53) == (dtype is np.float64)
        assert per.tolist() == [hub] + [leaf] * (n - 1)
        assert sums.dtype == dtype
        assert int(sums[0]) == (n - 1) * leaf * leaf
        assert {int(v) for v in sums[1:].tolist()} == {leaf * hub + (n - 2) * leaf}

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_table_sums_above_the_int64_bound(self, motif, monkeypatch):
        # Sums too large for the int64 partial sums are formed in Python ints
        # from the same listed arrays, with no table.
        A = _sparse_graphs()["components"]
        per, sums, _ = moments._graph_counts(A, motif)
        sums = sums()
        monkeypatch.setattr(moments, "_LISTED_SUMS_MAX_TOP", 0)
        built = []
        for name in ("_inner_counts", "_codegrees"):
            table = getattr(moments, name)
            monkeypatch.setattr(moments, name, lambda *args, f=table: built.append(1) or f(*args))
        big_per, big_sums, _ = moments._graph_counts(A, motif)
        # A scattered triangle table would be 4 n^2 bytes.
        tracemalloc.start()
        try:
            big_sums = big_sums()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [] and peak < 4 * A.n * A.n
        assert big_per.dtype == per.dtype and big_per.tobytes() == per.tobytes()
        assert big_sums.dtype == sums.dtype and big_sums.tobytes() == sums.tobytes()

    def test_hub_at_either_end_of_the_ids(self):
        n = 3000
        results = []
        for hub_first in _hub_at_either_end(n):
            A = AdjacencyMatrix(hub_first)
            rows, cols, _ = A._nonzeros
            src, _ = moments._oriented(rows, cols, np.bincount(rows, minlength=n))
            assert np.bincount(src).max() ** 2 <= rows.size  # out-degree <= sqrt(2m)
            for motif in (TRIANGLE, VSHAPE):
                assert _traced_peak(A, motif) <= n * n
                per, sums, _ = moments._graph_counts(A, motif)
                results.append((per, sums()))
        for (per, sums), (per_rev, sums_rev) in zip(results[:2], results[2:]):
            assert np.array_equal(per, per_rev[::-1]) and np.array_equal(sums, sums_rev[::-1])

    def test_oriented_equals_stable_argsort_rank(self):
        # The (degree, id) key selects the edges, in order, that ranking the
        # nodes by a stable argsort of their degrees does, on graphs with
        # many degree ties: sparse random graphs, a cycle, a complete graph
        # and the hub at either end of the ids.
        rng = np.random.default_rng(83)
        graphs = [random_graph(rng, n, p).a for n, p in ((60, 0.05), (300, 0.01), (400, 0.02))]
        graphs += [from_edges(50, [(k, (k + 1) % 50) for k in range(50)]).a, K4.a,
                   *_hub_at_either_end(3000)]
        for a in graphs:
            rows, cols, indptr = AdjacencyMatrix(a)._nonzeros
            d = np.diff(indptr)
            assert np.unique(d).size <= d.size / 4  # ties
            rank = np.empty(d.size, dtype=np.int64)
            rank[np.argsort(d, kind="stable")] = np.arange(d.size)
            up = rank[rows] < rank[cols]
            for got, want in zip(moments._oriented(rows, cols, d), (rows[up], cols[up]),
                                 strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_hub_pair_projection_equals_dense_route(self, monkeypatch):
        for a in _hub_at_either_end(3000):
            A = AdjacencyMatrix(a)
            for motif in (TRIANGLE, VSHAPE):
                listed = pair_projection(A, motif)
                with monkeypatch.context() as m:
                    m.setattr(moments, "_SPARSE_MIN_NODES", 10 ** 9)
                    assert listed.tobytes() == pair_projection(A, motif).tobytes()

    @pytest.mark.parametrize("chunk", [1, 2 ** 30])
    def test_pair_chunk_invariance(self, chunk, sparse_route, monkeypatch):
        # Forced onto the listed route, so that one-pair chunks stay quick.
        rng = np.random.default_rng(77)
        graphs = [random_graph(rng, 40, 0.3), random_graph(rng, 60, 0.05), _star(30),
                  AdjacencyMatrix(np.zeros((12, 12), dtype=np.int8)),
                  _with_isolated(random_graph(rng, 25, 0.5), 5)]
        # Generic motifs enumerate subsets in chunks of _PAIR_CHUNK // C(r, 2).
        small = [random_graph(rng, 12, 0.5), _with_isolated(random_graph(rng, 9, 0.6), 3),
                 graphs[3]]

        def outputs():
            for A in graphs:
                rows, cols, _ = A._nonzeros
                yield from moments._triangles(A.a, *moments._oriented(
                    rows, cols, np.bincount(rows, minlength=A.n)))
                # Listed tables and the three-star's scattered codegrees.
                for motif in (TRIANGLE, VSHAPE, THREESTAR):
                    per, sums, table = moments._graph_counts(A, motif)
                    yield from (per, sums(), table())
            for A in small:
                for motif in (FOUR_PATH, BULL):
                    per, sums, table = moments._graph_counts(A, motif)
                    yield from (per, sums(), table())

        default = [(x.dtype, x.tobytes()) for x in outputs()]
        monkeypatch.setattr(moments, "_PAIR_CHUNK", chunk)
        assert [(x.dtype, x.tobytes()) for x in outputs()] == default

    @pytest.mark.parametrize("motif", [TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_pair_projection_peak_memory(self, motif):
        # The float32 table and the float64 g2 (12 n^2 bytes), with no dense
        # BLAS table or other n x n temporary beside them: pair_projection,
        # listing included.
        n = 2000
        A = random_graph(np.random.default_rng(71), n, 10 / (n - 1))
        assert moments._sparse_route(A)
        pair_projection(A, motif)  # warms up outside the measurement
        tracemalloc.start()
        try:
            pair_projection(A, motif)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n * n + 2 ** 20

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_no_table_unless_pair_projection_is_read(self, motif, monkeypatch):
        calls, built = [], []
        listed = moments._listed_counts

        def counted(*args):
            per, sums, table = listed(*args)
            return per, sums, lambda: calls.append(1) or table()

        monkeypatch.setattr(moments, "_listed_counts", counted)
        for name in ("_inner_counts", "_codegrees"):
            kernel = getattr(moments, name)
            monkeypatch.setattr(moments, name, lambda *args, f=kernel: built.append(1) or f(*args))
        A = random_graph(np.random.default_rng(76), 600, 0.012)
        compute_stats(A, motif)
        motif_counts(A, motif)
        jackknife_variance(A, motif)
        assert calls == [] and built == []
        g2 = pair_projection(A, motif)
        assert len(calls) == 1
        # The edge's table is the adjacency itself.
        assert len(built) == (1 if motif is VSHAPE else 0)
        monkeypatch.setattr(moments, "_SPARSE_MIN_NODES", 10 ** 9)
        assert g2.tobytes() == pair_projection(A, motif).tobytes()
        assert len(calls) == 1

    @pytest.mark.parametrize("motif", [TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_pair_projection_read_repeats_no_listing(self, motif, monkeypatch):
        calls = collections.Counter()
        spied = [(moments, "_sparse_route"), (adjacency, "_byte_keys"), (moments, "_triangles"),
                 (moments, "_sums_dtype")]
        for module, name in spied:
            f = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, f=f, name=name: calls.update([name]) or f(*args))
        A = random_graph(np.random.default_rng(76), 600, 0.012)
        # Each call lists once; the sums dtype is asked once per set of sums formed.
        listing = {"_sparse_route": 1, "_byte_keys": 1, "_triangles": 1}
        compute_stats(A, motif)
        assert calls == {**listing, "_sums_dtype": 1}
        calls.clear()
        pair_projection(AdjacencyMatrix(A.a), motif)
        assert calls == listing
        # The graph keeps its nonzeros and triangles: a second request on it
        # reads no bytes and lists nothing.
        calls.clear()
        pair_projection(A, motif)
        assert calls == {"_sparse_route": 1}
        # motif_counts and pair_projection form no sums, on either route.
        for graph in (A, random_graph(np.random.default_rng(79), 40, 0.3)):
            calls.clear()
            motif_counts(graph, motif)
            pair_projection(graph, motif)
            assert calls["_sums_dtype"] == 0 and calls["_sparse_route"] == 2
            compute_stats(graph, motif)
            assert calls["_sums_dtype"] == 1

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_peak_memory(self, motif):
        # Edges and triangles only: ~2.2 MB measured, against n^2 = 4 MB.
        n = 2000
        A = random_graph(np.random.default_rng(71), n, 10 / (n - 1))
        assert _traced_peak(A, motif) <= n * n


class TestMultiplicityCounts:
    """Per-node counts of induced replicates, read off the observed graph."""

    @staticmethod
    def gathered_and_counted(A, motif, idx, route):
        """``motif_counts_block`` of the stack that the draws ``idx`` (b, s) induce,
        and ``_multiplicity_counts`` of their multiplicities at the same nodes,
        by ``route``."""
        b, n = idx.shape[0], A.n
        per = motif_counts_block(A.a.ravel()[idx[:, :, None] * n + idx[:, None, :]], motif)[1]
        mult = np.zeros((b, n), dtype=np.int64)
        np.add.at(mult, (np.arange(b)[:, None], idx), 1)
        return per, np.take_along_axis(moments._multiplicity_counts(A, motif, mult, route), idx, 1)

    # Dense-route triangles against the incidence table or from held-row
    # products, and the listed route, each on every graph whatever its size.
    @pytest.mark.parametrize("route", ["incidence", "held", "listed"])
    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_equal_to_gathered_stack(self, motif, route):
        rng = np.random.default_rng(91)
        for A in (random_graph(rng, 30, 0.5), sample_graph(paper_block_model(), 40, 1.0, seed=9),
                  _star(25), AdjacencyMatrix(np.zeros((9, 9), dtype=np.int8))):
            n = A.n
            draws = [rng.integers(0, n, size=(5, n)),  # resamples
                     np.sort(rng.permuted(np.tile(np.arange(n), (5, 1)), axis=1)[:, :n // 2]),
                     np.zeros((2, n), dtype=np.int64)]  # every copy one node
            for idx in draws:
                per, counted = self.gathered_and_counted(A, motif, idx, route)
                assert counted.dtype == per.dtype and counted.tobytes() == per.tobytes()
            built = route == "incidence" and motif is not EDGE
            assert ("_incidence" in vars(A)) == built

    def test_incidence_rows_close_triangles(self):
        # Row e = {v, w} marks the nodes adjacent to both ends; a triangle
        # is marked once at each corner, from its opposite edge.
        A = random_graph(np.random.default_rng(93), 30, 0.4)
        v, w, inc = A._incidence
        assert (v < w).all() and v.size == A.edge_count and (A.a[v, w] == 1).all()
        assert inc.dtype == np.float32 and inc.shape == (v.size, A.n)
        assert inc.tobytes() == (A.a[v] & A.a[w]).astype(np.float32).tobytes()
        assert inc.sum(axis=0).tolist() == motif_counts(A, TRIANGLE)[1].tolist()

    def test_product_dtype_bound(self, monkeypatch):
        # Dense products hold integers up to n^2: float32 to n = 4096, with
        # the incidence table and with held rows.
        assert moments._product_dtype(4096) is np.float32
        assert moments._product_dtype(4097) is np.float64
        A = sample_graph(paper_block_model(), 40, 1.0, seed=10)
        idx = np.random.default_rng(92).integers(0, A.n, size=(6, A.n))

        def counted(dtype, route):
            monkeypatch.setattr(moments, "_product_dtype", lambda n: dtype)
            fresh = AdjacencyMatrix(A.a)  # its products are cast on first use, and kept
            per = [self.gathered_and_counted(fresh, motif, idx, route)[1].tobytes()
                   for motif in (TRIANGLE, VSHAPE)]
            assert fresh._products.dtype == dtype
            return per

        for route in ("held", "incidence"):
            assert counted(np.float64, route) == counted(np.float32, route)


class TestCostCaps:
    # The cap is read at call time, so patching the module constant
    # reaches every entry point.
    @pytest.mark.parametrize("entry", [motif_counts, sample_moment, pair_projection,
                                        jackknife_variance, compute_stats],
                             ids=lambda f: f.__name__)
    def test_generic_subset_cap(self, entry, monkeypatch):
        A = random_graph(np.random.default_rng(11), 12, 0.5)
        monkeypatch.setattr(moments, "MAX_GENERIC_SUBSETS", 10)
        with pytest.raises(CostCapError, match="MAX_GENERIC_SUBSETS = 10; count a smaller graph"):
            entry(A, FOUR_PATH)

    def test_threestar_ignores_subset_cap(self, monkeypatch):
        A = random_graph(np.random.default_rng(11), 12, 0.5)
        expected = sample_moment(A, THREESTAR)
        monkeypatch.setattr(moments, "MAX_GENERIC_SUBSETS", 10)
        assert sample_moment(A, THREESTAR) == expected


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("1 2\n2,3\n# comment\n\n2 3\n")
        A = load_edge_list(p)
        assert A.n == 3
        assert A.edge_count == 2  # duplicate collapsed

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("1 1\n")
        with pytest.raises(ValueError, match="self-loop"):
            load_edge_list(p)

    @pytest.mark.parametrize("line", ["2 x", "1.5 2"])
    def test_non_integer_id_names_file_and_line(self, tmp_path, line):
        p = tmp_path / "bad.edges"
        p.write_text(f"1 2\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: node ids must be integers")):
            load_edge_list(p)

    def test_zero_based_rejected(self, tmp_path):
        p = tmp_path / "bad0.edges"
        p.write_text("0 1\n")
        with pytest.raises(ValueError, match="1-based"):
            load_edge_list(p)

    @pytest.mark.parametrize("pair", [(0, -1), (0, 3), (-1, 2), (3, 0)])
    def test_from_edges_rejects_ids_outside_range(self, pair):
        # (0, -1) would otherwise wrap to the edge 0-2 through numpy's
        # negative indexing; (0, 3) would be a bare IndexError.
        with pytest.raises(ValueError, match=rf"edge \({pair[0]}, {pair[1]}\).*\[0, 3\)"):
            from_edges(3, [pair])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 0), (0, 5)], r"self-loop \(0, 0\)"),
        ([(0, 5), (0, 0)], r"edge \(0, 5\).*\[0, 3\)"),
        ([(0, 1), (1, 2), (2, 2), (7, 1)], r"self-loop \(2, 2\)"),
        ([(0, 1), (0.5, 1), (0, 9)], r"edge \(0.5, 1\) has a non-integer node id"),
        ([(0, 2 ** 63)], rf"edge \(0, {2 ** 63}\).*\[0, 3\)"),
        ([(2 ** 70, 1)], rf"edge \({2 ** 70}, 1\).*\[0, 3\)"),
        ([(-1, 2 ** 63)], rf"edge \(-1, {2 ** 63}\).*\[0, 3\)"),
    ])
    def test_from_edges_names_first_bad_pair(self, edges, message):
        with pytest.raises(ValueError, match=message):
            from_edges(3, edges)
        if all(isinstance(v, int) and abs(v) < 2 ** 62 for pair in edges for v in pair):
            with pytest.raises(ValueError, match=message):
                from_edges(3, np.array(edges))

    def test_from_edges_rejects_non_integer_arrays(self):
        for edges in (np.array([[0.0, 1.0]]), np.array([[True, False]]), [(1.0, 2)]):
            with pytest.raises(ValueError, match="non-integer"):
                from_edges(3, edges)

    def test_from_edges_accepted_inputs(self):
        assert from_edges(6, []).n == 6 and from_edges(6, []).edge_count == 0
        pairs = [(0, 1), (1, 0), (2, 4), (0, 1), (4, 2)]
        A = from_edges(5, pairs)
        assert A.edge_count == 2  # duplicates and reversed pairs collapse
        assert A.a.dtype == np.int8
        assert np.array_equal(A.a, AdjacencyMatrix(A.a).a)  # valid as built
        for same in (np.array(pairs), np.array(pairs, dtype=np.uint16), iter(pairs),
                     tuple(pairs)):
            assert np.array_equal(from_edges(5, same).a, A.a)
        assert from_edges(4, np.empty((0, 2), dtype=np.int64)).edge_count == 0

