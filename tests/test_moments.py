import math

import numpy as np
import pytest

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, CostCapError,
                        compute_stats, edgeworth_coefficients, from_edges,
                        jackknife_variance, load_edge_list, local_projection,
                        motif_counts, motif_counts_block, pair_projection,
                        sample_moment, studentize, variance_estimator)
from conftest import Oracle, random_graph

PATH3 = from_edges(3, [(0, 1), (1, 2)])
K4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
MOTIFS = (EDGE, TRIANGLE, VSHAPE, THREESTAR)


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
        g1 = local_projection(PATH3, EDGE)
        assert np.allclose(g1, [-1 / 6, 1 / 3, -1 / 6], atol=1e-15)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            A = random_graph(rng, int(rng.integers(4, 11)))
            for motif in MOTIFS:
                assert abs(local_projection(A, motif).sum()) <= 1e-9

    def test_vertex_transitive_zero(self):
        assert np.allclose(local_projection(C5, EDGE), 0.0, atol=1e-15)


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

    def test_node_cap(self):
        A = random_graph(np.random.default_rng(3), 12, 0.5)
        with pytest.raises(CostCapError, match="node_cap"):
            pair_projection(A, THREESTAR, node_cap=10)
        pair_projection(A, THREESTAR, node_cap=12)  # override works


class TestVariance:
    def test_path_edge(self):
        g1 = local_projection(PATH3, EDGE)
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

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = random_graph(rng, int(rng.integers(5, 11)))
            for motif in (EDGE, TRIANGLE, VSHAPE):
                oracle = Oracle(motif)
                stats = compute_stats(A, motif)
                assert stats.e_g1g1g2 == pytest.approx(oracle.e_g1g1g2(A), abs=1e-12)


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
        assert np.array_equal(s1.g2_hat, s2.g2_hat)

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


class TestOracleEquivalence:
    def test_fast_paths_equal_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            n = int(rng.integers(5, 13))
            A = random_graph(rng, n)
            for motif in MOTIFS:
                if n < motif.r:
                    continue
                oracle = Oracle(motif)
                t_fast, per_fast = motif_counts(A, motif)
                t_slow, per_slow = oracle.counts(A)
                assert t_fast == t_slow
                assert np.array_equal(per_fast, per_slow)
                assert np.allclose(pair_projection(A, motif), oracle.g2(A), atol=1e-12)

    def test_block_counts_equal_brute_force(self):
        # Stacked graphs of one size, with an empty and a complete graph
        # among them, through the batched kernel and row by row.
        rng = np.random.default_rng(10)
        for n in (4, 7, 10):
            graphs = [random_graph(rng, n) for _ in range(5)]
            graphs += [random_graph(rng, n, p=0.0), random_graph(rng, n, p=1.0)]
            stack = np.stack([A.a for A in graphs])
            for motif in MOTIFS:
                oracle = Oracle(motif)
                totals, per = motif_counts_block(stack, motif)
                assert totals.shape == (len(graphs),) and per.shape == (len(graphs), n)
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
            B = A.relabeled(perm)
            for motif in MOTIFS:
                sa = compute_stats(A, motif)
                sb = compute_stats(B, motif)
                assert sb.u_hat == pytest.approx(sa.u_hat, abs=1e-15)
                assert sb.s_hat_sq == pytest.approx(sa.s_hat_sq, abs=1e-12)
                assert sb.e_g1g1g2 == pytest.approx(sa.e_g1g1g2, abs=1e-12)
                assert np.allclose(sb.g1_hat[perm], sa.g1_hat, atol=1e-12)

    def test_relabeled_rejects_non_permutation(self):
        for bad in ([0, 0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 5]):
            with pytest.raises(ValueError, match="permutation"):
                C5.relabeled(bad)

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


class TestCostCaps:
    def test_generic_subset_cap(self):
        A = random_graph(np.random.default_rng(11), 12, 0.5)
        with pytest.raises(CostCapError, match="max_subsets"):
            sample_moment(A, THREESTAR, max_subsets=10)

    def test_pairwise_generic_cap(self):
        A = random_graph(np.random.default_rng(12), 10, 0.5)
        four_path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        from netmoments import make_motif
        motif = make_motif(four_path.a)
        with pytest.raises(CostCapError, match="max_subsets"):
            pair_projection(A, motif, max_subsets=10)


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

    def test_zero_based_rejected(self, tmp_path):
        p = tmp_path / "bad0.edges"
        p.write_text("0 1\n")
        with pytest.raises(ValueError, match="1-based"):
            load_edge_list(p)
