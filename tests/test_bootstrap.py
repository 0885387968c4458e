import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix,
                        DegenerateReplicatesError, EmpiricalCdf, compute_stats, from_edges,
                        motif_counts, pair_projection, resample_distribution, sample_graph,
                        sample_moment, stream, subsample_distribution)
from netmoments import bootstrap, graphon, harness, moments
from netmoments.bootstrap import MAX_DROP_FRACTION
from netmoments.harness import monte_carlo_true_cdf
from netmoments.rng import KeyedStreams
from conftest import paper_block_model

K5 = from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


@pytest.fixture(scope="module")
def graph80():
    return sample_graph(paper_block_model(), 80, 1.0, seed=404)


class TestEmpiricalCdf:
    def test_step_evaluation(self):
        F = EmpiricalCdf(samples=np.array([-1.0, 0.0, 0.0, 2.0]))
        assert F.evaluate(-2.0) == 0.0
        assert F.evaluate(-1.0) == 0.25  # right-continuous at a sample
        assert F.evaluate(0.0) == 0.75
        assert F.evaluate(1.0) == 0.75
        assert F.evaluate(2.0) == 1.0
        assert F.evaluate(5.0) == 1.0
        assert F.evaluate([0.0, 2.0]).tolist() == [0.75, 1.0]

    def test_nondecreasing_on_grid(self):
        rng = np.random.default_rng(0)
        F = EmpiricalCdf(samples=np.sort(rng.normal(size=100)))
        vals = F.evaluate(np.linspace(-3, 3, 61))
        assert (np.diff(vals) >= 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EmpiricalCdf(samples=np.array([]))

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            EmpiricalCdf(samples=np.array([1.0, 0.0]))

    def test_quantiles(self):
        F = EmpiricalCdf(samples=np.arange(1.0, 11.0))
        assert F.quantile(0.1) == 1.0
        assert F.quantile(0.5) == 5.0
        assert F.quantile(0.95) == 10.0
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="q must lie in"):
                F.quantile(bad)


class TestSubsample:
    def test_deterministic(self, graph80):
        a = subsample_distribution(graph80, TRIANGLE, n_star=40, B=25, seed=7)
        b = subsample_distribution(graph80, TRIANGLE, n_star=40, B=25, seed=7)
        assert np.array_equal(a.samples, b.samples)
        c = subsample_distribution(graph80, TRIANGLE, n_star=40, B=25, seed=8)
        assert not np.array_equal(a.samples, c.samples)

    def test_k5_single_replicate_degenerate(self):
        # Any 4 nodes of K5 induce K4: U* = 1 and a zero variance
        # estimate, so the single replicate drops and the >10% guard trips.
        with pytest.raises(DegenerateReplicatesError) as exc:
            subsample_distribution(K5, TRIANGLE, n_star=4, B=1, seed=3)
        assert exc.value.n_dropped == 1
        assert exc.value.n_total == 1

    def test_nstar_validation(self, graph80):
        with pytest.raises(ValueError, match="n_star"):
            subsample_distribution(graph80, TRIANGLE, n_star=80, B=2, seed=1)
        with pytest.raises(ValueError, match="n_star"):
            subsample_distribution(graph80, TRIANGLE, n_star=2, B=2, seed=1)
        with pytest.raises(ValueError, match="replicate"):
            subsample_distribution(graph80, TRIANGLE, n_star=40, B=0, seed=1)

    def test_replicates_centered_near_zero(self, graph80):
        F = subsample_distribution(graph80, EDGE, n_star=40, B=200, seed=13)
        assert abs(np.median(F.samples)) < 1.0


class TestResample:
    def test_deterministic(self, graph80):
        a = resample_distribution(graph80, EDGE, B=25, seed=5)
        b = resample_distribution(graph80, EDGE, B=25, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_replicate_reconstruction_and_coincidence_convention(self, graph80):
        # Rebuild the first replicate from the documented stream and the
        # stated rule: entry (a, b) copies A[i_a, i_b], and coincident
        # draws (i_a == i_b) contribute no edge.
        import math
        from netmoments import AdjacencyMatrix, stream
        from netmoments.moments import compute_stats, sample_moment, variance_estimator

        A = graph80
        n = A.n
        seed = 31
        idx = stream(seed, "resample", 0).integers(0, n, size=n)
        assert (idx[:, None] == idx[None, :]).sum() > n  # coincidences present
        a_star = np.zeros((n, n), dtype=np.int8)
        for a in range(n):
            for b in range(n):
                if a != b and idx[a] != idx[b]:
                    a_star[a, b] = A.a[idx[a], idx[b]]
        B_star = AdjacencyMatrix(a_star)
        u_full = sample_moment(A, EDGE)
        u_star = sample_moment(B_star, EDGE)
        s_sq = variance_estimator(compute_stats(B_star, EDGE).g1_hat, 2)
        expected_t = (u_star - u_full) / math.sqrt(s_sq)
        F = resample_distribution(A, EDGE, B=1, seed=seed)
        assert F.samples[0] == pytest.approx(expected_t, abs=1e-12)

    def test_b_validation(self, graph80):
        with pytest.raises(ValueError, match="replicate"):
            resample_distribution(graph80, EDGE, B=0, seed=1)

    @pytest.mark.parametrize("B", [True, 5.0, np.float64(3), "4"])
    def test_b_must_be_an_integer(self, graph80, B, monkeypatch):
        # Checked before any draw: B=True used to run one replicate.
        monkeypatch.setattr(bootstrap, "_draw", None)
        monkeypatch.setattr(bootstrap, "_batch_draws", None)
        message = re.escape(f"B must be an integer, got {B!r}")
        for run in (lambda: resample_distribution(graph80, EDGE, B=B, seed=1),
                    lambda: subsample_distribution(graph80, EDGE, n_star=40, B=B, seed=1)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run()

    @pytest.mark.parametrize("B", [-1, -(2 ** 62), np.int64(-5)])
    def test_negative_b_allocates_nothing(self, graph80, B):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="need at least one replicate"):
                resample_distribution(graph80, EDGE, B=B, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_star", [10.0, True, np.float32(20)])
    def test_n_star_must_be_an_integer(self, graph80, n_star):
        message = re.escape(f"n_star must be an integer, got {n_star!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            subsample_distribution(graph80, EDGE, n_star=n_star, B=5, seed=1)


# Replicate b's nodes, drawn from its own (seed, scheme, b) stream.
DRAWS = {
    "subsample": lambda rng, n: np.sort(rng.choice(n, size=n // 2, replace=False)),
    "resample": lambda rng, n: rng.integers(0, n, size=n),
}


def run_bootstrap(scheme, A, motif, B, seed):
    if scheme == "subsample":
        return subsample_distribution(A, motif, n_star=A.n // 2, B=B, seed=seed)
    return resample_distribution(A, motif, B=B, seed=seed)


def oracle_replicates(scheme, A, motif, B, seed, draw=None):
    """The bootstrap one replicate at a time: sorted values and the number dropped.

    Each replicate is the induced subgraph on its drawn nodes (``draw(rng)``,
    by default the scheme's draw), counted and studentized on its own.
    """
    r = motif.r
    draw = draw or (lambda rng: DRAWS[scheme](rng, A.n))
    u_full = sample_moment(A, motif)
    values, dropped = [], 0
    for b in range(B):
        A_star = A.induced(draw(stream(seed, scheme, b)))
        m = A_star.n
        total, per = motif_counts(A_star, motif)
        u_hat = total / math.comb(m, r)
        g1 = per / math.comb(m - 1, r - 1) - u_hat
        s_sq = float(r * r * np.sum(g1 * g1) / (m * m))
        if s_sq == 0.0:
            dropped += 1
        else:
            values.append((u_hat - u_full) / math.sqrt(s_sq))
    return np.sort(np.asarray(values)), dropped


class TestReplicateEngine:
    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE, THREESTAR], ids=lambda m: m.name)
    @pytest.mark.parametrize("rho", [1.0, 0.3])
    @pytest.mark.parametrize("scheme", ["subsample", "resample"])
    def test_equals_per_replicate_oracle(self, scheme, rho, motif):
        # B spans two full blocks and a partial one: chunks of the
        # multiplicity route, or stacked blocks for the three-star.  At
        # rho = 0.3 some replicates are degenerate: the three-star drops a
        # few, and the triangle drops enough to trip the cap.
        A = sample_graph(paper_block_model(), 40, rho, seed=40)
        m = A.n // 2 if scheme == "subsample" else A.n
        B = 2 * moments._replicate_counter(A, motif, m)[0] + 7
        values, dropped = oracle_replicates(scheme, A, motif, B, 3)
        assert_engine_equals(lambda: run_bootstrap(scheme, A, motif, B, 3), values, dropped, B)

    @pytest.mark.parametrize("elements", [1, 1 << 30])
    def test_block_size_invariance(self, monkeypatch, elements):
        # One replicate per block, and every replicate in one block: truth
        # blocks (sized by the edge uniforms of their networks) and their
        # sampler chunks, stacked blocks (the three-star) and
        # multiplicity-route chunks (the edge, triangle and V-shape) alike.
        bm = paper_block_model()
        A = sample_graph(bm, 40, 1.0, seed=40)

        def boots():
            for motif in (EDGE, TRIANGLE, VSHAPE):
                yield subsample_distribution(A, motif, n_star=20, B=60, seed=4)
                yield resample_distribution(A, motif, B=60, seed=4)
            yield resample_distribution(A, THREESTAR, B=60, seed=4)

        def fingerprint():
            truth = monte_carlo_true_cdf(bm, 1.0, TRIANGLE, n=12, n_mc=1_000, seed=3,
                                         mu=0.1, max_degenerate_fraction=1.0)
            return (truth.values.tobytes(), truth.n_degenerate, repr(truth.t_mean),
                    repr(truth.t_sd), [(F.samples.tobytes(), F.n_dropped) for F in boots()])

        expected = fingerprint()
        counter = moments._replicate_counter
        monkeypatch.setattr(harness, "_PAIR_CHUNK", elements)
        monkeypatch.setattr(graphon, "_BLOCK_ELEMENTS", elements)
        monkeypatch.setattr(moments, "_replicate_counter",
                            lambda *args: (elements, counter(*args)[1]))
        assert fingerprint() == expected

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    @pytest.mark.parametrize("scheme", ["subsample", "resample"])
    @pytest.mark.parametrize("graph", ["n199", "n200", "hub-first", "hub-last"])
    def test_multiplicity_route_equals_per_replicate_oracle(self, graph, scheme, motif,
                                                            monkeypatch):
        # n = 199 takes the dense route (products, inside the incidence
        # budget); the others take the listed route.  Either way every draw
        # is counted from its multiplicities.
        A, listed = MULTIPLICITY_GRAPHS[graph]()
        assert moments._sparse_route(A) == listed
        used = spy(monkeypatch, moments, "_multiplicity_counts")
        B = 12
        values, dropped = oracle_replicates(scheme, A, motif, B, 5)
        assert_engine_equals(lambda: run_bootstrap(scheme, A, motif, B, 5), values, dropped, B)
        assert used

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    @pytest.mark.parametrize("graph", ["n199", "hub-first", "hub-last"])
    def test_forced_repeats_equal_per_replicate_oracle(self, graph, motif, monkeypatch):
        # About a third of each draw is one node: the hub, or node 0 (a
        # corner of a planted triangle), with multiplicities near n / 3.
        A, _ = MULTIPLICITY_GRAPHS[graph]()
        n = A.n
        heavy = n - 1 if graph == "hub-last" else 0

        def draw(rng, n, s):
            return np.where(rng.random(n) < 0.3, heavy, rng.integers(0, n, size=n))

        used = spy(monkeypatch, moments, "_multiplicity_counts")
        B = 12  # fewer than n replicates: each is drawn by its own _draw call
        values, dropped = oracle_replicates("resample", A, motif, B, 6,
                                            lambda rng: draw(rng, n, n))
        monkeypatch.setattr(bootstrap, "_draw", draw)
        assert_engine_equals(lambda: resample_distribution(A, motif, B=B, seed=6),
                             values, dropped, B)
        assert used

    @pytest.mark.parametrize("budget", [0, 2 ** 30])
    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    @pytest.mark.parametrize("scheme", ["subsample", "resample", "forced-repeats"])
    @pytest.mark.parametrize("graph", ["n199", "paper40"])
    def test_incidence_budget_equals_per_replicate_oracle(self, graph, scheme, motif, budget,
                                                          monkeypatch):
        # Dense-route graphs on both sides of the incidence budget.  Inside
        # it every draw is counted from its multiplicities, triangles against
        # the graph's incidence table; past it triangle and V-shape resamples
        # take held-row products and their subsamples are gathered (the edge
        # needs no table).  Forced repeats put about a third of each resample
        # on node 0, a corner of a planted triangle in the n = 199 graph.
        A = planted_triangles(199) if graph == "n199" else sample_graph(
            paper_block_model(), 40, 1.0, seed=43)
        assert not moments._sparse_route(A)
        monkeypatch.setattr(moments, "_INCIDENCE_MAX_BYTES", budget)
        used = spy(monkeypatch, moments, "_multiplicity_counts")
        B = 12  # fewer than n replicates: each is drawn by its own _draw call
        if scheme == "forced-repeats":
            def draw(rng, n, s):
                return np.where(rng.random(n) < 0.3, 0, rng.integers(0, n, size=n))

            values, dropped = oracle_replicates("resample", A, motif, B, 6,
                                                lambda rng: draw(rng, A.n, A.n))
            monkeypatch.setattr(bootstrap, "_draw", draw)
            assert_engine_equals(lambda: resample_distribution(A, motif, B=B, seed=6),
                                 values, dropped, B)
        else:
            values, dropped = oracle_replicates(scheme, A, motif, B, 5)
            assert_engine_equals(lambda: run_bootstrap(scheme, A, motif, B, 5),
                                 values, dropped, B)
        assert bool(used) == (budget > 0 or scheme != "subsample" or motif is EDGE)
        assert ("_incidence" in vars(A)) == (budget > 0 and motif is not EDGE)

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    @pytest.mark.parametrize("n_star", [10, 40])
    def test_small_dense_subsamples_are_gathered(self, n_star, motif, monkeypatch):
        # At n = 80 with ~1000 edges, 2 * 10^3 multiply-adds of a 10-node
        # stack are below the table's edges * n, and 2 * 40^3 above: small
        # triangle and V-shape subsamples are gathered.  The edge never is.
        A = sample_graph(paper_block_model(), 80, 1.0, seed=44)
        assert 2 * 10 ** 3 < A.edge_count * A.n <= 2 * 40 ** 3
        used = spy(monkeypatch, moments, "_multiplicity_counts")
        B = 30

        def draw(rng):
            return np.sort(rng.choice(A.n, size=n_star, replace=False))

        values, dropped = oracle_replicates("subsample", A, motif, B, 8, draw)
        assert_engine_equals(lambda: subsample_distribution(A, motif, n_star=n_star, B=B, seed=8),
                             values, dropped, B)
        assert bool(used) == (n_star == 40 or motif is EDGE)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_dense_resample_past_budget_builds_no_incidence(self, extra):
        # A dense graph on 300 nodes with the most edges whose incidence
        # table fits the budget, and one more.  Inside it the first resample
        # builds the 16 MB table (~33 MB peak measured); past it held-row
        # products of one replicate at a time take ~1.5 MB.
        n = 300
        itemsize = np.dtype(moments._product_dtype(n)).itemsize
        edges = moments._INCIDENCE_MAX_BYTES // (itemsize * n) + extra
        upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
        keys = np.random.default_rng(84).choice(upper, size=edges, replace=False)
        A = from_edges(n, np.column_stack(np.divmod(keys, n)))
        assert moments._route(A, TRIANGLE, n) == ("held" if extra else "incidence")
        tracemalloc.start()
        try:
            resample_distribution(A, TRIANGLE, B=4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ("_incidence" in vars(A)) == (extra == 0)
        if extra:
            assert peak < moments._INCIDENCE_MAX_BYTES // 8
        else:
            assert peak > edges * n * itemsize

    @pytest.mark.parametrize("chunk", [1, 2 ** 30])
    @pytest.mark.parametrize("scheme", ["subsample", "resample"])
    def test_draw_chunks_equal_per_replicate_oracle(self, scheme, chunk, monkeypatch):
        # Listed-route 100-node subsamples and dense-route 40-node
        # resamples, one per draw chunk and block, or all in one.
        if scheme == "subsample":
            A, _ = MULTIPLICITY_GRAPHS["n200"]()
        else:
            A = sample_graph(paper_block_model(), 40, 1.0, seed=41)
        monkeypatch.setattr(moments, "_PAIR_CHUNK", chunk)
        B = 25
        values, dropped = oracle_replicates(scheme, A, VSHAPE, B, 7)
        assert_engine_equals(lambda: run_bootstrap(scheme, A, VSHAPE, B, 7), values, dropped, B)

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    def test_listed_resample_peak_memory(self, motif):
        # No n x n replicate stack: ~0.1 MB (triangle) to ~1 MB (V-shape)
        # measured at n = 3000, degree 10, against n^2 = 9 MB.
        n = 3000
        A = from_edges(n, random_pairs(np.random.default_rng(81), n, 10))
        assert moments._sparse_route(A)
        resample_distribution(A, motif, B=2, seed=1)  # lists A outside the measurement
        tracemalloc.start()
        try:
            resample_distribution(A, motif, B=20, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 4

    @pytest.mark.parametrize("motif", [EDGE, VSHAPE], ids=lambda m: m.name)
    def test_small_listed_subsample_peak_memory(self, motif):
        # 40-node subsamples come in blocks of 20, but each draw's sums span
        # all 75k edges: ~3.7 MB measured at n = 3000, degree 50, where
        # whole blocks took ~75 MB.
        n = 3000
        A = from_edges(n, random_pairs(np.random.default_rng(83), n, 50))
        assert moments._sparse_route(A)
        subsample_distribution(A, motif, n_star=40, B=2, seed=1)
        tracemalloc.start()
        try:
            subsample_distribution(A, motif, n_star=40, B=40, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n


def numpy_draws(n, s, seed, label, b0, b1):
    """numpy's own draws for replicates b0 .. b1-1, one call per replicate."""
    rows = []
    for b in range(b0, b1):
        rng = stream(seed, label, b)
        rows.append(rng.integers(0, n, size=n) if s == n
                    else np.sort(rng.choice(n, size=s, replace=False)))
    return np.array(rows)


def spy(monkeypatch, module, name):
    """A list that grows by one at each call of ``module.name``."""
    used, call = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: used.append(1) or call(*args))
    return used


class TestBatchDraws:
    """A chunk of replicates drawn from their streams' raw words equals numpy's
    per-replicate ``integers`` and sorted ``choice`` draws."""

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 40, 80, 127, 256, 300])
    def test_equal_numpy_per_row(self, n):
        for s in sorted({n, n // 2, n - 1} - {0}):
            label = "resample" if s == n else "subsample"
            for seed in (0, 1, -9, 2 ** 70):
                got = bootstrap._batch_draws(n, s, seed, label, 3, 63)
                assert got.dtype == np.int64 and got.shape == (60, s)
                assert got.tobytes() == numpy_draws(n, s, seed, label, 3, 63).tobytes()

    @pytest.mark.parametrize("s", [1, 3, 6])
    def test_beyond_ten_thousand_nodes(self, s):
        # Above 10 000 nodes numpy's choice stays on Floyd's branch up to
        # n // 50 draws.  A batch draws no more nodes than it has rows, at
        # most a draw chunk or one gathered block: both are smaller.
        assert max(1, moments._PAIR_CHUNK // 10_001) <= 10_001 // 50
        assert max(s for s in range(1, 10_001) if moments._stack_block(s) >= s) <= 10_001 // 50
        n = 20_000
        got = bootstrap._batch_draws(n, s, 5, "subsample", 0, 40)
        assert got.tobytes() == numpy_draws(n, s, 5, "subsample", 0, 40).tobytes()

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("scheme", ["subsample", "resample"])
    def test_batch_rule_through_the_bootstraps(self, scheme, extra, monkeypatch):
        # At n = 40 a chunk holds over 1500 replicates: B = s - 1 is drawn
        # replicate by replicate, B >= s in one batch.
        A = sample_graph(paper_block_model(), 40, 1.0, seed=42)
        s = A.n // 2 if scheme == "subsample" else A.n
        B = s + extra
        values, dropped = oracle_replicates(scheme, A, VSHAPE, B, 9)
        draws = spy(monkeypatch, bootstrap, "_draw")
        assert_engine_equals(lambda: run_bootstrap(scheme, A, VSHAPE, B, 9), values, dropped, B)
        assert len(draws) == (B if B < s else 0)

    @pytest.mark.parametrize("chunk", [1, 45 * 80, 2 ** 30])
    def test_chunking_invariance(self, graph80, chunk, monkeypatch):
        # Draw chunks of whole blocks.  At _PAIR_CHUNK = 1 the edge comes
        # one replicate to a block and a chunk, each drawn on its own, and
        # the triangle subsample (incidence route) in blocks of n = 80:
        # one batch of 80, then 20 drawn one by one.  At 45 * 80 the edge
        # comes in blocks and chunks of 45: subsamples in batches of 45, 45,
        # then 10 drawn one by one, resamples all one by one (45 < 80 rows).
        # Every replicate in one chunk draws nothing one by one.
        def fingerprint():
            boots = [subsample_distribution(graph80, EDGE, n_star=40, B=100, seed=2),
                     subsample_distribution(graph80, TRIANGLE, n_star=40, B=100, seed=3),
                     resample_distribution(graph80, EDGE, B=100, seed=2)]
            return [(F.samples.tobytes(), F.n_dropped) for F in boots]

        expected = fingerprint()
        draws = spy(monkeypatch, bootstrap, "_draw")
        monkeypatch.setattr(moments, "_PAIR_CHUNK", chunk)
        assert fingerprint() == expected
        assert len(draws) == {1: 100 + 20 + 100, 45 * 80: 10 + 20 + 100, 2 ** 30: 0}[chunk]

    def test_rejected_words_are_redrawn_per_row(self, monkeypatch):
        # A zero word is rejected whenever 2^32 mod bound > 0, so numpy reads
        # another: every third row goes through _draw on its own stream.
        # Each chunk has at least s rows, so the others are drawn in one pass.
        words = KeyedStreams.words

        def zeroed(self, seed, label, b0, b1, k):
            out = words(self, seed, label, b0, b1, k)
            out[::3, k // 2] = 0
            return out

        monkeypatch.setattr(KeyedStreams, "words", zeroed)
        redrawn = spy(monkeypatch, bootstrap, "_draw")
        for n, s in ((80, 80), (80, 40), (57, 56)):
            got = bootstrap._batch_draws(n, s, 4, "x", 0, 90)
            assert got.tobytes() == numpy_draws(n, s, 4, "x", 0, 90).tobytes()
        assert len(redrawn) == 3 * 30

    def test_zero_word_is_flagged_unless_the_bound_divides_2_32(self):
        bound = np.array([1, 2, 3, 7, 64, 80, 1000, 2 ** 31, 2 ** 31 + 1, 2 ** 32 - 1],
                         dtype=np.uint64)
        value, reject = bootstrap._lemire(np.zeros((2, bound.size), dtype=np.uint32), bound)
        assert (value == 0).all() and value.dtype == np.int64
        assert reject.tolist() == 2 * [[2 ** 32 % int(b) > 0 for b in bound]]

    def test_rejection_rule_matches_numpy(self):
        # At bound 2^31 + 1 numpy rejects about half of all words; its draw
        # is the value of the first word it keeps.
        bound, skipped = 2 ** 31 + 1, 0
        for seed in range(200):
            words = stream(seed).bit_generator.random_raw(8)
            value, reject = bootstrap._lemire(
                np.ascontiguousarray(words, dtype="<u8").view("<u4"), np.uint64(bound))
            first = int(np.argmin(reject))
            assert not reject[first]
            assert stream(seed).integers(0, bound) == value[first]
            skipped += first > 0
        assert 60 < skipped < 140


class TestReplicateCounter:
    """Each bootstrap picks its counting route once, and every count call
    gets one block of draws from a single draw chunk."""

    @pytest.mark.parametrize("route, scheme", [
        ("listed", "subsample"), ("listed", "resample"),
        ("products", "subsample"), ("products", "resample"),
        ("incidence", "subsample"), ("incidence", "resample"),
        ("held", "resample"),
        ("stack", "subsample"), ("stack", "resample"),
    ])
    def test_one_counter_and_blocks_within_draw_chunks(self, route, scheme, monkeypatch):
        # A small _PAIR_CHUNK puts B = 250 replicates in several draw chunks
        # on every route, the last one partial; the listed route's 100-node
        # subsamples come in chunks of fewer than s rows, drawn one by one.
        if route == "listed":
            A, motif = planted_triangles(200), VSHAPE
        else:
            A = sample_graph(paper_block_model(), 40, 1.0, seed=45)
            motif = {"products": EDGE, "stack": THREESTAR}.get(route, TRIANGLE)
        monkeypatch.setattr(moments, "_PAIR_CHUNK", 1 << 12)
        if route == "held":
            monkeypatch.setattr(moments, "_INCIDENCE_MAX_BYTES", 0)
        B, seed, s = 250, 11, A.n // 2 if scheme == "subsample" else A.n
        counters, counted, chunks = [], [], []
        batch_draws, counter = bootstrap._batch_draws, moments._replicate_counter

        def batches(*args):
            chunks.append(args[4:6])
            return batch_draws(*args)

        def spied_counter(*args):
            block, count = counter(*args)
            counters.append(block)
            return block, lambda idx: counted.append(idx.copy()) or count(idx)

        monkeypatch.setattr(bootstrap, "_batch_draws", batches)
        monkeypatch.setattr(moments, "_replicate_counter", spied_counter)
        multiplicities = spy(monkeypatch, moments, "_multiplicity_counts")
        run_bootstrap(scheme, A, motif, B, seed)

        assert len(counters) == 1
        block = counters[0]
        assert len(chunks) > 2
        assert [b0 for b0, _ in chunks] == [0, *(b1 for _, b1 in chunks[:-1])]
        assert chunks[-1][1] == B
        assert all((b1 - b0) % block == 0 for b0, b1 in chunks[:-1])
        k0 = 0
        for idx in counted:
            k1 = k0 + idx.shape[0]
            assert 1 <= idx.shape[0] <= block
            assert any(b0 <= k0 and k1 <= b1 for b0, b1 in chunks)
            assert idx.tobytes() == numpy_draws(A.n, s, seed, scheme, k0, k1).tobytes()
            k0 = k1
        assert k0 == B
        # Each case takes the route it names.
        assert moments._route(A, motif, s) == route
        assert bool(multiplicities) == (route != "stack")
        assert ("_incidence" in vars(A)) == (route == "incidence")

    @pytest.mark.parametrize("graph", ["paper80", "n200", "dense300"])
    def test_one_route_decision_per_request(self, graph, graph80, monkeypatch):
        # Each statistic asks _route once, and a bootstrap once with s and
        # once for its centre's sample_moment; no _route call asks
        # _sparse_route or reads the edge count twice.  A whole triangle
        # resample reads the edge count for its route, its incidence block
        # size and, from 200 nodes, its centre's route; not for every block.
        A = {"paper80": lambda: graph80, "n200": lambda: planted_triangles(200),
             "dense300": lambda: from_edges(300, random_pairs(np.random.default_rng(85), 300, 30))
             }[graph]()
        assert moments._sparse_route(A) == (graph == "n200")
        routes, sparse, reads = [], spy(monkeypatch, moments, "_sparse_route"), []
        route, edge_count = moments._route, AdjacencyMatrix.edge_count

        def spied_route(*args):
            sparse.clear()
            reads.clear()
            picked = route(*args)
            assert len(sparse) <= 1 and len(reads) <= 1
            routes.append(args[2:])
            return picked

        monkeypatch.setattr(moments, "_route", spied_route)
        monkeypatch.setattr(AdjacencyMatrix, "edge_count",
                            property(lambda self: reads.append(1) or edge_count.fget(self)))
        for motif in (EDGE, TRIANGLE, VSHAPE, THREESTAR):
            for entry in (compute_stats, motif_counts, pair_projection):
                routes.clear()
                entry(A, motif)
                assert routes == [()], entry.__name__
            for scheme, s in (("subsample", A.n // 2), ("resample", A.n)):
                routes.clear()
                with contextlib.suppress(DegenerateReplicatesError):  # routes come first
                    run_bootstrap(scheme, A, motif, 30, 1)
                assert sorted(routes) == [(), (s,)], scheme
        monkeypatch.setattr(moments, "_route", route)
        reads.clear()
        resample_distribution(A, TRIANGLE, B=2000, seed=2)
        assert len(reads) <= (2 if A.n < moments._SPARSE_MIN_NODES else 3)

    @pytest.mark.parametrize("motif, n", [(EDGE, 1), (TRIANGLE, 2), (VSHAPE, 2), (THREESTAR, 3)],
                             ids=lambda x: str(getattr(x, "name", x)))
    def test_graph_smaller_than_motif_refused_before_any_draw(self, motif, n, monkeypatch):
        A = AdjacencyMatrix(np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8))
        draws, counted = spy(monkeypatch, bootstrap, "_batch_draws"), []
        counter = moments._replicate_counter

        def spied_counter(*args):
            block, count = counter(*args)
            return block, lambda idx: counted.append(1) or count(idx)

        monkeypatch.setattr(moments, "_replicate_counter", spied_counter)
        with pytest.raises(ValueError, match=f"graph has {n} nodes but motif needs {motif.r}"):
            resample_distribution(A, motif, B=50, seed=1)
        assert draws == [] and counted == []


def random_pairs(rng, n, degree):
    """About ``degree * n / 2`` distinct random node pairs, as a list."""
    pairs = rng.integers(0, n, size=(degree * n, 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    return pairs[rng.permutation(len(pairs))[:degree * n // 2]].tolist()


def planted_triangles(n):
    """Disjoint triangles on nodes (0, 1, 2), (3, 4, 5), ... and sparse random
    edges: mean degree below 4, so the listed route from n = 200."""
    rng = np.random.default_rng(n)
    triangles = [(i + u, i + v) for i in range(0, n - 2, 3) for u, v in ((0, 1), (0, 2), (1, 2))]
    return from_edges(n, triangles + random_pairs(rng, n, 1))


def hub_graph(hub_first):
    """A degree-10 random graph on 600 nodes plus a hub joined to every node,
    at id 1 or id n."""
    n = 600
    a = from_edges(n, random_pairs(np.random.default_rng(82), n, 10)).a.copy()
    a[0, 1:] = a[1:, 0] = 1
    return AdjacencyMatrix(a if hub_first else a[::-1, ::-1].copy())


# name -> (graph, whether it takes the listed route)
MULTIPLICITY_GRAPHS = {
    "n199": lambda: (planted_triangles(199), False),
    "n200": lambda: (planted_triangles(200), True),
    "hub-first": lambda: (hub_graph(True), True),
    "hub-last": lambda: (hub_graph(False), True),
}


def assert_engine_equals(run, values, dropped, B):
    """``run()`` gives the oracle's sorted values and drop count, or trips the cap as it does."""
    if dropped > MAX_DROP_FRACTION * B:
        with pytest.raises(DegenerateReplicatesError) as exc:
            run()
        assert (exc.value.n_dropped, exc.value.n_total) == (dropped, B)
    else:
        F = run()
        assert F.samples.tobytes() == values.tobytes()
        assert (F.B, F.n_dropped) == (B - dropped, dropped)
