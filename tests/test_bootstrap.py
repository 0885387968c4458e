import math
import tracemalloc

import numpy as np
import pytest

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix,
                        DegenerateReplicatesError, EmpiricalCdf, from_edges, motif_counts,
                        resample_distribution, sample_graph, sample_moment, stream,
                        subsample_distribution)
from netmoments import bootstrap, moments
from netmoments.bootstrap import _BLOCK_ELEMENTS, MAX_DROP_FRACTION
from netmoments.harness import monte_carlo_true_cdf
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
        # B spans two full blocks and a partial one.  At rho = 0.3 some
        # replicates are degenerate: the three-star drops a few, and the
        # triangle drops enough to trip the cap.
        A = sample_graph(paper_block_model(), 40, rho, seed=40)
        m = A.n // 2 if scheme == "subsample" else A.n
        B = 2 * max(1, _BLOCK_ELEMENTS // (m * m)) + 7
        values, dropped = oracle_replicates(scheme, A, motif, B, 3)
        assert_engine_equals(lambda: run_bootstrap(scheme, A, motif, B, 3), values, dropped, B)

    @pytest.mark.parametrize("elements", [1, 1 << 30])
    def test_block_size_invariance(self, monkeypatch, elements):
        # One replicate per block, and every replicate in one block.
        bm = paper_block_model()
        A = sample_graph(bm, 40, 1.0, seed=40)

        def fingerprint():
            truth = monte_carlo_true_cdf(bm, 1.0, TRIANGLE, n=12, n_mc=1_000, seed=3,
                                         mu=0.1, max_degenerate_fraction=1.0)
            boots = [subsample_distribution(A, TRIANGLE, n_star=20, B=60, seed=4),
                     resample_distribution(A, TRIANGLE, B=60, seed=4),
                     resample_distribution(A, THREESTAR, B=60, seed=4)]
            return (truth.values.tobytes(), truth.n_degenerate, repr(truth.t_mean),
                    repr(truth.t_sd), [(F.samples.tobytes(), F.n_dropped) for F in boots])

        expected = fingerprint()
        monkeypatch.setattr(bootstrap, "_BLOCK_ELEMENTS", elements)
        assert fingerprint() == expected

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    @pytest.mark.parametrize("scheme", ["subsample", "resample"])
    @pytest.mark.parametrize("graph", ["n199", "n200", "hub-first", "hub-last"])
    def test_multiplicity_route_equals_per_replicate_oracle(self, graph, scheme, motif,
                                                            monkeypatch):
        # n = 199 takes the dense route (resamples from products, subsamples
        # gathered); the others take the listed route.
        A, listed = MULTIPLICITY_GRAPHS[graph]()
        assert moments._sparse_route(A) == listed
        used = spy_multiplicity_counts(monkeypatch)
        B = 12
        values, dropped = oracle_replicates(scheme, A, motif, B, 5)
        assert_engine_equals(lambda: run_bootstrap(scheme, A, motif, B, 5), values, dropped, B)
        assert bool(used) == (listed or scheme == "resample")

    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE], ids=lambda m: m.name)
    @pytest.mark.parametrize("graph", ["n199", "hub-first", "hub-last"])
    def test_forced_repeats_equal_per_replicate_oracle(self, graph, motif, monkeypatch):
        # About a third of each draw is one node: the hub, or node 0 (a
        # corner of a planted triangle), with multiplicities near n / 3.
        A, _ = MULTIPLICITY_GRAPHS[graph]()
        n = A.n
        heavy = n - 1 if graph == "hub-last" else 0

        def draw(rng):
            return np.where(rng.random(n) < 0.3, heavy, rng.integers(0, n, size=n))

        used = spy_multiplicity_counts(monkeypatch)
        B = 12
        values, dropped = oracle_replicates("resample", A, motif, B, 6, draw)
        assert_engine_equals(lambda: bootstrap._replicates(A, motif, B, 6, "resample", n, draw),
                             values, dropped, B)
        assert used

    @pytest.mark.parametrize("chunk", [1, 2 ** 30])
    @pytest.mark.parametrize("scheme", ["subsample", "resample"])
    def test_draw_chunks_equal_per_replicate_oracle(self, scheme, chunk, monkeypatch):
        # Listed-route blocks of three 100-node subsamples, and dense-route
        # blocks of twenty 40-node resamples, split into one draw per chunk
        # or kept whole.
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


def spy_multiplicity_counts(monkeypatch):
    """A list that grows by one at each ``_multiplicity_counts`` call."""
    used, counts = [], moments._multiplicity_counts
    monkeypatch.setattr(moments, "_multiplicity_counts",
                        lambda *args: used.append(1) or counts(*args))
    return used


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
