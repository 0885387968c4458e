import numpy as np
import pytest

from netmoments import (EDGE, TRIANGLE, DegenerateReplicatesError, EmpiricalCdf,
                        from_edges, resample_distribution, sample_graph,
                        subsample_distribution)
from conftest import paper_block_model

K5 = from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


@pytest.fixture(scope="module")
def graph80():
    return sample_graph(paper_block_model(), 80, 1.0, seed=404)


class TestEmpiricalCdf:
    def test_step_evaluation(self):
        F = EmpiricalCdf(samples=np.array([-1.0, 0.0, 0.0, 2.0]), B=4)
        assert F.evaluate(-2.0) == 0.0
        assert F.evaluate(-1.0) == 0.25  # right-continuous at a sample
        assert F.evaluate(0.0) == 0.75
        assert F.evaluate(1.0) == 0.75
        assert F.evaluate(2.0) == 1.0
        assert F.evaluate(5.0) == 1.0
        assert F.evaluate([0.0, 2.0]).tolist() == [0.75, 1.0]

    def test_nondecreasing_on_grid(self):
        rng = np.random.default_rng(0)
        F = EmpiricalCdf(samples=np.sort(rng.normal(size=100)), B=100)
        vals = F.evaluate(np.linspace(-3, 3, 61))
        assert (np.diff(vals) >= 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EmpiricalCdf(samples=np.array([]), B=0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            EmpiricalCdf(samples=np.array([1.0, 0.0]), B=2)

    def test_quantiles(self):
        F = EmpiricalCdf(samples=np.arange(1.0, 11.0), B=10)
        assert F.quantile(0.1) == 1.0
        assert F.quantile(0.5) == 5.0
        assert F.quantile(0.95) == 10.0


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

    def test_jackknife_variant_differs(self, graph80):
        plain = subsample_distribution(graph80, EDGE, n_star=40, B=30, seed=11)
        jack = subsample_distribution(graph80, EDGE, n_star=40, B=30, seed=11,
                                      use_jackknife=True)
        assert plain.B == jack.B
        assert not np.array_equal(plain.samples, jack.samples)
        # Same scheme, nearly equivalent studentization.
        assert np.allclose(plain.samples, jack.samples, atol=0.2)

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
        from netmoments.moments import local_projection, sample_moment, variance_estimator

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
        s_sq = variance_estimator(local_projection(B_star, EDGE), 2)
        expected_t = (u_star - u_full) / math.sqrt(s_sq)
        F = resample_distribution(A, EDGE, B=1, seed=seed)
        assert F.samples[0] == pytest.approx(expected_t, abs=1e-12)

    def test_b_validation(self, graph80):
        with pytest.raises(ValueError, match="replicate"):
            resample_distribution(graph80, EDGE, B=0, seed=1)
