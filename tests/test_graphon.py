import hashlib
import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from netmoments import (EDGE, TRIANGLE, DegeneracyError, Graphon, LatentSample,
                        block_model, builtin_graphon, custom_graphon, graphon_from_config,
                        nonsmooth_graphon, population_edgeworth_coefficients,
                        population_moment, probability_matrix, sample_adjacency,
                        sample_graph, sample_graph_block, sample_latent, smooth_graphon,
                        stream)
from netmoments.graphon import _block_labels, _edge_probabilities
from netmoments.rng import KeyedStreams, thread_streams
from netmoments.motif import conditional_expectation_h

from conftest import paper_block_model


def const_graphon(c: float):
    return custom_graphon(lambda u, v: np.full(np.broadcast(u, v).shape, c),
                          name=f"const-{c}")


class TestSampling:
    def test_latent_deterministic(self):
        a = sample_latent(3, seed=42)
        b = sample_latent(3, seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, sample_latent(3, seed=43).positions)

    def test_latent_lln(self):
        x = sample_latent(10_000, seed=7).positions
        assert abs(x.mean() - 0.5) < 0.02
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_latent_size_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_latent(1, seed=0)

    def test_probability_matrix_constant(self):
        x = sample_latent(5, seed=1)
        W = probability_matrix(const_graphon(1.0), x, rho=1.0).W
        off = ~np.eye(5, dtype=bool)
        assert (W[off] == 1.0).all() and (np.diag(W) == 0.0).all()
        W3 = probability_matrix(const_graphon(1.0), x, rho=0.3).W
        assert np.allclose(W3[off], 0.3)

    def test_probability_matrix_block_pair(self, bm):
        # Positions 0.25 and 0.75 land in blocks 1 and 2 of the
        # equal-split model, so their edge probability is B_12 = 0.2.
        x = LatentSample(positions=np.array([0.25, 0.75]), seed=0)
        W = probability_matrix(bm, x, rho=1.0).W
        assert W[0, 1] == pytest.approx(0.2, abs=1e-15)

    def test_rho_validation(self, bm):
        x = sample_latent(4, seed=2)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="rho"):
                probability_matrix(bm, x, rho=bad)

    def test_adjacency_extremes(self):
        x = sample_latent(6, seed=3)
        full = sample_adjacency(probability_matrix(const_graphon(1.0), x, 1.0), seed=5)
        assert full.edge_count == 15
        empty = sample_adjacency(probability_matrix(const_graphon(0.0), x, 1.0), seed=5)
        assert empty.edge_count == 0

    def test_adjacency_binomial_count(self):
        n = 200
        x = sample_latent(n, seed=4)
        A = sample_adjacency(probability_matrix(const_graphon(0.5), x, 1.0), seed=9)
        pairs = math.comb(n, 2)
        sd = math.sqrt(pairs * 0.25)
        assert abs(A.edge_count - 0.5 * pairs) < 4 * sd

    def test_adjacency_shape_invariants(self, bm):
        A = sample_graph(bm, 30, 0.8, seed=11)
        assert (A.a == A.a.T).all()
        assert (np.diag(A.a) == 0).all()
        assert set(np.unique(A.a)) <= {0, 1}

    def test_sample_graph_composes(self, bm):
        direct = sample_graph(bm, 12, 0.7, seed=21)
        x = sample_latent(12, seed=21)
        composed = sample_adjacency(probability_matrix(bm, x, 0.7), seed=21)
        assert np.array_equal(direct.a, composed.a)

    # sha256 of sample_graph(...).a as drawn by the one-network-at-a-time
    # sampler; the block sampler must not move a single edge.
    PINNED = (
        ("blockmodel", 15, 1.0, 7,
         "53f349a3104cbde81b22d45abec8b2cf7163d1cd67cbcac1667034d7c9bea0f8"),
        ("smoothgraphon", 12, 1.0, 3,
         "e5c11052fd3d1908a5ea0cb1fbd2961840e8816c857fd819dd13fbf6dfd098f9"),
        ("nonsmoothgraphon", 20, 0.5, 11,
         "dcb7ac29eff9021a6a6a5c8e1bd942d0c2ef0dcfe8d6880a3910994fcecc35b7"),
        ("blockmodel", 40, 40 ** -0.5, 2024,
         "df90265b797b570a4f10adc3e538f199ec87cf5006b06192cd0094266f696ec6"),
    )

    @pytest.mark.parametrize("name,n,rho,seed,digest", PINNED)
    def test_sample_graph_pinned_bytes(self, name, n, rho, seed, digest):
        A = sample_graph(builtin_graphon(name), n, rho, seed)
        assert A.a.dtype == np.int8
        assert hashlib.sha256(A.a.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["blockmodel", "smoothgraphon", "nonsmoothgraphon"])
    def test_block_rows_equal_single_samples(self, name):
        g = builtin_graphon(name)
        seeds = [3, 99, 2 ** 62 + 5, 0, 17]
        block = sample_graph_block(g, 13, 0.6, seeds)
        assert block.shape == (5, 13, 13) and not block.flags.writeable
        for k, seed in enumerate(seeds):
            assert block[k].tobytes() == sample_graph(g, 13, 0.6, seed).a.tobytes()

    def test_block_range_check(self):
        bad = custom_graphon(lambda u, v: 0.5 + 0.0 * u * v + 2.0 * (u > 0.9) * (v > 0.9),
                             check=False)
        with pytest.raises(ValueError, match="leave"):
            sample_graph_block(bad, 60, 1.0, [1, 2])
        with pytest.raises(ValueError, match="rho"):
            sample_graph_block(paper_block_model(), 10, 0.0, [1])
        with pytest.raises(ValueError, match="at least 2 nodes"):
            sample_graph(paper_block_model(), 1, 1.0, 1)


def blocks_graphon(pi, B, **kwargs) -> Graphon:
    """A block model built by hand, so ``B`` may leave [0, 1]."""
    pi, B = np.asarray(pi), np.asarray(B)
    return Graphon(lambda u, v: B[_block_labels(pi, u), _block_labels(pi, v)],
                   kind="BlockModel", pi=pi, B=B, **kwargs)


class TestBlockProbabilities:
    """A block model's probabilities are one-hot labels times ``rho * B``;
    they must have the bytes of ``rho`` times its evaluator."""

    B4 = [[0.71, 0.13, 0.29, 0.05], [0.13, 0.47, 0.61, 1 / 3],
          [0.29, 0.61, 0.0, 0.9], [0.05, 1 / 3, 0.9, 0.17]]

    @pytest.mark.parametrize("pi,B", [
        ([1.0], [[1 / 3]]),
        ([0.5, 0.5], [[0.6, 0.2], [0.2, 0.2]]),
        ([0.3, 0.0, 0.7], [[0.9, 0.5, 0.1], [0.5, 1.0, 0.4], [0.1, 0.4, 0.25]]),
        ([0.0, 0.4, 0.6], [[1.0, 0.3, 0.7], [0.3, 0.11, 0.6], [0.7, 0.6, 0.01]]),
        ([0.1, 0.2, 0.3, 0.4], B4),
        ([0.25, 0.25, 0.0, 0.5], B4),
    ], ids=["K1", "K2", "K3-empty-middle", "K3-empty-first", "K4", "K4-empty"])
    @pytest.mark.parametrize("rho", [1.0, 0.3, 30 ** -0.5], ids=["1", "0.3", "n^-1/2"])
    def test_equal_evaluator_bytes(self, pi, B, rho):
        g = block_model(pi, B)
        cuts = np.cumsum(g.pi)[:-1]
        x = stream(5, "block-probabilities").random((4, 30))
        x[0, :cuts.size] = cuts  # latents exactly on every cut
        x[0, cuts.size] = 0.0
        x[1, :cuts.size] = np.nextafter(cuts, 0.0)  # and just below
        for pos in (x, x[0]):
            expected = rho * g.evaluate(pos[..., :, None], pos[..., None, :])
            got = _edge_probabilities(g, pos, rho)
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_labels_on_cuts(self):
        # Block k holds [sum(pi[:k]), sum(pi[:k+1])): a latent on a cut
        # belongs to the block above it, past any zero-weight block.
        x = np.array([0.0, np.nextafter(0.3, 0.0), 0.3, 0.65, 1.0])
        assert _block_labels(np.array([0.3, 0.0, 0.7]), x).tolist() == [0, 0, 2, 2, 2]
        assert _block_labels(np.array([0.5, 0.5]), [0.5, np.nextafter(0.5, 0.0)]).tolist() \
            == [1, 0]

    def test_table_range_check(self):
        bad = blocks_graphon([0.5, 0.5], [[0.6, 1.2], [1.2, 0.2]], check=False)
        with pytest.raises(ValueError, match=re.escape("edge probabilities leave [0, 1]")):
            sample_graph(bad, 10, 1.0, 1)
        # At rho = 0.5 every value is a probability, and the evaluator agrees.
        x = sample_latent(10, 1).positions
        assert (_edge_probabilities(bad, x, 0.5).tobytes()
                == (0.5 * bad.evaluate(x[:, None], x[None, :])).tobytes())

    def test_nan_is_not_a_probability(self):
        nan_block = blocks_graphon([0.5, 0.5], [[0.6, np.nan], [np.nan, 0.2]], check=False)
        nan_custom = custom_graphon(lambda u, v: np.where(u + v > 1.0, np.nan, 0.5),
                                    check=False)
        for g in (nan_block, nan_custom):
            with pytest.raises(ValueError, match="edge probabilities leave"):
                sample_graph(g, 10, 1.0, 1)


class TestKeyedStreams:
    def test_matches_fresh_streams(self):
        streams = KeyedStreams()
        for seed, labels in ((0, ("latent",)), (2 ** 62 + 1, ("edges",)), (-7, ("x", 3))):
            fresh = stream(seed, *labels)
            # Draw odd sizes and mixed kinds so the buffered state matters.
            expect = (fresh.random(7), fresh.integers(0, 10, size=3), fresh.random(2))
            keyed = streams(seed, *labels)
            got = (keyed.random(7), keyed.integers(0, 10, size=3), keyed.random(2))
            for e, g in zip(expect, got):
                assert e.tobytes() == g.tobytes()

    def test_threads_keep_their_own_streams(self):
        # Samplers re-key their thread's generator: three threads (more
        # than this suite's two cores) drawing blocks at once, on fast
        # thread switching, get the serial bytes.
        g = paper_block_model()
        seeds = [list(range(t, 300, 3)) for t in range(3)]

        def draw(t):
            return [sample_graph_block(g, 12, 0.7, seeds[t][k:k + 5]).tobytes()
                    for k in range(0, 100, 5)]

        serial = [draw(t) for t in range(3)]
        got, streams = [None] * 3, [None] * 3
        start = threading.Barrier(3, timeout=60)

        def work(t):
            start.wait()
            got[t] = draw(t)
            streams[t] = thread_streams()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(3)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == serial
        assert len({id(s) for s in streams}) == 3 and thread_streams() not in streams
        assert thread_streams() is thread_streams()

    def test_rekey_resets_state(self):
        streams = KeyedStreams()
        first = streams(5, "edges").random(3)
        streams(5, "edges").random(1)
        out = np.empty(3)
        streams(5, "edges").random(out=out)
        assert out.tobytes() == first.tobytes()


class TestGraphonValidation:
    def test_block_model_checks(self):
        with pytest.raises(ValueError, match="sum to 1"):
            graphon_from_config({"kind": "BlockModel", "pi": [0.6, 0.6],
                                 "B": [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(ValueError, match="symmetric"):
            graphon_from_config({"kind": "BlockModel", "pi": [0.5, 0.5],
                                 "B": [[0.5, 0.1], [0.2, 0.5]]})

    @pytest.mark.parametrize("spec, missing", [
        ({"kind": "BlockModel", "pi": [0.3, 0.7]}, "['B']"),
        ({"kind": "BlockModel", "B": [[0.5, 0.1], [0.1, 0.5]]}, "['pi']"),
    ])
    def test_block_model_config_names_missing_key(self, spec, missing):
        with pytest.raises(ValueError, match=re.escape(f"missing graphon config keys: {missing}")):
            graphon_from_config(spec)

    def test_bare_block_model_config_is_paper_default(self, bm):
        g = graphon_from_config({"kind": "BlockModel"})
        assert np.array_equal(g.pi, bm.pi) and np.array_equal(g.B, bm.B)

    @pytest.mark.parametrize("spec", [
        {"kind": "BlockModel"},
        {"kind": "BlockModel", "pi": [0.3, 0.7], "B": [[0.5, 0.1], [0.1, 0.5]]},
        {"kind": "SmoothGraphon"},
        {"kind": "NonSmoothGraphon"},
    ], ids=["default-block", "block", "smooth", "nonsmooth"])
    def test_config_name_is_honoured(self, spec):
        assert graphon_from_config(spec).name == spec["kind"]
        assert graphon_from_config({**spec, "name": "mine"}).name == "mine"

    def test_custom_symmetry_check(self):
        with pytest.raises(ValueError, match="not symmetric"):
            custom_graphon(lambda u, v: 0.5 * u + np.zeros_like(v))

    def test_custom_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            custom_graphon(lambda u, v: 1.5 * np.ones(np.broadcast(u, v).shape))

    def test_builtins_evaluate(self):
        for name in ("blockmodel", "smoothgraphon", "nonsmoothgraphon"):
            g = builtin_graphon(name)
            vals = g.evaluate(np.linspace(0, 1, 7), np.linspace(0, 1, 7))
            assert (np.asarray(vals) >= 0).all() and (np.asarray(vals) <= 1).all()

    def test_smooth_origin_value(self):
        g = smooth_graphon()
        assert float(g.evaluate(0.0, 0.0)) == pytest.approx(0.15, abs=1e-15)

    def test_nonsmooth_formula_as_printed(self):
        # Literal transcription: the cosine argument is 0.1 * d^2 + 0.01.
        g = nonsmooth_graphon()
        u, v = 0.9, 0.3
        d2 = (u - 0.5) ** 2 + (v - 0.5) ** 2
        expected = 0.5 * math.cos(0.1 * d2 + 0.01) * max(u, v) ** (2 / 3) + 0.4
        assert float(g.evaluate(u, v)) == pytest.approx(expected, abs=1e-15)

    def test_config_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown graphon config"):
            graphon_from_config({"kind": "SmoothGraphon", "extra": 1})
        with pytest.raises(ValueError, match="Custom"):
            graphon_from_config({"kind": "Custom"})


class TestPopulationMoment:
    def test_block_edge_exact(self, bm):
        est = population_moment(bm, 1.0, EDGE)
        assert est.value == pytest.approx(0.3, abs=1e-12)
        assert est.standard_error == 0.0

    def test_block_triangle_exact_vs_enumeration(self, bm):
        # Independent oracle: average B_ab*B_ac*B_bc over all 8 equally
        # likely block assignments.
        B = bm.B
        acc = 0.0
        for a, b, c in itertools.product(range(2), repeat=3):
            acc += B[a, b] * B[a, c] * B[b, c]
        expected = acc / 8
        est = population_moment(bm, 1.0, TRIANGLE)
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_constant_triangle_is_cubed(self):
        est = population_moment(const_graphon(0.37), 1.0, TRIANGLE, m=10_000, seed=3)
        assert est.value == pytest.approx(0.37 ** 3, abs=1e-12)

    def test_estimator_follows_graphon_kind(self, bm):
        # One policy: block models are exact whatever m and seed say,
        # every other graphon is integrated by Monte Carlo.
        exact = population_moment(bm, 1.0, EDGE, m=10, seed=4)
        assert (exact.method, exact.standard_error) == ("exact", 0.0)
        assert exact == population_moment(bm, 1.0, EDGE)
        mc = population_moment(smooth_graphon(), 1.0, EDGE, m=10_000, seed=4)
        assert mc.method == "monte-carlo" and mc.standard_error > 0.0

    def test_mc_sample_size_floor(self):
        with pytest.raises(ValueError, match="10\\^4"):
            population_moment(smooth_graphon(), 1.0, EDGE, m=100)

    def test_smooth_edge_vs_quadrature(self):
        # Oracle: tensorized Gauss-Legendre integral of f over the square,
        # validated by agreement across two orders.
        g = smooth_graphon()

        def gl(mq):
            x, w = leggauss(mq)
            x = (x + 1) / 2
            w = w / 2
            U, V = np.meshgrid(x, x)
            return float(np.einsum("i,j,ij->", w, w, g.evaluate(U, V)))

        i1, i2 = gl(1600), gl(3200)
        assert abs(i1 - i2) < 5e-8
        est = population_moment(g, 1.0, EDGE, m=1_000_000, seed=17)
        assert est.standard_error < 2e-4
        assert abs(est.value - i2) < 3 * est.standard_error

    def test_mc_matches_exact_for_block(self, bm):
        # Monte Carlo on a custom wrapper of the same block model.
        wrapped = custom_graphon(bm.evaluate, name="wrapped-block")
        exact = population_moment(bm, 1.0, TRIANGLE).value
        mc = population_moment(wrapped, 1.0, TRIANGLE, m=200_000, seed=5)
        assert abs(mc.value - exact) < 4 * mc.standard_error

    def test_se_scales_with_sqrt_m(self):
        g = smooth_graphon()
        se1 = population_moment(g, 1.0, EDGE, m=20_000, seed=1).standard_error
        se2 = population_moment(g, 1.0, EDGE, m=80_000, seed=2).standard_error
        assert se2 / se1 == pytest.approx(0.5, abs=0.1)


class TestPopulationCoefficients:
    def test_erdos_renyi_degenerate(self):
        with pytest.raises(DegeneracyError):
            population_edgeworth_coefficients(const_graphon(0.3), 1.0, TRIANGLE,
                                              m=20_000, seed=1)

    def test_block_edge_exact_values(self, bm):
        # Closed-form enumeration: g1 is +-0.1 across the two blocks.
        pc = population_edgeworth_coefficients(bm, 1.0, EDGE)
        assert pc.xi1_sq == pytest.approx(0.01, abs=1e-12)
        assert pc.e_g1_cubed == pytest.approx(0.0, abs=1e-12)
        assert pc.e_g1g1g2 == pytest.approx(0.001, abs=1e-12)
        assert pc.method == "exact"

    def test_block_triangle_exact_vs_hand_enumeration(self, bm):
        pc = population_edgeworth_coefficients(bm, 1.0, TRIANGLE)
        pi, B = bm.pi, bm.B
        mu = sum(B[a, b] * B[a, c] * B[b, c] / 8
                 for a, b, c in itertools.product(range(2), repeat=3))
        g1 = np.array([sum(B[k, b] * B[k, c] * B[b, c] / 4
                           for b, c in itertools.product(range(2), repeat=2)) - mu
                       for k in range(2)])
        xi1_sq = float(np.sum(0.5 * g1 ** 2))
        h2 = np.array([[sum(B[k, l] * B[k, c] * B[l, c] / 2 for c in range(2))
                        for l in range(2)] for k in range(2)])
        g2 = h2 - mu - g1[:, None] - g1[None, :]
        e112 = float(sum(0.25 * g1[k] * g1[l] * g2[k, l]
                         for k, l in itertools.product(range(2), repeat=2)))
        assert pc.xi1_sq == pytest.approx(xi1_sq, abs=1e-12)
        assert pc.e_g1_cubed == pytest.approx(float(np.sum(0.5 * g1 ** 3)), abs=1e-12)
        assert pc.e_g1g1g2 == pytest.approx(e112, abs=1e-12)

    def test_mc_path_agrees_with_exact(self, bm):
        # The replicate-product Monte-Carlo estimators, run on a custom
        # wrapper of the same block model, must agree with enumeration.
        wrapped = custom_graphon(bm.evaluate, name="wrapped-block")
        exact = population_edgeworth_coefficients(bm, 1.0, EDGE)
        mc = population_edgeworth_coefficients(wrapped, 1.0, EDGE, m=120_000, seed=9)
        assert abs(mc.xi1_sq - exact.xi1_sq) < 4 * mc.se_xi1_sq
        assert abs(mc.e_g1_cubed - exact.e_g1_cubed) < 4 * mc.se_e_g1_cubed
        assert abs(mc.e_g1g1g2 - exact.e_g1g1g2) < 4 * mc.se_e_g1g1g2

    def test_mc_g1_mean_near_zero(self):
        pc = population_edgeworth_coefficients(smooth_graphon(), 1.0, EDGE,
                                               m=50_000, seed=4)
        assert abs(pc.g1_mean) < 3 * pc.se_g1_mean

    def test_rho_scales_block_values(self, bm):
        # g1 scales by rho^s for the edge motif, so xi1^2 scales by rho^2.
        pc = population_edgeworth_coefficients(bm, 0.5, EDGE)
        assert pc.xi1_sq == pytest.approx(0.25 * 0.01, abs=1e-12)


class TestConditionalExpectationBridge:
    def test_population_moment_uses_h_polynomial(self, bm):
        # mu for the triangle equals E over block triples of the exact
        # conditional containment of the probability submatrix.
        w = np.array([[0.0, 0.6, 0.2], [0.6, 0.0, 0.2], [0.2, 0.2, 0.0]])
        assert conditional_expectation_h(w, TRIANGLE) == pytest.approx(0.6 * 0.2 * 0.2, abs=1e-15)
