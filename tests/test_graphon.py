import hashlib
import itertools
import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import block_diag

from netmoments import (EDGE, TRIANGLE, DegeneracyError, Graphon, LatentSample,
                        block_model, builtin_graphon, custom_graphon, graphon_from_config,
                        nonsmooth_graphon, population_edgeworth_coefficients,
                        population_moment, probability_matrix, sample_adjacency,
                        sample_graph, sample_graph_block, sample_latent, smooth_graphon,
                        stream, substream_seed)
from netmoments.graphon import _block_labels, _mirrored, _pair_probabilities
from netmoments.rng import KeyedStreams, _digest, _substream_seeds, thread_streams

from conftest import expected_h, paper_block_model


@pytest.fixture
def unchecked(monkeypatch):
    """Skip the spot check every graphon runs when built, so that one whose
    values leave [0, 1] reaches the sampler's own range check."""
    monkeypatch.setattr(Graphon, "_check_pointwise", lambda self: None)


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
        # n = 2 and 3 have one and three pairs; at n = 181 and 182 a
        # sampler chunk of 2^15 pairs holds two networks and one.
        g = builtin_graphon(name)
        seeds = [3, 99, 2 ** 62 + 5, 0, 17]
        for n in (2, 3, 13, 181, 182):
            block = sample_graph_block(g, n, 0.6, seeds)
            assert block.shape == (5, n, n) and not block.flags.writeable
            for k, seed in enumerate(seeds):
                assert block[k].tobytes() == sample_graph(g, n, 0.6, seed).a.tobytes()

    @pytest.mark.parametrize("shape", [(7, 7), (3, 7, 7), (2, 2)], ids=["one", "stack", "n2"])
    def test_adjacency_reads_only_upper_triangle(self, shape):
        # Below and on the diagonal, f holds the value that flips each
        # pair's draw (and would put a loop on every node); the graph must
        # come from the strict upper triangle alone.
        n = shape[-1]
        rng = stream(8, "upper-triangle")
        upper = np.triu(rng.random(shape), 1)
        u = rng.random(shape[:-2] + (n * (n - 1) // 2,))
        expected = np.zeros(shape, dtype=np.int8)
        for idx in np.ndindex(shape[:-2]):
            for p, (i, j) in enumerate(zip(*np.triu_indices(n, 1))):
                expected[idx + (i, j)] = expected[idx + (j, i)] = u[idx + (p,)] < upper[idx + (i, j)]
        flipped = np.where(np.swapaxes(expected, -1, -2) == 1, 0.0, 1.0)
        W = upper + np.tril(flipped)
        # Node k of the stack sits at position k, where f reads row k of
        # the block-diagonal matrix of the stack's W.
        pos = np.arange(math.prod(shape[:-1]), dtype=np.float64).reshape(shape[:-1])
        for given in (W, upper + np.swapaxes(upper, -1, -2)):
            table = block_diag(*given.reshape(-1, n, n))
            g = custom_graphon(lambda x, y: table[x.astype(np.intp), y.astype(np.intp)])
            edges = np.zeros(shape[:-2] + (u.shape[-1] + 1,), dtype=bool)
            edges[..., :-1] = u < _pair_probabilities(g, pos, 1.0)
            a = _mirrored(edges, n)
            assert a.dtype == np.int8 and not a.flags.writeable
            assert a.tobytes() == expected.tobytes()

    def test_block_rows_of_ulp_asymmetric_graphon(self):
        # f(u, v) and f(v, u) differ by an ulp, which the spot check
        # allows; the sampler still returns symmetric, hollow graphs.
        def f(u, v):
            s = 0.25 + 0.5 * u * v
            return np.where(u < v, s, np.nextafter(s, 0.0))

        g = custom_graphon(f, name="ulp-asymmetric")
        x = stream(4, "ulp").random(30)
        W = g.evaluate(x[:, None], x[None, :])
        assert (W != W.T).any()
        seeds = [5, 2 ** 62 + 5, 77]
        block = sample_graph_block(g, 30, 1.0, seeds)
        assert (block == np.swapaxes(block, -1, -2)).all()
        assert not np.diagonal(block, axis1=-2, axis2=-1).any()
        for k, seed in enumerate(seeds):
            assert block[k].tobytes() == sample_graph(g, 30, 1.0, seed).a.tobytes()

    def test_block_range_check(self, unchecked):
        bad = custom_graphon(lambda u, v: 0.5 + 0.0 * u * v + 2.0 * (u > 0.9) * (v > 0.9))
        with pytest.raises(ValueError, match="leave"):
            sample_graph_block(bad, 60, 1.0, [1, 2])
        with pytest.raises(ValueError, match="rho"):
            sample_graph_block(paper_block_model(), 10, 0.0, [1])
        with pytest.raises(ValueError, match="at least 2 nodes"):
            sample_graph(paper_block_model(), 1, 1.0, 1)


def blocks_graphon(pi, B) -> Graphon:
    """A block model built by hand, so ``B`` may leave [0, 1] (with ``unchecked``)."""
    pi, B = np.asarray(pi), np.asarray(B)
    return Graphon(lambda u, v: B[_block_labels(pi, u), _block_labels(pi, v)],
                   kind="BlockModel", pi=pi, B=B)


def upper_triangle(W: np.ndarray) -> np.ndarray:
    """The strict upper triangle of each matrix of a stack (..., n, n), row by row."""
    i, j = np.triu_indices(W.shape[-1], 1)
    return W[..., i, j]


class TestBlockProbabilities:
    """A block model's pair probabilities are read from ``rho * B`` at the
    labels' codes; they must have the bytes of ``rho`` times its evaluator
    and of the one-hot product, above the diagonal."""

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
            expected = upper_triangle(rho * g.evaluate(pos[..., :, None], pos[..., None, :]))
            got = _pair_probabilities(g, pos, rho)
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 12])
    @pytest.mark.parametrize("rho", [0.3, 30 ** -0.5], ids=["0.3", "n^-1/2"])
    def test_equal_one_hot_product_bytes(self, K, rho):
        # K = 12 has 144 codes, past int8: the codes must not wrap.
        rng = stream(12, "one-hot", K)
        pi = rng.random(K)
        pi /= pi.sum()
        B = rng.random((K, K))
        g = block_model(pi, (B + B.T) / 2)
        x = rng.random((5, 30))
        x[0, :K - 1] = np.cumsum(g.pi)[:-1]  # latents exactly on every cut
        table = rho * g.B
        for pos in (x, x[0]):
            onehot = (_block_labels(g.pi, pos)[..., None] == np.arange(K)).astype(np.float64)
            expected = upper_triangle(onehot @ table @ np.swapaxes(onehot, -1, -2))
            got = _pair_probabilities(g, pos, rho)
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        if K == 12:
            assert len(np.unique(_block_labels(g.pi, x))) == 12

    def test_labels_on_cuts(self):
        # Block k holds [sum(pi[:k]), sum(pi[:k+1])): a latent on a cut
        # belongs to the block above it, past any zero-weight block.
        x = np.array([0.0, np.nextafter(0.3, 0.0), 0.3, 0.65, 1.0])
        assert _block_labels(np.array([0.3, 0.0, 0.7]), x).tolist() == [0, 0, 2, 2, 2]
        assert _block_labels(np.array([0.5, 0.5]), [0.5, np.nextafter(0.5, 0.0)]).tolist() \
            == [1, 0]

    def test_table_range_check(self, unchecked):
        bad = blocks_graphon([0.5, 0.5], [[0.6, 1.2], [1.2, 0.2]])
        with pytest.raises(ValueError, match=re.escape("edge probabilities leave [0, 1]")):
            sample_graph(bad, 10, 1.0, 1)
        # At rho = 0.5 every value is a probability, and the evaluator agrees.
        x = sample_latent(10, 1).positions
        assert (_pair_probabilities(bad, x, 0.5).tobytes()
                == upper_triangle(0.5 * bad.evaluate(x[:, None], x[None, :])).tobytes())

    def test_nan_is_not_a_probability(self, unchecked):
        nan_block = blocks_graphon([0.5, 0.5], [[0.6, np.nan], [np.nan, 0.2]])
        nan_custom = custom_graphon(lambda u, v: np.where(u + v > 1.0, np.nan, 0.5))
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

    def test_words_are_each_streams_raw_words(self):
        streams = KeyedStreams()
        for seed, label, b0, b1, k in ((0, "resample", 0, 5, 40), (-7, "subsample", 3, 4, 1),
                                       (2 ** 127 - 1, "x", 10 ** 6, 10 ** 6 + 3, 7)):
            words = streams.words(seed, label, b0, b1, k)
            assert words.dtype == np.uint64 and words.shape == (b1 - b0, k)
            for row, b in enumerate(range(b0, b1)):
                expect = stream(seed, label, b).bit_generator.random_raw(k)
                assert words[row].tobytes() == expect.tobytes()
        # The generator it re-keyed still matches a fresh stream on the next call.
        assert streams(5, "edges").random(3).tobytes() == stream(5, "edges").random(3).tobytes()
        assert streams.words(1, "x", 4, 4, 3).shape == (0, 3)

    @pytest.mark.parametrize("seed", [0, -7, -3, 2 ** 127 - 1])
    def test_prefixed_seeds_are_substream_seeds(self, seed):
        for label, b0, b1 in (("mc-truth", 0, 5), ("mc-truth", 997, 1003), ("x", 12, 13)):
            assert _substream_seeds(seed, label, b0, b1) == [
                substream_seed(seed, label, b) for b in range(b0, b1)]
        assert _substream_seeds(seed, "mc-truth", 4, 4) == []

    def test_uniforms_are_each_streams_draws(self):
        streams = KeyedStreams()
        seeds = [0, -7, 2 ** 127 - 1, np.int64(2 ** 62 + 5), 6692503853973153916]
        for label, m in (("latent", 1), ("edges", 45), ("x", 7)):
            got = streams.uniforms(seeds, label, m)
            assert got.dtype == np.float64 and got.shape == (len(seeds), m)
            for row, seed in enumerate(seeds):
                assert got[row].tobytes() == stream(seed, label).random(m).tobytes()
        assert streams(5, "edges").random(3).tobytes() == stream(5, "edges").random(3).tobytes()
        assert streams.uniforms([], "edges", 3).shape == (0, 3)

    @pytest.mark.parametrize("seed", [2 ** 127, 2 ** 128, -2 ** 127 - 1])
    def test_out_of_range_seed(self, seed):
        message = re.escape(f"seed must lie in the signed 128-bit range [-2**127, 2**127), "
                            f"got {seed}")
        for draw in (lambda: stream(seed, "edges"), lambda: substream_seed(seed),
                     lambda: KeyedStreams()(seed, "x", 1),
                     lambda: KeyedStreams().words(seed, "x", 0, 2, 1),
                     lambda: KeyedStreams().uniforms([1, seed], "x", 2),
                     lambda: _substream_seeds(seed, "x", 0, 0)):
            with pytest.raises(ValueError, match=message):
                draw()
        with pytest.raises(ValueError, match=message):
            sample_graph(paper_block_model(), 10, 1.0, seed)

    def test_labels_are_str_or_int(self):
        with pytest.raises(TypeError, match="stream labels must be str or int, got float"):
            stream(5, "edges", 0.5)
        with pytest.raises(TypeError, match="stream labels must be str or int, got bytes"):
            substream_seed(5, b"edges")

    # (seed, labels, key digest, first two doubles of the stream, substream
    # seed): every sampled network and bootstrap replicate is keyed here,
    # so these bytes must never move.
    STREAM_PINS = (
        (0, (), "463be1d58a72e9618ea59884367c4358",
         "0a026ca3fbadd73f3c15e03ba7d3d93f", 3527648115935976867),
        (7, ("latent",), "667d6f2827714842886c5983c87982f1",
         "08a0edb6720cee3f704e4232fcaba93f", 2388095908911234739),
        (-3, ("mc-truth", 12), "f85001f49719c1b9ce5fed24cabaf0a2",
         "006247793a298e3fc5968b80bcb8ee3f", 6692503853973153916),
        (2 ** 62 + 5, ("edges", np.int64(-9), "x"), "f89c7126df8268b85412dbdf14cbf7cc",
         "2c507fa2f32cda3f5c1032308888d73f", 6644007297745473148),
        (-(2 ** 40), ("π-ü→", np.uint8(200)), "78cda1a9c91d921d3db04d9cb15bef18",
         "307dfd9738eed53f38a1bb518c62b43f", 1065399162835625660),
        (0, (True,), "8e07800670fc63c4b91b7f5b673f35f7",
         "083399862021cc3ff2cd866f3127d93f", 7075716006101910471),
    )

    @pytest.mark.parametrize("seed,labels,digest,draws,sub", STREAM_PINS)
    def test_stream_pinned_bytes(self, seed, labels, digest, draws, sub):
        for _ in range(2):  # the second pass reads any cached label bytes
            assert _digest(seed, labels).hex() == digest
            assert stream(seed, *labels).random(2).tobytes().hex() == draws
            assert KeyedStreams()(seed, *labels).random(2).tobytes().hex() == draws
            assert substream_seed(seed, *labels) == sub

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
        with pytest.raises(ValueError, match=re.escape("B must be 2x2 to match pi, got (1, 1)")):
            graphon_from_config({"kind": "BlockModel", "pi": [0.5, 0.5], "B": [[0.5]]})

    def test_block_model_rejects_nan(self):
        # JSON configs may hold NaN; no comparison with it is true.
        with pytest.raises(ValueError, match="nonnegative membership probabilities"):
            graphon_from_config(json.loads(
                '{"kind": "BlockModel", "pi": [0.5, NaN], "B": [[0.5, 0.1], [0.1, 0.5]]}'))
        with pytest.raises(ValueError, match=re.escape("B entries must lie in [0, 1]")):
            block_model([0.5, 0.5], [[0.6, np.nan], [np.nan, 0.2]])

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
        assert graphon_from_config({**spec, "name": None}).name == spec["kind"]

    @pytest.mark.parametrize("name", [["x"], 7, {"a": 1}, True], ids=repr)
    def test_config_name_must_be_a_string(self, name):
        # The name becomes the graphon column of experiment records.
        message = re.escape(f"name must be a string or null, got {name!r}")
        for kind in ("SmoothGraphon", "BlockModel"):
            with pytest.raises(ValueError, match=message):
                graphon_from_config({"kind": kind, "name": name})

    def test_custom_symmetry_check(self):
        with pytest.raises(ValueError, match="not symmetric"):
            custom_graphon(lambda u, v: 0.5 * u + np.zeros_like(v))

    def test_custom_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            custom_graphon(lambda u, v: 1.5 * np.ones(np.broadcast(u, v).shape))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            custom_graphon(lambda u, v: np.where(u + v > 1.0, np.nan, 0.5))

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
        with pytest.raises(ValueError, match="unknown graphon kind 'Smooth'"):
            graphon_from_config({"kind": "Smooth"})
        with pytest.raises(ValueError, match="unknown graphon 'erdos'"):
            graphon_from_config("erdos")
        with pytest.raises(ValueError, match="graphon spec must be a name or mapping, got list"):
            graphon_from_config([0.5, 0.5])


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
        assert expected_h(w, TRIANGLE) == pytest.approx(0.6 * 0.2 * 0.2, abs=1e-15)
