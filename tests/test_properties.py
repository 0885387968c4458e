"""Property-based tests of the algebraic invariants."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix, DegeneracyError,
                        Motif, block_model, compute_stats, motif_counts, pair_projection,
                        population_edgeworth_coefficients, population_moment, sample_moment)
from netmoments import moments
from netmoments.moments import _threestar_inner_counts
from conftest import Oracle, expected_h, pattern_mask, relabel

MOTIFS = (EDGE, TRIANGLE, VSHAPE, THREESTAR)
ORACLES = {m.name: Oracle(m) for m in MOTIFS}

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


@st.composite
def graphs(draw, min_n=4, max_n=10):
    n = draw(st.integers(min_n, max_n))
    n_pairs = n * (n - 1) // 2
    bits = draw(st.lists(st.integers(0, 1), min_size=n_pairs, max_size=n_pairs))
    a = np.zeros((n, n), dtype=np.int8)
    a[np.triu_indices(n, 1)] = bits
    a |= a.T
    return AdjacencyMatrix(a)


@st.composite
def motif_probability_matrices(draw):
    motif = draw(st.sampled_from(MOTIFS))
    r = motif.r
    n_pairs = r * (r - 1) // 2
    probs = draw(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                          min_size=n_pairs, max_size=n_pairs))
    w = np.zeros((r, r))
    w[np.triu_indices(r, 1)] = probs
    w += w.T
    return motif, w


@SETTINGS
@given(graphs(), st.sampled_from(MOTIFS))
def test_local_projection_sums_to_zero(A, motif):
    assert abs(compute_stats(A, motif).g1_hat.sum()) <= 1e-9


@SETTINGS
@given(graphs(), st.sampled_from(MOTIFS))
def test_pair_projection_symmetric_hollow(A, motif):
    g2 = pair_projection(A, motif)
    assert np.array_equal(g2, g2.T)
    assert (np.diag(g2) == 0.0).all()


@SETTINGS
@given(graphs(max_n=14))
def test_threestar_count_identities(A):
    # Each containing 4-set through i pairs i with its other three
    # members, and hits four nodes.
    inner = _threestar_inner_counts(A.a)
    total, per = motif_counts(A, THREESTAR)
    assert np.array_equal(inner, inner.T) and (np.diag(inner) == 0).all()
    assert np.array_equal(inner.sum(axis=1), 3 * per)
    assert int(per.sum()) == 4 * total


@SETTINGS
@given(graphs(min_n=3, max_n=14), st.sampled_from(MOTIFS))
def test_sparse_codegree_route_keeps_stats_bytes(A, motif):
    if A.n < motif.r:
        return
    with mock.patch.object(moments, "_SPARSE_MIN_NODES", 10 ** 9):
        dense = compute_stats(A, motif)
    with mock.patch.multiple(moments, _SPARSE_MIN_NODES=0, _SPARSE_MAX_DENSITY=1.0):
        forced = compute_stats(A, motif)
    assert repr(forced) == repr(dense)
    assert forced.g1_hat.tobytes() == dense.g1_hat.tobytes()
    assert forced.g2_hat.tobytes() == dense.g2_hat.tobytes()


@SETTINGS
@given(graphs(), st.sampled_from(MOTIFS), st.randoms(use_true_random=False))
def test_relabeling_invariance(A, motif, rnd):
    perm = np.array(rnd.sample(range(A.n), A.n))
    B = relabel(A, perm)
    sa, sb = compute_stats(A, motif), compute_stats(B, motif)
    assert sb.u_hat == pytest.approx(sa.u_hat, abs=1e-15)
    assert sb.s_hat_sq == pytest.approx(sa.s_hat_sq, abs=1e-12)
    assert sb.e_g1_cubed == pytest.approx(sa.e_g1_cubed, abs=1e-12)
    assert sb.e_g1g1g2 == pytest.approx(sa.e_g1g1g2, abs=1e-12)
    assert np.allclose(sb.g1_hat[perm], sa.g1_hat, atol=1e-12)


@SETTINGS
@given(graphs(), st.sampled_from(MOTIFS), st.randoms(use_true_random=False))
def test_moment_monotone_under_edge_addition(A, motif, rnd):
    free = [(i, j) for i in range(A.n) for j in range(i + 1, A.n) if not A.a[i, j]]
    if not free:
        return
    i, j = rnd.choice(free)
    b = A.a.copy()
    b[i, j] = b[j, i] = 1
    assert sample_moment(AdjacencyMatrix(b), motif) >= sample_moment(A, motif)


@SETTINGS
@given(graphs(min_n=4, max_n=6), st.sampled_from((TRIANGLE, VSHAPE, THREESTAR)),
       st.randoms(use_true_random=False))
def test_contains_permutation_invariant(A, motif, rnd):
    r = motif.r
    nodes = rnd.sample(range(A.n), r)
    sub = A.a[np.ix_(nodes, nodes)]
    base = motif.h_table[pattern_mask(sub)]
    assert base == ORACLES[motif.name].h(sub)
    perm = rnd.sample(range(r), r)
    assert motif.h_table[pattern_mask(sub[np.ix_(perm, perm)])] == base


@SETTINGS
@given(motif_probability_matrices())
def test_conditional_expectation_in_unit_interval(mw):
    motif, w = mw
    v = expected_h(w, motif)
    assert -1e-12 <= v <= 1 + 1e-12


@SETTINGS
@given(motif_probability_matrices(), st.integers(0, 10**9), st.floats(0.0, 1.0))
def test_conditional_expectation_monotone(mw, pair_seed, bump):
    motif, w = mw
    r = motif.r
    iu = np.triu_indices(r, 1)
    k = pair_seed % iu[0].size
    i, j = int(iu[0][k]), int(iu[1][k])
    w2 = w.copy()
    w2[i, j] = w2[j, i] = w[i, j] + (1.0 - w[i, j]) * bump
    assert expected_h(w2, motif) >= expected_h(w, motif) - 1e-12


@SETTINGS
@given(motif_probability_matrices(), st.integers(0, 10**9))
def test_conditional_expectation_multilinear(mw, pair_seed):
    motif, w = mw
    r = motif.r
    iu = np.triu_indices(r, 1)
    k = pair_seed % iu[0].size
    i, j = int(iu[0][k]), int(iu[1][k])
    vals = []
    for t in (0.0, 0.5, 1.0):
        wt = w.copy()
        wt[i, j] = wt[j, i] = t
        vals.append(expected_h(wt, motif))
    assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, abs=1e-12)


@st.composite
def small_motifs(draw):
    """A connected motif on 2-4 nodes: a random tree plus random extra edges."""
    r = draw(st.integers(2, 4))
    a = np.zeros((r, r), dtype=np.int8)
    for v in range(1, r):
        u = draw(st.integers(0, v - 1))
        a[u, v] = a[v, u] = 1
    for u, v in itertools.combinations(range(r), 2):
        if draw(st.booleans()):
            a[u, v] = a[v, u] = 1
    return Motif(a)


@st.composite
def small_block_models(draw):
    K = draw(st.integers(2, 3))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K)))
    if w.sum() < 1e-3:
        w[0] = 1.0
    b = draw(st.lists(st.floats(0.0, 1.0), min_size=K * K, max_size=K * K))
    B = np.triu(np.reshape(b, (K, K)))
    return block_model(w / w.sum(), B + np.triu(B, 1).T)


def brute_block_population(g, rho, motif):
    """mu, xi1^2, E[g1^3], E[g1 g1 g2] by enumerating block assignments.

    Each assignment's ``W_sub`` goes through ``expected_h``,
    and every conditional mean is a plain loop over the free blocks.
    """
    pi, B, K, r = g.pi, g.B, g.pi.size, motif.r
    h = {}
    for ks in itertools.product(range(K), repeat=r):
        w = rho * B[np.ix_(ks, ks)]
        np.fill_diagonal(w, 0.0)
        h[ks] = expected_h(w, motif)

    def mean(fixed):
        return sum(math.prod(pi[k] for k in rest) * h[fixed + rest]
                   for rest in itertools.product(range(K), repeat=r - len(fixed)))

    mu = mean(())
    g1 = [mean((k,)) - mu for k in range(K)]
    g2 = [[mean((k, l)) - mu - g1[k] - g1[l] for l in range(K)] for k in range(K)]
    return (mu, sum(pi[k] * g1[k] ** 2 for k in range(K)),
            sum(pi[k] * g1[k] ** 3 for k in range(K)),
            sum(pi[k] * pi[l] * g1[k] * g1[l] * g2[k][l]
                for k in range(K) for l in range(K)))


@SETTINGS
@given(small_block_models(), small_motifs(), st.floats(0.05, 1.0))
def test_exact_population_matches_brute_enumeration(g, motif, rho):
    mu, xi1_sq, e3, e112 = brute_block_population(g, rho, motif)
    assert population_moment(g, rho, motif).value == pytest.approx(mu, abs=1e-12)
    try:
        pc = population_edgeworth_coefficients(g, rho, motif)
    except DegeneracyError:
        assert xi1_sq < (1e-10 * rho ** motif.s) ** 2 + 1e-12
        return
    assert pc.xi1_sq == pytest.approx(xi1_sq, abs=1e-12)
    assert pc.e_g1_cubed == pytest.approx(e3, abs=1e-12)
    assert pc.e_g1g1g2 == pytest.approx(e112, abs=1e-12)
