"""Property-based tests of the algebraic invariants."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix,
                        compute_stats, conditional_expectation_h, contains,
                        local_projection, motif_counts, pair_projection, sample_moment)
from netmoments import moments
from netmoments.moments import _threestar_inner_counts

MOTIFS = (EDGE, TRIANGLE, VSHAPE, THREESTAR)

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
    assert abs(local_projection(A, motif).sum()) <= 1e-9


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
@given(graphs(min_n=3, max_n=14), st.sampled_from((TRIANGLE, VSHAPE, THREESTAR)))
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
    B = A.relabeled(perm)
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
    base = contains(sub, motif)
    perm = rnd.sample(range(r), r)
    assert contains(sub[np.ix_(perm, perm)], motif) == base


@SETTINGS
@given(motif_probability_matrices())
def test_conditional_expectation_in_unit_interval(mw):
    motif, w = mw
    v = conditional_expectation_h(w, motif)
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
    assert conditional_expectation_h(w2, motif) >= conditional_expectation_h(w, motif) - 1e-12


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
        vals.append(conditional_expectation_h(wt, motif))
    assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, abs=1e-12)
