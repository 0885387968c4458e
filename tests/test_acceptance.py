"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
The simulation-backed criteria are stochastic by nature; they follow the
stated protocol of retrying once with a second seed before failing.
Every test here carries the ``acceptance`` marker, so
``pytest -m "not acceptance"`` runs the rest of the suite alone.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

import netmoments as nm
from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix,
                        EdgeworthCoefficients, ExperimentConfig, compute_stats,
                        cornish_fisher_quantile, expansion_cdf, jackknife_variance,
                        motif_counts, pair_projection, run_accuracy_experiment,
                        run_coverage_experiment, run_sparsity_sweep, sample_graph,
                        substream_seed)
from conftest import Oracle, paper_block_model, random_graph, relabel

pytestmark = pytest.mark.acceptance

MOTIFS = (EDGE, TRIANGLE, VSHAPE, THREESTAR)
THREADS = 2


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def medians_by_method_n(records, metric="sup_error"):
    acc: dict = {}
    for r in records:
        if r.metric == metric:
            acc.setdefault((r.method, r.n, round(r.rho, 10)), []).append(r.value)
    return {k: float(np.median(v)) for k, v in acc.items()}


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    oracles = {m.name: Oracle(m) for m in MOTIFS}
    n_checked = 0
    for g_idx in range(200):
        n = 5 + g_idx % 8  # cycles through n = 5..12
        A = random_graph(rng, n)
        for motif in MOTIFS:
            if n < motif.r:
                continue
            oracle = oracles[motif.name]
            total, per = motif_counts(A, motif)
            o_total, o_per = oracle.counts(A)
            assert total == o_total, f"count mismatch n={n} motif={motif.name}"
            assert np.array_equal(per, o_per)
            u = total / math.comb(n, motif.r)
            g1 = per / math.comb(n - 1, motif.r - 1) - u
            assert abs(u - oracle.u_hat(A)) <= 1e-12
            assert np.abs(g1 - oracle.g1(A)).max() <= 1e-12
            assert np.abs(pair_projection(A, motif)
                          - oracle.g2(A)).max() <= 1e-12
            s_sq = nm.variance_estimator(g1, motif.r)
            assert abs(s_sq - oracle.s_hat_sq(A)) <= 1e-12
            if n >= motif.r + 1:
                assert abs(jackknife_variance(A, motif)
                           - oracle.jackknife(A)) <= 1e-12
            n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(1, ok, f"fast paths == brute force on {n_checked} graph/motif pairs "
                  f"(200 graphs, n=5..12) in {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_algebraic_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    cases = 0

    for _ in range(300):  # projection centering
        A = random_graph(rng, int(rng.integers(4, 11)))
        motif = MOTIFS[rng.integers(4)]
        if A.n < motif.r:
            continue
        assert abs(nm.compute_stats(A, motif).g1_hat.sum()) <= 1e-9
        cases += 1

    for _ in range(300):  # pairwise projection symmetry
        A = random_graph(rng, int(rng.integers(4, 11)))
        motif = MOTIFS[rng.integers(4)]
        if A.n < motif.r:
            continue
        g2 = pair_projection(A, motif)
        assert np.array_equal(g2, g2.T) and (np.diag(g2) == 0.0).all()
        cases += 1

    for _ in range(250):  # relabeling invariance
        n = int(rng.integers(4, 11))
        A = random_graph(rng, n)
        motif = MOTIFS[rng.integers(4)]
        if n < motif.r:
            continue
        perm = rng.permutation(n)
        sa, sb = compute_stats(A, motif), compute_stats(relabel(A, perm), motif)
        assert abs(sa.u_hat - sb.u_hat) <= 1e-15
        assert abs(sa.s_hat_sq - sb.s_hat_sq) <= 1e-12
        assert np.abs(sb.g1_hat[perm] - sa.g1_hat).max() <= 1e-12
        cases += 1

    for _ in range(250):  # monotonicity under edge addition
        n = int(rng.integers(4, 11))
        A = random_graph(rng, n, 0.5)
        motif = MOTIFS[rng.integers(4)]
        if n < motif.r:
            continue
        free = [(i, j) for i in range(n) for j in range(i + 1, n) if not A.a[i, j]]
        if not free:
            continue
        i, j = free[rng.integers(len(free))]
        b = A.a.copy()
        b[i, j] = b[j, i] = 1
        assert nm.sample_moment(AdjacencyMatrix(b), motif) >= nm.sample_moment(A, motif)
        cases += 1

    elapsed = time.perf_counter() - t0
    ok = cases >= 1000 and elapsed < 60.0
    report(2, ok, f"{cases} random invariant cases (centering, symmetry, "
                  f"relabeling, monotonicity) in {elapsed:.1f}s")
    assert ok


def test_criterion_3_formula_fidelity():
    t0 = time.perf_counter()
    # Hand-computed expansion value.
    c = EdgeworthCoefficients(xi1=1.0, e_g1_cubed=0.6, e_g1g1g2=0.0, r=3, n=100)
    assert abs(expansion_cdf(c, 0.0) - 0.5039894228040143) <= 1e-9

    # Zero-correction collapse is exact.
    c0 = EdgeworthCoefficients(xi1=1.0, e_g1_cubed=0.0, e_g1g1g2=0.0, r=3, n=50)
    grid = np.linspace(-3, 3, 25)
    assert np.array_equal(expansion_cdf(c0, grid), ndtr(grid))
    for a in (0.05, 0.2, 0.5, 0.8):
        assert cornish_fisher_quantile(c0, a) == float(ndtri(a))

    # Quantile consistency against a bisection oracle on the expansion.
    for n in (50, 100, 200):
        cn = EdgeworthCoefficients(xi1=1.0, e_g1_cubed=0.4, e_g1g1g2=0.15, r=3, n=n)
        for a in (0.1, 0.25, 0.5, 0.75, 0.9):
            q_hat = cornish_fisher_quantile(cn, a)
            q_star = brentq(lambda x: expansion_cdf(cn, x) - a, -10, 10, xtol=1e-13)
            resid = abs(expansion_cdf(cn, q_hat) - a)
            oracle_resid = abs(expansion_cdf(cn, q_hat) - expansion_cdf(cn, q_star))
            assert resid <= oracle_resid + 1e-9
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    report(3, ok, f"expansion and Cornish-Fisher formulas reproduce hand and "
                  f"bisection oracles in {elapsed * 1e3:.0f}ms")
    assert ok


def _simulation_1(seed: int):
    cfg = ExperimentConfig(
        graphon=paper_block_model(), motif=TRIANGLE, n_list=[10, 20, 40],
        rho=1, seed=seed, n_mc=100_000, repetitions=30,
        methods=("edgeworth_empirical", "normal"))
    # Triangles at n=10 are degenerate in ~12% of draws; the deliberate
    # override keeps the spec's 1% near-degeneracy guard for ordinary runs.
    records = run_accuracy_experiment(cfg, threads=THREADS,
                                      max_degenerate_fraction=0.20)
    med = medians_by_method_n(records)
    med_e = {n: med[("edgeworth_empirical", n, 1.0)] for n in (10, 20, 40)}
    med_n40 = med[("normal", 40, 1.0)]
    slope = np.polyfit(np.log([10, 20, 40]), np.log([med_e[n] for n in (10, 20, 40)]), 1)[0]
    return med_e, med_n40, slope


def test_criterion_4_simulation_1_accuracy():
    t0 = time.perf_counter()
    med_e, med_n40, slope = _simulation_1(seed=1001)
    ok = med_e[40] < med_n40 and slope <= -0.5
    attempt = 1
    if not ok:  # stochastic: retry once with a fresh seed
        med_e, med_n40, slope = _simulation_1(seed=2002)
        ok = med_e[40] < med_n40 and slope <= -0.5
        attempt = 2
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 1800,
           f"median Edgeworth error at n=40 {med_e[40]:.4f} < normal {med_n40:.4f}; "
           f"log-log slope {slope:.2f} <= -0.5 (attempt {attempt}, {elapsed:.0f}s)")
    assert ok, (med_e, med_n40, slope)
    assert elapsed < 1800


def test_criterion_5_simulation_2_coverage():
    t0 = time.perf_counter()
    results = {}
    for motif in (EDGE, TRIANGLE):
        cfg = ExperimentConfig(
            graphon=paper_block_model(), motif=motif, n_list=[80], rho=1,
            seed=3003, n_mc=1_000, repetitions=2_000,
            methods=("edgeworth_empirical", "normal"))
        records = run_coverage_experiment(cfg, alpha=0.2)
        cov = [r.value for r in records
               if r.method == "edgeworth_empirical" and r.metric == "coverage"]
        lengths: dict = {}
        for r in records:
            if r.metric == "length":
                lengths.setdefault(r.rep, {})[r.method] = r.value
        max_len_gap = max(abs(v["edgeworth_empirical"] - v["normal"])
                          for v in lengths.values())
        results[motif.name] = (float(np.mean(cov)), max_len_gap)
    elapsed = time.perf_counter() - t0
    ok = all(0.77 <= c <= 0.83 and gap <= 1e-12 for c, gap in results.values())
    detail = ", ".join(f"{m}: coverage {c:.3f}, max length gap {g:.1e}"
                       for m, (c, g) in results.items())
    report(5, ok and elapsed < 1200, f"{detail} ({elapsed:.0f}s, 2000 reps each)")
    assert ok, results
    assert elapsed < 1200


def test_criterion_6_jackknife_equivalence_trend():
    t0 = time.perf_counter()
    bm = paper_block_model()
    medians = {}
    for motif in (EDGE, TRIANGLE):
        for n in (20, 40, 80):
            rel = []
            for k in range(50):
                A = sample_graph(bm, n, 1.0, substream_seed(606, "jack", n, k))
                stats = compute_stats(A, motif)
                s = stats.s_hat
                s_jack = math.sqrt(jackknife_variance(A, motif))
                rel.append(abs(s - s_jack) / s)
            medians[(motif.name, n)] = float(np.median(rel))
    ok = all(medians[(m, 80)] < medians[(m, 20)] for m in ("edge", "triangle"))
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"{m}: {medians[(m, 20)]:.4f} (n=20) -> {medians[(m, 80)]:.4f} (n=80)"
        for m in ("edge", "triangle"))
    report(6, ok and elapsed < 600, f"median |S-S_jack|/S shrinks: {detail} ({elapsed:.0f}s)")
    assert ok, medians
    assert elapsed < 600


def test_criterion_7_sparsity_regression():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        graphon=paper_block_model(), motif=EDGE, n_list=[80],
        rho=[1, "n^-1/4", "n^-1/2"], seed=4004, n_mc=100_000, repetitions=30,
        methods=("edgeworth_empirical", "normal"))
    records = run_sparsity_sweep(cfg, threads=THREADS)
    med = medians_by_method_n(records)
    gaps = {}
    for rho in (1.0, 80 ** -0.25, 80 ** -0.5):
        key = round(rho, 10)
        gaps[key] = abs(med[("edgeworth_empirical", 80, key)]
                        - med[("normal", 80, key)])
    g_dense = gaps[round(1.0, 10)]
    g_sparse = gaps[round(80 ** -0.5, 10)]
    ok = g_sparse < g_dense
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 1200,
           f"|Edgeworth - normal| median error gap: {g_dense:.4f} at rho=1 -> "
           f"{g_sparse:.4f} at rho=n^-1/2 ({elapsed:.0f}s)")
    assert ok, gaps
    assert elapsed < 1200
