"""Independent reference computations for the benchmark's output checks.

Nothing here imports netmoments.  Motif statistics come from plain
dense-numpy counting formulas (edge, triangle, V-shape) or from
brute-force enumeration of every node subset (any motif, used for the
three-star), and the Cornish-Fisher interval and expansion test are
written out from the paper's formulas.  The truth sampler draws
block-model networks in batches with its own generator, so reference
CDFs share no random stream with the library.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import ndtr, ndtri

MOTIF_R = {"edge": 2, "triangle": 3, "vshape": 3, "threestar": 4}

# The -2..2 lattice with step 0.1 that truth CDFs are tabulated on.
GRID = np.round(np.arange(-20, 21) / 10.0, 1)

PAPER_PI = (0.5, 0.5)
PAPER_B = ((0.6, 0.2), (0.2, 0.2))


def _contains(motif: str, sub: np.ndarray) -> np.ndarray:
    """Containment of the motif in each induced subgraph of a stack (m, r, r)."""
    edges = sub.sum(axis=(1, 2)) // 2
    if motif == "edge":
        return edges == 1
    if motif == "triangle":
        return edges == 3
    if motif == "vshape":
        return edges >= 2
    if motif == "threestar":
        return sub.sum(axis=2).max(axis=1) == 3
    raise ValueError(f"no brute-force rule for motif {motif!r}")


def brute_counts(a: np.ndarray, motif: str):
    """Total, per-node and per-pair containing-subset counts by enumeration."""
    a = np.asarray(a, dtype=np.int64)
    n, r = a.shape[0], MOTIF_R[motif]
    subsets = np.array(list(itertools.combinations(range(n), r)), dtype=np.intp)
    sub = a[subsets[:, :, None], subsets[:, None, :]]
    hit = _contains(motif, sub)
    chosen = subsets[hit]
    per = np.bincount(chosen.ravel(), minlength=n).astype(np.int64)
    pair = np.zeros(n * n, dtype=np.int64)
    for i, j in itertools.combinations(range(r), 2):
        pair += np.bincount(chosen[:, i] * n + chosen[:, j], minlength=n * n)
    pair = pair.reshape(n, n)
    return int(hit.sum()), per, pair + pair.T


def dense_counts(a: np.ndarray, motif: str):
    """The same counts from closed dense formulas (edge, triangle, V-shape)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    d = a.sum(axis=1)
    if motif == "edge":
        return int(round(d.sum() / 2)), np.rint(d).astype(np.int64), np.rint(a).astype(np.int64)
    a2 = a @ a
    np.fill_diagonal(a2, 0.0)  # common neighbours of distinct pairs
    tri = np.einsum("ij,ij->i", a2, a) / 2.0
    if motif == "triangle":
        return (int(round(tri.sum() / 3)), np.rint(tri).astype(np.int64),
                np.rint(a * a2).astype(np.int64))
    if motif == "vshape":
        # Two-paths through a node: as their centre, C(d, 2); as an end,
        # one per neighbour's other neighbour.  A triangle holds three
        # two-paths but is one containing subset.
        paths_centre = d * (d - 1) / 2.0
        paths_end = a @ d - d
        per = paths_centre + paths_end - 2.0 * tri
        total = paths_centre.sum() - 2.0 * tri.sum() / 3.0
        # A third node completes an adjacent pair when it touches either
        # end, and a non-adjacent pair when it touches both.
        union = d[:, None] + d[None, :] - 2.0 - a2
        pair = np.where(a > 0, union, a2)
        np.fill_diagonal(pair, 0.0)
        return int(round(total)), np.rint(per).astype(np.int64), np.rint(pair).astype(np.int64)
    raise ValueError(f"no dense formula for motif {motif!r}")


def counts(a: np.ndarray, motif: str):
    if motif in ("edge", "triangle", "vshape"):
        return dense_counts(a, motif)
    return brute_counts(a, motif)


def stats_from_counts(n: int, r: int, total: int, per: np.ndarray, pair: np.ndarray) -> dict:
    """Sample moment, variance and plug-in expansion coefficients."""
    u_hat = total / math.comb(n, r)
    g1 = per / math.comb(n - 1, r - 1) - u_hat
    g2 = pair / math.comb(n - 2, r - 2) - u_hat - g1[:, None] - g1[None, :]
    np.fill_diagonal(g2, 0.0)
    s_hat_sq = r * r * float(np.dot(g1, g1)) / (n * n)
    return {
        "n": n, "u_hat": u_hat, "s_hat_sq": s_hat_sq,
        "xi1_hat_sq": float(np.mean(g1 ** 2)),
        "e_g1_cubed": float(np.mean(g1 ** 3)),
        "e_g1g1g2": float(np.einsum("i,ij,j->", g1, g2, g1)) / (n * (n - 1)),
        "degenerate": s_hat_sq == 0.0,
    }


def moment_stats(a: np.ndarray, motif: str) -> dict:
    n, r = a.shape[0], MOTIF_R[motif]
    total, per, pair = counts(a, motif)
    return stats_from_counts(n, r, total, per, pair)


def _correction(st: dict, r: int, x):
    bracket = ((2.0 * x * x + 1.0) / 6.0 * st["e_g1_cubed"]
               + (r - 1) / 2.0 * (x * x + 1.0) * st["e_g1g1g2"])
    return bracket / (math.sqrt(st["n"]) * math.sqrt(st["xi1_hat_sq"]) ** 3)


def cornish_fisher_ci(st: dict, r: int, alpha: float) -> dict:
    """Two-sided interval from the Cornish-Fisher quantiles q = z - correction(z)."""
    s_hat = math.sqrt(st["s_hat_sq"])
    z_lo, z_hi = float(ndtri(alpha / 2.0)), float(ndtri(1.0 - alpha / 2.0))
    q_lo = z_lo - _correction(st, r, z_lo)
    q_hi = z_hi - _correction(st, r, z_hi)
    lo, hi = sorted((st["u_hat"] - q_hi * s_hat, st["u_hat"] - q_lo * s_hat))
    return {"lo": lo, "hi": hi, "length": hi - lo}


def expansion_test(st: dict, r: int, c_n: float) -> dict:
    """Two-sided p-value 2 min(G(t), 1 - G(t)) of the one-term expansion G."""
    s_hat = math.sqrt(st["s_hat_sq"])
    t = (st["u_hat"] - c_n) / s_hat
    g = float(ndtr(t)) + math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * _correction(st, r, t)
    raw = 2.0 * min(g, 1.0 - g)
    return {"t_obs": t, "p_value_raw": raw, "p_value": min(1.0, max(0.0, raw)),
            "u_hat": st["u_hat"], "s_hat": s_hat, "c_n": c_n}


# -- Monte-Carlo truth of the studentized moment (block models) ---------------

def block_model_mean(motif: str, rho: float) -> float:
    """Population moment of an edge or triangle, by summing over block labels."""
    pi, B = np.asarray(PAPER_PI), rho * np.asarray(PAPER_B)
    if motif == "edge":
        return float(np.einsum("a,b,ab->", pi, pi, B))
    if motif == "triangle":
        return float(np.einsum("a,b,c,ab,bc,ac->", pi, pi, pi, B, B, B))
    raise ValueError(f"no closed population moment for motif {motif!r}")


TRUTH_BATCH = 500  # networks sampled at once by truth_t_values


def truth_t_values(rng: np.random.Generator, motif: str, n: int, rho: float,
                   count: int) -> tuple[np.ndarray, int]:
    """Studentized moments of ``count`` sampled networks, degenerate ones dropped."""
    r = MOTIF_R[motif]
    mu = block_model_mean(motif, rho)
    cuts = np.cumsum(PAPER_PI)[:-1]
    Bm = rho * np.asarray(PAPER_B)
    iu = np.triu_indices(n, 1)
    out, degenerate = [], 0
    for start in range(0, count, TRUTH_BATCH):
        b = min(TRUTH_BATCH, count - start)
        z = np.searchsorted(cuts, rng.random((b, n)), side="right")
        p = Bm[z[:, :, None], z[:, None, :]]
        a = np.zeros((b, n, n))
        a[:, iu[0], iu[1]] = rng.random((b, iu[0].size)) < p[:, iu[0], iu[1]]
        a += a.transpose(0, 2, 1)
        if motif == "edge":
            per = a.sum(axis=2)
        else:
            per = np.einsum("bij,bij->bi", a @ a, a) / 2.0
        u = per.sum(axis=1) / r / math.comb(n, r)
        g1 = per / math.comb(n - 1, r - 1) - u[:, None]
        s_sq = r * r * (g1 * g1).sum(axis=1) / (n * n)
        keep = s_sq > 0.0
        degenerate += int((~keep).sum())
        out.append((u[keep] - mu) / np.sqrt(s_sq[keep]))
    return np.concatenate(out), degenerate


def dkw_epsilon(m: int, delta: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: P(sup |F_m - F| > eps) <= delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))
