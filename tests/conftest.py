"""Shared test fixtures and brute-force oracles.

The oracles reimplement every statistic straight from its definition
(subset enumeration plus permutation matching), independently of the
library's counting paths, so fast paths can be checked for exact
agreement.  Containment results are memoized per (motif, submatrix)
since enumeration revisits the same induced patterns constantly.
"""

import itertools
import math

import numpy as np
import pytest

from netmoments import AdjacencyMatrix, block_model
from netmoments.motif import containment_probability


def paper_block_model():
    return block_model([0.5, 0.5], [[0.6, 0.2], [0.2, 0.2]])


@pytest.fixture
def bm():
    return paper_block_model()


def random_graph(rng: np.random.Generator, n: int, p: float | None = None) -> AdjacencyMatrix:
    if p is None:
        p = rng.uniform(0.15, 0.85)
    a = np.zeros((n, n), dtype=np.int8)
    iu = np.triu_indices(n, 1)
    a[iu] = rng.random(iu[0].size) < p
    a |= a.T
    return AdjacencyMatrix(a)


def relabel(A: AdjacencyMatrix, perm) -> AdjacencyMatrix:
    """``A`` with node ``i`` renamed to ``perm[i]``, through the validating constructor."""
    inv = np.argsort(perm)
    return AdjacencyMatrix(A.a[np.ix_(inv, inv)])


def pattern_mask(sub) -> int:
    """Edge-set mask of an r x r pattern: bit k is its k-th pair in lexicographic order."""
    pairs = itertools.combinations(range(len(sub)), 2)
    return sum(1 << k for k, (i, j) in enumerate(pairs) if sub[i][j])


def expected_h(w, motif) -> float:
    """``E[h | W_sub]`` of an r x r probability matrix, from its pairs in
    lexicographic order, the way the graphon code calls it."""
    w = np.asarray(w, dtype=np.float64)
    return float(containment_probability(motif, w[np.triu_indices(motif.r, 1)]))


class Oracle:
    """Definitional (slow) computations for a fixed motif."""

    def __init__(self, motif):
        self.motif = motif
        self.r = motif.r
        self._R = np.asarray(motif.adjacency)
        self._cache: dict[bytes, int] = {}

    def h(self, sub: np.ndarray) -> int:
        """Containment by direct permutation enumeration."""
        key = sub.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        r = self.r
        R = self._R
        result = 0
        for perm in itertools.permutations(range(r)):
            if all(sub[perm[i], perm[j]] >= R[i, j]
                   for i in range(r) for j in range(r)):
                result = 1
                break
        self._cache[key] = result
        return result

    def u_hat(self, A: AdjacencyMatrix) -> float:
        total, _ = self.counts(A)
        return total / math.comb(A.n, self.r)

    def counts(self, A: AdjacencyMatrix) -> tuple[int, np.ndarray]:
        n = A.n
        per = np.zeros(n, dtype=np.int64)
        total = 0
        for subset in itertools.combinations(range(n), self.r):
            sub = A.a[np.ix_(subset, subset)]
            if self.h(sub):
                total += 1
                for v in subset:
                    per[v] += 1
        return total, per

    def g1(self, A: AdjacencyMatrix) -> np.ndarray:
        """Per-node projection from its definition, node by node."""
        n, r = A.n, self.r
        u = self.u_hat(A)
        out = np.zeros(n)
        for i in range(n):
            others = [v for v in range(n) if v != i]
            acc = 0
            for rest in itertools.combinations(others, r - 1):
                subset = (i,) + rest
                acc += self.h(A.a[np.ix_(subset, subset)])
            out[i] = acc / math.comb(n - 1, r - 1) - u
        return out

    def inner(self, A: AdjacencyMatrix) -> np.ndarray:
        """Per pair, the (r-2)-subsets completing it to a containing r-set."""
        n, r = A.n, self.r
        out = np.zeros((n, n), dtype=np.int64)
        for i, j in itertools.combinations(range(n), 2):
            others = [v for v in range(n) if v not in (i, j)]
            acc = 0
            for rest in itertools.combinations(others, r - 2):
                subset = (i, j) + rest
                acc += self.h(A.a[np.ix_(subset, subset)])
            out[i, j] = out[j, i] = acc
        return out

    def g2(self, A: AdjacencyMatrix) -> np.ndarray:
        n, r = A.n, self.r
        u = self.u_hat(A)
        g1 = self.g1(A)
        inner = self.inner(A)
        out = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            val = inner[i, j] / math.comb(n - 2, r - 2) - u - g1[i] - g1[j]
            out[i, j] = out[j, i] = val
        return out

    def s_hat_sq(self, A: AdjacencyMatrix) -> float:
        g1 = self.g1(A)
        n = A.n
        return self.r ** 2 * float(np.sum(g1 * g1)) / (n * n)

    def jackknife(self, A: AdjacencyMatrix) -> float:
        """Recompute the moment from scratch on every deleted graph."""
        n = A.n
        u = self.u_hat(A)
        acc = 0.0
        for i in range(n):
            keep = [v for v in range(n) if v != i]
            u_loo = self.u_hat(A.induced(keep))
            acc += (u_loo - u) ** 2
        return (n - 1) * acc / n

    def e_g1g1g2(self, A: AdjacencyMatrix) -> float:
        g1 = self.g1(A)
        g2 = self.g2(A)
        n = A.n
        acc = 0.0
        for i, j in itertools.combinations(range(n), 2):
            acc += g1[i] * g1[j] * g2[i, j]
        return acc / math.comb(n, 2)
