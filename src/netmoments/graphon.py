"""Graphon models and population quantities.

A graphon is a symmetric function ``f: [0,1]^2 -> [0,1]``.  Together
with a sparsity factor ``rho`` it generates random graphs: latent node
positions are i.i.d. Uniform[0,1], edge probabilities are
``W_ij = rho * f(X_i, X_j)``, and edges are independent Bernoulli draws
given ``W``.  Population moments and expansion coefficients are exact
for block models, as sums over one table of containment probabilities
at every block assignment, and Monte Carlo integrals otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import DegeneracyError
from .motif import Motif, _PAIRS, containment_probability
from .rng import stream, substream_seed, thread_streams

__all__ = [
    "Graphon",
    "LatentSample",
    "ProbabilityMatrix",
    "block_model",
    "smooth_graphon",
    "nonsmooth_graphon",
    "custom_graphon",
    "builtin_graphon",
    "graphon_from_config",
    "sample_latent",
    "probability_matrix",
    "sample_adjacency",
    "sample_graph",
    "sample_graph_block",
    "population_moment",
    "population_edgeworth_coefficients",
    "MomentEstimate",
    "PopulationCoefficients",
]

_CHECK_SEED = 0x5EED_C4EC


class Graphon:
    """A pointwise-evaluable symmetric edge-probability function.

    ``evaluate(u, v)`` must accept numpy arrays and broadcast.  Block
    models additionally carry their membership probabilities ``pi`` and
    block matrix ``B`` so population quantities can be enumerated
    exactly.  The convention that ``f`` integrates to a fixed constant
    is not enforced.
    """

    def __init__(self, evaluator, kind: str, name: str | None = None,
                 pi: np.ndarray | None = None, B: np.ndarray | None = None,
                 check: bool = True):
        self._evaluator = evaluator
        self.kind = kind
        self.name = name or kind
        self.pi = pi
        self.B = B
        if check:
            self._check_pointwise()

    @property
    def is_block_model(self) -> bool:
        return self.pi is not None

    def evaluate(self, u, v):
        return self._evaluator(np.asarray(u, dtype=np.float64),
                               np.asarray(v, dtype=np.float64))

    def _check_pointwise(self, n_pairs: int = 256) -> None:
        # Spot-check symmetry and range on random pairs (fixed stream).
        rng = stream(_CHECK_SEED, "graphon-check", self.kind)
        u, v = rng.random((2, n_pairs))
        fu = np.asarray(self.evaluate(u, v), dtype=np.float64)
        fv = np.asarray(self.evaluate(v, u), dtype=np.float64)
        if not np.allclose(fu, fv, atol=1e-9, rtol=0.0):
            raise ValueError("graphon is not symmetric: f(u,v) != f(v,u) on sampled pairs")
        if (fu < 0).any() or (fu > 1).any():
            raise ValueError("graphon values leave [0, 1] on sampled pairs")

    def __repr__(self) -> str:
        return f"Graphon({self.name!r}, kind={self.kind})"


def _block_labels(pi: np.ndarray, x) -> np.ndarray:
    """The block of each latent position ``x``: block k holds the positions
    from the sum of ``pi[:k]`` up to, not including, the sum of ``pi[:k+1]``.

    The block model's evaluator and its one-hot edge probabilities both
    label through here, so their bytes cannot drift apart.
    """
    return np.searchsorted(np.cumsum(pi)[:-1], x, side="right")


def block_model(pi, B, name: str | None = None) -> Graphon:
    """Stochastic block model graphon with membership probabilities ``pi``."""
    pi = np.asarray(pi, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if pi.ndim != 1 or (pi < 0).any():
        raise ValueError("pi must be a vector of nonnegative membership probabilities")
    if abs(pi.sum() - 1.0) > 1e-12:
        raise ValueError(f"membership probabilities must sum to 1, got {pi.sum()!r}")
    K = pi.size
    if B.shape != (K, K):
        raise ValueError(f"B must be {K}x{K} to match pi, got {B.shape}")
    if (B != B.T).any():
        raise ValueError("B must be symmetric")
    if (B < 0).any() or (B > 1).any():
        raise ValueError("B entries must lie in [0, 1]")

    def evaluate(u, v):
        return B[_block_labels(pi, u), _block_labels(pi, v)]

    return Graphon(evaluate, kind="BlockModel", name=name or "BlockModel", pi=pi, B=B)


def smooth_graphon() -> Graphon:
    """Smooth full-rank graphon ``(u^2+v^2)/3 * cos(1/(u^2+v^2)) + 0.15``.

    The removable singularity at ``u = v = 0`` takes the value 0.15: the
    prefactor ``(u^2+v^2)/3`` vanishes while the cosine stays bounded.
    """

    def evaluate(u, v):
        t = u * u + v * v
        safe = np.where(t > 0.0, t, 1.0)
        core = np.where(t > 0.0, t / 3.0 * np.cos(1.0 / safe), 0.0)
        return core + 0.15

    return Graphon(evaluate, kind="SmoothGraphon", name="SmoothGraphon")


def nonsmooth_graphon() -> Graphon:
    """High-fluctuation graphon built around the center of the square.

    The cosine argument is transcribed literally from its source,
    ``0.1/((u-1/2)^2+(v-1/2)^2)^{-1} + 0.01``, i.e. a division by an
    inverse, which simplifies to ``0.1*((u-1/2)^2+(v-1/2)^2) + 0.01``.
    The slash-then-negative-exponent printing is ambiguous; if the
    intended reading was ``0.1/(...) + 0.01``, build that variant with
    :func:`custom_graphon`.
    """

    def evaluate(u, v):
        d2 = (u - 0.5) ** 2 + (v - 0.5) ** 2
        return 0.5 * np.cos(0.1 * d2 + 0.01) * np.maximum(u, v) ** (2.0 / 3.0) + 0.4

    return Graphon(evaluate, kind="NonSmoothGraphon", name="NonSmoothGraphon")


def custom_graphon(fn, name: str = "Custom", check: bool = True) -> Graphon:
    """Wrap a vectorized symmetric function ``[0,1]^2 -> [0,1]``."""
    return Graphon(fn, kind="Custom", name=name, check=check)


# Paper-default block model: two equal communities, B = (0.6, 0.2; 0.2, 0.2).
def _default_block_model() -> Graphon:
    return block_model([0.5, 0.5], [[0.6, 0.2], [0.2, 0.2]])


def builtin_graphon(name: str) -> Graphon:
    """Named built-ins: blockmodel, smoothgraphon, nonsmoothgraphon."""
    key = name.lower().replace("_", "").replace("-", "")
    if key in ("blockmodel", "block"):
        return _default_block_model()
    if key in ("smoothgraphon", "smooth"):
        return smooth_graphon()
    if key in ("nonsmoothgraphon", "nonsmooth"):
        return nonsmooth_graphon()
    raise ValueError(f"unknown graphon {name!r}")


def graphon_from_config(spec) -> Graphon:
    """Build a graphon from a config value (name or mapping).

    Mappings use ``{"kind": "BlockModel", "pi": [...], "B": [[...]]}``
    (``pi`` and ``B`` together; neither gives the paper default); the
    Smooth/NonSmooth built-ins need only their kind.  Every kind takes
    an optional ``name`` (default: the kind).  Custom graphons hold
    arbitrary callables and cannot be described in JSON.
    """
    if isinstance(spec, str):
        return builtin_graphon(spec)
    if isinstance(spec, Graphon):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"graphon spec must be a name or mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "Custom":
        raise ValueError("Custom graphons are constructed programmatically, not from config")
    if kind not in ("BlockModel", "SmoothGraphon", "NonSmoothGraphon"):
        raise ValueError(f"unknown graphon kind {kind!r}")
    unknown = set(spec) - {"kind", "name"} - ({"pi", "B"} if kind == "BlockModel" else set())
    if unknown:
        raise ValueError(f"unknown graphon config keys: {sorted(unknown)}")
    if kind == "BlockModel":
        missing = {"pi", "B"} - set(spec)
        if missing and missing != {"pi", "B"}:
            raise ValueError(f"missing graphon config keys: {sorted(missing)}")
        g = block_model(spec["pi"], spec["B"]) if not missing else _default_block_model()
    else:
        g = smooth_graphon() if kind == "SmoothGraphon" else nonsmooth_graphon()
    g.name = spec.get("name") or g.name
    return g


@dataclass(frozen=True)
class LatentSample:
    """Latent node positions ``X_1..X_n`` with the seed that drew them."""

    positions: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Symmetric hollow matrix of edge probabilities with its sparsity factor."""

    W: np.ndarray
    rho: float

    @property
    def n(self) -> int:
        return self.W.shape[0]


def _check_rho(rho: float) -> None:
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")


def _check_nodes(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")


def sample_latent(n: int, seed: int) -> LatentSample:
    """Draw ``n`` i.i.d. Uniform[0,1] latent positions, deterministically in the seed."""
    _check_nodes(n)
    positions = stream(seed, "latent").random(n)
    positions.setflags(write=False)
    return LatentSample(positions=positions, seed=seed)


def _check_probabilities(W: np.ndarray) -> None:
    if not ((W >= 0).all() and (W <= 1).all()):
        raise ValueError("edge probabilities leave [0, 1]; graphon must map into [0, 1]")


def _edge_probabilities(g: Graphon, pos: np.ndarray, rho: float) -> np.ndarray:
    """``rho * f(X_i, X_j)`` on every pair of each row of ``pos`` (..., n).

    A block model's value is ``onehot(labels) @ (rho * B) @ onehot(labels).T``
    for the block labels of ``pos``: exactly one term of each sum is
    nonzero, so the product has the bytes of ``rho * B[b_i, b_j]`` at BLAS
    speed, and the K x K table ``rho * B``, which holds every value it can
    take, is the one range check.
    """
    if g.is_block_model:
        table = rho * np.asarray(g.B, dtype=np.float64)
        _check_probabilities(table)
        labels = _block_labels(g.pi, pos)
        onehot = (labels[..., None] == np.arange(table.shape[0])).astype(np.float64)
        return onehot @ table @ np.swapaxes(onehot, -1, -2)
    W = rho * np.asarray(g.evaluate(pos[..., :, None], pos[..., None, :]), dtype=np.float64)
    _check_probabilities(W)
    return W


@functools.lru_cache(maxsize=64)
def _upper_offsets(n: int) -> np.ndarray:
    """Row-major flat offsets of the strict upper triangle of an n x n matrix.

    One-axis takes at flat offsets are faster than ``(i, j)`` fancy
    indexing; the array is cached (read-only) per ``n``.
    """
    iu = np.triu_indices(n, 1)
    upper = iu[0] * n + iu[1]
    upper.setflags(write=False)
    return upper


def _bernoulli_adjacency(W: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Read-only int8 adjacency (..., n, n): edge ``i < j`` iff ``u < W_ij``, mirrored.

    ``u`` holds one uniform per upper-triangle pair, in row-major order.
    Only the strict upper triangle of ``W`` is read.
    """
    n = W.shape[-1]
    upper = _upper_offsets(n)
    flat = W.shape[:-2] + (n * n,)
    a = np.zeros(flat, dtype=np.int8)
    a[..., upper] = u < np.take(W.reshape(flat), upper, axis=-1)
    a = a.reshape(W.shape)
    a |= np.swapaxes(a, -1, -2)
    a.setflags(write=False)
    return a


def probability_matrix(g: Graphon, x: LatentSample, rho: float) -> ProbabilityMatrix:
    """Edge probabilities ``W_ij = rho * f(X_i, X_j)`` with a zero diagonal."""
    _check_rho(rho)
    W = np.triu(_edge_probabilities(g, x.positions, rho), 1)
    W = W + W.T
    W.setflags(write=False)
    return ProbabilityMatrix(W=W, rho=float(rho))


def sample_adjacency(W: ProbabilityMatrix, seed: int) -> AdjacencyMatrix:
    """Independent Bernoulli(W_ij) edges for i < j, mirrored below the diagonal."""
    n = W.n
    u = stream(seed, "edges").random(n * (n - 1) // 2)
    return AdjacencyMatrix._trusted(_bernoulli_adjacency(W.W, u))


def sample_graph_block(g: Graphon, n: int, rho: float, seeds) -> np.ndarray:
    """Adjacency stack ``(b, n, n)`` of ``sample_graph(g, n, rho, s)`` for ``s`` in ``seeds``.

    Each network draws its latents and edge uniforms from its own
    seed's labeled streams, exactly as :func:`sample_graph` does, so
    row ``k`` is byte-identical to ``sample_graph(g, n, rho, seeds[k]).a``
    whatever the block it is drawn in.  The graphon is evaluated once
    for the whole block.  The stack is int8 and read-only.
    """
    _check_nodes(n)
    _check_rho(rho)
    streams = thread_streams()
    x = np.empty((len(seeds), n))
    u = np.empty((len(seeds), n * (n - 1) // 2))
    for k, seed in enumerate(seeds):
        streams(seed, "latent").random(out=x[k])
        streams(seed, "edges").random(out=u[k])
    return _bernoulli_adjacency(_edge_probabilities(g, x, rho), u)


def sample_graph(g: Graphon, n: int, rho: float, seed: int) -> AdjacencyMatrix:
    """Latents, probabilities, and adjacency in one call.

    The latent and edge draws use independent labeled substreams of the
    same seed, so this equals composing the three sampling operations
    with that seed.  It is the one-network case of
    :func:`sample_graph_block`.
    """
    return AdjacencyMatrix._trusted(sample_graph_block(g, n, rho, [seed])[0])


@dataclass(frozen=True)
class MomentEstimate:
    """A population-moment value with its Monte-Carlo standard error (0 when exact)."""

    value: float
    standard_error: float
    method: str

    def __float__(self) -> float:
        return self.value


def _containment_given(motif: Motif, rho: float, f, x: np.ndarray) -> np.ndarray:
    """``E[h | node values]`` for each row of ``x`` (m, r), with edge probabilities ``rho * f``.

    Monte Carlo passes ``g.evaluate`` with uniform latent coordinates;
    block-model enumeration passes ``B`` lookup with block labels.
    """
    probs = np.column_stack([rho * np.asarray(f(x[:, i], x[:, j]), dtype=np.float64)
                             for i, j in _PAIRS[motif.r]])
    return containment_probability(motif, probs)


def _monte_carlo(g: Graphon, m: int) -> bool:
    """The one estimator policy: enumerate block models exactly, integrate the rest.

    Returns whether Monte Carlo applies, after checking its sample size.
    """
    if g.is_block_model:
        return False
    if m < 10_000:
        raise ValueError(f"Monte-Carlo needs m >= 10^4 draws, got {m}")
    return True


def _block_means(g: Graphon, rho: float, motif: Motif, depth: int) -> list[np.ndarray]:
    """Exact ``E[h | blocks of the first j nodes]``, shape ``(K,)*j``, for ``j = 0..depth``.

    One table holds the containment probability at every block
    assignment, in ``itertools.product`` order.  Fixing the first ``j``
    labels leaves a ``pi``-weighted sum over the free ones, taken
    sequentially in that order; a tensor contraction would reorder it
    and move ``mu`` (which centres every truth) in the last ulp.
    """
    pi, K, r = g.pi, g.pi.size, motif.r
    labels = np.indices((K,) * r).reshape(r, -1).T
    h = _containment_given(motif, rho, lambda k, l: g.B[k, l], labels)
    means = []
    for j in range(depth + 1):
        weight = np.ones(K ** (r - j))
        for free in labels[:K ** (r - j), j:].T:
            weight = weight * pi[free]
        terms = h.reshape(K ** j, -1) * weight
        means.append(np.cumsum(terms, axis=-1)[:, -1].reshape((K,) * j))
    return means


def population_moment(g: Graphon, rho: float, motif: Motif,
                      m: int = 100_000, seed: int = 0) -> MomentEstimate:
    """Population moment ``mu_n = E[h(W_{1..r})]``.

    Block models enumerate their block assignments exactly.  Other
    graphons average the exact conditional containment probability over
    ``m`` i.i.d. latent r-tuples and report the standard error of that
    average.
    """
    _check_rho(rho)
    if not _monte_carlo(g, m):
        mu, = _block_means(g, rho, motif, depth=0)
        return MomentEstimate(value=float(mu), standard_error=0.0, method="exact")
    coords = stream(seed, "population-moment").random((m, motif.r))
    h_vals = _containment_given(motif, rho, g.evaluate, coords)
    se = float(h_vals.std(ddof=1) / math.sqrt(m))
    return MomentEstimate(value=float(h_vals.mean()), standard_error=se, method="monte-carlo")


@dataclass(frozen=True)
class PopulationCoefficients:
    """Population expansion coefficients with Monte-Carlo standard errors."""

    xi1: float
    xi1_sq: float
    e_g1_cubed: float
    e_g1g1g2: float
    se_xi1_sq: float
    se_e_g1_cubed: float
    se_e_g1g1g2: float
    method: str
    # Diagnostic: the projection integrates to zero by construction, so
    # its sampled mean should vanish within noise.
    g1_mean: float = 0.0
    se_g1_mean: float = 0.0


def _population_coefficients_block(g: Graphon, rho: float, motif: Motif) -> PopulationCoefficients:
    pi = g.pi
    mu, h1, h2 = _block_means(g, rho, motif, depth=2)
    g1 = h1 - mu
    xi1_sq = float(np.sum(pi * g1 ** 2))
    e_g1_cubed = float(np.sum(pi * g1 ** 3))
    g2 = h2 - mu - g1[:, None] - g1[None, :]
    weights = pi[:, None] * pi[None, :]
    e_g1g1g2 = float(np.sum(weights * g1[:, None] * g1[None, :] * g2))
    return PopulationCoefficients(
        xi1=math.sqrt(max(xi1_sq, 0.0)), xi1_sq=xi1_sq,
        e_g1_cubed=e_g1_cubed, e_g1g1g2=e_g1g1g2,
        se_xi1_sq=0.0, se_e_g1_cubed=0.0, se_e_g1g1g2=0.0, method="exact",
        g1_mean=float(np.sum(pi * g1)), se_g1_mean=0.0,
    )


def population_edgeworth_coefficients(g: Graphon, rho: float, motif: Motif,
                                      m: int = 100_000, seed: int = 0) -> PopulationCoefficients:
    """Population coefficients ``xi_1``, ``E[g1^3]``, ``E[g1 g1 g2]``.

    Block models are enumerated exactly.  Otherwise each latent draw is
    paired with independent single-draw conditional averages of the
    containment probability, so products of independent replicates are
    unbiased for the products of projections; ``mu`` enters through its
    own Monte-Carlo average of the same size.

    Raises
    ------
    DegeneracyError
        When ``xi_1`` falls below ``1e-10 * rho**s`` (degenerate linear
        projection, e.g. any Erdos-Renyi graphon).
    """
    _check_rho(rho)
    if _monte_carlo(g, m):
        out = _population_coefficients_mc(g, rho, motif, m, seed)
    else:
        out = _population_coefficients_block(g, rho, motif)
    if out.xi1 < 1e-10 * rho ** motif.s:
        raise DegeneracyError(
            f"degenerate linear projection: xi1={out.xi1:.3e} below 1e-10*rho^s; "
            "the expansion does not apply")
    return out


def _population_coefficients_mc(g: Graphon, rho: float, motif: Motif,
                                m: int, seed: int) -> PopulationCoefficients:
    r = motif.r
    rng = stream(seed, "population-coefficients")
    mu = population_moment(g, rho, motif, m=m, seed=substream_seed(seed, "pop-coeff-mu")).value

    x = rng.random(m)
    y = rng.random(m)

    def g1_draw() -> tuple[np.ndarray, np.ndarray]:
        """One single-draw replicate of g1 at x and at y."""
        tx = rng.random((m, r - 1))
        ty = rng.random((m, r - 1))
        hx = _containment_given(motif, rho, g.evaluate, np.column_stack([x, tx]))
        hy = _containment_given(motif, rho, g.evaluate, np.column_stack([y, ty]))
        return hx - mu, hy - mu

    a1, b1 = g1_draw()
    a2, b2 = g1_draw()
    a3, _ = g1_draw()

    sq = a1 * a2
    cu = a1 * a2 * a3
    # h2(x, y): conditional average with both first coordinates fixed.
    t2 = rng.random((m, r - 2))
    h2 = _containment_given(motif, rho, g.evaluate, np.column_stack([x, y, t2]))
    a4, b4 = g1_draw()
    bracket = h2 - mu - a4 - b4
    prod = a3 * b1 * bracket

    def mean_se(v: np.ndarray) -> tuple[float, float]:
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(m))

    xi1_sq, se_sq = mean_se(sq)
    e3, se3 = mean_se(cu)
    e112, se112 = mean_se(prod)
    g1_mean, se_g1 = mean_se(a1)
    return PopulationCoefficients(
        xi1=math.sqrt(max(xi1_sq, 0.0)), xi1_sq=xi1_sq,
        e_g1_cubed=e3, e_g1g1g2=e112,
        se_xi1_sq=se_sq, se_e_g1_cubed=se3, se_e_g1g1g2=se112,
        method="monte-carlo", g1_mean=g1_mean, se_g1_mean=se_g1,
    )
