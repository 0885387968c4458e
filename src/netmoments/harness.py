"""Experiment orchestration: Monte-Carlo truths, accuracy, coverage, sparsity.

All experiments are driven by one JSON-loadable config and emit flat
records ``(method, graphon, motif, n, rho, rep, metric, value)`` that
serialize to CSV.  Randomness is derived per replicate from labeled
substreams of the config seed, so reruns reproduce bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .adjacency import AdjacencyMatrix, _check_keys, _integer
from .bootstrap import (MAX_DROP_FRACTION, _studentized, resample_distribution,
                        subsample_distribution)
from .edgeworth import DEFAULT_GRID, EdgeworthCoefficients, expansion_cdf
from .errors import DegeneracyError, DegenerateReplicatesError
from .graphon import (Graphon, MomentEstimate, graphon_from_config,
                      population_moment, sample_graph, sample_graph_block)
from .inference import ConfidenceInterval, confidence_interval, one_sample_test
from .moments import _stack_block, compute_stats, motif_counts_block
from .motif import Motif, motif_from_config
from .rng import substream_seed

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "TrueCdf",
    "resolve_rho",
    "population_mean",
    "monte_carlo_true_cdf",
    "sup_grid_error",
    "run_accuracy_experiment",
    "run_coverage_experiment",
    "run_sparsity_sweep",
    "run_power_experiment",
    "effective_sample_size_check",
    "summarize_coverage",
    "write_records_csv",
    "METHODS",
]

METHODS = ("edgeworth_empirical", "normal", "subsample", "resample")

_METRICS = ("sup_error", "coverage", "length", "time_seconds", "power", "degenerate")

_RHO_SYMBOLS = {
    "1": lambda n: 1.0,
    "n^-1/4": lambda n: n ** -0.25,
    "n^-1/2": lambda n: n ** -0.5,
    "n^-1": lambda n: 1.0 / n,
}


def resolve_rho(spec, n: int) -> float:
    """Resolve a sparsity spec against ``n``: a symbol, or a number or its string."""
    if isinstance(spec, bool) or not isinstance(spec, (int, float, str)):
        raise ValueError(f"rho spec must be a number or string, got {type(spec).__name__}")
    try:
        value = _RHO_SYMBOLS[spec](n) if spec in _RHO_SYMBOLS else float(spec)
    except ValueError:
        raise ValueError(f"unknown rho spec {spec!r}; use a number or one of "
                         f"{sorted(_RHO_SYMBOLS)}") from None
    if not (0.0 < value <= 1.0):
        raise ValueError(f"rho resolves to {value}, outside (0, 1]")
    return value


@dataclass
class ExperimentConfig:
    """One experiment's settings, all checked here however they were given;
    the fields are the JSON keys of :meth:`from_dict` (``n`` for ``n_list``)."""

    graphon: Graphon
    motif: Motif
    n_list: list[int]
    rho: object  # number, symbol or numeric string, or a list of them (sparsity sweeps)
    seed: int
    n_mc: int = 100_000
    n_boot: int = 500
    repetitions: int = 30
    methods: tuple[str, ...] = ("edgeworth_empirical", "normal")
    output: str | None = None

    def __post_init__(self):
        ns = [self.n_list] if np.ndim(self.n_list) == 0 else list(self.n_list)
        self.n_list = [_integer("n", v) for v in ns]
        if any(n < 2 for n in self.n_list):
            raise ValueError("all n must be >= 2")
        _integer("seed", self.seed)
        for key, low in (("n_mc", 1_000), ("repetitions", 1), ("n_boot", 1)):
            if _integer(key, getattr(self, key)) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if isinstance(self.methods, str) or not isinstance(self.methods, Sequence):
            raise ValueError(f"methods must be a list of method names, got {self.methods!r}")
        self.methods = tuple(self.methods)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if not isinstance(self.output, (str, type(None))):
            raise ValueError(f"output must be a path string or null, got {self.output!r}")
        for n in self.n_list:
            self.rho_values(n)  # every rho spec must resolve at every n

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Build ``graphon`` and ``motif`` from their specs; every other
        key of the JSON object goes straight to the field of its name."""
        if not isinstance(raw, Mapping):
            raise ValueError(f"a config must be a JSON object, got {type(raw).__name__}")
        by_key = {"n" if f.name == "n_list" else f.name: f for f in fields(cls)}
        _check_keys(raw, by_key, [key for key, f in by_key.items() if f.default is MISSING],
                    "config")
        kwargs = {by_key[key].name: value for key, value in raw.items()}
        kwargs["graphon"] = graphon_from_config(kwargs["graphon"])
        kwargs["motif"] = motif_from_config(kwargs["motif"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def rho_values(self, n: int) -> list[float]:
        specs = self.rho if isinstance(self.rho, list) else [self.rho]
        return [resolve_rho(s, n) for s in specs]

    def single_rho(self, n: int) -> float:
        if isinstance(self.rho, list):
            raise ValueError("this experiment needs a single rho, got a list")
        return resolve_rho(self.rho, n)


@dataclass(frozen=True)
class ExperimentRecord:
    method: str
    graphon: str
    motif: str
    n: int
    rho: float
    rep: int
    metric: str
    value: float

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.metric in ("coverage", "power", "degenerate") and not (0.0 <= self.value <= 1.0):
            raise ValueError(f"{self.metric} must lie in [0, 1], got {self.value}")
        if self.metric in ("sup_error", "length", "time_seconds") and not (self.value >= 0.0):
            raise ValueError(f"{self.metric} must be nonnegative, got {self.value}")


def write_records_csv(records, path) -> None:
    """Write records with the fixed header; UTF-8, '.' decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "graphon", "motif", "n", "rho", "rep", "metric", "value"])
        for rec in records:
            writer.writerow([rec.method, rec.graphon, rec.motif, rec.n,
                             repr(rec.rho), rec.rep, rec.metric, repr(rec.value)])


def sup_grid_error(approx, truth) -> float:
    """Largest absolute CDF difference over an aligned grid."""
    approx = np.asarray(approx, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if approx.shape != truth.shape:
        raise ValueError(f"grid length mismatch: {approx.shape} vs {truth.shape}")
    return float(np.abs(approx - truth).max())


def population_mean(g: Graphon, rho: float, motif: Motif, n_mc: int = 100_000,
                    seed: int = 0) -> MomentEstimate:
    """The centering moment for truths, from :func:`population_moment`.

    Block models are exact.  Otherwise the Monte-Carlo size follows the
    truth size (``100 * sqrt(n_mc)``, at least 10^4) so centering error
    stays below the truth's own resolution.
    """
    m = max(10_000, math.ceil(100.0 * math.sqrt(n_mc)))
    return population_moment(g, rho, motif, m=m, seed=substream_seed(seed, "population-mean"))


@dataclass(frozen=True)
class TrueCdf:
    """Monte-Carlo approximation of the studentized moment's CDF on a grid."""

    grid: np.ndarray
    values: np.ndarray
    n_total: int
    n_degenerate: int
    t_mean: float
    t_sd: float


def _check_degenerate_fraction(max_degenerate_fraction: float) -> None:
    """A truth's degenerate cap must lie in [0, 1] (NaN does not)."""
    if not 0.0 <= max_degenerate_fraction <= 1.0:
        raise ValueError(f"max_degenerate_fraction must lie in [0, 1], "
                         f"got {max_degenerate_fraction}")


def monte_carlo_true_cdf(g: Graphon, rho: float, motif: Motif, n: int,
                         n_mc: int, seed: int, mu: float | None = None,
                         max_degenerate_fraction: float = 0.01) -> TrueCdf:
    """Sample ``n_mc`` networks and tabulate the studentized moment's CDF on ``DEFAULT_GRID``.

    Replicate ``k`` is the network ``sample_graph(g, n, rho,
    substream_seed(seed, "mc-truth", k))``, centred at ``mu`` (default:
    :func:`population_mean`).  The bootstraps' replicate engine samples,
    counts and studentizes the networks in blocks, in the calling thread:
    two workers were slower than one at every size the paper's protocols
    run.  Every network keeps its own stream, so the bytes do not depend
    on the block size.  Replicates with a zero variance estimate are
    skipped and counted; more than ``max_degenerate_fraction`` of them
    (the message says to raise it), or all of them, raise
    ``DegenerateReplicatesError``; a cap outside [0, 1] raises ``ValueError``.
    """
    _check_degenerate_fraction(max_degenerate_fraction)
    if mu is None:
        mu = population_mean(g, rho, motif, n_mc=n_mc, seed=seed).value

    block = _stack_block(n)
    blocks = (motif_counts_block(sample_graph_block(g, n, rho, [
        substream_seed(seed, "mc-truth", k) for k in range(k0, min(k0 + block, n_mc))]), motif)
        for k0 in range(0, n_mc, block))
    try:
        F = _studentized(n_mc, n, blocks, motif, mu, max_degenerate_fraction, "truth")
    except DegenerateReplicatesError as exc:
        if exc.n_dropped == exc.n_total:
            raise  # no cap admits a truth with nothing to tabulate
        raise DegenerateReplicatesError(
            f"{exc}; raise max_degenerate_fraction (--max-degenerate-fraction on the CLI)",
            n_dropped=exc.n_dropped, n_total=exc.n_total) from exc
    return TrueCdf(grid=DEFAULT_GRID, values=F.evaluate(DEFAULT_GRID), n_total=n_mc,
                   n_degenerate=F.n_dropped, t_mean=float(F.samples.mean()),
                   t_sd=float(F.samples.std(ddof=1)))


def _bootstrap(method: str, A: AdjacencyMatrix, cfg: ExperimentConfig, seed: int):
    """The named bootstrap's replicate distribution; sub-samples take n/2 nodes."""
    if method == "subsample":
        return subsample_distribution(A, cfg.motif, n_star=A.n // 2, B=cfg.n_boot, seed=seed)
    return resample_distribution(A, cfg.motif, B=cfg.n_boot, seed=seed)


def _networks(cfg: ExperimentConfig, label: str, points):
    """The one sampling loop of every protocol: yields ``(n, rho, key, mu, networks)``.

    ``points(n)`` lists the ``(rho, key)`` pairs run at ``n``.  ``mu`` is
    :func:`population_mean` at ``rho``, and ``networks`` lazily draws
    repetition ``rep`` as ``sample_graph`` from stream ``(label-rep, *key,
    rep)``; read it before asking for the next point.
    """
    for n in cfg.n_list:
        for rho, key in points(n):
            mu = population_mean(cfg.graphon, rho, cfg.motif, n_mc=cfg.n_mc, seed=cfg.seed).value
            yield n, rho, key, mu, (
                sample_graph(cfg.graphon, n, rho,
                             substream_seed(cfg.seed, f"{label}-rep", *key, rep))
                for rep in range(cfg.repetitions))


def _experiment(cfg: ExperimentConfig, label: str, points, evaluator) -> list[ExperimentRecord]:
    """The one loop of Simulations 1-3, over (n, rho, rep, method).

    Samples come from :func:`_networks` with the same ``label`` and
    ``points``; bootstrap streams are keyed ``(label-boot, *key, rep,
    method)``.  ``evaluator(n, rho, mu)`` does the per-(n, rho) set-up
    and returns ``evaluate(A, method, boot_seed)``: the method's metrics
    for sample ``A``, recorded with its wall-clock time, or a
    ``DegeneracyError`` (as from a bootstrap that drops too many
    replicates), recorded as ``degenerate``; ``evaluator``'s ends the run.
    """
    records: list[ExperimentRecord] = []
    for n, rho, key, mu, networks in _networks(cfg, label, points):
        evaluate = evaluator(n, rho, mu)
        for rep, A in enumerate(networks):
            for method in cfg.methods:
                boot_seed = substream_seed(cfg.seed, f"{label}-boot", *key, rep, method)
                base = dict(method=method, graphon=cfg.graphon.name,
                            motif=cfg.motif.name or "custom", n=n, rho=rho, rep=rep)
                t0 = time.perf_counter()
                try:
                    metrics = evaluate(A, method, boot_seed)
                except DegeneracyError:
                    records.append(ExperimentRecord(metric="degenerate", value=1.0, **base))
                    continue
                elapsed = time.perf_counter() - t0
                for metric, value in (*metrics.items(), ("time_seconds", elapsed)):
                    records.append(ExperimentRecord(metric=metric, value=value, **base))
    return records


def run_accuracy_experiment(cfg: ExperimentConfig, threads: int = 1,
                            max_degenerate_fraction: float = 0.01) -> list[ExperimentRecord]:
    """Simulations 1 and 3: sup-grid CDF approximation error per method.

    For each ``n`` and each rho of the config (one value, or a sparsity
    sweep's list): build the Monte-Carlo truth, then per repetition sample
    one network and record every method's sup-grid error and wall-clock
    time, or ``degenerate`` (for example, too sparse for the motif).
    ``threads`` has no effect; it is kept because the benchmark passes it.
    """
    def evaluator(n, rho, mu):
        truth = monte_carlo_true_cdf(
            cfg.graphon, rho, cfg.motif, n, cfg.n_mc,
            seed=substream_seed(cfg.seed, "truth", n, repr(rho)), mu=mu,
            max_degenerate_fraction=max_degenerate_fraction)

        def evaluate(A, method, boot_seed):
            if method == "normal":
                approx = ndtr(DEFAULT_GRID)
            elif method == "edgeworth_empirical":
                stats = compute_stats(A, cfg.motif)
                approx = expansion_cdf(EdgeworthCoefficients.from_moment_stats(stats),
                                       DEFAULT_GRID)
            else:
                approx = _bootstrap(method, A, cfg, boot_seed).evaluate(DEFAULT_GRID)
            return {"sup_error": sup_grid_error(approx, truth.values)}
        return evaluate
    return _experiment(cfg, "accuracy",
                       lambda n: [(rho, (n, repr(rho))) for rho in cfg.rho_values(n)],
                       evaluator)


run_sparsity_sweep = run_accuracy_experiment


def run_coverage_experiment(cfg: ExperimentConfig, alpha: float = 0.2) -> list[ExperimentRecord]:
    """Simulation 2: confidence-interval coverage, length, and time.

    Each repetition samples one network, builds each method's two-sided
    ``1 - alpha`` interval, and records whether it covers the population
    moment.  Bootstrap intervals studentize with the full-sample
    variance estimate and empirical replicate quantiles.  A method's time
    covers all it computes from the sample, moment statistics included.
    """
    def evaluator(n, rho, mu):
        def evaluate(A, method, boot_seed):
            stats = compute_stats(A, cfg.motif)
            if method in ("subsample", "resample"):
                if stats.degenerate:
                    raise DegeneracyError("degenerate sample; cannot studentize")
                F = _bootstrap(method, A, cfg, boot_seed)
                lo = stats.u_hat - F.quantile(1.0 - alpha / 2.0) * stats.s_hat
                hi = stats.u_hat - F.quantile(alpha / 2.0) * stats.s_hat
                # The samples are sorted and quantile is monotone, so lo <= hi.
                ci = ConfidenceInterval(lo=lo, hi=hi, alpha=alpha, method=method)
            else:
                ci = confidence_interval(
                    stats, alpha, method="normal" if method == "normal" else "edgeworth")
            return {"coverage": float(ci.covers(mu)), "length": ci.length}
        return evaluate
    return _experiment(cfg, "coverage", lambda n: [(cfg.single_rho(n), (n,))], evaluator)


def summarize_coverage(records) -> dict:
    """Per-method mean and standard deviation of each coverage metric."""
    out: dict = {}
    for metric in ("coverage", "length", "time_seconds"):
        for rec in records:
            if rec.metric != metric:
                continue
            out.setdefault(rec.method, {}).setdefault(metric, []).append(rec.value)
    summary = {}
    for method, metrics in out.items():
        summary[method] = {}
        for metric, vals in metrics.items():
            arr = np.asarray(vals)
            summary[method][metric] = (float(arr.mean()),
                                       float(arr.std(ddof=1)) if arr.size > 1 else 0.0)
    return summary


def run_power_experiment(cfg: ExperimentConfig, offsets, alpha: float = 0.2) -> list[dict]:
    """Empirical power of the one-sample test at null offsets from mu_n.

    Returns one row per (n, offset) with the rejection rate at level
    ``alpha``.  No threshold is asserted; this reports the curve.
    """
    rows: list[dict] = []
    for n, rho, _, mu, networks in _networks(cfg, "power",
                                             lambda n: [(cfg.single_rho(n), (n,))]):
        stats_list = [s for s in (compute_stats(A, cfg.motif) for A in networks)
                      if not s.degenerate]
        for offset in offsets:
            c_n = mu + offset
            rejections = sum(
                one_sample_test(s, c_n).p_value <= alpha for s in stats_list)
            rows.append({"n": n, "rho": rho, "offset": float(offset),
                         "power": rejections / max(1, len(stats_list)),
                         "repetitions": len(stats_list)})
    return rows


def effective_sample_size_check(g: Graphon, rho: float, motif: Motif, n: int,
                                n_mc: int, n_boot: int, repetitions: int,
                                seed: int) -> tuple[int, int]:
    """Count repetitions where sub-sampling tracks the reduced-size truth.

    With ``n_star = n/2``, the sub-sampling bootstrap approximates the
    distribution of the statistic at effective size
    ``m = n_star * (1 - n_star/n)``; this returns how many of the
    repetitions put the bootstrap CDF strictly closer (sup-grid) to the
    truth at ``m`` than to the truth at ``n_star``, on ``DEFAULT_GRID``.
    Both truths take the bootstrap's own degenerate cap,
    ``MAX_DROP_FRACTION``.  The settings are checked as an
    :class:`ExperimentConfig` (so ``n_mc`` is at least 1000).

    For small ``n`` the truth at ``m = n/4`` is mostly degenerate (the
    triangle on the paper block model below n of about 44, the
    smooth-graphon V-shape at n = 24): the ``DegenerateReplicatesError``
    then names the size that failed, and only a larger ``n`` helps.
    """
    cfg = ExperimentConfig(graphon=g, motif=motif, n_list=[n], rho=rho, seed=seed,
                           n_mc=n_mc, n_boot=n_boot, repetitions=repetitions)
    n_star = n // 2
    m_eff = round(n_star * (1.0 - n_star / n))
    closer = 0
    for _, _, _, mu, networks in _networks(cfg, "ess", lambda _: [(rho, ())]):
        truths = []
        for size, what, label in ((m_eff, "m", "ess-true-eff"), (n_star, "n*", "ess-true-star")):
            try:
                truths.append(monte_carlo_true_cdf(
                    g, rho, motif, size, n_mc, seed=substream_seed(seed, label), mu=mu,
                    max_degenerate_fraction=MAX_DROP_FRACTION))
            except DegenerateReplicatesError as exc:
                raise DegenerateReplicatesError(
                    f"{exc.n_dropped} of {exc.n_total} truth replicates were degenerate "
                    f"(above the {MAX_DROP_FRACTION:.0%} cap); the truth at {what} = {size} "
                    f"fails at n = {n}: use a larger n",
                    n_dropped=exc.n_dropped, n_total=exc.n_total) from exc
        for rep, A in enumerate(networks):
            F = _bootstrap("subsample", A, cfg, substream_seed(seed, "ess-boot", rep))
            vals = F.evaluate(DEFAULT_GRID)
            d_eff, d_star = (sup_grid_error(vals, t.values) for t in truths)
            closer += d_eff < d_star
    return closer, repetitions
