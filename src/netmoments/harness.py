"""Experiment orchestration: Monte-Carlo truths, accuracy, coverage, sparsity.

All experiments are driven by one JSON-loadable config and emit flat
records ``(method, graphon, motif, n, rho, rep, metric, value)`` that
serialize to CSV.  Randomness is derived per replicate from labeled
substreams of the config seed, so reruns (including threaded ones)
reproduce bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .adjacency import AdjacencyMatrix
from .bootstrap import (MAX_DROP_FRACTION, _studentized, resample_distribution,
                        subsample_distribution)
from .edgeworth import DEFAULT_GRID, EdgeworthCoefficients, expansion_cdf
from .errors import DegenerateReplicatesError
from .graphon import (Graphon, MomentEstimate, graphon_from_config,
                      population_moment, sample_graph, sample_graph_block)
from .inference import ConfidenceInterval, confidence_interval, one_sample_test
from .moments import compute_stats
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
    """Resolve a literal or symbolic sparsity spec against ``n``."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        value = float(spec)
    elif isinstance(spec, str):
        try:
            value = _RHO_SYMBOLS[spec](n)
        except KeyError:
            raise ValueError(
                f"unknown rho spec {spec!r}; use a number or one of "
                f"{sorted(_RHO_SYMBOLS)}") from None
    else:
        raise ValueError(f"rho spec must be a number or string, got {type(spec).__name__}")
    if not (0.0 < value <= 1.0):
        raise ValueError(f"rho resolves to {value}, outside (0, 1]")
    return value


_CONFIG_KEYS = {"graphon", "motif", "n", "rho", "n_mc", "n_boot",
                "repetitions", "seed", "methods", "grid", "output"}


@dataclass
class ExperimentConfig:
    """One experiment's settings; see :meth:`from_dict` for the JSON form."""

    graphon: Graphon
    motif: Motif
    n_list: list[int]
    rho: object  # literal, symbol, or list of either (sparsity sweeps)
    seed: int
    n_mc: int = 100_000
    n_boot: int = 500
    repetitions: int = 30
    methods: tuple[str, ...] = ("edgeworth_empirical", "normal")
    grid: np.ndarray = field(default_factory=lambda: DEFAULT_GRID.copy())
    output: str | None = None

    def __post_init__(self):
        self.n_list = [int(v) for v in np.atleast_1d(self.n_list)]
        if any(n < 2 for n in self.n_list):
            raise ValueError("all n must be >= 2")
        if self.n_mc < 1_000:
            raise ValueError(f"n_mc must be >= 1000, got {self.n_mc}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.n_boot < 1:
            raise ValueError("n_boot must be >= 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.size < 1 or (np.diff(self.grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"graphon", "motif", "n", "rho", "seed"} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        kwargs = dict(
            graphon=graphon_from_config(raw["graphon"]),
            motif=motif_from_config(raw["motif"]),
            n_list=raw["n"],
            rho=raw["rho"],
            seed=int(raw["seed"]),
        )
        for key in ("n_mc", "n_boot", "repetitions", "output"):
            if key in raw:
                kwargs[key] = raw[key]
        if "methods" in raw:
            kwargs["methods"] = tuple(raw["methods"])
        if "grid" in raw:
            kwargs["grid"] = raw["grid"]
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
        if self.metric in ("sup_error", "length", "time_seconds") and self.value < 0.0:
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
                    seed: int = 0, cache_dir=None) -> MomentEstimate:
    """The centering moment for truths, from :func:`population_moment`.

    Block models are exact.  Otherwise the Monte-Carlo size follows the
    truth size (``100 * sqrt(n_mc)``, at least 10^4) so centering error
    stays below the truth's own resolution, and estimates for the
    built-in graphons can be cached on disk keyed by a content hash
    (custom evaluators have no faithful serialization).
    """
    m = max(10_000, math.ceil(100.0 * math.sqrt(n_mc)))
    cache_path = None
    if cache_dir is not None and g.kind in ("SmoothGraphon", "NonSmoothGraphon"):
        payload = json.dumps({"graphon": {"kind": g.kind}, "rho": rho, "m": m, "seed": seed,
                              "motif": motif.adjacency.tolist()}, sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:24]
        cache_path = Path(cache_dir) / f"mu-{digest}.json"
        if cache_path.exists():
            data = json.loads(cache_path.read_text())
            return MomentEstimate(value=data["value"],
                                  standard_error=data["standard_error"],
                                  method="monte-carlo")
    est = population_moment(g, rho, motif, m=m, seed=substream_seed(seed, "population-mean"))
    if cache_path is not None:
        _write_atomic(cache_path, json.dumps(
            {"value": est.value, "standard_error": est.standard_error}))
    return est


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``.

    Readers (including concurrent runs sharing a cache) see either no
    file or the complete one, never a partial write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class TrueCdf:
    """Monte-Carlo approximation of the studentized moment's CDF on a grid."""

    grid: np.ndarray
    values: np.ndarray
    n_total: int
    n_degenerate: int
    t_mean: float
    t_sd: float


def monte_carlo_true_cdf(g: Graphon, rho: float, motif: Motif, n: int,
                         n_mc: int, seed: int, grid=None,
                         mu: float | None = None,
                         max_degenerate_fraction: float = 0.01,
                         threads: int = 1) -> TrueCdf:
    """Sample ``n_mc`` networks and tabulate the studentized moment's CDF.

    Replicate ``k`` is the network ``sample_graph(g, n, rho,
    substream_seed(seed, "mc-truth", k))``, centred at ``mu`` (default:
    :func:`population_mean`).  The bootstraps' replicate engine samples,
    counts and studentizes the networks in blocks, ``threads`` workers
    taking whole blocks; every network keeps its own stream, so the
    bytes do not depend on the thread count or block size.  Replicates
    with a zero variance estimate are skipped and counted; more than
    ``max_degenerate_fraction`` of them (which can be raised), or all
    of them, raise ``DegenerateReplicatesError``.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    if mu is None:
        mu = population_mean(g, rho, motif, n_mc=n_mc, seed=seed).value

    def graphs(k0: int, k1: int) -> np.ndarray:
        return sample_graph_block(g, n, rho, [substream_seed(seed, "mc-truth", k)
                                              for k in range(k0, k1)])

    F = _studentized(n_mc, n, graphs, motif, mu, max_degenerate_fraction, "truth",
                     threads=threads)
    return TrueCdf(grid=grid, values=F.evaluate(grid), n_total=n_mc,
                   n_degenerate=F.n_dropped, t_mean=float(F.samples.mean()),
                   t_sd=float(F.samples.std(ddof=1)))


def _bootstrap(method: str, A: AdjacencyMatrix, cfg: ExperimentConfig, seed: int):
    """The named bootstrap's replicate distribution; sub-samples take n/2 nodes."""
    if method == "subsample":
        return subsample_distribution(A, cfg.motif, n_star=A.n // 2, B=cfg.n_boot, seed=seed)
    return resample_distribution(A, cfg.motif, B=cfg.n_boot, seed=seed)


def _experiment(cfg: ExperimentConfig, label: str, points, evaluator,
                cache_dir) -> list[ExperimentRecord]:
    """The one loop of Simulations 1-3, over (n, rho, rep, method).

    ``points(n)`` lists the ``(rho, key)`` pairs run at ``n``; their
    streams are keyed ``(label-rep, *key, rep)`` and ``(label-boot, *key,
    rep, method)``.  ``evaluator(n, rho, mu)`` does the per-(n, rho)
    set-up and returns ``evaluate(A, method, boot_seed)``: the method's
    metrics for sample ``A``, or None when it is degenerate (as is a
    bootstrap that drops too many replicates).  Metrics are recorded with
    the method's wall-clock time.
    """
    records: list[ExperimentRecord] = []
    for n in cfg.n_list:
        for rho, key in points(n):
            mu = population_mean(cfg.graphon, rho, cfg.motif, n_mc=cfg.n_mc,
                                 seed=cfg.seed, cache_dir=cache_dir).value
            evaluate = evaluator(n, rho, mu)
            for rep in range(cfg.repetitions):
                A = sample_graph(cfg.graphon, n, rho,
                                 substream_seed(cfg.seed, f"{label}-rep", *key, rep))
                for method in cfg.methods:
                    boot_seed = substream_seed(cfg.seed, f"{label}-boot", *key, rep, method)
                    base = dict(method=method, graphon=cfg.graphon.name,
                                motif=cfg.motif.name or "custom", n=n, rho=rho, rep=rep)
                    t0 = time.perf_counter()
                    try:
                        metrics = evaluate(A, method, boot_seed)
                    except DegenerateReplicatesError:
                        metrics = None
                    elapsed = time.perf_counter() - t0
                    if metrics is None:
                        records.append(ExperimentRecord(metric="degenerate", value=1.0, **base))
                        continue
                    for metric, value in (*metrics.items(), ("time_seconds", elapsed)):
                        records.append(ExperimentRecord(metric=metric, value=value, **base))
    return records


def run_accuracy_experiment(cfg: ExperimentConfig, threads: int = 1,
                            cache_dir=None,
                            max_degenerate_fraction: float = 0.01) -> list[ExperimentRecord]:
    """Simulations 1 and 3: sup-grid CDF approximation error per method.

    For each ``n`` and each rho of the config (one value, or a sparsity
    sweep's list): build the Monte-Carlo truth, then per repetition sample
    one network and record every method's sup-grid error and wall-clock
    time, or ``degenerate`` (for example, too sparse for the motif).
    """
    def evaluator(n, rho, mu):
        truth = monte_carlo_true_cdf(
            cfg.graphon, rho, cfg.motif, n, cfg.n_mc,
            seed=substream_seed(cfg.seed, "truth", n, repr(rho)),
            grid=cfg.grid, mu=mu,
            max_degenerate_fraction=max_degenerate_fraction, threads=threads)

        def evaluate(A, method, boot_seed):
            if method == "normal":
                approx = ndtr(cfg.grid)
            elif method == "edgeworth_empirical":
                stats = compute_stats(A, cfg.motif)
                if stats.degenerate:
                    return None
                approx = expansion_cdf(EdgeworthCoefficients.from_moment_stats(stats),
                                       cfg.grid)
            else:
                approx = _bootstrap(method, A, cfg, boot_seed).evaluate(cfg.grid)
            return {"sup_error": sup_grid_error(approx, truth.values)}
        return evaluate
    return _experiment(cfg, "accuracy",
                       lambda n: [(rho, (n, repr(rho))) for rho in cfg.rho_values(n)],
                       evaluator, cache_dir)


run_sparsity_sweep = run_accuracy_experiment


def run_coverage_experiment(cfg: ExperimentConfig, alpha: float = 0.2,
                            cache_dir=None) -> list[ExperimentRecord]:
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
            if stats.degenerate:
                return None
            if method in ("subsample", "resample"):
                F = _bootstrap(method, A, cfg, boot_seed)
                lo = stats.u_hat - F.quantile(1.0 - alpha / 2.0) * stats.s_hat
                hi = stats.u_hat - F.quantile(alpha / 2.0) * stats.s_hat
                ci = ConfidenceInterval(lo=min(lo, hi), hi=max(lo, hi),
                                        alpha=alpha, method=method)
            else:
                ci = confidence_interval(
                    stats, alpha, method="normal" if method == "normal" else "edgeworth")
            return {"coverage": float(ci.covers(mu)), "length": ci.length}
        return evaluate
    return _experiment(cfg, "coverage", lambda n: [(cfg.single_rho(n), (n,))],
                       evaluator, cache_dir)


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


def run_power_experiment(cfg: ExperimentConfig, offsets, alpha: float = 0.2,
                         cache_dir=None) -> list[dict]:
    """Empirical power of the one-sample test at null offsets from mu_n.

    Returns one row per (n, offset) with the rejection rate at level
    ``alpha``.  No threshold is asserted; this reports the curve.
    """
    rows: list[dict] = []
    for n in cfg.n_list:
        rho = cfg.single_rho(n)
        mu = population_mean(cfg.graphon, rho, cfg.motif, n_mc=cfg.n_mc,
                             seed=cfg.seed, cache_dir=cache_dir).value
        stats_list = []
        for rep in range(cfg.repetitions):
            A = sample_graph(cfg.graphon, n, rho,
                             substream_seed(cfg.seed, "power-rep", n, rep))
            stats = compute_stats(A, cfg.motif)
            if not stats.degenerate:
                stats_list.append(stats)
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
                                seed: int, threads: int = 1) -> tuple[int, int]:
    """Count repetitions where sub-sampling tracks the reduced-size truth.

    With ``n_star = n/2``, the sub-sampling bootstrap approximates the
    distribution of the statistic at effective size
    ``m = n_star * (1 - n_star/n)``; this returns how many of the
    repetitions put the bootstrap CDF strictly closer (sup-grid) to the
    truth at ``m`` than to the truth at ``n_star``, on ``DEFAULT_GRID``.
    Both truths take the bootstrap's own degenerate cap,
    ``MAX_DROP_FRACTION``.
    """
    n_star = n // 2
    m_eff = round(n_star * (1.0 - n_star / n))
    mu = population_mean(g, rho, motif, n_mc=n_mc, seed=seed).value
    truth_eff, truth_star = (
        monte_carlo_true_cdf(g, rho, motif, m, n_mc, seed=substream_seed(seed, label),
                             mu=mu, max_degenerate_fraction=MAX_DROP_FRACTION,
                             threads=threads)
        for m, label in ((m_eff, "ess-true-eff"), (n_star, "ess-true-star")))
    closer = 0
    for rep in range(repetitions):
        A = sample_graph(g, n, rho, substream_seed(seed, "ess-rep", rep))
        F = subsample_distribution(A, motif, n_star=n_star, B=n_boot,
                                   seed=substream_seed(seed, "ess-boot", rep))
        vals = F.evaluate(DEFAULT_GRID)
        d_eff = sup_grid_error(vals, truth_eff.values)
        d_star = sup_grid_error(vals, truth_star.values)
        closer += d_eff < d_star
    return closer, repetitions
