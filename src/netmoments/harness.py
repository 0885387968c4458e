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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .adjacency import AdjacencyMatrix
from .bootstrap import resample_distribution, subsample_distribution
from .edgeworth import DEFAULT_GRID, EdgeworthCoefficients, expansion_cdf
from .errors import DegeneracyError, DegenerateReplicatesError
from .graphon import (Graphon, MomentEstimate, graphon_from_config,
                      population_moment, sample_graph, sample_graph_block)
from .inference import ConfidenceInterval, confidence_interval, one_sample_test
from .moments import compute_stats, motif_counts_block, studentize
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


def _graphon_descriptor(g: Graphon):
    if g.is_block_model:
        return {"kind": "BlockModel", "pi": g.pi.tolist(), "B": g.B.tolist()}
    if g.kind in ("SmoothGraphon", "NonSmoothGraphon"):
        return {"kind": g.kind}
    return None  # custom evaluators have no faithful serialization


def population_mean(g: Graphon, rho: float, motif: Motif, n_mc: int = 100_000,
                    seed: int = 0, cache_dir=None) -> MomentEstimate:
    """The centering moment for truths: exact for block models, else Monte Carlo.

    The Monte-Carlo size follows the truth size (``100 * sqrt(n_mc)``,
    at least 10^4) so centering error stays below the truth's own
    resolution.  Estimates for serializable graphons can be cached on
    disk keyed by a content hash.
    """
    if g.is_block_model:
        return population_moment(g, rho, motif, method="exact")
    m = max(10_000, math.ceil(100.0 * math.sqrt(n_mc)))
    desc = _graphon_descriptor(g)
    cache_path = None
    if cache_dir is not None and desc is not None:
        payload = json.dumps({"graphon": desc, "rho": rho, "m": m, "seed": seed,
                              "motif": motif.adjacency.tolist()}, sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:24]
        cache_path = Path(cache_dir) / f"mu-{digest}.json"
        if cache_path.exists():
            data = json.loads(cache_path.read_text())
            return MomentEstimate(value=data["value"],
                                  standard_error=data["standard_error"],
                                  method="monte-carlo")
    est = population_moment(g, rho, motif, method="monte-carlo", m=m,
                            seed=substream_seed(seed, "population-mean"))
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


# Monte-Carlo truths sample and count networks in blocks of about this
# many adjacency entries (b * n^2), which keeps a block's float64
# temporaries within a few hundred kB per thread.
_TRUTH_BLOCK_ELEMENTS = 1 << 15


def monte_carlo_true_cdf(g: Graphon, rho: float, motif: Motif, n: int,
                         n_mc: int, seed: int, grid=None,
                         mu: float | None = None,
                         max_degenerate_fraction: float = 0.01,
                         threads: int = 1, cache_dir=None) -> TrueCdf:
    """Sample ``n_mc`` networks and tabulate the studentized moment's CDF.

    Replicate ``k`` is the network ``sample_graph(g, n, rho,
    substream_seed(seed, "mc-truth", k))``.  Networks are sampled and
    counted in blocks, and ``threads`` workers take whole blocks; since
    every network keeps its own stream, the result is byte-identical
    whatever the thread count or block size.

    Replicates whose variance estimate is exactly zero cannot be
    studentized; they are skipped and counted.  More than
    ``max_degenerate_fraction`` of them aborts the run (a near-degenerate
    configuration; the fraction can be raised deliberately).
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    if mu is None:
        mu = population_mean(g, rho, motif, n_mc=n_mc, seed=seed,
                             cache_dir=cache_dir).value
    t_vals = np.empty(n_mc, dtype=np.float64)
    degenerate = np.zeros(n_mc, dtype=bool)
    block = max(1, _TRUTH_BLOCK_ELEMENTS // (n * n))

    def run_block(k0: int) -> None:
        k1 = min(k0 + block, n_mc)
        seeds = [substream_seed(seed, "mc-truth", k) for k in range(k0, k1)]
        total, per = motif_counts_block(sample_graph_block(g, n, rho, seeds), motif)
        u_hat, _, s_sq, degen = studentize(total, per, n, motif.r)
        keep = ~degen
        degenerate[k0:k1] = degen
        t_vals[k0:k1][keep] = (u_hat[keep] - mu) / np.sqrt(s_sq[keep])

    starts = range(0, n_mc, block)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, starts))
    else:
        for k0 in starts:
            run_block(k0)

    n_degen = int(degenerate.sum())
    if n_degen > max_degenerate_fraction * n_mc:
        raise DegenerateReplicatesError(
            f"{n_degen} of {n_mc} truth replicates were degenerate "
            f"(> {max_degenerate_fraction:.1%}); near-degenerate configuration",
            n_dropped=n_degen, n_total=n_mc)
    kept = np.sort(t_vals[~degenerate])
    values = np.searchsorted(kept, grid, side="right") / kept.size
    return TrueCdf(grid=grid, values=values, n_total=n_mc, n_degenerate=n_degen,
                   t_mean=float(kept.mean()), t_sd=float(kept.std(ddof=1)))


def _method_grid_cdf(method: str, A: AdjacencyMatrix, motif: Motif, grid,
                     n_boot: int, boot_seed: int):
    """One method's grid CDF approximation, or None for a degenerate sample."""
    if method == "normal":
        return ndtr(grid)
    if method == "edgeworth_empirical":
        stats = compute_stats(A, motif)
        if stats.degenerate:
            return None
        return expansion_cdf(EdgeworthCoefficients.from_moment_stats(stats), grid)
    if method == "subsample":
        F = subsample_distribution(A, motif, n_star=A.n // 2, B=n_boot, seed=boot_seed)
        return F.evaluate(grid)
    if method == "resample":
        F = resample_distribution(A, motif, B=n_boot, seed=boot_seed)
        return F.evaluate(grid)
    raise ValueError(f"unknown method {method!r}")


def _accuracy_records(cfg: ExperimentConfig, n: int, rho: float,
                      records: list, threads: int, cache_dir,
                      max_degenerate_fraction: float,
                      on_degenerate: str) -> None:
    g_name, m_name = cfg.graphon.name, cfg.motif.name or "custom"
    mu = population_mean(cfg.graphon, rho, cfg.motif, n_mc=cfg.n_mc,
                         seed=cfg.seed, cache_dir=cache_dir).value
    truth = monte_carlo_true_cdf(
        cfg.graphon, rho, cfg.motif, n, cfg.n_mc,
        seed=substream_seed(cfg.seed, "truth", n, repr(rho)),
        grid=cfg.grid, mu=mu,
        max_degenerate_fraction=max_degenerate_fraction, threads=threads)
    for rep in range(cfg.repetitions):
        A = sample_graph(cfg.graphon, n, rho,
                         substream_seed(cfg.seed, "accuracy-rep", n, repr(rho), rep))
        for method in cfg.methods:
            boot_seed = substream_seed(cfg.seed, "accuracy-boot", n, repr(rho),
                                       rep, method)
            t0 = time.perf_counter()
            try:
                approx = _method_grid_cdf(method, A, cfg.motif, cfg.grid,
                                          cfg.n_boot, boot_seed)
            except DegenerateReplicatesError:
                approx = None
            elapsed = time.perf_counter() - t0
            base = dict(method=method, graphon=g_name, motif=m_name,
                        n=n, rho=rho, rep=rep)
            if approx is None:
                if on_degenerate == "raise":
                    raise DegeneracyError(
                        f"degenerate replicate: rep={rep}, n={n}, rho={rho}")
                records.append(ExperimentRecord(metric="degenerate", value=1.0, **base))
                continue
            records.append(ExperimentRecord(
                metric="sup_error", value=sup_grid_error(approx, truth.values), **base))
            records.append(ExperimentRecord(metric="time_seconds", value=elapsed, **base))


def run_accuracy_experiment(cfg: ExperimentConfig, threads: int = 1,
                            cache_dir=None,
                            max_degenerate_fraction: float = 0.01,
                            on_degenerate: str = "record") -> list[ExperimentRecord]:
    """Simulation 1: sup-grid CDF approximation error per method.

    For each ``n``: build the Monte-Carlo truth, then per repetition
    sample one network and record every method's sup-grid error and
    wall-clock time.  Replicates whose sample is degenerate are recorded
    as such (``on_degenerate="raise"`` propagates instead).
    """
    records: list[ExperimentRecord] = []
    for n in cfg.n_list:
        rho = cfg.single_rho(n)
        _accuracy_records(cfg, n, rho, records, threads, cache_dir,
                          max_degenerate_fraction, on_degenerate)
    return records


def run_coverage_experiment(cfg: ExperimentConfig, alpha: float = 0.2,
                            cache_dir=None) -> list[ExperimentRecord]:
    """Simulation 2: confidence-interval coverage, length, and time.

    Each repetition samples one network, builds each method's two-sided
    ``1 - alpha`` interval, and records whether it covers the population
    moment.  Bootstrap intervals studentize with the full-sample
    variance estimate and empirical replicate quantiles.
    """
    records: list[ExperimentRecord] = []
    g_name, m_name = cfg.graphon.name, cfg.motif.name or "custom"
    for n in cfg.n_list:
        rho = cfg.single_rho(n)
        mu = population_mean(cfg.graphon, rho, cfg.motif, n_mc=cfg.n_mc,
                             seed=cfg.seed, cache_dir=cache_dir).value
        for rep in range(cfg.repetitions):
            A = sample_graph(cfg.graphon, n, rho,
                             substream_seed(cfg.seed, "coverage-rep", n, rep))
            stats = compute_stats(A, cfg.motif)
            for method in cfg.methods:
                base = dict(method=method, graphon=g_name, motif=m_name,
                            n=n, rho=rho, rep=rep)
                t0 = time.perf_counter()
                ci = None
                if stats.degenerate:
                    pass
                elif method == "edgeworth_empirical":
                    ci = confidence_interval(stats, alpha, method="edgeworth")
                elif method == "normal":
                    ci = confidence_interval(stats, alpha, method="normal")
                else:
                    boot_seed = substream_seed(cfg.seed, "coverage-boot", n, rep, method)
                    try:
                        if method == "subsample":
                            F = subsample_distribution(A, cfg.motif, n_star=n // 2,
                                                       B=cfg.n_boot, seed=boot_seed)
                        else:
                            F = resample_distribution(A, cfg.motif, B=cfg.n_boot,
                                                      seed=boot_seed)
                        lo = stats.u_hat - F.quantile(1.0 - alpha / 2.0) * stats.s_hat
                        hi = stats.u_hat - F.quantile(alpha / 2.0) * stats.s_hat
                        ci = ConfidenceInterval(lo=min(lo, hi), hi=max(lo, hi),
                                                alpha=alpha, method=method)
                    except DegenerateReplicatesError:
                        ci = None
                elapsed = time.perf_counter() - t0
                if ci is None:
                    records.append(ExperimentRecord(metric="degenerate", value=1.0, **base))
                    continue
                records.append(ExperimentRecord(
                    metric="coverage", value=float(ci.covers(mu)), **base))
                records.append(ExperimentRecord(metric="length", value=ci.length, **base))
                records.append(ExperimentRecord(metric="time_seconds", value=elapsed, **base))
    return records


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


def run_sparsity_sweep(cfg: ExperimentConfig, threads: int = 1, cache_dir=None,
                       max_degenerate_fraction: float = 0.01) -> list[ExperimentRecord]:
    """Simulation 3: the accuracy experiment repeated across a rho list.

    Records are tagged with each resolved rho.  Configurations that
    degenerate (for example, too sparse for the motif to occur) are
    recorded as degenerate rather than crashing.
    """
    records: list[ExperimentRecord] = []
    for n in cfg.n_list:
        for rho in cfg.rho_values(n):
            _accuracy_records(cfg, n, rho, records, threads, cache_dir,
                              max_degenerate_fraction, on_degenerate="record")
    return records


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
                                seed: int, grid=None, threads: int = 1) -> tuple[int, int]:
    """Count repetitions where sub-sampling tracks the reduced-size truth.

    With ``n_star = n/2``, the sub-sampling bootstrap approximates the
    distribution of the statistic at effective size
    ``m = n_star * (1 - n_star/n)``; this returns how many of the
    repetitions put the bootstrap CDF strictly closer (sup-grid) to the
    truth at ``m`` than to the truth at ``n_star``.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    n_star = n // 2
    m_eff = round(n_star * (1.0 - n_star / n))
    mu = population_mean(g, rho, motif, n_mc=n_mc, seed=seed).value
    truth_eff = monte_carlo_true_cdf(g, rho, motif, m_eff, n_mc,
                                     seed=substream_seed(seed, "ess-true-eff"),
                                     grid=grid, mu=mu, threads=threads)
    truth_star = monte_carlo_true_cdf(g, rho, motif, n_star, n_mc,
                                      seed=substream_seed(seed, "ess-true-star"),
                                      grid=grid, mu=mu, threads=threads)
    closer = 0
    for rep in range(repetitions):
        A = sample_graph(g, n, rho, substream_seed(seed, "ess-rep", rep))
        F = subsample_distribution(A, motif, n_star=n_star, B=n_boot,
                                   seed=substream_seed(seed, "ess-boot", rep))
        vals = F.evaluate(grid)
        d_eff = sup_grid_error(vals, truth_eff.values)
        d_star = sup_grid_error(vals, truth_star.values)
        closer += d_eff < d_star
    return closer, repetitions
