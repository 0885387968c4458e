"""Output checks.  Each returns a list of failure messages; empty means pass.

None depends on the library's random-stream layout: truth CDFs are held
to a reference drawn by the benchmark's own sampler within a
Dvoretzky-Kiefer-Wolfowitz band, bootstrap runs to their own replicate
bookkeeping and a binomial coverage band, and observed-network requests
to independently computed statistics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

import reference as ref

REL_TOL = 1e-12
# Chance that a correct truth CDF (or the reference) leaves its DKW band.
DKW_DELTA = 1e-6


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_truth(grid, values, n_total: int, n_degenerate: int, cap: float,
                reference: dict, ref_grid) -> list[str]:
    """A Monte-Carlo truth CDF: shape, degenerate share and DKW distance."""
    values = np.asarray(values, dtype=np.float64)
    errs = []
    if not np.array_equal(np.asarray(grid, dtype=np.float64), np.asarray(ref_grid)):
        errs.append("truth grid differs from the reference grid")
        return errs
    if not np.isfinite(values).all() or (values < 0).any() or (values > 1).any():
        errs.append("truth CDF leaves [0, 1]")
    if (np.diff(values) < 0).any():
        errs.append("truth CDF decreases")
    if n_degenerate > cap * n_total:
        errs.append(f"degenerate share {n_degenerate}/{n_total} above cap {cap}")
    kept = n_total - n_degenerate
    if kept < 1:
        errs.append("no kept truth networks")
        return errs
    bound = (ref.dkw_epsilon(kept, DKW_DELTA)
             + ref.dkw_epsilon(reference["kept"], DKW_DELTA))
    dist = float(np.abs(values - np.asarray(reference["values"])).max())
    if dist > bound:
        errs.append(f"truth CDF is {dist:.4f} from the reference (DKW bound {bound:.4f})")
    return errs


def check_accuracy_records(records, truth_values, grid, methods, repetitions: int) -> list[str]:
    """Every repetition has each method; the normal error is recomputed exactly."""
    errs = []
    seen = {}
    for rec in records:
        seen.setdefault((rec.rep, rec.method), set()).add(rec.metric)
        if rec.metric == "sup_error" and rec.method == "normal":
            want = float(np.abs(ndtr(np.asarray(grid)) - np.asarray(truth_values)).max())
            if abs(rec.value - want) > 1e-12:
                errs.append(f"normal sup_error {rec.value!r} != recomputed {want!r}")
    for rep in range(repetitions):
        for m in methods:
            got = seen.get((rep, m))
            if got not in ({"sup_error", "time_seconds"}, {"degenerate"}):
                errs.append(f"rep {rep} method {m}: metrics {sorted(got or ())}")
    return errs


def check_bootstrap(samples, B: int, n_dropped: int, n_boot: int) -> list[str]:
    """Replicate bookkeeping of one bootstrap distribution."""
    samples = np.asarray(samples, dtype=np.float64)
    errs = []
    if B != n_boot - n_dropped or samples.size != B:
        errs.append(f"{samples.size} replicates kept (B={B}), expected "
                    f"{n_boot} - {n_dropped} dropped")
    if not np.isfinite(samples).all():
        errs.append("non-finite bootstrap replicate")
    return errs


def check_coverage_records(records, methods, repetitions: int) -> list[str]:
    """Coverage is 0/1, and Cornish-Fisher and normal intervals have equal length."""
    errs = []
    lengths: dict = {}
    seen = {}
    for rec in records:
        seen.setdefault((rec.rep, rec.method), set()).add(rec.metric)
        if rec.metric == "coverage" and rec.value not in (0.0, 1.0):
            errs.append(f"coverage value {rec.value!r}")
        if rec.metric == "length":
            if not rec.value >= 0.0:
                errs.append(f"interval length {rec.value!r}")
            lengths.setdefault(rec.rep, {})[rec.method] = rec.value
    for rep in range(repetitions):
        for m in methods:
            got = seen.get((rep, m))
            if got not in ({"coverage", "length", "time_seconds"}, {"degenerate"}):
                errs.append(f"rep {rep} method {m}: metrics {sorted(got or ())}")
    for rep, by in lengths.items():
        a, b = by.get("edgeworth_empirical"), by.get("normal")
        if a is not None and b is not None and abs(a - b) > REL_TOL * max(a, b):
            errs.append(f"rep {rep}: Cornish-Fisher length {a!r} != normal {b!r}")
    return errs


def check_coverage_rate(covered: dict, alpha: float) -> list[str]:
    """Each method's coverage rate lies in a wide binomial band around 1 - alpha.

    The band is five binomial standard deviations plus 0.15 for the
    finite-sample bias of the bootstrap and expansion intervals at n = 80.
    """
    errs = []
    p = 1.0 - alpha
    for method, hits in covered.items():
        if not hits:
            continue
        rate = sum(hits) / len(hits)
        half = 0.15 + 5.0 * math.sqrt(p * (1.0 - p) / len(hits))
        if abs(rate - p) > half:
            errs.append(f"{method}: coverage {rate:.3f} over {len(hits)} reps "
                        f"outside {p} +- {half:.3f}")
    return errs


def check_cli_output(out: dict, expected: dict) -> list[str]:
    """A request's printed JSON against the reference values it must carry."""
    errs = []
    for k, want in expected.items():
        if k not in out:
            errs.append(f"missing key {k!r}")
            continue
        got = out[k]
        if isinstance(want, float) and not isinstance(want, bool):
            if not isinstance(got, (int, float)) or not close(float(got), want):
                errs.append(f"{k}: {got!r} != reference {want!r}")
        elif got != want:
            errs.append(f"{k}: {got!r} != {want!r}")
    return errs
