"""Command-line interface.

Subcommands mirror the library: ``sample``, ``moments``, ``edgeworth``,
``test``, ``ci``, ``bootstrap``, and ``experiment accuracy|coverage|sparsity``.
Scalar results print as single-line JSON; tabular results go to CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import edgeworth as ew
from .adjacency import load_edge_list
from .bootstrap import resample_distribution, subsample_distribution
from .graphon import graphon_from_config, sample_graph
from .harness import (ExperimentConfig, resolve_rho, run_accuracy_experiment,
                      run_coverage_experiment, summarize_coverage, write_records_csv)
from .inference import confidence_interval, one_sample_test
from .moments import compute_stats
from .motif import motif_from_config


def _graphon_arg(value: str):
    if value.strip().startswith("{"):
        return graphon_from_config(json.loads(value))
    if value.endswith(".json"):
        return graphon_from_config(json.loads(Path(value).read_text()))
    return graphon_from_config(value)


def _motif_arg(value: str):
    if value.strip().startswith("{"):
        return motif_from_config(json.loads(value))
    return motif_from_config(value)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _cmd_sample(args) -> int:
    g = _graphon_arg(args.graphon)
    rho = resolve_rho(_maybe_number(args.rho), args.n)
    A = sample_graph(g, args.n, rho, args.seed)
    # Row-major nonzeros of the upper triangle: edges ordered by (i, j).
    i, j = np.nonzero(np.triu(A.a, 1))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in zip((i + 1).tolist(), (j + 1).tolist()))
    _emit({"n": A.n, "edges": A.edge_count, "rho": rho, "out": args.out})
    return 0


def _maybe_number(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def _stats_for(args):
    A = load_edge_list(args.graph)
    motif = _motif_arg(args.motif)
    return A, motif, compute_stats(A, motif)


def _cmd_moments(args) -> int:
    _, motif, stats = _stats_for(args)
    _emit({
        "n": stats.n, "motif": motif.name, "r": motif.r, "s": motif.s,
        "shape_class": motif.shape_class,
        "u_hat": stats.u_hat, "s_hat_sq": stats.s_hat_sq,
        "xi1_hat_sq": stats.xi1_hat_sq, "e_g1_cubed": stats.e_g1_cubed,
        "e_g1g1g2": stats.e_g1g1g2, "degenerate": stats.degenerate,
    })
    return 0


def _cmd_edgeworth(args) -> int:
    _, motif, stats = _stats_for(args)
    coeffs = ew.EdgeworthCoefficients.from_moment_stats(stats)
    grid = None
    if args.grid is not None:
        start, stop, step = args.grid
        grid = np.arange(start, stop + step / 2, step)
    grid, values = ew.evaluate_on_grid(coeffs, grid, clamp=args.clamp)
    ew.write_grid_csv(args.out, grid, values)
    _emit({"motif": motif.name, "n": stats.n, "xi1": coeffs.xi1,
           "e_g1_cubed": coeffs.e_g1_cubed, "e_g1g1g2": coeffs.e_g1g1g2,
           "out": args.out})
    return 0


def _cmd_test(args) -> int:
    _, motif, stats = _stats_for(args)
    res = one_sample_test(stats, args.null, alternative=args.alternative)
    _emit({"motif": motif.name, "n": stats.n, "c_n": res.c_n, "t_obs": res.t_obs,
           "p_value": res.p_value, "p_value_raw": res.p_value_raw,
           "u_hat": res.u_hat, "s_hat": res.s_hat, "alternative": res.alternative})
    return 0


def _cmd_ci(args) -> int:
    _, motif, stats = _stats_for(args)
    ci = confidence_interval(stats, args.alpha, method=args.method)
    _emit({"motif": motif.name, "n": stats.n, "lo": ci.lo, "hi": ci.hi,
           "alpha": ci.alpha, "method": ci.method, "length": ci.length,
           "note": ci.note})
    return 0


def _cmd_bootstrap(args) -> int:
    A = load_edge_list(args.graph)
    motif = _motif_arg(args.motif)
    if args.scheme == "subsample":
        n_star = args.nstar if args.nstar is not None else A.n // 2
        F = subsample_distribution(A, motif, n_star=n_star, B=args.B, seed=args.seed)
    else:
        F = resample_distribution(A, motif, B=args.B, seed=args.seed)
    qs = (0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "key", "value"])
        for i, v in enumerate(F.samples):
            writer.writerow(["replicate", i, repr(float(v))])
        for q in qs:
            writer.writerow(["quantile", q, repr(F.quantile(q))])
    _emit({"scheme": args.scheme, "B": F.B, "n_dropped": F.n_dropped,
           "quantiles": {str(q): F.quantile(q) for q in qs}, "out": args.out})
    return 0


def _cmd_experiment(args) -> int:
    # A flag this kind of run would ignore is rejected; one left unset keeps the default.
    options = {}
    for name, kinds in (("max_degenerate_fraction", ("accuracy", "sparsity")),
                        ("alpha", ("coverage",))):
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if value is not None and args.kind not in kinds:
            raise ValueError(f"{flag} has no effect on {args.kind} experiments, only "
                             f"on {' and '.join(kinds)}; drop {flag}")
        if value is not None:
            options[name] = value
    cfg = ExperimentConfig.from_json(args.config)
    out = args.out or cfg.output
    if out is None:
        raise ValueError("no output path: pass --out or set 'output' in the config")
    # Made before the run, so that a bad output path fails first; moved into place after.
    tmp = Path(f"{out}.{os.getpid()}.tmp")
    tmp.touch(exist_ok=False)
    try:
        for n in cfg.n_list:
            for rho in cfg.rho_values(n):
                ew.check_expansion_applicability(rho, n)
        if args.kind == "coverage":
            records = run_coverage_experiment(cfg, **options)
            _emit(summarize_coverage(records))
        else:
            records = run_accuracy_experiment(cfg, **options)
        write_records_csv(records, tmp)
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)
    _emit({"experiment": args.kind, "records": len(records), "out": out})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls:
    parsing returns a fresh namespace and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="netmoments",
        description="Network moment statistics, Edgeworth expansions, and inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a graph from a graphon, write an edge list")
    p.add_argument("--graphon", required=True,
                   help="built-in name, inline JSON, or path to a .json spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", default="1", help="number or symbol like n^-1/2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    for name, fn, extra in (
        ("moments", _cmd_moments, ()),
        ("edgeworth", _cmd_edgeworth, ("grid", "clamp", "out")),
        ("test", _cmd_test, ("null", "alternative")),
        ("ci", _cmd_ci, ("alpha", "method")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--graph", required=True, help="edge-list file (1-based ids)")
        p.add_argument("--motif", required=True, help="built-in name or inline JSON")
        if "grid" in extra:
            p.add_argument("--grid", type=float, nargs=3, metavar=("START", "STOP", "STEP"))
            p.add_argument("--clamp", action="store_true",
                           help="clip grid values to [0,1] (plotting only)")
            p.add_argument("--out", required=True, help="CSV of (x, value) pairs")
        if "null" in extra:
            p.add_argument("--null", type=float, required=True, help="null value c_n")
            p.add_argument("--alternative", default="two-sided",
                           choices=("two-sided", "greater", "less"))
        if "alpha" in extra:
            p.add_argument("--alpha", type=float, required=True)
            p.add_argument("--method", default="edgeworth", choices=("edgeworth", "normal"))
        p.set_defaults(func=fn)

    p = sub.add_parser("bootstrap", help="bootstrap the studentized moment")
    p.add_argument("--graph", required=True)
    p.add_argument("--motif", required=True)
    p.add_argument("--scheme", required=True, choices=("subsample", "resample"))
    p.add_argument("--nstar", type=int, default=None, help="sub-sample size (default n/2)")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV of replicates plus quantiles")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("experiment", help="run a simulation protocol from a JSON config")
    p.add_argument("kind", choices=("accuracy", "coverage", "sparsity"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="records CSV (overrides config output)")
    p.add_argument("--alpha", type=float, default=None,
                   help="coverage level (coverage only; default 0.2)")
    p.add_argument("--max-degenerate-fraction", type=float, default=None,
                   help="truth degeneracy cap (accuracy and sparsity only; default 0.01)")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    prefix = f"{parser.prog} {args.command}"
    # A library caveat (say, rho above 1/log n) prints as one stderr line
    # in the same form as an error, without Python's source-line echo.
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"{prefix}: warning: {message}\n"
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Every error a request can cause (a value argparse cannot check, a
        # degenerate sample or replicate set, a cost cap, an unreadable or
        # unwritable file) ends like a bad flag: one error line and exit
        # code 2.  The flags parsed, so no usage line is printed.
        parser.exit(2, f"{prefix}: error: {exc}\n")
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
