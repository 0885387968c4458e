"""Command-line interface.

Subcommands mirror the library: ``sample``, ``moments``, ``edgeworth``,
``test``, ``ci``, ``bootstrap``, and ``experiment accuracy|coverage|sparsity``.
Scalar results print as single-line JSON; tabular results go to CSV.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .harness import (ExperimentConfig, _check_degenerate_fraction, resolve_rho,
                      run_accuracy_experiment, run_coverage_experiment, summarize_coverage,
                      write_records_csv)
from .inference import confidence_interval, one_sample_test
from .moments import compute_stats
from .motif import motif_from_config


def _spec(value: str):
    """A ``--graphon`` or ``--motif`` value: inline JSON, a ``.json`` file, or a name."""
    if value.strip().startswith("{"):
        return json.loads(value)
    if value.endswith(".json"):
        return json.loads(Path(value).read_text())
    return value


def _emit(obj) -> None:
    print(json.dumps(obj))


@contextlib.contextmanager
def _claimed(out):
    """The output path ``out``, claimed before the work: yields a temporary
    file beside it, made at once so that a bad path fails first, and moved
    into place only when the block ends without error."""
    tmp = Path(f"{out}.{os.getpid()}.tmp")
    try:
        tmp.touch(exist_ok=False)
    except OSError as exc:  # named by the path the user gave
        raise OSError(exc.errno, exc.strerror, str(out)) from None
    try:
        yield tmp
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)


def _cmd_sample(args) -> int:
    g = graphon_from_config(_spec(args.graphon))
    rho = resolve_rho(args.rho, args.n)
    with _claimed(args.out) as tmp:
        A = sample_graph(g, args.n, rho, args.seed)
        # Row-major nonzeros of the upper triangle: edges ordered by (i, j).
        i, j = np.nonzero(np.triu(A.a, 1))
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in zip((i + 1).tolist(), (j + 1).tolist()))
    _emit({"n": A.n, "edges": A.edge_count, "rho": rho, "out": args.out})
    return 0


def _stats_for(args):
    A = load_edge_list(args.graph)
    motif = motif_from_config(_spec(args.motif))
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


def _grid(value):
    """The lattice of ``--grid START STOP STEP``, or the default one."""
    if value is None:
        return ew.DEFAULT_GRID
    start, stop, step = value
    if not np.isfinite(value).all() or step <= 0 or stop < start:
        raise ValueError(f"--grid needs finite START <= STOP and STEP > 0, "
                         f"got {start:g} {stop:g} {step:g}")
    try:
        return np.arange(start, stop + step / 2, step)
    except MemoryError:
        raise ValueError(f"--grid {start:g} {stop:g} {step:g} has too many points to "
                         "hold in memory; use a larger STEP") from None


def _cmd_edgeworth(args) -> int:
    grid = _grid(args.grid)
    with _claimed(args.out) as tmp:
        _, motif, stats = _stats_for(args)
        coeffs = ew.EdgeworthCoefficients.from_moment_stats(stats)
        values = ew.expansion_cdf(coeffs, grid)
        if args.clamp:
            values = np.clip(values, 0.0, 1.0)
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "value"])
            writer.writerows([repr(float(x)), repr(float(v))] for x, v in zip(grid, values))
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
    if args.nstar is not None and args.scheme != "subsample":
        raise ValueError(f"--nstar has no effect on the {args.scheme} scheme, only on "
                         "subsample; drop --nstar")
    qs = (0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975)
    with _claimed(args.out) as tmp:
        A, motif = load_edge_list(args.graph), motif_from_config(_spec(args.motif))
        if args.scheme == "subsample":
            n_star = args.nstar if args.nstar is not None else A.n // 2
            F = subsample_distribution(A, motif, n_star=n_star, B=args.B, seed=args.seed)
        else:
            F = resample_distribution(A, motif, B=args.B, seed=args.seed)
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
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
    if "max_degenerate_fraction" in options:  # before any file is made or warning printed
        _check_degenerate_fraction(options["max_degenerate_fraction"])
    cfg = ExperimentConfig.from_json(args.config)
    out = args.out or cfg.output
    if out is None:
        raise ValueError("no output path: pass --out or set 'output' in the config")
    with _claimed(out) as tmp:
        for n in cfg.n_list:
            for rho in cfg.rho_values(n):
                ew.check_expansion_applicability(rho, n)
        if args.kind == "coverage":
            records = run_coverage_experiment(cfg, **options)
            _emit(summarize_coverage(records))
        else:
            records = run_accuracy_experiment(cfg, **options)
        write_records_csv(records, tmp)
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

    observed = argparse.ArgumentParser(add_help=False)
    observed.add_argument("--graph", required=True, help="edge-list file (1-based ids)")
    observed.add_argument("--motif", required=True,
                          help="built-in name, inline JSON, or path to a .json spec")

    sub.add_parser("moments", parents=[observed]).set_defaults(func=_cmd_moments)

    p = sub.add_parser("edgeworth", parents=[observed])
    p.add_argument("--grid", type=float, nargs=3, metavar=("START", "STOP", "STEP"))
    p.add_argument("--clamp", action="store_true",
                   help="clip grid values to [0,1] (plotting only)")
    p.add_argument("--out", required=True, help="CSV of (x, value) pairs")
    p.set_defaults(func=_cmd_edgeworth)

    p = sub.add_parser("test", parents=[observed])
    p.add_argument("--null", type=float, required=True, help="null value c_n")
    p.add_argument("--alternative", default="two-sided", choices=("two-sided", "greater", "less"))
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("ci", parents=[observed])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", default="edgeworth", choices=("edgeworth", "normal"))
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("bootstrap", parents=[observed], help="bootstrap the studentized moment")
    p.add_argument("--scheme", required=True, choices=("subsample", "resample"))
    p.add_argument("--nstar", type=int, default=None,
                   help="sub-sample size (subsample only; default n/2)")
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
