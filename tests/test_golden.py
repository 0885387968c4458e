"""Golden experiment records, pinned byte for byte.

``tests/data/golden_records.csv`` holds the records of small accuracy,
sparsity, coverage and power runs, written by ``write_records_csv``
without the wall-clock ``time_seconds`` rows.  Power rows are stored as
``power`` records whose ``rep`` is the index into ``POWER_OFFSETS``.

The configs reach every record path: all four methods in accuracy and
coverage, degenerate samples, bootstraps that drop too many replicates,
a sweep down to rho = 1/n, and a Monte-Carlo population mean.  A change
that is meant to alter experiment outputs regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says so; any other
change must reproduce it exactly.

The effective-sample-size check returns only counts; ``ESS_PINS`` pins
them (or the truth that raises) for edge, triangle and V-shape runs.
"""

from pathlib import Path

import pytest

from netmoments import (EDGE, TRIANGLE, VSHAPE, DegenerateReplicatesError, ExperimentConfig,
                        builtin_graphon, run_accuracy_experiment, run_coverage_experiment,
                        run_power_experiment, run_sparsity_sweep, write_records_csv)
from netmoments.harness import METHODS, ExperimentRecord, effective_sample_size_check

GOLDEN = Path(__file__).parent / "data" / "golden_records.csv"

POWER_OFFSETS = (-0.05, 0.0, 0.05)


def config(**overrides) -> ExperimentConfig:
    base = dict(graphon={"kind": "BlockModel"}, motif="triangle", n=[10, 24], rho=1,
                n_mc=1_000, n_boot=30, repetitions=4, seed=14, methods=list(METHODS))
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def golden_records(threads: int) -> list[ExperimentRecord]:
    records = run_accuracy_experiment(config(), threads=threads,
                                      max_degenerate_fraction=0.3)
    records += run_accuracy_experiment(
        config(graphon="smoothgraphon", motif="vshape", n=[14], repetitions=3),
        threads=threads)
    records += run_sparsity_sweep(
        config(motif="edge", n=[16], rho=[1, "n^-1/2", "n^-1"], repetitions=3, seed=11),
        threads=threads, max_degenerate_fraction=1.0)
    records += run_coverage_experiment(config(n=[10, 16], repetitions=6, seed=11))
    power_cfg = config(n=[10, 20], repetitions=10, seed=11)
    for row in run_power_experiment(power_cfg, offsets=POWER_OFFSETS):
        records.append(ExperimentRecord(
            method="edgeworth_empirical", graphon=power_cfg.graphon.name,
            motif=power_cfg.motif.name, n=row["n"], rho=row["rho"],
            rep=POWER_OFFSETS.index(row["offset"]), metric="power", value=row["power"]))
    return [rec for rec in records if rec.metric != "time_seconds"]


@pytest.mark.parametrize("threads", [1, 2])
def test_records_match_golden_file(tmp_path, threads):
    out = tmp_path / "records.csv"
    write_records_csv(golden_records(threads), out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_file_reaches_every_record_path():
    rows = GOLDEN.read_text(encoding="utf-8").splitlines()
    kinds = {tuple(row.split(",")[i] for i in (0, 6)) for row in rows[1:]}
    for method in METHODS:
        assert (method, "sup_error") in kinds
        assert (method, "coverage") in kinds and (method, "length") in kinds
        assert (method, "degenerate") in kinds
    assert ("edgeworth_empirical", "power") in kinds


# (graphon, motif, n, rho, seed) -> (closer, repetitions), or the
# "n_dropped of n_total" of the truth that raises.  The smooth graphon's
# mu is a Monte-Carlo estimate; at n = 20 and 24 the triangle truth at
# the effective size m = n/4 is mostly empty.
ESS_PINS = [
    ("blockmodel", EDGE, 20, 1.0, 11, (0, 12)),
    ("blockmodel", EDGE, 24, 1.0, 12, (1, 12)),
    ("blockmodel", EDGE, 40, 0.5, 16, (4, 12)),
    ("blockmodel", TRIANGLE, 56, 1.0, 14, (1, 12)),
    ("smoothgraphon", VSHAPE, 32, 1.0, 15, (3, 12)),
    ("blockmodel", TRIANGLE, 20, 1.0, 13, "746 of 1000"),
    ("blockmodel", TRIANGLE, 24, 1.0, 14, "602 of 1000"),
]


@pytest.mark.parametrize("graphon,motif,n,rho,seed,expected", ESS_PINS,
                         ids=[f"{g}-{m.name}-{n}-{rho}" for g, m, n, rho, _, _ in ESS_PINS])
def test_effective_sample_size_check_is_pinned(graphon, motif, n, rho, seed, expected):
    def run():
        return effective_sample_size_check(builtin_graphon(graphon), rho, motif, n=n,
                                           n_mc=1_000, n_boot=30, repetitions=12, seed=seed)
    if isinstance(expected, tuple):
        assert run() == expected
        return
    with pytest.raises(DegenerateReplicatesError, match=f"^{expected} truth replicates"):
        run()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    write_records_csv(golden_records(threads=1), GOLDEN)
