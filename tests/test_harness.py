import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from scipy.special import ndtr

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, DegenerateReplicatesError,
                        ExperimentConfig, monte_carlo_true_cdf, population_mean, population_moment,
                        resolve_rho, run_accuracy_experiment, run_coverage_experiment,
                        run_power_experiment, run_sparsity_sweep, substream_seed,
                        sup_grid_error, write_records_csv)
from netmoments import builtin_graphon, motif_counts, sample_graph
from netmoments.bootstrap import MAX_DROP_FRACTION
from netmoments.cli import main
from netmoments.harness import (ExperimentRecord,
                                effective_sample_size_check, summarize_coverage)
from netmoments.moments import _BLOCK_ELEMENTS
from conftest import paper_block_model


def small_config_dict(**overrides):
    base = dict(
        graphon={"kind": "BlockModel"},
        motif="edge",
        n=[12],
        rho=1,
        n_mc=2_000,
        n_boot=40,
        repetitions=3,
        seed=5,
        methods=["edgeworth_empirical", "normal"],
    )
    base.update(overrides)
    return base


def small_config(**overrides):
    return ExperimentConfig.from_dict(small_config_dict(**overrides))


# Malformed configs, each with the start of the ValueError that names its key.
BAD_CONFIGS = [
    pytest.param(small_config_dict(n_mc="5000"), "n_mc must be an integer, got '5000'",
                 id="n_mc-string"),
    pytest.param(small_config_dict(repetitions=2.5), "repetitions must be an integer, got 2.5",
                 id="repetitions-float"),
    pytest.param(small_config_dict(n=[10.5]), r"n must be an integer, got 10\.5", id="n-float"),
    pytest.param(small_config_dict(seed=True), "seed must be an integer, got True",
                 id="seed-bool"),
    pytest.param(small_config_dict(methods="normal"), "methods must be a list of method names",
                 id="methods-string"),
    pytest.param(small_config_dict(rho=["1", "bogus"]), "unknown rho spec 'bogus'",
                 id="rho-unknown"),
    pytest.param(small_config_dict(output=5), "output must be a path string or null, got 5",
                 id="output-number"),
    pytest.param(small_config_dict(rho=True), "rho spec must be a number or string, got bool",
                 id="rho-bool"),
    pytest.param(small_config_dict(n=[12, 1]), "all n must be >= 2", id="n-one"),
    pytest.param(small_config_dict(grid=[-1.0, 0.0, 1.0]), r"unknown config keys: \['grid'\]",
                 id="grid-key"),
    pytest.param(None, "a config must be a JSON object, got NoneType", id="null"),
]


class TestResolveRho:
    def test_symbols(self):
        assert resolve_rho("n^-1", 80) == pytest.approx(0.0125, abs=1e-15)
        assert resolve_rho("n^-1/2", 80) == pytest.approx(80 ** -0.5, abs=1e-15)
        assert resolve_rho("n^-1/4", 80) == pytest.approx(80 ** -0.25, abs=1e-15)
        assert resolve_rho("1", 80) == 1.0

    def test_literals(self):
        assert resolve_rho(0.3, 40) == 0.3
        assert resolve_rho(1, 40) == 1.0
        assert resolve_rho("0.5", 40) == 0.5
        assert small_config(rho="0.5").single_rho(12) == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError, match="unknown rho"):
            resolve_rho("n^-2", 40)
        with pytest.raises(ValueError, match="outside"):
            resolve_rho(1.5, 40)
        with pytest.raises(ValueError, match="outside"):
            resolve_rho(0.0, 40)


class TestSupGridError:
    def test_identical_zero(self):
        v = np.linspace(0, 1, 11)
        assert sup_grid_error(v, v) == 0.0

    def test_opposite_one(self):
        assert sup_grid_error(np.zeros(5), np.ones(5)) == 1.0

    def test_single_point(self):
        a = np.zeros(7)
        b = np.zeros(7)
        b[3] = 0.07
        assert sup_grid_error(a, b) == pytest.approx(0.07, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sup_grid_error(np.zeros(3), np.zeros(4))


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({
                "graphon": "blockmodel", "motif": "edge", "n": [10], "rho": 1,
                "seed": 1, "fancy": True})

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="missing config keys"):
            ExperimentConfig.from_dict({"graphon": "blockmodel"})

    def test_invariants(self):
        with pytest.raises(ValueError, match="n_mc"):
            small_config(n_mc=500)
        with pytest.raises(ValueError, match="needs a single rho, got a list"):
            small_config(rho=[1, 0.5]).single_rho(12)
        with pytest.raises(ValueError, match="unknown methods"):
            small_config(methods=["edgeworth_empirical", "magic"])
        with pytest.raises(ValueError, match="repetitions"):
            small_config(repetitions=0)

    @pytest.mark.parametrize("raw,message", BAD_CONFIGS)
    def test_malformed_values_name_their_key(self, raw, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("raw,message", BAD_CONFIGS)
    def test_malformed_values_are_cli_usage_errors(self, tmp_path, capsys, raw, message):
        path, out = tmp_path / "cfg.json", tmp_path / "records.csv"
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "accuracy", "--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.count("\n") == 1
        assert re.match(f"netmoments experiment: error: {message}", stderr)
        assert not out.exists()

    def test_every_key_lands_on_its_field(self):
        raw = {
            "graphon": {"kind": "SmoothGraphon", "name": "smooth-1"},
            "motif": "vshape", "n": [15, 30], "rho": ["n^-1/4", 0.5], "seed": 77,
            "n_mc": 2_500, "n_boot": 99, "repetitions": 4,
            "methods": ["resample", "subsample"], "output": "sweep.csv",
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert {"n" if f.name == "n_list" else f.name
                for f in dataclasses.fields(cfg)} == set(raw)
        assert (cfg.graphon.name, cfg.motif.name) == ("smooth-1", "vshape")
        assert (cfg.n_list, cfg.rho, cfg.seed) == ([15, 30], ["n^-1/4", 0.5], 77)
        assert (cfg.n_mc, cfg.n_boot, cfg.repetitions) == (2_500, 99, 4)
        assert cfg.methods == ("resample", "subsample")
        assert cfg.output == "sweep.csv"
        defaults = ExperimentConfig(graphon=cfg.graphon, motif=cfg.motif, n_list=[10],
                                    rho=1, seed=0)
        for f in dataclasses.fields(cfg):
            if f.default is not dataclasses.MISSING:
                assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name

    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "graphon": {"kind": "BlockModel", "pi": [0.5, 0.5],
                        "B": [[0.6, 0.2], [0.2, 0.2]]},
            "motif": "triangle", "n": [10, 20], "rho": "n^-1/2",
            "n_mc": 5000, "seed": 3}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.n_list == [10, 20]
        assert cfg.single_rho(20) == pytest.approx(20 ** -0.5)
        assert cfg.motif.name == "triangle"


class TestTrueCdf:
    def test_grid_values_are_cdf(self, bm):
        truth = monte_carlo_true_cdf(bm, 1.0, EDGE, n=20, n_mc=2_000, seed=1)
        assert (truth.values >= 0.0).all() and (truth.values <= 1.0).all()
        assert (np.diff(truth.values) >= 0.0).all()
        assert truth.n_total == 2_000

    def test_cross_seed_consistency(self, bm):
        n_mc = 4_000
        t1 = monte_carlo_true_cdf(bm, 1.0, EDGE, n=20, n_mc=n_mc, seed=1)
        t2 = monte_carlo_true_cdf(bm, 1.0, EDGE, n=20, n_mc=n_mc, seed=2)
        assert sup_grid_error(t1.values, t2.values) <= 5.0 / math.sqrt(n_mc)

    def test_numerator_centered_by_exact_mu(self, bm):
        # E[U_hat - mu] = 0 with exact centering; the studentized ratio
        # itself carries an O(n^-1/2) mean shift, so the check is on the
        # standardized numerator average, not on mean(T).
        n, n_mc = 20, 4_000
        mu = population_mean(bm, 1.0, EDGE).value
        diffs = []
        import netmoments as nm
        for k in range(n_mc):
            A = nm.sample_graph(bm, n, 1.0, substream_seed(1, "mc-truth", k))
            diffs.append(nm.sample_moment(A, EDGE) - mu)
        diffs = np.asarray(diffs)
        assert abs(diffs.mean()) <= 5.0 * diffs.std(ddof=1) / math.sqrt(n_mc)

    @pytest.mark.parametrize("graphon", ["blockmodel", "smoothgraphon", "nonsmoothgraphon"])
    @pytest.mark.parametrize("motif", [EDGE, TRIANGLE, VSHAPE, THREESTAR], ids=lambda m: m.name)
    def test_blocks_equal_per_network_oracle(self, graphon, motif):
        # The truth, network by network: sample_graph on each replicate's
        # seed, count, studentize, tabulate.  The blocked truth must give
        # the same bytes, with n_mc spanning a partial last block.
        g = builtin_graphon(graphon)
        n, rho, seed, mu = 9, 0.8, 13, 0.25
        n_mc = 2 * (_BLOCK_ELEMENTS // (n * n)) + 37
        r = motif.r
        t_vals, degenerate = [], 0
        for k in range(n_mc):
            A = sample_graph(g, n, rho, substream_seed(seed, "mc-truth", k))
            total, per = motif_counts(A, motif)
            u_hat = total / math.comb(n, r)
            g1 = per / math.comb(n - 1, r - 1) - u_hat
            s_sq = float(r * r * np.sum(g1 * g1) / (n * n))
            if s_sq == 0.0:
                degenerate += 1
            else:
                t_vals.append((u_hat - mu) / math.sqrt(s_sq))
        kept = np.sort(np.asarray(t_vals))
        truth = monte_carlo_true_cdf(g, rho, motif, n, n_mc, seed=seed, mu=mu,
                                     max_degenerate_fraction=1.0)
        expect = np.searchsorted(kept, truth.grid, side="right") / kept.size
        assert truth.values.tobytes() == expect.tobytes()
        assert truth.n_degenerate == degenerate
        assert repr(truth.t_mean) == repr(float(kept.mean()))
        assert repr(truth.t_sd) == repr(float(kept.std(ddof=1)))

    def test_degenerate_guard(self, bm):
        # Triangles at n=10 are absent in over 1% of draws.
        with pytest.raises(DegenerateReplicatesError):
            monte_carlo_true_cdf(bm, 1.0, TRIANGLE, n=10, n_mc=1_500, seed=2)
        truth = monte_carlo_true_cdf(bm, 1.0, TRIANGLE, n=10, n_mc=1_500, seed=2,
                                     max_degenerate_fraction=0.25)
        assert truth.n_degenerate > 0.01 * truth.n_total

    @pytest.mark.parametrize("cap", [-0.5, 1.5, math.nan, math.inf])
    def test_cap_outside_unit_interval_rejected(self, monkeypatch, bm, cap):
        # Raised before any network is sampled.
        monkeypatch.setattr("netmoments.harness.sample_graph_block", None)
        with pytest.raises(ValueError, match=r"max_degenerate_fraction must lie in \[0, 1\]"):
            monte_carlo_true_cdf(bm, 1.0, EDGE, n=10, n_mc=1_000, seed=1,
                                 max_degenerate_fraction=cap)

    def test_all_degenerate_raises(self, bm):
        # At rho = 0.01 and n = 5 no draw holds a triangle: with the cap
        # lifted there is still nothing to tabulate.
        with pytest.raises(DegenerateReplicatesError,
                           match=r"1000 of 1000 truth replicates were degenerate \(all\)") as exc:
            monte_carlo_true_cdf(bm, 0.01, TRIANGLE, n=5, n_mc=1_000, seed=1,
                                 max_degenerate_fraction=1.0)
        assert (exc.value.n_dropped, exc.value.n_total) == (1_000, 1_000)


class TestPopulationMean:
    def test_block_model_mean_is_exact(self, bm):
        est = population_mean(bm, 0.5, EDGE, n_mc=1_000, seed=3)
        assert (est.method, est.standard_error) == ("exact", 0.0)
        assert est == population_moment(bm, 0.5, EDGE)


class TestAccuracyExperiment:
    def test_records_and_normal_error_definition(self, bm):
        cfg = small_config(methods=["normal"])
        records = run_accuracy_experiment(cfg)
        sup = [r for r in records if r.metric == "sup_error"]
        assert len(sup) == cfg.repetitions
        truth = monte_carlo_true_cdf(
            bm, 1.0, EDGE, n=12, n_mc=cfg.n_mc,
            seed=substream_seed(cfg.seed, "truth", 12, repr(1.0)),
            mu=population_mean(bm, 1.0, EDGE).value)
        expected = sup_grid_error(ndtr(truth.grid), truth.values)
        for r in sup:
            assert r.value == pytest.approx(expected, abs=1e-15)

    def test_all_methods_emit_records(self):
        cfg = small_config(methods=["edgeworth_empirical", "normal",
                                    "subsample", "resample"])
        records = run_accuracy_experiment(cfg)
        methods = {r.method for r in records}
        assert methods == set(cfg.methods)
        for r in records:
            assert r.metric in ("sup_error", "time_seconds", "degenerate")
            assert r.n == 12 and r.rho == 1.0

    def test_deterministic_records(self):
        cfg = small_config()
        a = run_accuracy_experiment(cfg)
        b = run_accuracy_experiment(cfg)
        ka = [(r.method, r.rep, r.metric, r.value) for r in a if r.metric != "time_seconds"]
        kb = [(r.method, r.rep, r.metric, r.value) for r in b if r.metric != "time_seconds"]
        assert ka == kb


class TestCoverageExperiment:
    def test_records_valid_and_lengths_match(self):
        cfg = small_config(n=[30], repetitions=8, n_mc=1_000)
        records = run_coverage_experiment(cfg, alpha=0.2)
        cov = [r for r in records if r.metric == "coverage"]
        assert all(r.value in (0.0, 1.0) for r in cov)
        by_rep = {}
        for r in records:
            if r.metric == "length":
                by_rep.setdefault(r.rep, {})[r.method] = r.value
        for rep, lengths in by_rep.items():
            assert lengths["edgeworth_empirical"] == pytest.approx(
                lengths["normal"], abs=1e-12)
        summary = summarize_coverage(records)
        assert set(summary) == {"edgeworth_empirical", "normal"}
        assert 0.0 <= summary["edgeworth_empirical"]["coverage"][0] <= 1.0

    def test_bootstrap_methods_produce_cis(self):
        cfg = small_config(n=[24], repetitions=3, n_mc=1_000, n_boot=30,
                           methods=["subsample", "resample"])
        records = run_coverage_experiment(cfg, alpha=0.2)
        assert {r.method for r in records} == {"subsample", "resample"}
        assert any(r.metric == "coverage" for r in records)


class TestSparsitySweep:
    def test_rho_one_column_matches_accuracy(self):
        sweep_cfg = small_config(rho=[1, "n^-1/2"])
        acc_cfg = small_config(rho=1)
        sweep = run_sparsity_sweep(sweep_cfg)
        acc = run_accuracy_experiment(acc_cfg)
        dense = [(r.method, r.rep, r.metric, r.value) for r in sweep
                 if r.rho == 1.0 and r.metric != "time_seconds"]
        base = [(r.method, r.rep, r.metric, r.value) for r in acc
                if r.metric != "time_seconds"]
        assert dense == base

    def test_rho_tagging(self):
        cfg = small_config(rho=[1, "n^-1/2"], n=[16])
        records = run_sparsity_sweep(cfg)
        rhos = sorted({r.rho for r in records})
        assert rhos == pytest.approx([16 ** -0.5, 1.0], abs=1e-15)


class TestRecordsCsv:
    def test_schema_and_round_trip(self, tmp_path):
        records = [ExperimentRecord("normal", "BlockModel", "edge", 12, 1.0, 0,
                                    "sup_error", 0.04)]
        path = tmp_path / "out.csv"
        write_records_csv(records, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "graphon", "motif", "n", "rho", "rep",
                           "metric", "value"]
        assert rows[1][0] == "normal"
        assert float(rows[1][7]) == 0.04

    def test_metric_validation(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ExperimentRecord("normal", "g", "m", 10, 1.0, 0, "mse", 0.1)
        with pytest.raises(ValueError, match="coverage"):
            ExperimentRecord("normal", "g", "m", 10, 1.0, 0, "coverage", 1.4)
        with pytest.raises(ValueError, match="nonnegative"):
            ExperimentRecord("normal", "g", "m", 10, 1.0, 0, "sup_error", -0.1)
        for metric in ("sup_error", "coverage"):
            with pytest.raises(ValueError, match=metric):
                ExperimentRecord("normal", "g", "m", 10, 1.0, 0, metric, math.nan)


class TestPower:
    def test_power_rises_with_offset(self):
        cfg = small_config(n=[40], repetitions=40, n_mc=1_000)
        rows = run_power_experiment(cfg, offsets=[0.0, 0.08], alpha=0.2)
        at = {row["offset"]: row["power"] for row in rows}
        assert 0.0 <= at[0.0] <= 0.5  # near the nominal level
        assert at[0.08] > at[0.0]  # far null is rejected more often


class TestEffectiveSampleSize:
    def test_check_mechanics(self):
        # The effective-sample-size comparison itself needs full-scale
        # (10^6-replicate) truths to resolve: at desk scale the two truth
        # CDFs differ by ~0.01 sup while their Monte-Carlo noise is of the
        # same order, so the majority direction flips with the truth
        # realization.  Here we pin the mechanics: determinism and counts.
        a = effective_sample_size_check(
            paper_block_model(), 1.0, EDGE, n=40, n_mc=4_000, n_boot=120,
            repetitions=5, seed=2024)
        b = effective_sample_size_check(
            paper_block_model(), 1.0, EDGE, n=40, n_mc=4_000, n_boot=120,
            repetitions=5, seed=2024)
        assert a == b
        closer, reps = a
        assert reps == 5 and 0 <= closer <= reps

    def test_settings_are_checked_as_an_experiment_config(self):
        with pytest.raises(ValueError, match="n_mc must be >= 1000"):
            effective_sample_size_check(paper_block_model(), 1.0, EDGE, n=20, n_mc=999,
                                        n_boot=30, repetitions=4, seed=5)

    def test_degenerate_truth_names_its_size(self):
        # Triangles at n = 20: the truth at m = 5 is mostly triangle-free.
        g, seed = paper_block_model(), 13
        with pytest.raises(DegenerateReplicatesError) as inner:
            monte_carlo_true_cdf(g, 1.0, TRIANGLE, 5, 1_000,
                                 seed=substream_seed(seed, "ess-true-eff"), mu=0.1,
                                 max_degenerate_fraction=MAX_DROP_FRACTION)
        with pytest.raises(DegenerateReplicatesError) as exc:
            effective_sample_size_check(g, 1.0, TRIANGLE, n=20, n_mc=1_000, n_boot=30,
                                        repetitions=2, seed=seed)
        # The check has no degenerate-fraction setting, so larger n is the only advice.
        assert str(exc.value) == (
            f"{inner.value.n_dropped} of 1000 truth replicates were degenerate (above the "
            "10% cap); the truth at m = 5 fails at n = 20: use a larger n")
        assert ((exc.value.n_dropped, exc.value.n_total)
                == (inner.value.n_dropped, inner.value.n_total))

    def test_small_n_truths_take_the_bootstrap_cap(self):
        # At n = 20 the truth at m = 5 has 40 of 1000 degenerate edge
        # replicates: above the truth default of 1%, within the 10% the
        # compared bootstrap allows.
        assert effective_sample_size_check(
            paper_block_model(), 1.0, EDGE, n=20, n_mc=1_000, n_boot=30,
            repetitions=4, seed=5) == (2, 4)
