import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netmoments
from netmoments import (EDGE, EdgeworthCoefficients, compute_stats, expansion_cdf,
                        graphon_from_config, load_edge_list, sample_graph)
from netmoments.edgeworth import DEFAULT_GRID
from netmoments.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in out if line.startswith("{")]


def usage_error(capsys, argv) -> str:
    """Run a request that must fail as a usage error; return its one stderr line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return err


def run_module(argv) -> subprocess.CompletedProcess:
    """Run ``python -m netmoments`` on ``argv`` with the default warning filters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(netmoments.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "netmoments", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = tmp_path / "graph.edges"
    code, _ = run_cli(capsys, [
        "sample", "--graphon", "blockmodel", "--n", "40", "--rho", "1",
        "--seed", "11", "--out", str(path)])
    assert code == 0
    return path


class TestSample:
    def test_writes_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        code, msgs = run_cli(capsys, [
            "sample", "--graphon", "blockmodel", "--n", "12", "--rho", "n^-1/2",
            "--seed", "3", "--out", str(path)])
        assert code == 0
        assert msgs[-1]["n"] == 12
        assert msgs[-1]["rho"] == pytest.approx(12 ** -0.5)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == msgs[-1]["edges"]
        i, j = lines[0].split()
        assert int(i) >= 1 and int(j) >= 1

    def test_round_trip_matches_sampled_graph(self, tmp_path, capsys):
        # The file lists each edge once, ordered by (i, j), as a double
        # loop over the upper triangle writes it.
        path = tmp_path / "g.edges"
        code, _ = run_cli(capsys, [
            "sample", "--graphon", "blockmodel", "--n", "60", "--rho", "1",
            "--seed", "5", "--out", str(path)])
        assert code == 0
        A = sample_graph(graphon_from_config("blockmodel"), 60, 1.0, 5)
        assert A.a[-1].any()  # the last node sets the node count on reload
        assert np.array_equal(load_edge_list(path).a, A.a)
        reference = "".join(f"{i + 1} {j + 1}\n" for i in range(A.n)
                            for j in range(i + 1, A.n) if A.a[i, j])
        assert path.read_bytes() == reference.encode("utf-8")

    def test_inline_json_graphon(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        spec = json.dumps({"kind": "BlockModel", "pi": [0.5, 0.5],
                           "B": [[0.9, 0.1], [0.1, 0.9]]})
        code, msgs = run_cli(capsys, [
            "sample", "--graphon", spec, "--n", "10", "--rho", "1",
            "--seed", "4", "--out", str(path)])
        assert code == 0 and msgs[-1]["edges"] > 0

    def test_json_file_graphon(self, tmp_path, capsys):
        spec = json.dumps({"kind": "SmoothGraphon", "name": "mine"})
        (tmp_path / "graphon.json").write_text(spec)
        for value, out in ((str(tmp_path / "graphon.json"), "file.edges"), (spec, "inline.edges")):
            code, _ = run_cli(capsys, ["sample", "--graphon", value, "--n", "10", "--rho", "0.5",
                                       "--seed", "4", "--out", str(tmp_path / out)])
            assert code == 0
        assert (tmp_path / "file.edges").read_bytes() == (tmp_path / "inline.edges").read_bytes()


class TestStatsCommands:
    def test_moments(self, graph_file, capsys):
        code, msgs = run_cli(capsys, [
            "moments", "--graph", str(graph_file), "--motif", "triangle"])
        assert code == 0
        rec = msgs[-1]
        assert rec["n"] == 40 and rec["motif"] == "triangle"
        assert 0.0 <= rec["u_hat"] <= 1.0
        assert rec["s_hat_sq"] > 0.0

    def test_edgeworth_grid_csv(self, graph_file, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, msgs = run_cli(capsys, [
            "edgeworth", "--graph", str(graph_file), "--motif", "triangle",
            "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "value"]
        assert len(rows) == 42
        values = np.array([float(r[1]) for r in rows[1:]])
        assert values[0] < 0.2 and values[-1] > 0.8

    # An 11-node graph whose raw edge expansion reaches 1.0115 on the default grid.
    OVERSHOOT_EDGES = "1 4\n1 6\n1 11\n4 6\n5 6\n6 9\n6 11\n7 9\n7 10\n7 11\n8 11\n"

    @pytest.mark.parametrize("clamp", [False, True], ids=["raw", "clamp"])
    def test_edgeworth_csv_bytes(self, tmp_path, capsys, clamp):
        graph, out = tmp_path / "overshoot.edges", tmp_path / "grid.csv"
        graph.write_text(self.OVERSHOOT_EDGES)
        code, _ = run_cli(capsys, ["edgeworth", "--graph", str(graph), "--motif", "edge",
                                   "--out", str(out), *(["--clamp"] if clamp else [])])
        assert code == 0
        stats = compute_stats(load_edge_list(graph), EDGE)
        values = expansion_cdf(EdgeworthCoefficients.from_moment_stats(stats), DEFAULT_GRID)
        assert values.max() > 1.0
        if clamp:
            values = np.clip(values, 0.0, 1.0)
        rows = "".join(f"{float(x)!r},{float(v)!r}\r\n" for x, v in zip(DEFAULT_GRID, values))
        assert out.read_bytes() == ("x,value\r\n" + rows).encode("utf-8")

    BAD_ORDER = "--grid needs finite START <= STOP"

    @pytest.mark.parametrize("grid,message", [
        (("0", "1", "0"), BAD_ORDER), (("0", "1", "-0.1"), BAD_ORDER),
        (("1", "0", "0.1"), BAD_ORDER), (("0", "inf", "0.1"), BAD_ORDER),
        (("nan", "1", "0.1"), BAD_ORDER),
        # 10^18 points: numpy refuses the array at once, without allocating.
        (("0", "1e9", "1e-9"), "--grid 0 1e+09 1e-09 has too many points to hold in memory"),
    ], ids=["zero-step", "negative-step", "stop-below-start", "infinite-stop", "nan-start",
            "too-many-points"])
    def test_bad_grid_rejected(self, graph_file, tmp_path, capsys, grid, message):
        out = tmp_path / "grid.csv"
        err = usage_error(capsys, ["edgeworth", "--graph", str(graph_file), "--motif",
                                   "triangle", "--grid", *grid, "--out", str(out)])
        assert err.startswith(f"netmoments edgeworth: error: {message}")
        assert not out.exists()

    def test_one_sample_test(self, graph_file, capsys):
        code, msgs = run_cli(capsys, [
            "test", "--graph", str(graph_file), "--motif", "triangle",
            "--null", "0.03"])
        assert code == 0
        rec = msgs[-1]
        assert 0.0 <= rec["p_value"] <= 1.0
        assert rec["c_n"] == 0.03

    @pytest.mark.parametrize("null", ["nan", "inf"])
    def test_non_finite_null_rejected(self, graph_file, capsys, null):
        err = usage_error(capsys, [
            "test", "--graph", str(graph_file), "--motif", "triangle", "--null", null])
        assert err.startswith("netmoments test: error: c_n must be finite")

    @pytest.mark.parametrize("alpha", ["2", "0", "nan"])
    def test_alpha_outside_unit_interval_rejected(self, graph_file, capsys, alpha):
        err = usage_error(capsys, [
            "ci", "--graph", str(graph_file), "--motif", "triangle", "--alpha", alpha])
        assert err.startswith("netmoments ci: error: alpha must lie in (0, 1)")

    @pytest.mark.parametrize("command", [["ci", "--alpha", "0.2"], ["test", "--null", "0.5"]])
    def test_degenerate_graph_rejected(self, tmp_path, capsys, command):
        # K_4: every node has the same triangle count, so the variance is 0.
        path = tmp_path / "k4.edges"
        path.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        err = usage_error(capsys, [command[0], "--graph", str(path), "--motif", "triangle",
                                   *command[1:]])
        assert err.startswith(f"netmoments {command[0]}: error:")

    def test_calls_share_no_parser_state(self, graph_file, capsys):
        base = ["--graph", str(graph_file), "--motif", "triangle"]
        _, [first] = run_cli(capsys, ["ci", *base, "--alpha", "0.2", "--method", "normal"])
        _, [plain] = run_cli(capsys, ["ci", *base, "--alpha", "0.2"])
        assert first["method"] == "normal" and plain["method"] == "edgeworth"
        _, [first] = run_cli(capsys, ["test", *base, "--null", "0.03",
                                      "--alternative", "greater"])
        _, [plain] = run_cli(capsys, ["test", *base, "--null", "0.03"])
        assert first["alternative"] == "greater" and plain["alternative"] == "two-sided"

    def test_ci_both_methods(self, graph_file, capsys):
        _, [edge] = run_cli(capsys, [
            "ci", "--graph", str(graph_file), "--motif", "triangle",
            "--alpha", "0.2", "--method", "edgeworth"])
        _, [norm] = run_cli(capsys, [
            "ci", "--graph", str(graph_file), "--motif", "triangle",
            "--alpha", "0.2", "--method", "normal"])
        assert edge["lo"] < edge["hi"]
        assert edge["length"] == pytest.approx(norm["length"], abs=1e-12)

    def test_motif_inline_json(self, graph_file, capsys):
        spec = json.dumps({"nodes": 4, "edges": [[1, 2], [1, 3], [1, 4]]})
        code, msgs = run_cli(capsys, [
            "moments", "--graph", str(graph_file), "--motif", spec])
        assert code == 0

    def test_motif_json_file(self, graph_file, tmp_path, capsys):
        spec = tmp_path / "motif.json"
        spec.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [2, 3], [1, 3]], "name": "tri"}))
        _, [from_file] = run_cli(capsys, [
            "moments", "--graph", str(graph_file), "--motif", str(spec)])
        _, [builtin] = run_cli(capsys, [
            "moments", "--graph", str(graph_file), "--motif", "triangle"])
        assert from_file == {**builtin, "motif": "tri"}


class TestBootstrapCommand:
    def test_csv_output(self, graph_file, tmp_path, capsys):
        out = tmp_path / "boot.csv"
        code, msgs = run_cli(capsys, [
            "bootstrap", "--graph", str(graph_file), "--motif", "edge",
            "--scheme", "subsample", "--nstar", "20", "--B", "25",
            "--seed", "7", "--out", str(out)])
        assert code == 0
        rec = msgs[-1]
        assert rec["B"] == 25 and rec["scheme"] == "subsample"
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "key", "value"]
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"replicate", "quantile"}

    def test_resample_default(self, graph_file, tmp_path, capsys):
        out = tmp_path / "boot2.csv"
        code, msgs = run_cli(capsys, [
            "bootstrap", "--graph", str(graph_file), "--motif", "edge",
            "--scheme", "resample", "--B", "10", "--seed", "9", "--out", str(out)])
        assert code == 0 and msgs[-1]["B"] >= 9

    def test_resample_rejects_nstar(self, graph_file, tmp_path, capsys):
        out = tmp_path / "boot.csv"
        err = usage_error(capsys, [
            "bootstrap", "--graph", str(graph_file), "--motif", "edge",
            "--scheme", "resample", "--nstar", "3", "--B", "10", "--seed", "9",
            "--out", str(out)])
        assert err == ("netmoments bootstrap: error: --nstar has no effect on the resample "
                       "scheme, only on subsample; drop --nstar\n")
        assert not out.exists()


def experiment_config(tmp_path, **overrides) -> Path:
    cfg = {
        "graphon": {"kind": "BlockModel"},
        "motif": "edge",
        "n": [12],
        "rho": 1,
        "n_mc": 1500,
        "n_boot": 20,
        "repetitions": 2,
        "seed": 9,
        "methods": ["edgeworth_empirical", "normal"],
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExperimentCommand:
    def test_accuracy(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path)
        out = tmp_path / "results.csv"
        with pytest.warns(UserWarning):  # rho=1 applicability caveat
            code, msgs = run_cli(capsys, [
                "experiment", "accuracy", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "graphon", "motif", "n", "rho", "rep",
                          "metric", "value"]
        assert len(rows) > 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "results.csv"]

    def test_sparsity_with_config_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cfg = experiment_config(tmp_path, rho=[1, "n^-1/2"], output=str(out))
        with pytest.warns(UserWarning):
            code, msgs = run_cli(capsys, [
                "experiment", "sparsity", "--config", str(cfg)])
        assert code == 0
        assert out.exists()

    def test_coverage_summary(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, n=[16], repetitions=4)
        out = tmp_path / "cov.csv"
        with pytest.warns(UserWarning):
            code, msgs = run_cli(capsys, [
                "experiment", "coverage", "--config", str(cfg), "--out", str(out),
                "--alpha", "0.2"])
        assert code == 0
        summary = msgs[0]
        assert "edgeworth_empirical" in summary

    def test_coverage_rejects_max_degenerate_fraction(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, n=[16], repetitions=2)
        out = tmp_path / "cov.csv"
        err = usage_error(capsys, ["experiment", "coverage", "--config", str(cfg),
                                   "--out", str(out), "--max-degenerate-fraction", "0.5"])
        assert err.startswith("netmoments experiment: error: --max-degenerate-fraction "
                              "has no effect on coverage experiments")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["accuracy", "sparsity"])
    def test_truth_experiments_reject_alpha(self, tmp_path, capsys, kind):
        cfg = experiment_config(tmp_path)
        out = tmp_path / "results.csv"
        err = usage_error(capsys, ["experiment", kind, "--config", str(cfg),
                                   "--out", str(out), "--alpha", "0.01"])
        assert err.startswith(f"netmoments experiment: error: --alpha has no effect on "
                              f"{kind} experiments")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["accuracy", "sparsity"])
    def test_bad_degenerate_cap_fails_before_any_file_or_warning(self, tmp_path, kind):
        # rho = 1 at n = 12 would print the 1/log n caveat if the run got that far.
        proc = run_module(["experiment", kind, "--config", str(experiment_config(tmp_path)),
                           "--out", str(tmp_path / "results.csv"),
                           "--max-degenerate-fraction", "-0.5"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("netmoments experiment: error: max_degenerate_fraction "
                               "must lie in [0, 1], got -0.5\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_accuracy_runs_a_rho_list_as_the_sweep(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, rho=[1, "n^-1/2"])
        outputs = {}
        for kind in ("accuracy", "sparsity"):
            outputs[kind] = tmp_path / f"{kind}.csv"
            with pytest.warns(UserWarning):
                code, _ = run_cli(capsys, [
                    "experiment", kind, "--config", str(cfg), "--out", str(outputs[kind]),
                    "--max-degenerate-fraction", "0.5"])
            assert code == 0
        rows = {}
        for kind, path in outputs.items():
            with open(path, newline="") as fh:
                rows[kind] = [row for row in csv.DictReader(fh)
                              if row["metric"] != "time_seconds"]
        assert {row["rho"] for row in rows["accuracy"]} == {"1.0", repr(12 ** -0.5)}
        assert rows["accuracy"] == rows["sparsity"]

    def test_cache_dir_is_not_an_option(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path)
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "accuracy", "--config", str(cfg), "--out", str(out),
                  "--cache-dir", str(tmp_path / "d")])
        assert exc.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_path(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path)
        err = usage_error(capsys, ["experiment", "accuracy", "--config", str(cfg)])
        assert err.startswith("netmoments experiment: error: no output path")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_bad_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_truth(*args, **kwargs):
            raise AssertionError("a truth was sampled before the output was checked")

        monkeypatch.setattr(netmoments.harness, "monte_carlo_true_cdf", no_truth)
        out = tmp_path / "no-such-dir" / "results.csv"
        err = usage_error(capsys, ["experiment", "accuracy", "--config",
                                   str(experiment_config(tmp_path)), "--out", str(out)])
        assert err.startswith("netmoments experiment: error:") and str(out) in err

    def test_failed_run_keeps_the_old_output(self, tmp_path, capsys):
        # Triangles at n = 10: more than 1% of the truth's networks have none.
        cfg = experiment_config(tmp_path, motif="triangle", n=[10], n_mc=1000, seed=3)
        out = tmp_path / "results.csv"
        out.write_bytes(b"an earlier run\n")
        with pytest.warns(UserWarning):  # rho=1 applicability caveat
            usage_error(capsys, ["experiment", "accuracy", "--config", str(cfg),
                                 "--out", str(out)])
        assert out.read_bytes() == b"an earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "results.csv"]

    # Through `python -m netmoments`, so the warning reaches stderr the way
    # Python shows it outside a test run.
    CAVEAT = ("netmoments experiment: warning: rho=1 exceeds 1/log(max(n, 3))={:.4g}; "
              "unless the projection is non-lattice, the expansion's higher-order "
              "guarantee may not apply\n")

    def test_applicability_caveat_is_one_stderr_line(self, tmp_path):
        out = tmp_path / "results.csv"
        proc = run_module(["experiment", "accuracy", "--config",
                           str(experiment_config(tmp_path, n_mc=1000, repetitions=1)),
                           "--out", str(out)])
        assert proc.returncode == 0 and out.exists()
        assert proc.stderr == self.CAVEAT.format(1 / np.log(12))

    def test_failed_run_prints_the_caveat_then_the_error(self, tmp_path):
        cfg = experiment_config(tmp_path, motif="triangle", n=[10], n_mc=1000, seed=3)
        proc = run_module(["experiment", "accuracy", "--config", str(cfg),
                           "--out", str(tmp_path / "results.csv")])
        assert proc.returncode == 2 and proc.stdout == ""
        caveat, error = proc.stderr.splitlines(keepends=True)
        assert caveat == self.CAVEAT.format(1 / np.log(10))
        assert error.startswith("netmoments experiment: error: ")


class TestFileErrors:
    """A file that cannot be read or written is a usage error, not a traceback."""

    def test_missing_graph(self, tmp_path, capsys):
        path = tmp_path / "missing.edges"
        err = usage_error(capsys, ["moments", "--graph", str(path), "--motif", "edge"])
        assert err.startswith("netmoments moments: error:") and str(path) in err

    def test_missing_config(self, tmp_path, capsys):
        path, out = tmp_path / "missing.json", tmp_path / "records.csv"
        err = usage_error(capsys, ["experiment", "accuracy", "--config", str(path),
                                   "--out", str(out)])
        assert err.startswith("netmoments experiment: error:") and str(path) in err
        assert not out.exists()

    # Ids whose n x n int8 matrix cannot be allocated: past int64, and
    # 2^31 (n^2 = 4.6e18 bytes, refused by any allocator).
    @pytest.mark.parametrize("line, n, size", [
        ("3 1180591620717411303424", 1180591620717411303424, "1.39e+42"),
        ("1 2147483648", 2147483648, "4.61e+18")], ids=["beyond-int64", "2^31"])
    def test_oversized_node_id(self, tmp_path, capsys, line, n, size):
        path = tmp_path / "huge.edges"
        path.write_text(line + "\n")
        err = usage_error(capsys, ["moments", "--graph", str(path), "--motif", "edge"])
        assert err == (f"netmoments moments: error: a graph on n = {n} nodes needs an n x n "
                       f"matrix of n^2 = {size} bytes, more than can be allocated\n")

    def test_output_in_missing_directory_as_a_module(self, tmp_path):
        # Through `python -m netmoments`, which runs __main__.py.
        out = tmp_path / "no-such-dir" / "g.edges"
        proc = run_module(["sample", "--graphon", "blockmodel", "--n", "10", "--seed", "1",
                           "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("netmoments sample: error:") and str(out) in proc.stderr


def _path_graph(path: Path, n: int) -> str:
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, n)))
    return str(path)


# Requests that fail after their flags parse: (argv from tmp_path, a part of the message).
FAILURES = {
    # C(300, 4) four-node subsets: the cap refuses before any enumeration.
    "cost-cap": (lambda t: ["moments", "--graph", _path_graph(t / "path.edges", 300),
                            "--motif", json.dumps({"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4]]})],
                 "above the cap MAX_GENERIC_SUBSETS = 1e+08; count a smaller graph"),
    "malformed-motif": (lambda t: ["moments", "--graph", _path_graph(t / "path.edges", 5),
                                   "--motif", json.dumps({"nodes": 3.9, "edges": [[1, 2]]})],
                        "nodes must be an integer, got 3.9"),
    "degenerate-replicates": (
        lambda t: ["bootstrap", "--graph", _path_graph(t / "path.edges", 5), "--motif", "triangle",
                   "--scheme", "resample", "--B", "10", "--seed", "1", "--out", str(t / "out.csv")],
        "10 of 10 bootstrap replicates were degenerate (all)"),
    "degenerate-truth": (
        lambda t: ["experiment", "accuracy", "--config", str(experiment_config(
            t, motif="triangle", n=[10], n_mc=1000, seed=3)), "--out", str(t / "out.csv")],
        "raise max_degenerate_fraction (--max-degenerate-fraction on the CLI)"),
    "ignored-flag": (
        lambda t: ["experiment", "coverage", "--config", str(experiment_config(t)),
                   "--out", str(t / "out.csv"), "--max-degenerate-fraction", "0.5"],
        "--max-degenerate-fraction has no effect on coverage experiments"),
    "negative-degenerate-cap": (
        lambda t: ["experiment", "accuracy", "--config", str(experiment_config(t)),
                   "--out", str(t / "out.csv"), "--max-degenerate-fraction", "-0.5"],
        "max_degenerate_fraction must lie in [0, 1], got -0.5"),
    "nan-degenerate-cap": (
        lambda t: ["experiment", "sparsity", "--config", str(experiment_config(t)),
                   "--out", str(t / "out.csv"), "--max-degenerate-fraction", "nan"],
        "max_degenerate_fraction must lie in [0, 1], got nan"),
    "no-output-path": (
        lambda t: ["experiment", "accuracy", "--config", str(experiment_config(t))],
        "no output path"),
    "unwritable-out": (
        lambda t: ["experiment", "accuracy", "--config", str(experiment_config(t)),
                   "--out", str(t / "cfg.json" / "out.csv")],
        "Not a directory"),
}


@pytest.mark.filterwarnings("ignore::UserWarning")  # rho=1 applicability caveat
@pytest.mark.parametrize("case", FAILURES)
def test_every_failure_is_one_usage_line(tmp_path, capsys, case):
    argv, message = FAILURES[case]
    argv = argv(tmp_path)
    err = usage_error(capsys, argv)
    assert err.startswith(f"netmoments {argv[0]}: error:") and message in err
    assert not (tmp_path / "out.csv").exists()
    assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())
