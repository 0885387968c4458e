import csv
import json

import numpy as np
import pytest

from netmoments import graphon_from_config, load_edge_list, sample_graph
from netmoments.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in out if line.startswith("{")]


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
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["x", "value"]
        assert len(rows) == 42
        values = np.array([float(r[1]) for r in rows[1:]])
        assert values[0] < 0.2 and values[-1] > 0.8

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
        with pytest.raises(ValueError, match="c_n"):
            main(["test", "--graph", str(graph_file), "--motif", "triangle", "--null", null])
        assert capsys.readouterr().out == ""

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
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["kind", "key", "value"]
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"replicate", "quantile"}

    def test_resample_default(self, graph_file, tmp_path, capsys):
        out = tmp_path / "boot2.csv"
        code, msgs = run_cli(capsys, [
            "bootstrap", "--graph", str(graph_file), "--motif", "edge",
            "--scheme", "resample", "--B", "10", "--seed", "9", "--out", str(out)])
        assert code == 0 and msgs[-1]["B"] >= 9


class TestExperimentCommand:
    def config(self, tmp_path, **overrides):
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

    def test_accuracy(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        out = tmp_path / "results.csv"
        with pytest.warns(UserWarning):  # rho=1 applicability caveat
            code, msgs = run_cli(capsys, [
                "experiment", "accuracy", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["method", "graphon", "motif", "n", "rho", "rep",
                          "metric", "value"]
        assert len(rows) > 1

    def test_sparsity_with_config_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cfg = self.config(tmp_path, rho=[1, "n^-1/2"], output=str(out))
        with pytest.warns(UserWarning):
            code, msgs = run_cli(capsys, [
                "experiment", "sparsity", "--config", str(cfg)])
        assert code == 0
        assert out.exists()

    def test_coverage_summary(self, tmp_path, capsys):
        cfg = self.config(tmp_path, n=[16], repetitions=4)
        out = tmp_path / "cov.csv"
        with pytest.warns(UserWarning):
            code, msgs = run_cli(capsys, [
                "experiment", "coverage", "--config", str(cfg), "--out", str(out),
                "--alpha", "0.2"])
        assert code == 0
        summary = msgs[0]
        assert "edgeworth_empirical" in summary

    def test_coverage_rejects_threads(self, tmp_path, capsys):
        cfg = self.config(tmp_path, n=[16], repetitions=2)
        out = tmp_path / "cov.csv"
        with pytest.raises(SystemExit, match="--threads") as exc:
            main(["experiment", "coverage", "--config", str(cfg), "--out", str(out),
                  "--threads", "2"])
        assert exc.value.code != 0
        assert not out.exists()

    def test_coverage_rejects_max_degenerate_fraction(self, tmp_path, capsys):
        cfg = self.config(tmp_path, n=[16], repetitions=2)
        out = tmp_path / "cov.csv"
        with pytest.raises(SystemExit, match="--max-degenerate-fraction") as exc:
            main(["experiment", "coverage", "--config", str(cfg), "--out", str(out),
                  "--max-degenerate-fraction", "0.5"])
        assert exc.value.code != 0
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["accuracy", "sparsity"])
    def test_truth_experiments_reject_alpha(self, tmp_path, capsys, kind):
        cfg = self.config(tmp_path)
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit, match="--alpha") as exc:
            main(["experiment", kind, "--config", str(cfg), "--out", str(out),
                  "--alpha", "0.01"])
        assert exc.value.code != 0
        assert not out.exists()

    def test_accuracy_runs_a_rho_list_as_the_sweep(self, tmp_path, capsys):
        cfg = self.config(tmp_path, rho=[1, "n^-1/2"])
        outputs = {}
        for kind in ("accuracy", "sparsity"):
            outputs[kind] = tmp_path / f"{kind}.csv"
            with pytest.warns(UserWarning):
                code, _ = run_cli(capsys, [
                    "experiment", kind, "--config", str(cfg), "--out", str(outputs[kind]),
                    "--max-degenerate-fraction", "0.5"])
            assert code == 0
        rows = {kind: [row for row in csv.DictReader(open(path))
                       if row["metric"] != "time_seconds"]
                for kind, path in outputs.items()}
        assert {row["rho"] for row in rows["accuracy"]} == {"1.0", repr(12 ** -0.5)}
        assert rows["accuracy"] == rows["sparsity"]

    def test_cache_dir_is_not_an_option(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "accuracy", "--config", str(cfg), "--out", str(out),
                  "--cache-dir", str(tmp_path / "d")])
        assert exc.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_path(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        with pytest.raises(SystemExit, match="no output path"):
            main(["experiment", "accuracy", "--config", str(cfg)])
