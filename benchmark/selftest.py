"""Self-test of the benchmark.

1. Every workload runs at a tiny size, untraced and traced, and must print
   every metric that BENCHMARK.json names, with its unit, pass its checks
   and count no failures.
2. Each output check must pass on a real output and fail on a
   deliberately perturbed copy of it.
3. The dense reference formulas must equal brute-force enumeration, and
   layer_map.json must cover every per-layer metric.

Run from the repository root (takes about a minute):

    python3 benchmark/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_metrics_printed(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run_tiny(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0, lines[:-1]
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (set(got) ^ set(want), workload, trace)
        for name, v in result["metrics"].items():
            assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
            assert any(line.startswith(f"{workload} {name} = ") and f" {want[name]}" in line
                       for line in lines), f"{name} not printed with its unit"
        assert any(line.startswith(f"{workload} failed_frac = ") for line in lines)
        assert any(line.startswith("manifest: ") for line in lines)


def make_workload(nm, name: str, workdir: Path):
    import workloads
    wl = workloads.WORKLOADS[name](nm, 5, True, workdir)
    wl.make_inputs()
    wl.prepare_checks()
    with wl.capture:
        _, out = wl.op(0)
    assert wl.check(out) == [], wl.check(out)
    return wl, out


def fails(wl, out) -> bool:
    return bool(wl.check(out))


def test_sim_truth_checks(nm, workdir: Path) -> None:
    import dataclasses
    import numpy as np
    wl, (kind, records, calls) = make_workload(nm, "sim_truth", workdir)
    (name, args, truth, exc), = [c for c in calls if c[0] == "monte_carlo_true_cdf"]

    def with_truth(**changes):
        t = dataclasses.replace(truth, **changes)
        return kind, records, [(name, args, t, exc)]

    values = np.asarray(truth.values)
    assert fails(wl, with_truth(values=np.clip(values + 0.3, 0.0, 1.0)))  # far from reference
    assert fails(wl, with_truth(values=values[::-1].copy()))  # decreasing
    assert fails(wl, with_truth(values=values * 1.5))  # leaves [0, 1]
    assert fails(wl, with_truth(n_degenerate=truth.n_total))  # above the cap
    bad = [dataclasses.replace(r, value=r.value + 1e-6)
           if r.metric == "sup_error" and r.method == "normal" else r for r in records]
    assert fails(wl, (kind, bad, calls))  # normal error no longer recomputes
    assert fails(wl, (kind, records[1:], calls))  # a record missing
    assert fails(wl, (kind, records, []))  # no truth


def test_sim_bootstrap_checks(nm, workdir: Path) -> None:
    import dataclasses
    import numpy as np
    wl, (records, calls) = make_workload(nm, "sim_bootstrap", workdir)
    boots = [i for i, c in enumerate(calls) if c[0].endswith("_distribution")]

    def with_boot(**changes):
        i = boots[0]
        name, args, F, exc = calls[i]
        fake = types.SimpleNamespace(samples=F.samples, B=F.B, n_dropped=F.n_dropped)
        vars(fake).update(changes)
        return records, calls[:i] + [(name, args, fake, exc)] + calls[i + 1:]

    F = calls[boots[0]][2]
    assert fails(wl, with_boot(samples=F.samples[1:], B=F.B - 1))  # a replicate lost
    nan = np.array(F.samples, dtype=float)
    nan[0] = np.nan
    assert fails(wl, with_boot(samples=nan))  # non-finite replicate
    assert fails(wl, (records, calls[:1]))  # a bootstrap run missing
    bad = [dataclasses.replace(r, value=r.value * 1.01)
           if r.metric == "length" and r.method == "normal" else r for r in records]
    assert fails(wl, (bad, calls))  # interval lengths differ
    bad = [dataclasses.replace(r, value=0.5) if r.metric == "coverage" else r for r in records]
    assert fails(wl, (bad, calls))  # coverage not 0/1
    wl.covered = {"normal": [0.0] * 200}
    assert wl.final_check()  # coverage far below 1 - alpha
    wl.covered = {"normal": [1.0] * 160 + [0.0] * 40}
    assert not wl.final_check()


def test_observed_checks(nm, workdir: Path, name: str) -> None:
    wl, _ = make_workload(nm, name, workdir)
    for i in range(wl.cycle):
        with wl.capture:
            _, (kind, rc, text) = wl.op(i)
        assert wl.check((kind, rc, text)) == []
        out = json.loads(text)
        for key, value in out.items():
            if isinstance(value, float) and value != 0.0:
                perturbed = dict(out, **{key: value * (1 + 1e-9)})
                assert fails(wl, (kind, rc, json.dumps(perturbed))), (kind, key)
        dropped = {k: v for k, v in out.items() if k != "n"}
        assert fails(wl, (kind, rc, json.dumps(dropped)))
        assert fails(wl, (kind, 1, text))
        assert fails(wl, (kind, rc, "not json"))


def test_layer_map() -> None:
    """layer_map.json names every per-layer metric with real metrics and workloads."""
    layers = json.loads((HERE / "layer_map.json").read_text())["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for name, entry in layers.items():
        assert set(entry["moves"]) <= end_to_end and set(entry["on"]) <= workloads, name


def test_reference_formulas() -> None:
    import numpy as np
    import reference as ref
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(4, 11))
        a = np.zeros((n, n), dtype=np.int8)
        iu = np.triu_indices(n, 1)
        a[iu] = rng.random(iu[0].size) < rng.uniform(0.1, 0.9)
        a |= a.T
        for motif in ("edge", "triangle", "vshape"):
            t1, p1, q1 = ref.dense_counts(a, motif)
            t2, p2, q2 = ref.brute_counts(a, motif)
            assert t1 == t2 and (p1 == p2).all() and (q1 == q2).all(), motif


def main() -> int:
    sys.path.insert(0, str(HERE))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
    test_layer_map()
    test_reference_formulas()
    print("layer map and reference formulas == brute force: ok")
    import run
    nm = run.import_package()
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workdir = Path(tmp)
        test_sim_truth_checks(nm, workdir)
        test_sim_bootstrap_checks(nm, workdir)
        test_observed_checks(nm, workdir, "observed_dense")
        test_observed_checks(nm, workdir, "observed_threestar")
    print("checks fail on perturbed outputs: ok")
    for name in run.WORKLOAD_NAMES:
        test_metrics_printed(name)
        print(f"{name}: every metric printed with its unit: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
