"""The benchmark's four workloads.

Every input (experiment seeds, configs, observed networks and their edge
lists) is drawn from the benchmark's own ``numpy.random.default_rng``
seeded by ``--seed``; the library receives only the generated inputs.
Each workload runs a fixed cycle of top-level operations (an experiment
call or a CLI request) and checks every output as it returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import observed_inputs
import reference as ref

REFERENCE_CDF = Path(__file__).with_name("reference_cdf.json")
OBSERVED_INPUTS = Path(__file__).with_name("observed_inputs.py")
MAX_OPS = 20_000  # experiment seeds drawn up front; far above any run's op count


class Capture:
    """Keeps what the harness's truth and bootstrap calls return, for checking."""

    TARGETS = ("monte_carlo_true_cdf", "subsample_distribution", "resample_distribution")

    def __init__(self, harness):
        self._harness = harness
        self._saved = []
        self.calls = []

    def __enter__(self) -> "Capture":
        for name in self.TARGETS:
            fn = getattr(self._harness, name)
            self._saved.append((name, fn))
            setattr(self._harness, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in reversed(self._saved):
            setattr(self._harness, name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.calls.append((name, args, None, exc))
                raise
            self.calls.append((name, args, result, None))
            return result
        return wrapper

    def take(self) -> list:
        out, self.calls = self.calls, []
        return out


class Workload:
    name = ""
    cycle = 1           # operations per cycle; runs measure whole cycles
    nominal_op_s = 0.1  # typical operation time; sizes the traced run's fixed work
    threads = 1         # harness threads
    reference_s = 0.0   # seconds of reference work inside make_inputs; not set-up time

    def __init__(self, nm, seed: int, tiny: bool, workdir: Path):
        self.nm = nm
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.capture = Capture(nm.harness)
        self.counters: dict[str, float] = {}

    def make_inputs(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Reference values for the checks; excluded from set-up time."""

    def op(self, i: int):
        """Run operation ``i``; return (networks studentized, output to check)."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []

    def sizes(self) -> dict:
        raise NotImplementedError

    def probes(self) -> list:
        """(graph, motif) pairs for the compute_stats allocation pass."""
        raise NotImplementedError

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


class SimTruth(Workload):
    """Criterion-4 and criterion-7 shaped experiments with Monte-Carlo truths.

    One operation is one experiment call at a single n (criterion 4,
    through run_accuracy_experiment) or a single rho (criterion 7,
    through run_sparsity_sweep); a cycle covers both configs once.
    """

    name = "sim_truth"
    nominal_op_s = 0.55
    KINDS = (
        ("accuracy", "triangle", 10, "1"),
        ("accuracy", "triangle", 20, "1"),
        ("accuracy", "triangle", 40, "1"),
        ("sparsity", "edge", 80, "1"),
        ("sparsity", "edge", 80, "n^-1/4"),
        ("sparsity", "edge", 80, "n^-1/2"),
    )
    cycle = len(KINDS)
    threads = 2  # as the acceptance suite runs these protocols
    N_MC = 1_000  # the smallest truth ExperimentConfig accepts
    METHODS = ("edgeworth_empirical", "normal")
    # Criterion 4 raises the degenerate cap for triangles at n = 10;
    # criterion 7 keeps the library default.
    CAPS = {"accuracy": 0.20, "sparsity": 0.01}

    def make_inputs(self) -> None:
        nm = self.nm
        self.repetitions = 2 if self.tiny else 30
        self.graphon = nm.block_model(ref.PAPER_PI, ref.PAPER_B)
        self.motifs = {"triangle": nm.TRIANGLE, "edge": nm.EDGE}
        self.seeds = self.rng.integers(0, 2 ** 62, size=MAX_OPS).tolist()
        for _, motif, n, spec in self.KINDS:
            nm.harness.population_mean(self.graphon, nm.resolve_rho(spec, n),
                                       self.motifs[motif], n_mc=self.N_MC)

    def prepare_checks(self) -> None:
        self.reference = json.loads(REFERENCE_CDF.read_text())

    def op(self, i: int):
        nm = self.nm
        kind, motif, n, spec = self.KINDS[i % self.cycle]
        cfg = nm.ExperimentConfig(
            graphon=self.graphon, motif=self.motifs[motif], n_list=[n],
            rho=spec if kind == "accuracy" else [spec], seed=self.seeds[i],
            n_mc=self.N_MC, repetitions=self.repetitions, methods=self.METHODS)
        self.capture.take()
        try:
            if kind == "accuracy":
                records = nm.harness.run_accuracy_experiment(
                    cfg, threads=self.threads,
                    max_degenerate_fraction=self.CAPS["accuracy"])
            else:
                records = nm.harness.run_sparsity_sweep(cfg, threads=self.threads)
        finally:
            calls = self.capture.take()
        return self.N_MC + self.repetitions, ((kind, motif, n, spec), records, calls)

    def check(self, output) -> list[str]:
        (kind, motif, n, spec), records, calls = output
        truths = [c for c in calls if c[0] == "monte_carlo_true_cdf"]
        if len(truths) != 1 or truths[0][3] is not None:
            return [f"expected one truth per call, got {len(truths)}"]
        truth = truths[0][2]
        self.count("truth.networks", truth.n_total)
        self.count("truth.degenerate", truth.n_degenerate)
        entry = self.reference["entries"][f"{motif}/{n}/{spec}"]
        errs = checks.check_truth(truth.grid, truth.values, truth.n_total,
                                  truth.n_degenerate, self.CAPS[kind], entry,
                                  self.reference["grid"])
        errs += checks.check_accuracy_records(records, truth.values, truth.grid,
                                              self.METHODS, self.repetitions)
        return errs

    def sizes(self) -> dict:
        return {"configs": [list(k) for k in self.KINDS], "n_mc": self.N_MC,
                "repetitions": self.repetitions, "threads": self.threads,
                "graphon": "paper block model"}

    def probes(self) -> list:
        A = self.nm.sample_graph(self.graphon, 40, 1.0, self.seeds[0])
        return [(A, self.nm.TRIANGLE)]


class SimBootstrap(Workload):
    """Simulation-2 coverage with all four methods; time goes to bootstrap replicates."""

    name = "sim_bootstrap"
    nominal_op_s = 0.1
    N = 80
    ALPHA = 0.2
    METHODS = ("edgeworth_empirical", "normal", "subsample", "resample")

    def make_inputs(self) -> None:
        nm = self.nm
        self.n_boot = 50 if self.tiny else 250
        self.graphon = nm.block_model(ref.PAPER_PI, ref.PAPER_B)
        self.seeds = self.rng.integers(0, 2 ** 62, size=MAX_OPS).tolist()
        nm.harness.population_mean(self.graphon, 1.0, nm.TRIANGLE)
        self.covered: dict[str, list[float]] = {m: [] for m in self.METHODS}

    def op(self, i: int):
        nm = self.nm
        cfg = nm.ExperimentConfig(
            graphon=self.graphon, motif=nm.TRIANGLE, n_list=[self.N], rho=1,
            seed=self.seeds[i], n_mc=1_000, n_boot=self.n_boot, repetitions=1,
            methods=self.METHODS)
        self.capture.take()
        try:
            records = nm.harness.run_coverage_experiment(cfg, alpha=self.ALPHA)
        finally:
            calls = self.capture.take()
        return 2 * self.n_boot + 1, (records, calls)

    def check(self, output) -> list[str]:
        records, calls = output
        errs = []
        boots = [c for c in calls if c[0] in ("subsample_distribution", "resample_distribution")]
        if len(boots) != 2:
            errs.append(f"expected two bootstrap runs, got {len(boots)}")
        for _, _, F, exc in boots:
            self.count("bootstrap.replicates", self.n_boot)
            if exc is not None:
                # Too many degenerate replicates: the program records the
                # repetition as degenerate, which is not a failure.
                dropped = getattr(exc, "n_dropped", None)
                if dropped is None:
                    errs.append(f"bootstrap raised {exc!r}")
                else:
                    self.count("bootstrap.dropped", dropped)
                continue
            self.count("bootstrap.dropped", F.n_dropped)
            errs += checks.check_bootstrap(F.samples, F.B, F.n_dropped, self.n_boot)
        errs += checks.check_coverage_records(records, self.METHODS, 1)
        for rec in records:
            if rec.metric == "coverage":
                self.covered[rec.method].append(rec.value)
        return errs

    def final_check(self) -> list[str]:
        return checks.check_coverage_rate(self.covered, self.ALPHA)

    def sizes(self) -> dict:
        return {"n": self.N, "n_boot": self.n_boot, "repetitions_per_call": 1,
                "alpha": self.ALPHA, "methods": list(self.METHODS), "motif": "triangle",
                "graphon": "paper block model"}

    def probes(self) -> list:
        A = self.nm.sample_graph(self.graphon, self.N, 1.0, self.seeds[0])
        return [(A, self.nm.TRIANGLE)]


class Observed(Workload):
    """CLI requests on observed networks written as edge lists in set-up.

    Requests cycle through moments, ci and test over every (network,
    motif) pair; each reloads its file, as the command line does.  The
    networks and the JSON each request must print come from a child
    process (observed_inputs.py), so this process's peak memory is the
    program's own.
    """

    def make_inputs(self) -> None:
        cmd = [sys.executable, str(OBSERVED_INPUTS), self.name, str(self.seed),
               "1" if self.tiny else "0", str(self.workdir)]
        subprocess.run(cmd, check=True, timeout=150)
        inputs = json.loads((self.workdir / "inputs.json").read_text())
        self.paths = [self.workdir / name for name in inputs["paths"]]
        self.requests = inputs["requests"]
        self.cycle = len(self.requests)
        self.reference_s = inputs["reference_s"]
        self._sizes = inputs["sizes"]

    def argv(self, req: dict) -> list[str]:
        argv = [req["command"], "--graph", str(self.paths[req["graph"]]), "--motif", req["motif"]]
        if req["command"] == "ci":
            argv += ["--alpha", repr(observed_inputs.ALPHA)]
        elif req["command"] == "test":
            argv += ["--null", repr(req["null"])]
        return argv

    def op(self, i: int):
        k = i % self.cycle
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.nm.cli.main(self.argv(self.requests[k]))
        return 1, (k, rc, buf.getvalue())

    def check(self, output) -> list[str]:
        k, rc, text = output
        req = self.requests[k]
        kind = (req["graph"], req["motif"], req["command"])
        if rc != 0:
            return [f"{kind}: exit code {rc}"]
        try:
            out = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return [f"{kind}: output is not one JSON line: {text!r:.200}"]
        return [f"{kind}: {e}" for e in checks.check_cli_output(out, req["expected"])]

    def sizes(self) -> dict:
        return self._sizes

    def probes(self) -> list:
        A = self.nm.load_edge_list(self.paths[0])
        return [(A, self.nm.builtin_motif(m)) for m in observed_inputs.MOTIFS[self.name]]


class ObservedDense(Observed):
    """One sparse-ish observed network at n = 1000 held as dense matrices."""

    name = "observed_dense"
    nominal_op_s = 0.09


class ObservedThreestar(Observed):
    """Three-star requests on small networks: the subset-enumeration path."""

    name = "observed_threestar"
    nominal_op_s = 0.11


WORKLOADS = {w.name: w for w in (SimTruth, SimBootstrap, ObservedDense, ObservedThreestar)}
