"""netmoments benchmark: simulation throughput and observed-network latency.

Run from the repository root:

    python3 benchmark/run.py --workload sim_truth --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs a fixed amount of work once untraced and once
traced, and reports per-layer metrics from the traced pass.  Operation
and set-up times are scaled to a reference machine speed by a kernel run
between operations (see calibrate.py); the wall-clock values are printed
beside them.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``BENCHMARK.json`` at the repository root says why each workload exists;
``layer_map.json`` says which end-to-end metric each layer metric should
move, on which workloads.
"""

from time import perf_counter

START = perf_counter()  # set-up time counts from here, before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import SPAN_TARGETS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sim_truth", "sim_bootstrap", "observed_dense", "observed_threestar")
MAX_THREADS = 2  # every workload, BLAS included, uses at most this many threads
# sim_truth already runs two harness threads, so its BLAS runs in each one.
SINGLE_BLAS = ("sim_truth",)
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="netmoments benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (set-up sampling)")
    return p.parse_args(argv)


def blas_threads(workload: str) -> int:
    if workload in SINGLE_BLAS:
        return 1
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def import_package():
    """Import netmoments from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "netmoments" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no netmoments sources under {src}")
    sys.path.insert(0, str(src))
    import netmoments
    import netmoments.cli
    import netmoments.harness
    if Path(netmoments.__file__).resolve().parent != (src / "netmoments").resolve():
        raise SystemExit(f"benchmark: imported netmoments from {netmoments.__file__}")
    return netmoments


# -- measurement --------------------------------------------------------------

class Phase:
    """Per-operation latencies, calibration samples, network counts and failures."""

    def __init__(self):
        from calibrate import Calibration  # numpy loads only after the thread limits are set
        self.cal = Calibration()
        self.latencies: list[float] = []  # raw seconds, successful operations only
        self.scaled: list[float] = []  # the same, at reference machine speed
        self._cal_index: list[int] = []  # calibration index of each successful operation
        self.graphs = 0
        self.attempted = 0
        self.failures: list[str] = []

    def finish(self) -> "Phase":
        self.scaled = [lat * self.cal.factor(k)
                       for lat, k in zip(self.latencies, self._cal_index)]
        return self

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_busy_s(self) -> float:
        return sum(self.scaled)


def run_op(wl, phase: Phase, index) -> None:
    """One operation, its output check and one calibration sample after it."""
    phase.attempted += 1
    t0 = perf_counter()
    try:
        graphs, out = wl.op(index)
    except Exception:
        phase.failures.append(f"op {index}: {traceback.format_exc(limit=4)}")
        phase.cal.sample()
        return
    dt = perf_counter() - t0
    phase.cal.sample()
    errs = wl.check(out)
    if errs:
        phase.failures.append(f"op {index}: " + "; ".join(errs[:3]))
        return
    phase.latencies.append(dt)
    phase._cal_index.append(len(phase.cal.samples) - 1)
    phase.graphs += graphs


def measure(wl, seconds: float | None = None, n_ops: int | None = None) -> Phase:
    """Operations 0, 1, ...: whole cycles for ``seconds``, or exactly ``n_ops``."""
    phase = Phase()
    start = perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % wl.cycle == 0 and perf_counter() - start >= seconds:
            break
        run_op(wl, phase, i)
        i += 1
    return phase.finish()


def set_up(nm, name: str, seed: int, tiny: bool, workdir: Path):
    """Inputs, population means and one warm-up op.

    Returns the workload, the raw and the scaled set-up seconds, and the
    warm-up's check failures.
    """
    import workloads
    from calibrate import WINDOW
    wl = workloads.WORKLOADS[name](nm, seed, tiny, workdir)
    wl.make_inputs()
    t_ref = perf_counter()
    wl.prepare_checks()
    paused = perf_counter() - t_ref + wl.reference_s
    warm = Phase()
    with wl.capture:
        run_op(wl, warm, workloads.MAX_OPS - 1)
    setup_s = perf_counter() - START - paused
    # The warm-up left one kernel sample; a few more make the scale steady.
    for _ in range(2 * WINDOW):
        warm.cal.sample()
    wl.counters.clear()
    return wl, setup_s, setup_s * warm.cal.run_factor(), warm.failures


def setup_samples(args, own: dict) -> list[dict]:
    """This process's set-up time plus that of fresh set-up-only processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- manifest -----------------------------------------------------------------

def blas_info(np) -> dict:
    info = {"library": None, "version": None, "threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    import ctypes
    import glob
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def manifest(nm, wl, args) -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "netmoments": getattr(nm, "__version__", None),
        "blas": blas_info(np), "threads": wl.threads, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "workload": wl.name, "sizes": wl.sizes(),
    }


# -- per-layer metrics ----------------------------------------------------------

SELF_SPANS = tuple(dict.fromkeys(span for span, _, _ in SPAN_TARGETS))
CALL_SPANS = ("rng.stream", "graphon.sample_graph", "adjacency.validate",
              "moments.motif_counts")
US_SPANS = ("graphon.sample_graph", "moments.motif_counts")
BASELINE = ("sample_graph.n40", "sample_graph.n80", "triangle_counts.n40",
            "triangle_counts.n80", "validate.n40", "validate.n80",
            "threestar_compute_stats.n40")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in reporting order."""
    names = [(f"{s}.self_s", "s") for s in SELF_SPANS]
    names += [(f"{s}.calls", "count") for s in CALL_SPANS]
    names += [(f"{s}.us_per_call", "us") for s in US_SPANS]
    names += [
        ("moments.compute_stats.peak_alloc_mb", "MB"),
        ("bootstrap.replicates", "count"), ("bootstrap.dropped", "count"),
        ("bootstrap.kept_ratio", "ratio"), ("bootstrap.us_per_replicate", "us"),
        ("harness.truth.networks", "count"), ("harness.truth.degenerate", "count"),
        ("harness.truth.kept_ratio", "ratio"),
        ("harness.truth.serial_graphs_per_s", "graphs/s"),
        ("harness.truth.thread_speedup", "ratio"),
        ("trace.overhead_frac", "ratio"), ("trace.unattributed_frac", "ratio"),
    ]
    names += [(f"baseline.{b}.us_per_call", "us") for b in BASELINE]
    return names


def per_call_us(fn, make_args, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean per-call time, each call on fresh inputs."""
    times = []
    for _ in range(batches):
        args = [make_args() for _ in range(calls)]
        t0 = perf_counter()
        for a in args:
            fn(*a)
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def baseline_micro(nm, rng, tiny: bool) -> dict:
    """Per-call times of the stages the ROADMAP baseline quotes, in isolation."""
    g = nm.block_model([0.5, 0.5], [[0.6, 0.2], [0.2, 0.2]])
    seed = lambda: int(rng.integers(0, 2 ** 62))  # noqa: E731
    calls = 5 if tiny else 100
    out = {}
    for n in (40, 80):
        out[f"sample_graph.n{n}"] = per_call_us(
            nm.sample_graph, lambda: (g, n, 1.0, seed()), calls)
        out[f"triangle_counts.n{n}"] = per_call_us(
            nm.motif_counts, lambda: (nm.sample_graph(g, n, 1.0, seed()), nm.TRIANGLE), calls)
        out[f"validate.n{n}"] = per_call_us(
            nm.AdjacencyMatrix, lambda: (nm.sample_graph(g, n, 1.0, seed()).a.copy(),), calls)
    out["threestar_compute_stats.n40"] = per_call_us(
        nm.compute_stats,
        lambda: (nm.sample_graph(g, 12 if tiny else 40, 1.0, seed()), nm.THREESTAR),
        1, batches=3)
    return out


def peak_alloc_mb(nm, probes) -> float:
    """Largest traced allocation peak of compute_stats over the probes (timing discarded)."""
    peak = 0
    for A, motif in probes:
        tracemalloc.start()
        try:
            nm.compute_stats(A, motif)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def traced_run(nm, wl, args) -> tuple[dict, Phase]:
    import numpy as np
    # A fixed amount of work (whole cycles, about a third of --seconds each
    # way on the seed code), so a faster program does not trace more calls.
    per_cycle = wl.nominal_op_s * wl.cycle
    n_ops = wl.cycle * max(1, math.ceil(args.seconds / 3 / per_cycle))
    if args.tiny:
        n_ops = wl.cycle
    with wl.capture:
        base = measure(wl, n_ops=n_ops)
    wl.counters.clear()
    tracer = Tracer()
    with tracer, wl.capture:
        traced = measure(wl, n_ops=n_ops)
    totals = tracer.totals()
    c = dict(wl.counters)
    m = {}
    for s in SELF_SPANS:
        m[f"{s}.self_s"] = totals.get(s, (0, 0.0, 0.0))[2]
    for s in CALL_SPANS:
        m[f"{s}.calls"] = totals.get(s, (0, 0.0, 0.0))[0]
    for s in US_SPANS:
        calls, total, _ = totals.get(s, (0, 0.0, 0.0))
        m[f"{s}.us_per_call"] = total / calls * 1e6 if calls else 0.0
    reps, dropped = c.get("bootstrap.replicates", 0), c.get("bootstrap.dropped", 0)
    boot_s = sum(totals.get(s, (0, 0.0, 0.0))[1]
                 for s in ("bootstrap.subsample_distribution", "bootstrap.resample_distribution"))
    nets, degen = c.get("truth.networks", 0), c.get("truth.degenerate", 0)
    m.update({
        "moments.compute_stats.peak_alloc_mb": peak_alloc_mb(nm, wl.probes()),
        "bootstrap.replicates": reps, "bootstrap.dropped": dropped,
        "bootstrap.kept_ratio": (reps - dropped) / reps if reps else 0.0,
        "bootstrap.us_per_replicate": boot_s / reps * 1e6 if reps else 0.0,
        "harness.truth.networks": nets, "harness.truth.degenerate": degen,
        "harness.truth.kept_ratio": (nets - degen) / nets if nets else 0.0,
        "harness.truth.serial_graphs_per_s": 0.0, "harness.truth.thread_speedup": 0.0,
        "trace.overhead_frac": (traced.scaled_busy_s / base.scaled_busy_s - 1.0
                                if base.scaled_busy_s else 0.0),
        "trace.unattributed_frac": ((traced.busy_s - tracer.root_s) / traced.busy_s
                                    if traced.busy_s else 0.0),
    })
    if wl.name == "sim_truth":
        # The same first cycle with threads=1, against the threaded pass above.
        threads, wl.threads = wl.threads, 1
        with wl.capture:
            serial = measure(wl, n_ops=wl.cycle)
        wl.threads = threads
        threaded_s = sum(base.scaled[:wl.cycle])
        if serial.scaled_busy_s and threaded_s:
            m["harness.truth.serial_graphs_per_s"] = serial.graphs / serial.scaled_busy_s
            m["harness.truth.thread_speedup"] = serial.scaled_busy_s / threaded_s
        base.failures += serial.failures
        base.attempted += serial.attempted
    micro = baseline_micro(nm, np.random.default_rng([args.seed, 1]), args.tiny)
    m.update({f"baseline.{k}.us_per_call": v for k, v in micro.items()})
    traced.failures = base.failures + traced.failures
    traced.attempted += base.attempted
    return m, traced


# -- entry point ------------------------------------------------------------------

def run_workload(args) -> int:
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.update({k: str(blas_threads(args.workload)) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    nm = import_package()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, raw_setup_s, setup_s, failures = set_up(nm, args.workload, args.seed,
                                                      args.tiny, workdir)
        if args.setup_only:
            print(json.dumps({"raw": raw_setup_s, "scaled": setup_s}))
            return 0
        raw = {}
        if args.trace:
            metrics, phase = traced_run(nm, wl, args)
            units = dict(per_layer_names())
        else:
            with wl.capture:
                phase = measure(wl, seconds=args.seconds)
            samples = setup_samples(args, {"raw": raw_setup_s, "scaled": setup_s})
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(phase, phase.scaled,
                                 statistics.median(s["scaled"] for s in samples), rss_mb)
            raw = end_to_end(phase, phase.latencies,
                             statistics.median(s["raw"] for s in samples), rss_mb)
            del raw["peak_rss_mb"]
            units = END_TO_END_UNITS
        failures = failures + phase.failures
        final = wl.final_check()
        attempted = phase.attempted
        failed = len(phase.failures)
        for line in failures[:10] + final:
            print(f"CHECK FAILED: {line}")
        print("manifest: " + json.dumps(manifest(nm, wl, args)))
        print(f"requests: {len(phase.latencies)} timed operations, "
              f"{phase.graphs} networks studentized")
        for name, value in metrics.items():
            wall = f"  (wall clock {raw[name]:.6g})" if name in raw else ""
            print(f"{wl.name} {name} = {value:.6g} {units[name]}{wall}")
        print(f"{wl.name} failed_frac = {failed / max(attempted, 1):.6g} ratio "
              f"({failed}/{attempted})")
        print(f"{wl.name} checks: {'pass' if not failures and not final else 'FAIL'}")
        print(json.dumps({
            "correct": not failures and not final,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


END_TO_END_UNITS = {"setup_s": "s", "graphs_per_s": "graphs/s", "request_p50_ms": "ms",
                    "request_p90_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(phase: Phase, latencies: list[float], setup_s: float, rss_mb: float) -> dict:
    lat_ms = [x * 1e3 for x in latencies] or [0.0]  # 0 only when every operation failed
    busy = sum(latencies)
    return {
        "setup_s": setup_s,
        "graphs_per_s": phase.graphs / busy if busy else 0.0,
        "request_p50_ms": statistics.median(lat_ms),
        "request_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": rss_mb,
    }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) without numpy."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary line last."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"benchmark: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
