"""Inputs and expected outputs of the observed-network workloads.

run.py runs this in a child process, so that input generation and the
reference computations (dense n x n products, brute-force subset
enumeration) leave no mark on the peak memory of the process that
serves the requests:

    python3 benchmark/observed_inputs.py WORKLOAD SEED TINY WORKDIR

It draws the networks from ``numpy.random.default_rng(SEED)``, writes
each as an edge list into WORKDIR and writes ``WORKDIR/inputs.json``:
the edge-list names, every request of a cycle with the JSON it must
print, the workload's sizes and the seconds spent on reference values,
which set-up time leaves out.  Nothing here imports netmoments.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref

COMMANDS = ("moments", "ci", "test")
ALPHA = 0.2
MOTIFS = {"observed_dense": ("triangle", "vshape"), "observed_threestar": ("threestar",)}
AVG_DEGREE = 10.0  # observed_dense
THREESTAR_NETWORKS = 3


def block_graph(rng: np.random.Generator, n: int, B) -> np.ndarray:
    """Two equal communities with block edge probabilities ``B``; no isolated last node.

    The CLI takes the node count from the largest id in the edge list, so
    the last node is given an edge if the draw left it isolated.
    """
    B = np.asarray(B, dtype=np.float64)
    z = (rng.random(n) >= 0.5).astype(np.intp)
    p = B[z[:, None], z[None, :]]
    iu = np.triu_indices(n, 1)
    a = np.zeros((n, n), dtype=np.int8)
    a[iu] = rng.random(iu[0].size) < p[iu]
    a |= a.T
    if not a[n - 1].any():
        a[n - 1, 0] = a[0, n - 1] = 1
    return a


def write_edge_list(path: Path, a: np.ndarray) -> None:
    i, j = np.nonzero(np.triu(a, 1))
    path.write_text("".join(f"{u + 1} {v + 1}\n" for u, v in zip(i.tolist(), j.tolist())))


def networks(name: str, rng: np.random.Generator, tiny: bool) -> list[np.ndarray]:
    if name == "observed_dense":
        # One network: the paper block model scaled down to the target average degree.
        n = 150 if tiny else 1000
        mean_p = float(np.mean(ref.PAPER_B))
        B = np.asarray(ref.PAPER_B) * AVG_DEGREE / ((n - 1) * mean_p)
        return [block_graph(rng, n, B)]
    n = 12 if tiny else 40
    return [block_graph(rng, n, ref.PAPER_B) for _ in range(THREESTAR_NETWORKS)]


def expected(a: np.ndarray, motif: str) -> tuple[float, dict]:
    """The null value of ``test`` and the JSON each command must print."""
    r = ref.MOTIF_R[motif]
    st = ref.moment_stats(a, motif)
    c_n = st["u_hat"] + 0.5 * math.sqrt(st["s_hat_sq"])
    return c_n, {
        "moments": {"n": st["n"], "motif": motif, "r": r, "degenerate": False,
                    **{key: st[key] for key in ("u_hat", "s_hat_sq", "xi1_hat_sq",
                                                "e_g1_cubed", "e_g1g1g2")}},
        "ci": {"n": st["n"], "motif": motif, "alpha": ALPHA, "method": "edgeworth",
               **ref.cornish_fisher_ci(st, r, ALPHA)},
        "test": {"n": st["n"], "motif": motif, "alternative": "two-sided",
                 **ref.expansion_test(st, r, c_n)},
    }


def main(argv: list[str]) -> int:
    name, seed, tiny, workdir = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    graphs = networks(name, np.random.default_rng(seed), tiny)
    paths = []
    for k, a in enumerate(graphs):
        paths.append(f"{name}-{k}.edges")
        write_edge_list(workdir / paths[-1], a)
    t0 = perf_counter()
    requests = []
    for k, a in enumerate(graphs):
        for motif in MOTIFS[name]:
            c_n, outputs = expected(a, motif)
            requests += [{"graph": k, "motif": motif, "command": command, "null": c_n,
                          "expected": outputs[command]} for command in COMMANDS]
    reference_s = perf_counter() - t0
    edges = [int(a.sum()) // 2 for a in graphs]
    sizes = {"n": graphs[0].shape[0], "networks": len(graphs), "edges": edges,
             "avg_degree": [2.0 * e / a.shape[0] for e, a in zip(edges, graphs)],
             "motifs": list(MOTIFS[name]), "commands": list(COMMANDS),
             "requests_per_cycle": len(requests)}
    (workdir / "inputs.json").write_text(json.dumps({
        "paths": paths, "requests": requests, "sizes": sizes, "reference_s": reference_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
