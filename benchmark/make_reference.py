"""Regenerate ``reference_cdf.json``: high-count truth CDFs for ``sim_truth``.

Each entry is the empirical CDF, on the -2..2 lattice, of the studentized
moment over ``COUNT`` block-model networks drawn by the benchmark's own
batched sampler (``reference.truth_t_values``), independent of the
library's random streams.  Run from the repository root:

    python3 benchmark/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

# (motif, n, rho spec, rho) for criterion 4 (triangle) and criterion 7 (edge).
CONFIGS = (
    ("triangle", 10, "1", 1.0),
    ("triangle", 20, "1", 1.0),
    ("triangle", 40, "1", 1.0),
    ("edge", 80, "1", 1.0),
    ("edge", 80, "n^-1/4", 80 ** -0.25),
    ("edge", 80, "n^-1/2", 80 ** -0.5),
)

OUT = Path(__file__).with_name("reference_cdf.json")
COUNT = 500_000
SEED = 20040615


def key(motif: str, n: int, rho_spec: str) -> str:
    return f"{motif}/{n}/{rho_spec}"


def main() -> None:
    entries = {}
    for idx, (motif, n, spec, rho) in enumerate(CONFIGS):
        rng = np.random.default_rng([SEED, idx])
        t, degenerate = ref.truth_t_values(rng, motif, n, rho, COUNT)
        t.sort()
        values = np.searchsorted(t, ref.GRID, side="right") / t.size
        entries[key(motif, n, spec)] = {
            "motif": motif, "n": n, "rho": rho, "count": COUNT,
            "kept": int(t.size), "degenerate": degenerate,
            "values": [float(v) for v in values],
        }
        print(key(motif, n, spec), "kept", t.size, "degenerate", degenerate, flush=True)
    OUT.write_text(json.dumps({
        "grid": [float(x) for x in ref.GRID], "seed": SEED, "entries": entries,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
