"""Golden population moments and coefficients, pinned byte for byte.

``tests/data/golden_population.csv`` holds every scalar of
:func:`population_moment` and :func:`population_edgeworth_coefficients`
(``g1_mean`` and every ``se_*`` included), one per row: floats as the
``repr`` of a Python float, method labels as text.  Exact
cases enumerate the paper's block model and a three-block model for the
edge, triangle, V-shape, three-star and four-node path, plus the
five-node bull on the paper model, at ``rho`` 1 and 0.3.  Monte-Carlo
cases integrate the smooth graphon at ``m = 10^4`` with a fixed seed.
Exact values centre every pinned truth, so a change to how they are
summed must reproduce the file exactly; a change that is meant to alter
them regenerates it with
``PYTHONPATH=src python tests/test_golden_population.py`` and says so.
"""

import dataclasses
from pathlib import Path

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, Motif, block_model, from_edges,
                        population_edgeworth_coefficients, population_moment,
                        smooth_graphon)
from conftest import paper_block_model

GOLDEN = Path(__file__).parent / "data" / "golden_population.csv"

FOUR_PATH = Motif(from_edges(4, [(0, 1), (1, 2), (2, 3)]).a, name="four_path")
BULL = Motif(from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]).a, name="bull")

PAPER = paper_block_model()
THREE_BLOCK = block_model([0.2, 0.3, 0.5], [[0.7, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.4]],
                          name="three_block")
SMOOTH = smooth_graphon()
MOTIFS = (EDGE, TRIANGLE, VSHAPE, THREESTAR, FOUR_PATH)
RHOS = (1.0, 0.3)
MC_M, MC_SEED = 10_000, 11

# (case label, graphon, motif, rho)
CASES = tuple(
    [(f"paper-{mo.name}-{rho}", PAPER, mo, rho) for mo in MOTIFS + (BULL,) for rho in RHOS]
    + [(f"three-{mo.name}-{rho}", THREE_BLOCK, mo, rho) for mo in MOTIFS for rho in RHOS]
    + [(f"smooth-{mo.name}-{rho}", SMOOTH, mo, rho)
       for mo in (EDGE, TRIANGLE, THREESTAR) for rho in RHOS])


def records(g, motif, rho):
    """(quantity, value) for every scalar of the two population calls."""
    est = population_moment(g, rho, motif, m=MC_M, seed=MC_SEED)
    pc = population_edgeworth_coefficients(g, rho, motif, m=MC_M, seed=MC_SEED)
    yield from (("moment." + k, v) for k, v in dataclasses.asdict(est).items())
    yield from (("coefficients." + k, v) for k, v in dataclasses.asdict(pc).items())


def render() -> bytes:
    rows = ["case,quantity,value"]
    for label, g, motif, rho in CASES:
        rows.extend(f"{label},{k},{v if isinstance(v, str) else repr(float(v))}"
                    for k, v in records(g, motif, rho))
    return ("\n".join(rows) + "\n").encode("utf-8")


def test_population_matches_golden_file():
    assert render() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(render())
