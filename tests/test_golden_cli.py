"""Golden CLI output on observed edge lists, pinned byte for byte.

``tests/data/golden_cli.jsonl`` holds the JSON lines that ``moments``,
``ci --alpha 0.2`` and ``test --null c`` print for the edge, triangle,
V-shape and three-star on six edge lists drawn from a fixed seed: four
sparse graphs with 300 to 1000 nodes (large and sparse enough for the
sparse codegree route of :mod:`netmoments.moments`) and two small dense
ones.  One sparse list is written shuffled, with reversed pairs, commas,
a comment and duplicate lines.  The null ``c`` of ``test`` is
``u_hat + s_hat / 2`` from the ``moments`` line, rounded to four
significant digits.  Counts are exact integers, so any change to how
they are computed or loaded must reproduce the file exactly; a change
that is meant to alter the output regenerates it with
``PYTHONPATH=src python tests/test_golden_cli.py`` and says so.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from netmoments import cli

GOLDEN = Path(__file__).parent / "data" / "golden_cli.jsonl"

SEED = 20261018
MOTIFS = ("edge", "triangle", "vshape", "threestar")

# (name, n, edge probability within / between two equal halves, messy file)
GRAPHS = (
    ("sparse300", 300, (0.02, 0.02), False),
    ("sparse500", 500, (0.024, 0.008), True),
    ("sparse700", 700, (0.0143, 0.0143), False),
    ("sparse1000", 1000, (0.016, 0.004), False),
    ("dense12", 12, (0.5, 0.5), False),
    ("dense30", 30, (0.6, 0.3), False),
)


def draw_adjacency(rng: np.random.Generator, n: int, p_in: float, p_out: float) -> np.ndarray:
    """Two equal halves; the last node gets an edge so that it sets the node count."""
    half = np.arange(n) < n // 2
    p = np.where(half[:, None] == half[None, :], p_in, p_out)
    a = np.triu(rng.random((n, n)) < p, 1).astype(np.int8)
    a |= a.T
    if not a[n - 1].any():
        a[n - 1, 0] = a[0, n - 1] = 1
    return a


def edge_list_text(rng: np.random.Generator, a: np.ndarray, messy: bool) -> str:
    i, j = np.nonzero(np.triu(a, 1))
    pairs = np.column_stack([i, j]) + 1
    if not messy:
        return "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    pairs = np.concatenate([pairs, pairs[:25]])
    pairs = pairs[rng.permutation(len(pairs))]
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    lines = [f"{u},{v}" if k % 3 else f"  {u}\t{v} " for k, (u, v) in enumerate(pairs.tolist())]
    return "# shuffled, with duplicates\n\n" + "\n".join(lines) + "\n"


def write_edge_lists(directory: Path) -> list[Path]:
    rng = np.random.default_rng(SEED)
    paths = []
    for name, n, (p_in, p_out), messy in GRAPHS:
        a = draw_adjacency(rng, n, p_in, p_out)
        paths.append(directory / f"{name}.edges")
        paths[-1].write_text(edge_list_text(rng, a, messy), encoding="utf-8")
    return paths


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def render(directory: Path) -> bytes:
    out = []
    for path in write_edge_lists(directory):
        for motif in MOTIFS:
            base = ["--graph", str(path), "--motif", motif]
            moments = run(["moments", *base])
            rec = json.loads(moments)
            null = float(f"{rec['u_hat'] + 0.5 * math.sqrt(rec['s_hat_sq']):.4g}")
            out += [moments, run(["ci", *base, "--alpha", "0.2"]),
                    run(["test", *base, "--null", repr(null)])]
    return "".join(out).encode("utf-8")


def test_cli_output_matches_golden_file(tmp_path):
    assert render(tmp_path) == GOLDEN.read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_bytes(render(Path(tmp)))
