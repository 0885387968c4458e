"""Edge-list parsing: the one-pass parse against the line-by-line reference."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netmoments import from_edges, load_edge_list


def line_parser(path):
    """``load_edge_list`` as a plain loop over the lines of the file.

    The reference for every accepted file, every matrix and every
    message of the one-pass parse.
    """
    edges = []
    max_id = 0
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two node ids, got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: node ids must be integers, got {raw!r}") from None
        if i < 1 or j < 1:
            raise ValueError(f"{path}:{lineno}: node ids are 1-based, got {raw!r}")
        if i == j:
            raise ValueError(f"{path}:{lineno}: self-loop {i} rejected")
        max_id = max(max_id, i, j)
        edges.append((i - 1, j - 1))
    if max_id < 2:
        raise ValueError(f"{path}: no edges found")
    return from_edges(max_id, edges)


def outcome(load, path):
    """The matrix ``load`` builds, or the exception it raises; warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            A = load(path)
        except Exception as exc:  # compared, type and message, with the reference
            return type(exc).__name__, str(exc)
    return A.n, A.a.tobytes()


def assert_same_as_line_parser(path, text):
    path.write_text(text)
    assert outcome(load_edge_list, path) == outcome(line_parser, path)


# Characters the line parser treats in some special way: separators,
# comments, line breaks (``\x0c`` ends a line for ``str.splitlines``),
# signs, decimals, digit grouping and a non-ASCII digit.
HOSTILE = "0123456789 \t,#\r\n\x0c+-._١"

ids = st.integers(1, 30).map(str)
tokens = st.one_of(st.integers(0, 40).map(str), st.sampled_from(["00", "01", "007", "+3", "-1"]),
                   st.text(HOSTILE, max_size=3))
seps = st.sampled_from([" ", "\t", ",", " , ", ",,", "  "])
pads = st.sampled_from(["", "", " ", "\t", ",", ", "])
# Lines that hold one valid edge, ...
edge_lines = st.builds(lambda p, i, s, j, q: p + i + s + j + q, pads, ids, seps, ids, pads)
# ... and lines of zero to four tokens of any kind.
token_lines = st.lists(tokens, max_size=4).flatmap(
    lambda parts: st.lists(seps, min_size=len(parts), max_size=len(parts)).map(
        lambda gaps: "".join(g + t for g, t in zip(gaps, parts))))
any_lines = st.one_of(edge_lines, token_lines, st.sampled_from(["", " ", "\t", ",", "#"]))
texts = st.one_of(
    st.lists(edge_lines, min_size=1, max_size=8).map("\n".join),
    st.lists(edge_lines, min_size=1, max_size=8).map(lambda ls: "".join(x + "\n" for x in ls)),
    st.lists(any_lines, max_size=8).flatmap(
        lambda ls: st.sampled_from(["\n", "\r\n", "\r", "\x0c"]).map(lambda nl: nl.join(ls))),
    st.text(HOSTILE, max_size=40))


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    return tmp_path_factory.mktemp("edges") / "g.edges"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts)
def test_matches_line_parser(edge_file, text):
    # Ids of up to three digits keep every matrix small.
    assume(not re.search(r"[\d_]{4}", text))
    assert_same_as_line_parser(edge_file, text)


@pytest.mark.parametrize("text", [
    "1 2\n2,3\n3\t1\n",
    "1 2\r\n2 3\r\n",
    "1 2\n\n   \n\t\n2 3\n",
    "1 2\n2 3",
    "1,2\n\n2,3\n",
    "01 002\n",
    "+1 2\n",
    "1 2 # note\n",
    "1 2\n , \n2 3\n",
    "1 2\n3\n",
    "1 2 3\n",
    "1.0 2\n",
    "0 1\n",
    "2 2\n",
    "1 99999999999999999999\n",
    "# comment only\n",
    "",
    " \n,\n",
])
def test_explicit_cases_match_line_parser(edge_file, text):
    assert_same_as_line_parser(edge_file, text)


class TestExplicitCases:
    def load(self, path, text):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return load_edge_list(path)

    def test_trailing_comment_rejected_with_line(self, edge_file):
        with pytest.raises(ValueError, match=re.escape(f"{edge_file}:2: expected two node ids")):
            self.load(edge_file, "1 2\n1 3 # note\n")

    def test_comma_only_line_rejected_with_line(self, edge_file):
        with pytest.raises(ValueError, match=re.escape(f"{edge_file}:2: expected two node ids")):
            self.load(edge_file, "1,2\n , \n2,3\n")

    def test_signed_id_accepted(self, edge_file):
        A = self.load(edge_file, "+1 2\n")
        assert A.n == 2 and A.edge_count == 1

    @pytest.mark.parametrize("text", ["1 2\r\n2 3\r\n", "1 2\n\n  \t \n2 3\n", "1 2\n2 3",
                                      "1,2\n\n2 , 3\n"])
    def test_line_breaks_and_blank_lines(self, edge_file, text):
        A = self.load(edge_file, text)
        assert A.n == 3
        assert np.array_equal(A.a, from_edges(3, [(0, 1), (1, 2)]).a)

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "\n \n"])
    def test_no_edges_without_warning(self, edge_file, text):
        with pytest.raises(ValueError, match=re.escape(f"{edge_file}: no edges found")):
            self.load(edge_file, text)

    def test_decimal_id_rejected(self, edge_file):
        with pytest.raises(ValueError, match=re.escape(f"{edge_file}:1: node ids must be integers")):
            self.load(edge_file, "1.0 2\n")

    def test_id_beyond_int64(self, edge_file):
        # Read whole by the line parser, then refused by the matrix build.
        with pytest.raises(ValueError, match=re.escape(
                "n = 99999999999999999999 nodes needs an n x n matrix of n^2 = 1e+40 bytes")):
            self.load(edge_file, "1 99999999999999999999\n")
