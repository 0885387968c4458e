"""Edge-list parsing: the one-pass parse against the line-by-line reference."""

import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netmoments import (EDGE, THREESTAR, TRIANGLE, VSHAPE, AdjacencyMatrix, compute_stats,
                        from_edges, load_edge_list)
from netmoments import adjacency, moments


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
    assert_pairs_list_the_bytes(A)
    return A.n, A.a.tobytes()


def assert_pairs_list_the_bytes(A):
    """``A``'s nonzeros and edge count, listed from its edge keys, equal those
    listed from its adjacency bytes, in dtype and bytes."""
    B = AdjacencyMatrix._trusted(A.a)
    for x, y in zip(A._nonzeros, B._nonzeros, strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert A.edge_count == B.edge_count


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
    "1 " + "2" * 18 + "\n",  # 18 digits: the longest id parsed in one pass
    "1 " + "2" * 19 + "\n",
    "1 " + "2" * 20 + "\n",
    "1 " + "0" * 21 + "2\n",  # 22 digits, leading zeros
    "1 9223372036854775807\n",  # the largest int64
    "1 2\n2 3\n3 1",  # no trailing newline
    "1,2\n2,3\n\n",  # comma text ending in a blank line
    "1 2\n,\n2 3\n",  # a comma-only line
    "1\t2\n2\t\t3\n",  # tab-only separators
    "1 2\n3\n4 5\n",  # a line holding a single id
    # Around the widest id summed in int32 (9 digits) and the int32 maximum:
    # the matrix build refuses each, with n in its message.
    "1 999999999\n",
    "1 1000000000\n",
    "1 2147483647\n",
    "1 2147483648\n",
])
def test_explicit_cases_match_line_parser(edge_file, text):
    assert_same_as_line_parser(edge_file, text)


@pytest.mark.parametrize("text, dtype", [
    (b"1 2\n999999999 3\n", np.int32),
    (b"1 2\n1000000000 3\n", np.int64),
    (b"1 2\n2147483647 3\n", np.int64),
    (b"1 2\n2147483648 3\n", np.int64),
])
def test_ids_summed_in_int32_up_to_nine_digits(text, dtype):
    pairs = adjacency._plain_pairs(text)
    assert pairs.dtype == dtype
    assert pairs.tolist() == [[int(x) for x in line.split()] for line in text.splitlines()]


@pytest.mark.parametrize("text", [
    b"1 2\r\n2 3\r\n3 1\r\n",
    b"1 2\r2 3\r3 1",
    b"1,2\r\n2,3\r\n3,4\r\n",
    b"1 2\r\n\r\n2 3\r3 4\n\r\r\n4 1",
])
def test_cr_line_ends_take_the_vectorised_parser(edge_file, text, monkeypatch):
    # read_text turns CRLF and lone CR into newlines; the byte parser does the same.
    edge_file.write_bytes(text)
    want = outcome(line_parser, edge_file)
    lines = mock.Mock(wraps=adjacency._line_parsed)
    monkeypatch.setattr(adjacency, "_line_parsed", lines)
    assert outcome(load_edge_list, edge_file) == want
    assert lines.call_count == 0 and isinstance(want[0], int)


@pytest.mark.parametrize("n", [46340, 46341])
def test_keys_list_the_bytes_across_the_int32_bound(n):
    # The largest n whose keys i*n + j all fit int32 is 46340; the listing
    # from the edge keys must equal the one from the bytes (flat indices
    # of the nonzeros: sorted, repeat-free, intp) on both sides of it,
    # with no n x n matrix.
    rng = np.random.default_rng(n)
    i = np.concatenate([rng.integers(0, n, 500), [n - 1, n - 2, 0, n - 1, 0]])
    j = np.concatenate([rng.integers(0, n, 500), [n - 2, n - 1, n - 1, 0, 1]])
    i, j = i[i != j], j[i != j]
    keys = np.concatenate([i * n + j, j * n + i, i[:50] * n + j[:50]])  # some repeated
    listed = adjacency._sorted_keys(n, keys)
    assert listed.dtype == (np.int32 if n == 46340 else np.intp)
    assert int(keys.max()) > np.iinfo(np.int32).max or n == 46340
    for x, y in zip(adjacency._csr(n, listed), adjacency._csr(n, np.unique(keys)), strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n, pairs", [
    (5, [(0, 1), (1, 0), (2, 4), (0, 1), (4, 2), (3, 1)]),
    (9, [(2, 3), (3, 2), (0, 3)]),  # isolated top ids
    (4, []),
    (1, np.empty((0, 2), dtype=np.int64)),
    (6, np.array([[0, 5], [5, 0], [1, 2]])),
    (300, np.random.default_rng(0).integers(0, 150, (400, 2), dtype=np.uint16)),
])
def test_pairs_list_the_bytes(n, pairs):
    if isinstance(pairs, np.ndarray):
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    A = from_edges(n, pairs)
    assert_pairs_list_the_bytes(A)
    assert not np.shares_memory(A._keys, pairs)  # the caller's array stays theirs
    a = np.zeros((n, n), dtype=np.int8)
    for i, j in pairs:
        a[i, j] = a[j, i] = 1
    assert A.a.dtype == np.int8 and A.a.tobytes() == a.tobytes()


def test_repeated_pairs_match_their_deduplicated_twin(tmp_path):
    # A listed-route graph from each pair once, and from each pair with its
    # reverse and, for a third of them, a second copy.
    rng = np.random.default_rng(84)
    n = 400
    pairs = np.sort(rng.integers(0, n, (1500, 2)), axis=1)
    pairs = np.unique(np.concatenate([pairs[pairs[:, 0] != pairs[:, 1]], [[0, n - 1]]]), axis=0)
    twin = from_edges(n, pairs)
    noisy = np.concatenate([pairs, pairs[:, ::-1], pairs[::3]])
    A = from_edges(n, rng.permutation(noisy))
    assert A._keys.size > twin._keys.size and A.a.tobytes() == twin.a.tobytes()
    for x, y in zip(A._nonzeros, twin._nonzeros, strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert A.edge_count == twin.edge_count == len(pairs)
    for motif in (EDGE, TRIANGLE, VSHAPE):
        assert moments._route(A, motif) == "listed"
        got, want = compute_stats(A, motif), compute_stats(twin, motif)
        assert repr(got) == repr(want) and got.g1_hat.tobytes() == want.g1_hat.tobytes()
    # The file of the repeated pairs, read by either parser (a comment line
    # sends it to the line parser), builds what from_edges builds.
    text = "".join(f"{i} {j}\n" for i, j in (noisy + 1).tolist())
    C = from_edges(n, noisy)
    for header in ("", "# repeated pairs\n"):
        path = tmp_path / "noisy.edges"
        path.write_text(header + text)
        B = load_edge_list(path)
        assert B.n == n and B.a.tobytes() == C.a.tobytes()
        assert B._keys.dtype == C._keys.dtype and B._keys.tobytes() == C._keys.tobytes()


def test_table_route_graph_never_sorts_its_keys(tmp_path):
    # A 40-node graph takes the table route, which reads the matrix only.
    path = tmp_path / "star.edges"
    path.write_text("".join(f"1 {j}\n{j} {j + 1}\n" for j in range(2, 40)))
    A = load_edge_list(path)
    compute_stats(A, THREESTAR)
    assert A.n == 40 and "_nonzeros" not in A.__dict__


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
