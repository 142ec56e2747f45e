"""The file contract of edge-list, attribute and partition parsing and of
graph, ranking and JSON output, pinned.

The parser cases fix the records, ``ParseError`` texts and line numbers of
the line-by-line readers; the writer fixtures fix the bytes of
``json.dumps(indent=2, sort_keys=True)``, of the per-line f-strings and of
the CSV layout.  A faster route through either must reproduce them exactly.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twistrank as tr
from twistrank import io as tio, verify
from twistrank.centrality import CentralityRanking
from twistrank.cli import main
from twistrank.errors import ConvergenceError, ParseError
from twistrank.graph import _id_array

from conftest import edge_list, random_signed_graph

BIG = 99999999999999999999  # beyond int64


def _line_loop(path):
    """The reference reader: one line at a time, ``int`` on every token."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) not in (2, 3):
                raise ParseError(path, line_no, f"expected 'u w [sign]', got {line!r}")
            try:
                u, w = int(tokens[0]), int(tokens[1])
                sign = int(tokens[2]) if len(tokens) == 3 else 1
            except ValueError:
                raise ParseError(path, line_no, f"non-integer field in {line!r}") from None
            records.append((u, w, sign))
    return records


def _as_tuples(records):
    return [tuple(int(v) for v in rec) for rec in records]


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _outcome(reader, path):
    """Records, or the ``(line_no, message)`` of the ParseError."""
    try:
        return _as_tuples(reader(path))
    except ParseError as exc:
        return exc.line_no, str(exc)


PARSED = {
    "comments-and-blanks": ("# header\n1 2 -1  # note\n\n   \n2 3 # two fields\n#\n",
                            [(1, 2, -1), (2, 3, 1)]),
    "crlf": ("# c\r\n1 2 1\r\n\r\n2 3 -1\r\n", [(1, 2, 1), (2, 3, -1)]),
    "tab-and-nbsp": ("1\t2\t-1\n3\xa04\n5 \t 6\xa0 1\n", [(1, 2, -1), (3, 4, 1), (5, 6, 1)]),
    "two-field": ("7 8\n9 10\n", [(7, 8, 1), (9, 10, 1)]),
    "mixed-fields": ("1 2\n2 3 -1\n3 4\n", [(1, 2, 1), (2, 3, -1), (3, 4, 1)]),
    "plus-sign": ("+1 2 +1\n", [(1, 2, 1)]),
    "underscore": ("1_000 2 -1\n3 4\n", [(1000, 2, -1), (3, 4, 1)]),
    "beyond-int64": (f"1 {BIG} -1\n{BIG} 2\n", [(1, BIG, -1), (BIG, 2, 1)]),
    "int64-edges": ("9223372036854775807 0 1\n", [(9223372036854775807, 0, 1)]),
    "no-final-newline": ("1 2 1\n3 4 -1", [(1, 2, 1), (3, 4, -1)]),
    "range-left-to-graph": ("-1 2 5\n", [(-1, 2, 5)]),
    "empty": ("", []),
    "comment-only": ("# a\n\n# b\n", []),
}

FAILED = {
    "one-field": ("1 2\n3\n", 2, "expected 'u w [sign]', got '3'"),
    "four-field": ("1 2 1\n# c\n1 2 1 4 # four\n", 3, "expected 'u w [sign]', got '1 2 1 4'"),
    "float-id": ("1 2\n1.0 2\n", 2, "non-integer field in '1.0 2'"),
    "float-sign": ("1 2 1.0\n", 1, "non-integer field in '1 2 1.0'"),
    "hex": ("0x1 2\n", 1, "non-integer field in '0x1 2'"),
    "crlf-line-number": ("1 2\r\n\r\nx y\r\n", 3, "non-integer field in 'x y'"),
    "after-big-id": (f"{BIG} 1\n1 2 3 4\n", 2, "expected 'u w [sign]', got '1 2 3 4'"),
    "comma": ("1 2\n2,3\n", 2, "expected 'u w [sign]', got '2,3'"),
}


@pytest.mark.parametrize("text, records", PARSED.values(), ids=PARSED.keys())
def test_records(tmp_path, text, records):
    path = tmp_path / "edges.txt"
    _write(path, text)
    assert _as_tuples(tio.read_edge_list(path)) == records


@pytest.mark.parametrize("text, line_no, message", FAILED.values(), ids=FAILED.keys())
def test_parse_errors(tmp_path, text, line_no, message):
    path = tmp_path / "edges.txt"
    _write(path, text)
    with pytest.raises(ParseError) as err:
        tio.read_edge_list(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"{path}:{line_no}: {message}"


def test_clean_file_is_parsed_without_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    _write(path, "# c\n1 2\n2 3\n3 1\n")

    def no_loop(path):
        raise AssertionError("the line loop ran on a clean file")

    monkeypatch.setattr(tio, "_data_lines", no_loop)
    rows = tio.read_edge_list(path)
    assert rows.dtype == np.int64
    assert rows.tolist() == [[1, 2, 1], [2, 3, 1], [3, 1, 1]]


def test_a_warning_from_the_bulk_parser_means_the_line_loop(tmp_path, monkeypatch):
    """numpy < 2 reads "1.0" as the int 1 and only warns; the line loop rejects it."""
    path = tmp_path / "edges.txt"
    _write(path, "1.0 2 1\n")

    def lenient_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): parsing an integer via a float", DeprecationWarning)
        return np.array([[1, 2, 1]])

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(ParseError, match=r":1: non-integer field in '1\.0 2 1'$"):
        tio.read_edge_list(path)


def _well_formed_lines():
    node = st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 40), st.just(BIG))
    sep = st.sampled_from([" ", "\t", "  ", " \t", "\xa0"])
    record = st.tuples(node, node, st.sampled_from(["", "1", "-1", "+1"]), sep, sep)
    line = record.map(
        lambda r: r[3].join(str(v) for v in r[:2]) + (r[4] + r[2] if r[2] else "")
    )
    extra = st.sampled_from(["", "# comment", "   ", "\t# x"])
    return st.lists(st.one_of(line, line, line, extra), max_size=12)


@settings(max_examples=150, deadline=None)
@given(_well_formed_lines(), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_well_formed_files_match_the_line_loop(tmp_path_factory, lines, eol, final_eol):
    path = tmp_path_factory.mktemp("wf") / "edges.txt"
    _write(path, eol.join(lines) + (eol if final_eol and lines else ""))
    assert _outcome(tio.read_edge_list, path) == _outcome(_line_loop, path)


# Characters on which a bulk parser and Python's ``str.split``/``int`` could
# disagree: Unicode spaces and digits, separators, signs and number syntax.
HOSTILE = st.text(
    st.sampled_from(list("0123456789 \t\r\n#-+_.ex,") + [
        "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2003", "\u3000", "\u200b",
        "\u2028", "\ufeff", "\u0661", "\uff11", "\xb2",
    ]),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(HOSTILE)
def test_any_text_gives_the_line_loop_outcome(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("hostile") / "edges.txt"
    _write(path, text)
    assert _outcome(tio.read_edge_list, path) == _outcome(_line_loop, path)


# -- attribute files -------------------------------------------------------------


def _attr_line_loop(path):
    """The reference attribute reader: one line at a time, ``int`` and ``float``."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise ParseError(path, line_no, f"expected 'u v1 ... vp', got {line!r}")
            try:
                node = int(tokens[0])
                vector = [float(t) for t in tokens[1:]]
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric field in {line!r}") from None
            records.append((node, vector))
    return records


def _attr_records(pair):
    """``read_attributes``' arrays as ``(node, vector)`` records of Python values."""
    ids, values = pair
    assert ids.ndim == 1 and len(ids) == len(values)
    return list(zip(ids.tolist(), values.tolist()))


def _attr_outcome(reader, path):
    """Records with every value as its ``repr`` (so ``-0.0`` and ``nan`` compare
    exactly), or the ``(line_no, message)`` of the ParseError."""
    try:
        records = reader(path)
    except ParseError as exc:
        return exc.line_no, str(exc)
    if isinstance(records, tuple):
        records = _attr_records(records)
    for node, _ in records:
        assert type(node) is int
    return [(node, [repr(float(v)) for v in vec]) for node, vec in records]


ATTRS_PARSED = {
    "comments-and-blanks": ("# header\n1 0.5 0.25  # note\n\n   \n2 1 2 # x\n#\n",
                            [(1, [0.5, 0.25]), (2, [1.0, 2.0])]),
    "crlf": ("# c\r\n1 0.5\r\n\r\n2 -0.25\r\n", [(1, [0.5]), (2, [-0.25])]),
    "tab-and-nbsp": ("1\t0.5\t2\n3\xa04 5\n5 \t 6\xa0 7\n",
                     [(1, [0.5, 2.0]), (3, [4.0, 5.0]), (5, [6.0, 7.0])]),
    "exponents-and-signs": ("+3 +0.5 1E3 .5 5. -1e-5\n", [(3, [0.5, 1000.0, 0.5, 5.0, -1e-05])]),
    "non-finite-and-subnormal": ("1 nan inf\n2 -inf 1e-320\n3 -0.0 Infinity\n",
                                 [(1, [float("nan"), float("inf")]),
                                  (2, [float("-inf"), 1e-320]),
                                  (3, [-0.0, float("inf")])]),
    "ragged": ("1 0.5 0.25\n2 0.5\n3 1 2 3\n",
               [(1, [0.5, 0.25]), (2, [0.5]), (3, [1.0, 2.0, 3.0])]),
    "underscore": ("1_000 1_0.5\n2 3\n", [(1000, [10.5]), (2, [3.0])]),
    "beyond-int64": (f"{BIG} 0.5\n1 0.25\n", [(BIG, [0.5]), (1, [0.25])]),
    "int64-max": ("9223372036854775807 1\n", [(9223372036854775807, [1.0])]),
    "negative-id-left-to-graph": ("-1 0.5\n", [(-1, [0.5])]),
    "unicode-digits": ("\u0661 \u0662.5\n", [(1, [2.5])]),
    "no-final-newline": ("1 0.5\n2 0.25", [(1, [0.5]), (2, [0.25])]),
    "empty": ("", []),
    "comment-only": ("# a\n\n# b\n", []),
}

ATTRS_FAILED = {
    "one-field": ("1 0.5\n2\n", 2, "expected 'u v1 ... vp', got '2'"),
    "one-field-first": ("# c\n3\n1 0.5\n", 2, "expected 'u v1 ... vp', got '3'"),
    "float-id": ("1 0.5\n1.0 0.5\n", 2, "non-numeric field in '1.0 0.5'"),
    "hex-value": ("1 0x10\n", 1, "non-numeric field in '1 0x10'"),
    "comma": ("1 0.5\n2 0.5,0.25\n", 2, "non-numeric field in '2 0.5,0.25'"),
    "word": ("1 0.5 abc\n", 1, "non-numeric field in '1 0.5 abc'"),
    "crlf-line-number": ("1 0.5\r\n\r\nx 0.5\r\n", 3, "non-numeric field in 'x 0.5'"),
    "after-ragged": ("1 0.5 0.25\n2 0.5\n3 nope\n", 3, "non-numeric field in '3 nope'"),
}


@pytest.mark.parametrize("text, records", ATTRS_PARSED.values(), ids=ATTRS_PARSED.keys())
def test_attribute_records(tmp_path, text, records):
    path = tmp_path / "attrs.txt"
    _write(path, text)
    want = [(node, [repr(v) for v in vec]) for node, vec in records]
    assert _attr_outcome(tio.read_attributes, path) == want
    assert _attr_outcome(_attr_line_loop, path) == want


@pytest.mark.parametrize("text, line_no, message", ATTRS_FAILED.values(),
                         ids=ATTRS_FAILED.keys())
def test_attribute_parse_errors(tmp_path, text, line_no, message):
    path = tmp_path / "attrs.txt"
    _write(path, text)
    with pytest.raises(ParseError) as err:
        tio.read_attributes(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"{path}:{line_no}: {message}"


def test_clean_attribute_file_is_parsed_without_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "attrs.txt"
    _write(path, "# c\n3 0.5 0.25\n1 1e-3 -2\n3 7 8\n")

    def no_loop(path):
        raise AssertionError("the line loop ran on a clean file")

    monkeypatch.setattr(tio, "_read_attribute_lines", no_loop)
    ids, values = tio.read_attributes(path)
    assert ids.dtype == np.int64 and values.dtype == np.float64
    assert ids.tolist() == [3, 1, 3]
    assert values.tolist() == [[0.5, 0.25], [0.001, -2.0], [7.0, 8.0]]


def test_a_warning_from_the_bulk_attribute_parser_means_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "attrs.txt"
    _write(path, "1.0 0.5\n")

    def lenient_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): parsing an integer via a float", DeprecationWarning)
        return np.array([(1, [0.5])], dtype=kwargs["dtype"])

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(ParseError, match=r":1: non-numeric field in '1\.0 0\.5'$"):
        tio.read_attributes(path)


def _well_formed_attr_files():
    node = st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 40), st.just(BIG))
    value = st.one_of(
        st.floats().map(repr),
        st.floats(-1e3, 1e3).map(lambda x: f"{x:.6g}"),
        st.sampled_from(["0", "-0.0", "1e-320", "inf", "-inf", "nan", "+1", ".5", "5.", "1E3"]),
    )
    sep = st.sampled_from([" ", "\t", "  ", " \t", "\xa0"])
    extra = st.sampled_from(["", "# comment", "   ", "\t# x"])

    @st.composite
    def files(draw):
        dim = draw(st.integers(1, 4))
        lines = []
        for _ in range(draw(st.integers(0, 10))):
            if draw(st.integers(0, 3)) == 0:
                lines.append(draw(extra))
                continue
            # Now and then a line of another length.
            width = dim if draw(st.integers(0, 9)) else draw(st.integers(1, 5))
            fields = [str(draw(node))] + [draw(value) for _ in range(width)]
            lines.append(draw(sep).join(fields) + draw(st.sampled_from(["", " # c"])))
        return lines

    return files()


@settings(max_examples=200, deadline=None)
@given(_well_formed_attr_files(), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_well_formed_attribute_files_match_the_line_loop(tmp_path_factory, lines, eol,
                                                         final_eol):
    path = tmp_path_factory.mktemp("wfa") / "attrs.txt"
    _write(path, eol.join(lines) + (eol if final_eol and lines else ""))
    assert _attr_outcome(tio.read_attributes, path) == _attr_outcome(_attr_line_loop, path)


# Fragments on which a bulk parser and Python's ``str.split``/``int``/``float``
# could disagree: Unicode spaces and digits, BOM, separators, number syntax and
# the spellings of infinity and NaN.
ATTR_FRAGMENTS = list("0123456789 \t\r\n#-+_.eE,x") + [
    "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2003", "\u3000", "\u200b",
    "\u2028", "\ufeff", "\u0661", "\uff11", "\xb2",
    "0x", "0x1p3", "inf", "Inf", "-inf", "infinity", "INFINITY", "infinit",
    "nan", "NaN", "-nan", "+nan", "nan(1)", "1e5", "1e", "e5", "-0.0", "1_0", "_1", "1__0",
]
_plain_token = st.sampled_from(["0", "1", "2.5", "-0.0", "1e-320", "17"])
_hostile_token = st.one_of(
    _plain_token, _plain_token, _plain_token,
    st.lists(st.sampled_from(ATTR_FRAGMENTS), min_size=1, max_size=3).map("".join),
)
# Free text, and lines of equally many tokens that are mostly plain, so that
# many files reach the bulk parser.
HOSTILE_ATTRS = st.one_of(
    st.lists(st.sampled_from(ATTR_FRAGMENTS), max_size=24).map("".join),
    st.integers(2, 4).flatmap(
        lambda width: st.lists(st.lists(_hostile_token, min_size=width, max_size=width)
                               .map(" ".join), max_size=6)
    ).map("\n".join),
)


@settings(max_examples=400, deadline=None)
@given(HOSTILE_ATTRS)
def test_any_attribute_text_gives_the_line_loop_outcome(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("hostile-attrs") / "attrs.txt"
    _write(path, text)
    assert _attr_outcome(tio.read_attributes, path) == _attr_outcome(_attr_line_loop, path)


# -- partition files ------------------------------------------------------------


def _partition_line_loop(path):
    """The reference partition reader: one line at a time, ``int`` on the node id."""
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(path, line_no, f"expected 'u label', got {line!r}")
            try:
                node = int(tokens[0])
            except ValueError:
                raise ParseError(path, line_no, f"non-integer node id in {line!r}") from None
            label = labels.setdefault(node, tokens[1])
            if label != tokens[1]:
                raise ParseError(path, line_no,
                                 f"node {node} has label {tokens[1]!r} here but {label!r} earlier")
    return labels


def _partition_outcome(reader, path):
    """The ``(node, label)`` items in dict order, or the ``(line_no, message)``
    of the ParseError."""
    try:
        labels = reader(path)
    except ParseError as exc:
        return exc.line_no, str(exc)
    assert type(labels) is dict
    for node, label in labels.items():
        assert type(node) is int and type(label) is str
    return list(labels.items())


PARTITION_PARSED = {
    "comments-and-blanks": ("# header\n1 a  # note\n\n   \n2 b\n#\n", [(1, "a"), (2, "b")]),
    "crlf": ("# c\r\n1 a\r\n\r\n2 b\r\n", [(1, "a"), (2, "b")]),
    "tab-and-nbsp": ("1\ta\n3\xa0b\n5 \t c\xa0\n", [(1, "a"), (3, "b"), (5, "c")]),
    "repeated-label": ("2 b\n1 a\n2 b\n1 a # again\n", [(2, "b"), (1, "a")]),
    "beyond-int64": (f"{BIG} a\n1 b\n", [(BIG, "a"), (1, "b")]),
    "int64-max": ("9223372036854775807 a\n", [(9223372036854775807, "a")]),
    "underscore": ("1_000 a\n2 b\n", [(1000, "a"), (2, "b")]),
    "signs-and-zeros": ("+3 x\n007 y\n-0 z\n", [(3, "x"), (7, "y"), (0, "z")]),
    "numeric-and-unicode-labels": ("1 1.5\n2 -0\n3 \xc4\n4 \u0661\n",
                                   [(1, "1.5"), (2, "-0"), (3, "\xc4"), (4, "\u0661")]),
    "unicode-digit-id": ("\u0661 a\n", [(1, "a")]),
    "negative-id-left-to-injection": ("-1 a\n", [(-1, "a")]),
    "no-final-newline": ("1 a\n2 b", [(1, "a"), (2, "b")]),
    "empty": ("", []),
    "comment-only": ("# a\n\n# b\n", []),
}

PARTITION_FAILED = {
    "one-field": ("1 a\n2\n", 2, "expected 'u label', got '2'"),
    "three-field": ("1 a\n# c\n2 b c # x\n", 3, "expected 'u label', got '2 b c'"),
    "conflicting-label": ("1 a\n2 b\n\n1 b\n", 4, "node 1 has label 'b' here but 'a' earlier"),
    "conflict-beyond-int64": (f"{BIG} a\n{BIG} b\n", 2,
                              f"node {BIG} has label 'b' here but 'a' earlier"),
    "float-id": ("1 a\n1.0 a\n", 2, "non-integer node id in '1.0 a'"),
    "word-id": ("x a\n", 1, "non-integer node id in 'x a'"),
    "crlf-line-number": ("1 a\r\n\r\nx y\r\n", 3, "non-integer node id in 'x y'"),
    "after-big-id": (f"{BIG} a\n1 a b\n", 2, "expected 'u label', got '1 a b'"),
}


@pytest.mark.parametrize("text, labels", PARTITION_PARSED.values(),
                         ids=PARTITION_PARSED.keys())
def test_partition_labels(tmp_path, text, labels):
    path = tmp_path / "partition.txt"
    _write(path, text)
    assert _partition_outcome(tio.read_partition, path) == labels
    assert _partition_outcome(_partition_line_loop, path) == labels


@pytest.mark.parametrize("text, line_no, message", PARTITION_FAILED.values(),
                         ids=PARTITION_FAILED.keys())
def test_partition_parse_errors(tmp_path, text, line_no, message):
    path = tmp_path / "partition.txt"
    _write(path, text)
    with pytest.raises(ParseError) as err:
        tio.read_partition(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"{path}:{line_no}: {message}"
    assert _partition_outcome(_partition_line_loop, path) == (line_no, str(err.value))


def test_clean_partition_file_is_parsed_without_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "partition.txt"
    _write(path, "# c\n3 a\n1 b # x\r\n\n2 a\n")

    def no_loop(path):
        raise AssertionError("the line loop ran on a clean file")

    monkeypatch.setattr(tio, "_read_partition_lines", no_loop)
    monkeypatch.setattr(tio, "_data_lines", no_loop)
    assert _partition_outcome(tio.read_partition, path) == [(3, "a"), (1, "b"), (2, "a")]


def test_a_warning_from_the_bulk_partition_parser_means_the_line_loop(tmp_path, monkeypatch):
    path = tmp_path / "partition.txt"
    _write(path, "1.0 a\n")

    def lenient_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): parsing an integer via a float", DeprecationWarning)
        return np.array([(1, "a")], dtype=kwargs["dtype"])

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(ParseError, match=r":1: non-integer node id in '1\.0 a'$"):
        tio.read_partition(path)


def _well_formed_partitions():
    node = st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 9), st.just(BIG))
    label = st.sampled_from(["a", "b", "L0", "L1", "x-y", "1.5", "\xc4"])
    sep = st.sampled_from([" ", "\t", "  ", " \t", "\xa0"])
    line = st.tuples(node, label, sep).map(lambda r: f"{r[0]}{r[2]}{r[1]}")
    extra = st.sampled_from(["", "# comment", "   ", "\t# x"])
    return st.lists(st.one_of(line, line, line, extra), max_size=12)


@settings(max_examples=150, deadline=None)
@given(_well_formed_partitions(), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_well_formed_partition_files_match_the_line_loop(tmp_path_factory, lines, eol,
                                                         final_eol):
    path = tmp_path_factory.mktemp("wfp") / "partition.txt"
    _write(path, eol.join(lines) + (eol if final_eol and lines else ""))
    assert _partition_outcome(tio.read_partition, path) == _partition_outcome(
        _partition_line_loop, path
    )


# Fragments on which the bulk parser and Python's ``str.split``/``int`` could
# disagree: Unicode spaces, digits and format characters, NUL, BOM, comment
# and line-break characters, signs and number syntax.
PARTITION_FRAGMENTS = list("0123456789 \t\r\n#-+_.eab") + [
    "\x00", "\xa0", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2003", "\u3000", "\u200b",
    "\u2028", "\ufeff", "\u0661", "\uff11", "\xb2", "1_0", "1.0", "'a b'", '"a b"',
]
_partition_token = st.one_of(
    st.sampled_from(["0", "1", "2", "17", "a", "b", "L1"]),
    st.lists(st.sampled_from(PARTITION_FRAGMENTS), min_size=1, max_size=3).map("".join),
)
# Free text, and lines of mostly two tokens drawn from few ids and labels, so
# that many files reach the bulk parser and repeat or relabel a node.
HOSTILE_PARTITIONS = st.one_of(
    st.lists(st.sampled_from(PARTITION_FRAGMENTS), max_size=24).map("".join),
    st.lists(
        st.lists(_partition_token, min_size=1, max_size=3).map(" ".join)
        | st.lists(_partition_token, min_size=2, max_size=2).map(" ".join),
        max_size=6,
    ).map("\n".join),
)


@settings(max_examples=400, deadline=None)
@given(HOSTILE_PARTITIONS)
def test_any_partition_text_gives_the_line_loop_outcome(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("hostile-partition") / "partition.txt"
    _write(path, text)
    assert _partition_outcome(tio.read_partition, path) == _partition_outcome(
        _partition_line_loop, path
    )


# -- graph writers ----------------------------------------------------------------


def _reference_edge_file(graph):
    """``edges.txt`` as the per-line f-string writer printed it."""
    lines = [f"{u} {w} {s}" for u, w, s in edge_list(graph, original_ids=True)]
    return "\n".join(lines) + ("\n" if lines else "")


def _reference_attr_file(graph):
    """``attrs.txt`` as the per-line f-string writer printed it."""
    if graph.attr_dim == 0:
        return ""
    lines = [
        f"{node} " + " ".join(f"{v:.12g}" for v in vec)
        for node, vec in zip(graph.original_ids, graph.node_attrs)
    ]
    return "\n".join(lines) + "\n"


def _check_graph_files(out, graph):
    tio.write_edge_list(out / "edges.txt", graph)
    tio.write_attributes(out / "attrs.txt", graph)
    assert (out / "edges.txt").read_bytes() == _reference_edge_file(graph).encode()
    assert (out / "attrs.txt").read_bytes() == _reference_attr_file(graph).encode()


EXTREME_VALUES = [-0.0, 1e-320, 1e300, -1e300, 5e-324, 0.1, 1 / 3, 123456789012345678.0]

GRAPHS = {
    "beyond-int64": ([(1, BIG, -1), (BIG, BIG + 1, 1), (2, 3, 1), (2**63, 1, -1)],
                     [(BIG, [0.5, -0.0]), (2, [1e-320, 1e300])]),
    "isolated-nodes": ([(0, 1, 1), (1, 2, -1)], [(7, [1.0, 2.0]), (9, [-0.0, 3.0])]),
    "isolated-without-attributes": ([(0, 1, 1)], [(7, []), (3, [])]),
    "no-edges": ([], [(3, [1.0]), (1, [-2.5])]),
    "empty": ([], None),
    "no-attributes": ([(5, 2, -1), (2, 9, 1), (9, 5, 1)], None),
    "extreme-values": ([(0, 1, 1), (1, 2, 1)], [(u, EXTREME_VALUES) for u in range(3)]),
}


@pytest.mark.parametrize("edges, attrs", GRAPHS.values(), ids=GRAPHS.keys())
def test_graph_files_match_the_per_line_writers(tmp_path, edges, attrs):
    _check_graph_files(tmp_path, tr.load_graph(edges, attrs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([0, 2**62, BIG]), st.integers(0, 3),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_any_graph_files_match_the_per_line_writers(tmp_path_factory, seed, offset, dim,
                                                    values):
    g = random_signed_graph(np.random.default_rng(seed), attr_dim=0)
    edges = [(u + offset, w + offset, s) for u, w, s in edge_list(g, original_ids=True)]
    attrs = [(u + offset, [values[(u + j) % len(values)] for j in range(dim)])
             for u in range(0, g.n + 2, 2)]
    _check_graph_files(tmp_path_factory.mktemp("graph"), tr.load_graph(edges, attrs))


ID_SETS = {
    "dense": [0, 1, 2, 3],
    "sparse": [3, 1000, 10**12, 2**40 + 7],
    "int64-max": [0, 7, 2**62, 2**63 - 1],
    "2**63": [0, 7, 2**63 - 1, 2**63],
    "2**64+1": [0, 7, 2**63, 2**64 + 1],
}


def _id_graphs(ids):
    """One graph on the ascending ``ids``, built by each route: edges among
    ids 0, 1 and 3, and id 2 known only from its attribute record."""
    edges = [(ids[3], ids[0], 1), (ids[0], ids[1], -1), (ids[1], ids[3], 1)]
    attrs = [(v, [j + 0.5, -j]) for j, v in enumerate(ids)]
    loaded = tr.load_graph(edges, attrs)
    node_attrs = np.array([vec for _, vec in attrs])
    direct = tr.AttributedGraph(list(ids), np.array([3, 0, 1]), np.array([0, 1, 3]),
                                np.array([1, -1, 1], dtype=np.int8), node_attrs)
    return {"load_graph": loaded, "constructor": direct,
            "preprocess": tr.preprocess(loaded).graph}


@pytest.mark.parametrize("ids", ID_SETS.values(), ids=ID_SETS.keys())
def test_original_ids_are_one_read_only_array_from_ingest_to_emit(tmp_path, ids):
    """int64 ids, or Python ints in an object array once one is beyond int64,
    and the writers print them as the input gave them."""
    a, b, c, d = ids
    want_edges = f"{a} {b} -1\n{a} {d} 1\n{b} {d} 1\n"
    want_attrs = "".join(f"{v} {j + 0.5:.12g} {-j:.12g}\n" for j, v in enumerate(ids))
    want_csv = f"rank,node_id,score\n1,{c},0.4\n2,{a},0.3\n3,{d},0.2\n4,{b},0.1\n"
    ranking = CentralityRanking.from_scores(np.array([0.3, 0.1, 0.4, 0.2]))
    for route, g in _id_graphs(ids).items():
        out = tmp_path / route
        out.mkdir()
        assert not g.original_ids.flags.writeable
        assert g.original_ids.dtype == (np.int64 if d < 2**63 else object)
        assert g.original_ids.tolist() == ids
        assert all(type(v) is int for v in g.original_ids.tolist())
        rows = tio.ranking_rows(ranking, g.original_ids)
        assert _block_texts(rows.node_ids) == [str(c), str(a), str(d), str(b)]
        tio.write_ranking_csv(out / "ranking.csv", rows)
        tio.write_edge_list(out / "edges.txt", g)
        tio.write_attributes(out / "attrs.txt", g)
        assert (out / "ranking.csv").read_text() == want_csv
        assert (out / "edges.txt").read_text() == want_edges
        assert (out / "attrs.txt").read_text() == want_attrs


@pytest.mark.parametrize("values, given, dtype", [
    ([3, 2**63], np.uint64, object),
    ([3, 2**64 + 1], object, object),
    ([3, 5], object, np.int64),
    ([3, 5], np.uint32, np.int64),
])
def test_constructor_ids_never_wrap_or_turn_into_floats(values, given, dtype):
    given = np.array(values, dtype=given)
    g = tr.AttributedGraph(given, np.array([0]), np.array([1]), np.array([1], dtype=np.int8),
                           np.zeros((2, 0)))
    assert g.original_ids.dtype == dtype and g.original_ids.tolist() == values
    # The graph holds its own copy.
    assert given.flags.writeable and not np.shares_memory(given, g.original_ids)


# -- JSON --------------------------------------------------------------------------


def _dumps_outcome(dumps, payload):
    """The text, or the type of the exception raised."""
    try:
        return dumps(payload)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def _reference_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


DUMPS = {
    "empty-dict": {},
    "empty-lists": {"a": [], "b": [[]], "c": [[], []]},
    "int-list": {"ids": [3, 0, -7, BIG, -BIG, 2**63]},
    "int-rows": {"pairs": [[1, 2], [3, BIG], [0, -1]]},
    "int-rows-at-depth": {"a": {"b": {"c": [[1, 2, 3]], "d": [4]}, "e": "x"}, "f": 1.5},
    "ragged-rows": {"a": [[1, 2], [3]]},
    "mixed-int-and-bool": {"a": [1, True], "b": [False, 0], "c": [[1, True]]},
    "rows-and-tuples": {"a": [[1, 2], (3, 4)], "b": (1, 2), "c": [(1, 2)]},
    "floats": {"a": [1.0, 2], "b": -0.0, "c": 1e300},
    "list-of-dicts": {"a": [{"b": [1, 2]}, {}], "c": [[{"d": [1]}]]},
    "odd-strings": {"k\n\"\xe9\u2028": ["v\n", "\U0001f600"], "\x00": [1]},
    "top-level-list": [[1, 2], [3, 4]],
    "report-like": {"duplicate_edges_collapsed": 1, "filter_rounds": 2,
                    "injected_edges": [[1, 4], [4, 7]], "removed_nodes": [4, 5, BIG],
                    "self_loops_removed": 0},
    "int-keys": {"a": {2: [3], 1: [4]}, "b": {1.5: [[1, 2]]}},
    "unorderable-keys": {"a": {None: [1], 1.5: [5]}},
    "mixed-str-and-int-keys": {1: [1, 2], "a": [3]},
    "mixed-keys": {"a": {1: 1, "b": [2]}},
    "nan": {"a": [1, 2], "b": float("nan")},
    "inf-in-list": {"a": [1, float("inf")]},
    "numpy-int": {"a": [np.int64(1)], "b": [1, np.int64(2)]},
    "numpy-row": {"a": [[1, np.int64(2)]]},
    "set": {"a": [1], "b": {1}},
    "first-error-in-key-order": {"c": [1, 2], "b": np.int64(1), "a": float("nan")},
}


@pytest.mark.parametrize("payload", DUMPS.values(), ids=DUMPS.keys())
def test_dumps_matches_the_generic_encoder(payload):
    assert _dumps_outcome(tio._dumps, payload) == _dumps_outcome(_reference_dumps, payload)


def test_dumps_errors_are_those_of_the_generic_encoder():
    assert _dumps_outcome(tio._dumps, DUMPS["nan"]) is ValueError
    assert _dumps_outcome(tio._dumps, DUMPS["numpy-int"]) is TypeError
    assert _dumps_outcome(tio._dumps, DUMPS["mixed-keys"]) is TypeError


_JSON_INTS = st.one_of(
    st.integers(-3, 3), st.integers(-(2**70), 2**70),
    st.sampled_from([0, 2**63 - 1, 2**63, -(2**63) - 1, BIG]),
)
_JSON_SCALARS = st.one_of(
    _JSON_INTS, st.booleans(), st.none(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(st.sampled_from(list("ab\n\"\\/ \t") + ["\xe9", "\u2028", "\U0001f600", "\x00"]),
            max_size=6),
)
_JSON_LISTS = st.one_of(
    st.lists(_JSON_INTS, max_size=6),
    st.integers(1, 3).flatmap(
        lambda width: st.lists(st.lists(_JSON_INTS, min_size=width, max_size=width),
                               max_size=4)
    ),
    st.lists(st.lists(_JSON_INTS, max_size=3), max_size=4),
    st.lists(st.one_of(_JSON_INTS, st.booleans()), max_size=5),
    st.lists(st.lists(st.one_of(_JSON_INTS, st.booleans()), min_size=2, max_size=2),
             max_size=3),
)
_JSON_KEYS = st.text(st.sampled_from(list("abz_\n\"") + ["\xe9", "\u2028"]), max_size=4)
PAYLOADS = st.dictionaries(
    _JSON_KEYS,
    st.recursive(
        st.one_of(_JSON_SCALARS, _JSON_LISTS),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=3),
        max_leaves=12,
    ),
    max_size=5,
)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_any_payload_dumps_as_the_generic_encoder(payload):
    assert _dumps_outcome(tio._dumps, payload) == _dumps_outcome(_reference_dumps, payload)


# -- ranking writers -----------------------------------------------------------


def _block_texts(block):
    """The texts of a writer's text block, one per row, without the NUL padding."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in block]


def _reference_json(ranking, original_ids):
    """``ranking.json`` as the generic encoder writes it."""
    ids = list(original_ids) if original_ids is not None else range(ranking.scores.size)
    rows = [
        {"rank": pos + 1, "node_id": ids[int(u)], "score": float(f"{ranking.scores[u]:.12g}")}
        for pos, u in enumerate(ranking.order)
    ]
    return json.dumps({"ranking": rows}, indent=2, sort_keys=True) + "\n"


def _reference_csv(ranking, original_ids):
    ids = list(original_ids) if original_ids is not None else range(ranking.scores.size)
    lines = ["rank,node_id,score"] + [
        f"{pos},{ids[u]},{ranking.scores[u]:.12g}"
        for pos, u in enumerate(ranking.order.tolist(), start=1)
    ]
    return "\n".join(lines) + "\n"


RANKINGS = {
    "exponents": ([1e-300, 5e-07, 1e20, 0.25, 1 / 3, 123456789012345.0, 1e-05, 3.0, -0.0, 0.0],
                  [4, 9, 17, 2**62, 2**63 - 1, 100, 12, 5, 6, 7]),
    "beyond-int64": ([0.5, 0.25, 0.25], [2**64, 3, 2**70 + 1]),
    "ties-and-negative-zero": ([-0.0, 0.0, 0.5, 0.5, -1e-320], [8, 1, 2, 3, 9]),
    "default-ids": ([0.1, 0.7, 0.2, 2.5e-17, 6.02e23], None),
    "empty": ([], None),
    "empty-with-ids": ([], []),
}


@pytest.mark.parametrize("scores, ids", RANKINGS.values(), ids=RANKINGS.keys())
def test_ranking_files_match_the_generic_encoders(tmp_path, scores, ids):
    ranking = CentralityRanking.from_scores(np.array(scores, dtype=float))
    rows = tio.ranking_rows(ranking, None if ids is None else _id_array(ids))
    tio.write_ranking_json(tmp_path / "ranking.json", rows)
    tio.write_ranking_csv(tmp_path / "ranking.csv", rows)
    assert (tmp_path / "ranking.json").read_bytes() == _reference_json(ranking, ids).encode()
    assert (tmp_path / "ranking.csv").read_bytes() == _reference_csv(ranking, ids).encode()


def test_ranking_texts_are_those_of_format_score():
    """Each distinct bit pattern is formatted once; every row still gets its
    own score's text, whatever the ties, signed zeros, NaNs or rank order."""
    nan = np.float64("nan")
    scores = np.array([
        0.25, 1 / 3, 0.25, 0.0, -0.0, nan, -nan, np.inf, -np.inf, 5e-324, 1e-310,
        1e300, -0.0, 0.25, nan, 0.0, 1e300, 2.5e-17, 1 / 3,
    ])
    ids = [2**64 + i for i in range(scores.size)]
    orders = (np.arange(scores.size), np.random.default_rng(5).permutation(scores.size))
    for order in orders:
        rows = tio.ranking_rows(CentralityRanking(scores=scores, order=order), _id_array(ids))
        texts = _block_texts(rows.texts)
        want = [tio.format_score(x) for x in scores[order].tolist()]
        assert [texts[i] for i in rows.index] == want
        assert len(set(rows.scores.view(np.int64).tolist())) == len(texts)
        assert _block_texts(rows.node_ids) == [str(ids[u]) for u in order.tolist()]
        assert _block_texts(rows.ranks) == [str(r) for r in range(1, scores.size + 1)]
        assert rows.scores[rows.index].tobytes() == scores[order].tobytes()
    assert {"0", "-0", "nan", "inf", "-inf", "4.94065645841e-324", "1e+300"} <= set(texts)


SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
    st.floats(1e-320, 1e-4),
    st.floats(0.49, 0.51),
    st.integers(-(10**17), 10**17).map(float),
    st.sampled_from([0.5, 1.0, 0.0, -0.0, 1e11, 1e12, 1e15, 1e16]),
    st.sampled_from([0.9999999999995, 0.49999999999995, 9.99999999999e-5]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(SCORES, max_size=12))
def test_any_finite_scores_match_the_generic_encoders(tmp_path_factory, scores):
    ranking = CentralityRanking.from_scores(np.array(scores, dtype=float))
    ids = [3 * i + 2**62 for i in range(len(scores))]
    out = tmp_path_factory.mktemp("scores")
    rows = tio.ranking_rows(ranking, _id_array(ids))
    tio.write_ranking_json(out / "ranking.json", rows)
    tio.write_ranking_csv(out / "ranking.csv", rows)
    assert (out / "ranking.json").read_bytes() == _reference_json(ranking, ids).encode()
    assert (out / "ranking.csv").read_bytes() == _reference_csv(ranking, ids).encode()


# -- strict JSON ----------------------------------------------------------------


def _strict_load(path):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity token."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_non_finite_values_are_written_as_null(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "edges.txt"
    _write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 -1\n3 4 1\n")
    common = ["--edges", str(edges), "--measure", "influence", "--k", "2"]

    assert main(["sweep", *common, "--thetas=0.2,-5,nan", "--out", str(tmp_path / "t")]) == 2
    rows = _strict_load(tmp_path / "t" / "sweep.json")["sweep"]
    assert [row["theta"] for row in rows] == [0.2, -5.0, None]
    assert rows[2]["error"] == "theta must be finite"

    assert main(["sweep", *common, "--gammas=0.1,nan", "--out", str(tmp_path / "g")]) == 2
    rows = _strict_load(tmp_path / "g" / "sweep.json")["sweep"]
    assert rows[1]["gamma"] is None and rows[1]["error"] is not None
    _strict_load(tmp_path / "g" / "manifest.json")

    def fail(table, gamma):
        raise ConvergenceError("temperature solve did not converge", 0.25)

    monkeypatch.setattr(verify, "solve_theta_numeric", fail)
    assert main(["verify", "--edges", str(edges), "--out", str(tmp_path / "v")]) == 3
    checks = {c["name"]: c for c in _strict_load(tmp_path / "v" / "verify.json")["checks"]}
    assert checks["gamma_round_trip"]["passed"] is False
    assert checks["gamma_round_trip"]["max_error"] is None
    capsys.readouterr()


def test_non_finite_scores_are_null_in_ranking_json(tmp_path):
    ranking = CentralityRanking(
        scores=np.array([0.5, np.nan, np.inf, -np.inf]), order=np.arange(4)
    )
    tio.write_ranking_json(tmp_path / "ranking.json", tio.ranking_rows(ranking))
    rows = _strict_load(tmp_path / "ranking.json")["ranking"]
    assert [row["score"] for row in rows] == [0.5, None, None, None]
    tio.write_ranking_csv(tmp_path / "ranking.csv", tio.ranking_rows(ranking))
    assert (tmp_path / "ranking.csv").read_text().splitlines()[1:] == [
        "1,0,0.5", "2,1,nan", "3,2,inf", "4,3,-inf"
    ]


# -- block renderer ----------------------------------------------------------------

RENDER_IDS = {
    # 0, the uint32 edge, the largest int64 and one id of each length from 1
    # to 19 digits, in no order, so that the first few rows mix lengths.
    "int64": [0, 2**32, 7, 2**32 - 1, 10**18, 2**63 - 1, 10**9, 42, 10**12]
             + [10**k for k in range(19) if k not in (9, 12, 18)],
    "beyond-int64": [0, 2**32, 7, 2**63, 10**25, 2**63 - 1, 2**64 + 1, 10**19, 10**20 + 3],
}
RENDER_SCORES = [-0.0, 1e-320, 1e300, math.nan, math.inf, -math.inf, 0.0, 0.25, 5.0, -1e-5]
RENDER_VALUES = [-0.0, 1e-320, 1e300, -1e300, 5e-324, 0.1, 1 / 3, 7.0]


def _rendered(path):
    data = path.read_bytes()
    assert data.isascii() and b"\0" not in data
    return data.decode()


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 9])
@pytest.mark.parametrize("ids", RENDER_IDS.values(), ids=RENDER_IDS.keys())
def test_block_renderer_matches_per_line_f_strings(tmp_path, monkeypatch, ids, count):
    """Each writer against its per-line f-string, with 4-row blocks: no rows,
    one row, and counts below, at, just above and past the block size."""
    monkeypatch.setattr(tio, "_BLOCK_ROWS", 4)
    pairs = [(u, w) for i, u in enumerate(ids) for w in ids[i + 1:]]
    edges = [(u, w, (-1) ** j) for j, (u, w) in enumerate(pairs[::3][:count])]
    attrs = [(u, [RENDER_VALUES[j % 8], RENDER_VALUES[(3 * j + 1) % 8]])
             for j, u in enumerate(ids[:count])]
    for name, g in (("edges", tr.load_graph(edges)), ("attrs", tr.load_graph([], attrs))):
        tio.write_edge_list(tmp_path / f"{name}-edges.txt", g)
        tio.write_attributes(tmp_path / f"{name}-attrs.txt", g)
    assert _rendered(tmp_path / "edges-edges.txt") == "".join(
        f"{u} {w} {s}\n" for u, w, s in sorted((min(e[:2]), max(e[:2]), e[2]) for e in edges))
    assert _rendered(tmp_path / "attrs-attrs.txt") == "".join(
        f"{u} {a:.12g} {b:.12g}\n" for u, (a, b) in sorted(attrs))
    assert _rendered(tmp_path / "edges-attrs.txt") == ""
    assert _rendered(tmp_path / "attrs-edges.txt") == ""

    scores = np.array([RENDER_SCORES[j % 10] for j in range(count)])
    order = np.random.default_rng(count).permutation(count)
    rows = tio.ranking_rows(CentralityRanking(scores=scores, order=order),
                            _id_array(ids[:count]))
    tio.write_ranking_csv(tmp_path / "ranking.csv", rows)
    tio.write_ranking_json(tmp_path / "ranking.json", rows)
    ranked = [(r, ids[u], scores[u]) for r, u in enumerate(order.tolist(), start=1)]
    assert _rendered(tmp_path / "ranking.csv") == "rank,node_id,score\n" + "".join(
        f"{r},{u},{x:.12g}\n" for r, u, x in ranked)
    numbers = ["null" if not math.isfinite(x) else json.dumps(float(f"{x:.12g}"))
               for _, _, x in ranked]
    items = [f'    {{\n      "node_id": {u},\n      "rank": {r},\n      "score": {number}\n    }}'
             for (r, u, _), number in zip(ranked, numbers)]
    assert _rendered(tmp_path / "ranking.json") == (
        '{\n  "ranking": [\n' + ",\n".join(items) + "\n  ]\n}\n" if items
        else '{\n  "ranking": []\n}\n')


def test_writing_a_ranking_peaks_below_the_size_of_its_file(tmp_path):
    """The JSON writer renders a block of rows at a time: its peak traced
    memory stays below the bytes it writes."""
    import tracemalloc

    n = 200_000
    scores = np.random.default_rng(9).random(n)
    rows = tio.ranking_rows(CentralityRanking.from_scores(scores / scores.sum()),
                            np.arange(n, dtype=np.int64) * 7 + 10**9)
    tracemalloc.start()
    try:
        tio.write_ranking_json(tmp_path / "ranking.json", rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "ranking.json").stat().st_size
    assert peak < size, (peak, size)
