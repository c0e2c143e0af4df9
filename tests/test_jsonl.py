"""The shared JSONL reader behind every loader, and the shared record sink
behind every recorder, with the writes a gateway branch holds."""

from __future__ import annotations

import json
import math
import sys
import threading
from contextlib import contextmanager

import numpy as np
import orjson
import pytest
from hypothesis import example, given, strategies as st

from dxcouncil.backends import (
    HashEmbedder,
    LexicalOverlapScorer,
    RecordingEmbedder,
    RecordingScorer,
    TableEmbedder,
    TableScorer,
)
from dxcouncil.differential import read_cases
from dxcouncil.errors import RecordConflictError, ResourceError, RetrievalError
from dxcouncil.gateway import TranscriptRecorder, load_transcript
from dxcouncil.guidelines import read_corpus
from dxcouncil.jsonl import (_DEPTH, JsonlSink, _plain, decode, holding, open_lines,
                             write_held, write_whole)
from dxcouncil.trace import Trace

from conftest import FIXTURES

LOADERS = [
    pytest.param(read_cases, {"case_id": "a", "narrative": "Story A."}, "case",
                 id="read_cases"),
    pytest.param(read_corpus, {"segment_id": "a", "source_doc": "d", "text": "alpha"},
                 "corpus", id="read_corpus"),
    pytest.param(load_transcript, {"key": "k", "task": "ner", "response": "r"},
                 "transcript", id="load_transcript"),
    pytest.param(TableEmbedder.load, {"text": "t", "embedding": [1.0, 0.5]}, "embedding",
                 id="TableEmbedder.load"),
    pytest.param(TableScorer.load, {"query": "q", "text": "t", "score": 0.5}, "score",
                 id="TableScorer.load"),
]


@pytest.mark.parametrize("bad_line", ["{not json", '["a"]', "[" * 100_000],
                         ids=["invalid_json", "array_row", "nested_100000_deep"])
@pytest.mark.parametrize("load,good_row,what", LOADERS)
def test_every_loader_names_the_bad_line_with_its_own_error(tmp_path, load, good_row,
                                                            what, bad_line):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(good_row) + "\n" + bad_line + "\n", encoding="utf-8")
    with pytest.raises(ResourceError, match=rf"rows\.jsonl:2: bad {what} row: "):
        load(path)


# every reader of a JSONL file, a row it takes, and how it names a bad line;
# a trace file's first line is its header
READERS = [
    pytest.param(read_cases, {"case_id": "a", "narrative": "Story A."}, ResourceError,
                 "bad case row", id="read_cases"),
    pytest.param(read_corpus, {"segment_id": "a", "source_doc": "d", "text": "alpha"},
                 ResourceError, "bad corpus row", id="read_corpus"),
    pytest.param(load_transcript, {"key": "k", "task": "ner", "response": "r"},
                 ResourceError, "bad transcript row", id="load_transcript"),
    pytest.param(TableEmbedder.load, {"text": "t", "embedding": [1.0, 0.5]}, ResourceError,
                 "bad embedding row", id="TableEmbedder.load"),
    pytest.param(TableScorer.load, {"query": "q", "text": "t", "score": 0.5}, ResourceError,
                 "bad score row", id="TableScorer.load"),
    pytest.param(Trace.load, {"type": "decision", "decision": "d", "payload": {}, "seq": 0},
                 ValueError, "bad trace line", id="Trace.load"),
]


def write_rows(path, load, *lines):
    head = [json.dumps({"type": "header", "case_id": "c"})] if load == Trace.load else []
    path.write_text("\n".join(head + list(lines)) + "\n", encoding="utf-8")
    return len(head) + 1  # the line number of the first line given


def contents(loaded):
    """What a reader returned, in a form ``==`` compares bit for bit."""
    if isinstance(loaded, TableEmbedder):
        return {text: vec.tobytes() for text, vec in loaded.table.items()}
    if isinstance(loaded, TableScorer):
        return loaded.table
    if isinstance(loaded, Trace):
        return loaded.records
    return loaded


# a file read as text turns a CR into a line break, so CR makes blank lines
@pytest.mark.parametrize("wrap", [
    lambda row: "  " + row + "  ", lambda row: "\t" + row + "\t", lambda row: row + "\r",
    lambda row: "\r \t" + row + " \r\t ",
], ids=["spaces", "tabs", "trailing_cr", "mixed"])
@pytest.mark.parametrize("load,row,error,what", READERS)
def test_every_reader_takes_json_whitespace_around_a_row(tmp_path, load, row, error, what,
                                                         wrap):
    write_rows(tmp_path / "bare.jsonl", load, json.dumps(row))
    write_rows(tmp_path / "wrapped.jsonl", load, wrap(json.dumps(row)))
    assert (contents(load(tmp_path / "wrapped.jsonl"))
            == contents(load(tmp_path / "bare.jsonl")))


def json_loads_error(line: str) -> str:
    try:
        json.loads(line)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"json.loads takes {line!r}")


@pytest.mark.parametrize("bad,reason", [
    (lambda row: "\ufeff" + row, None),
    (lambda row: row + " {}", None),
    (lambda row: row + "\t x", None),
    (lambda row: "\f" + row, None),
    (lambda row: row + "\f", None),
    (lambda row: row[:-1], None),
    (lambda row: row.replace(":", "", 1), None),
    (lambda row: '["a"]', {"trace": "not a JSON object",
                           "row": "list indices must be integers or slices, not str"}),
    (lambda row: "[" * 100_000, None),
], ids=["bom", "extra_data", "extra_data_after_whitespace", "form_feed_before",
        "form_feed_after", "truncated_object", "missing_colon", "non_object", "nested_too_deep"])
@pytest.mark.parametrize("load,row,error,what", READERS)
def test_every_reader_rejects_a_bad_line_as_json_loads_does(tmp_path, load, row, error, what,
                                                           bad, reason):
    line = bad(json.dumps(row))
    path = tmp_path / "rows.jsonl"
    line_no = write_rows(path, load, line)
    if reason is None:
        reason = json_loads_error(line)
    else:
        reason = reason["trace" if load == Trace.load else "row"]
    with pytest.raises(error) as exc:
        load(path)
    assert type(exc.value) is error
    assert str(exc.value) == f"{path}:{line_no}: {what}: {reason}"


def exact(value):
    """``value`` in a form ``==`` compares with its types and float bits."""
    kind = type(value)
    if kind is float:
        return kind, value.hex()
    if kind is list:
        return kind, [exact(item) for item in value]
    if kind is dict:
        return kind, [(key, exact(item)) for key, item in value.items()]
    return kind, value


def decoded(read, line):
    """What ``read(line)`` gives: the exact value, or the error's type and
    text."""
    try:
        return exact(read(line))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


@contextmanager
def deep_stack(limit):
    # json.loads and decode each reach the C scanner a different number of
    # calls down, so near the recursion limit one can raise where the other
    # reads; a raised limit lets both read the deepest row drawn here
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# number literals on each side of where orjson reads numbers as json.loads
# does: the 64-bit integer edges and past them, subnormals, -0, the floats
# that overflow or underflow, and the literals only Python's JSON reads
_EDGE_INTS = st.sampled_from([2**63, 2**64, -(2**63), 10**19, 10**30]).flatmap(
    lambda edge: st.integers(edge - 2, edge + 2)) | st.integers()
_DECIMALS = st.builds(
    "{}{}{}{}".format, st.sampled_from(["", "-"]),
    st.from_regex(r"0|[1-9][0-9]{0,24}", fullmatch=True),
    st.just("") | st.from_regex(r"\.[0-9]{1,25}", fullmatch=True),
    st.just("") | st.builds("{}{}".format, st.sampled_from(["e", "E", "e+", "e-", "E-"]),
                            st.integers(0, 400)))
_NUMBERS = (
    _EDGE_INTS.map(str) | _DECIMALS
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                st.integers(-1074, 1024)).map(repr)  # every exponent, subnormals too
    | st.sampled_from(["-0", "-0.0", "0e0", "-0E-0", "5e-324", "2.4703282292062327e-324",
                       "2.4703282292062328e-324", "2.2250738585072011e-308",
                       "1.7976931348623158e308", "1.7976931348623159e308", "1e400",
                       "-1e400", "1e-400", "NaN", "Infinity", "-Infinity"]))
_STRINGS = (
    st.text().map(lambda text: json.dumps(text, ensure_ascii=False))
    | st.text(st.characters(exclude_categories=())).map(json.dumps)  # escaped surrogates
    | st.text(st.characters(exclude_categories=())).map(  # raw surrogates
        lambda text: json.dumps(text, ensure_ascii=False))
    | st.sampled_from(['"\\ud800"', '"\\udc00"', '"\\ud83d\\ude00"',
                       '"\\ude00\\ud83d"', '"\\ud800x"', '"\\u0000"']))
# a few keys, so objects often repeat one
_KEYS = st.sampled_from(['"a"', '"b"', '"text"']) | _STRINGS
_SPACE = st.sampled_from(["", " ", "\t", "\r", "\r\n", " \r\t", "\n"])
_VALUES = st.recursive(
    _NUMBERS | _STRINGS | st.sampled_from(["true", "false", "null"]),
    lambda children: st.lists(children, max_size=5).map(lambda items: f"[{','.join(items)}]")
    | st.lists(st.tuples(_KEYS, _SPACE, children), max_size=4).map(
        lambda pairs: "{" + ",".join(f"{key}{space}:{value}" for key, space, value in pairs)
        + "}"),
    max_leaves=12)


@st.composite
def _nested(draw):
    depth = draw(st.integers(60, 1100))
    opens = draw(st.lists(st.sampled_from(["[", '{"a":']), min_size=depth, max_size=depth))
    closes = "".join("]" if part == "[" else "}" for part in reversed(opens))
    return "".join(opens) + draw(_VALUES) + closes


_FIXTURE_ROWS = [line for path in sorted(FIXTURES.glob("*.jsonl"))
                 for line in open_lines(path)[1] if line.strip()]
_ROWS = st.builds("{}{}{}{}".format, st.sampled_from(["", "\ufeff"]), _SPACE,
                  _VALUES | _nested(), _SPACE)


@st.composite
def _mutated(draw):
    # a row with one character inserted, replaced or deleted
    line = draw(_ROWS | st.sampled_from(_FIXTURE_ROWS))
    at = draw(st.integers(0, len(line)))
    char = draw(st.sampled_from(list('{}[]":,\\ \r\t\n\x00\x1f-+.0eE19tfn\ufeff\u2028'))
                | st.characters())
    edit = draw(st.sampled_from(["insert", "replace", "delete"]))
    tail = line[at:] if edit == "insert" else line[at + 1:]
    return line[:at] + ("" if edit == "delete" else char) + tail


@given(_ROWS | _mutated())
@example("18446744073709551616")  # orjson reads it as the float 2.0**64
@example("[-9223372036854775809]")
@example('{"a": 1, "a": 2.5}\r')
@example("\ufeff{}")
@example('"\\ud800"')
@example("[NaN, Infinity]")
@example("[1e400]")
@example("[" * 1100 + "]" * 1100)
def test_decode_reads_a_line_as_json_loads_does(line):
    with deep_stack(5000):
        assert decoded(decode, line) == decoded(json.loads, line)


@pytest.mark.parametrize("depth", [1_100, 3_000, 100_000])
def test_a_row_nested_too_deep_for_the_stack_fails_as_in_json_loads(depth):
    line = "[" * depth + "]" * depth  # orjson reads it, past the default limit of 1,000
    assert decoded(decode, line) == decoded(json.loads, line)
    assert decoded(decode, line)[0] is RecursionError


@pytest.mark.parametrize("wrap", [lambda value: [value], lambda value: {"a": value}],
                         ids=["list", "dict"])
def test_a_value_nested_past_the_fixed_depth_goes_to_the_stdlib_decoder(wrap):
    value = 0.5
    for _ in range(_DEPTH):
        value = wrap(value)
    assert _plain(value, _DEPTH)
    assert not _plain(wrap(value), _DEPTH)


def test_every_fixture_row_is_read_by_orjson_as_by_json_loads():
    for line in _FIXTURE_ROWS:
        value = orjson.loads(line)
        assert _plain(value, _DEPTH), line  # so decode keeps orjson's value
        assert exact(value) == exact(json.loads(line)), line


@pytest.mark.parametrize("value", ["Story \ud800.", None, 5],
                         ids=["lone_surrogate", "null", "number"])
@pytest.mark.parametrize("load,good_row,what", LOADERS)
def test_every_loader_rejects_a_text_field_that_is_not_encodable_text(tmp_path, load, good_row,
                                                                      what, value):
    # the last text field: a case's narrative, a transcript row's response
    field = [key for key, text in good_row.items() if isinstance(text, str)][-1]
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(good_row) + "\n" + json.dumps(dict(good_row, **{field: value}))
                    + "\n", encoding="utf-8")
    with pytest.raises(ResourceError, match=rf"rows\.jsonl:2: bad {what} row: "):
        load(path)


@pytest.mark.parametrize("load,row,changed,key", [
    (load_transcript, {"key": "k", "task": "ner", "response": "r"}, {"response": "s"}, "k"),
    (TableEmbedder.load, {"text": "t", "embedding": [1.0, 0.5]}, {"embedding": [1.0, 0.25]},
     "t"),
    (TableScorer.load, {"query": "q", "text": "t", "score": 0.5}, {"score": 0.25},
     ("q", "t")),
], ids=["load_transcript", "TableEmbedder.load", "TableScorer.load"])
def test_every_replay_table_rejects_a_key_repeated_with_a_different_row(tmp_path, load, row,
                                                                        changed, key):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    load(path)  # an identical repeat is one row
    path.write_text(json.dumps(row) + "\n" + json.dumps(dict(row, **changed)) + "\n",
                    encoding="utf-8")
    with pytest.raises(RecordConflictError) as exc:
        load(path)
    assert exc.value.key == key


# str.splitlines splits at each of these, and JSON text written with
# ensure_ascii=False holds them raw
LINE_SEPARATORS = pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                                          ids=["U+2028", "U+2029", "U+0085"])


@LINE_SEPARATORS
def test_recorded_rows_holding_a_line_separator_load_back(tmp_path, char):
    text = f"Jaundice{char}pruritus"
    recorder = TranscriptRecorder(tmp_path / "t.jsonl")
    recorder.record("k", "ner", text)
    recorder.close()
    assert load_transcript(tmp_path / "t.jsonl") == {"k": text}

    embedder = RecordingEmbedder(HashEmbedder(dim=4), tmp_path / "e.jsonl")
    [recorded] = embedder.embed([text])
    embedder.close()
    [replayed] = TableEmbedder.load(tmp_path / "e.jsonl").embed([text])
    assert replayed.tobytes() == recorded.tobytes()

    scorer = RecordingScorer(LexicalOverlapScorer(), tmp_path / "s.jsonl")
    scores = scorer.score(text, [text, "alpha"])
    scorer.close()
    assert TableScorer.load(tmp_path / "s.jsonl").score(text, [text, "alpha"]) == scores


@pytest.mark.parametrize("load,row,field", [
    (read_cases, {"case_id": "a", "narrative": "Story\u2028A."}, "narrative"),
    (read_corpus, {"segment_id": "a", "source_doc": "d", "text": "alpha\u2028beta"}, "text"),
], ids=["read_cases", "read_corpus"])
def test_a_raw_line_separator_inside_a_row_keeps_the_row_whole(tmp_path, load, row, field):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    [item] = load(path)
    assert getattr(item, field) == row[field]


def test_table_embedder_rejects_an_embedding_that_is_not_a_list(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text(json.dumps({"text": "t", "embedding": 5}) + "\n", encoding="utf-8")
    with pytest.raises(ResourceError, match=r"e\.jsonl:1: "):
        TableEmbedder.load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("load,row,what", [
    (TableEmbedder.load, lambda value: {"text": "t", "embedding": [1.0, value]}, "embedding"),
    (TableScorer.load, lambda value: {"query": "q", "text": "t", "score": value}, "score"),
], ids=["TableEmbedder.load", "TableScorer.load"])
def test_replay_tables_reject_a_non_finite_value(tmp_path, load, row, what, value):
    # Python's JSON reader takes NaN and Infinity, and json.dumps writes them
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row(value)) + "\n", encoding="utf-8")
    with pytest.raises(ResourceError, match=rf"rows\.jsonl:1: bad {what} row: "):
        load(path)


@pytest.mark.parametrize("load,row,what", [
    (TableEmbedder.load, {"text": "t", "embedding": [1.0, 10 ** 400]}, "embedding"),
    (TableScorer.load, {"query": "q", "text": "t", "score": 10 ** 400}, "score"),
], ids=["TableEmbedder.load", "TableScorer.load"])
def test_replay_tables_reject_a_value_too_large_for_a_float(tmp_path, load, row, what):
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ResourceError, match=rf"rows\.jsonl:1: bad {what} row: "):
        load(path)


@pytest.mark.parametrize("score", ["0.5", True, False, None, [0.5], {"v": 0.5}],
                         ids=["numeric_string", "true", "false", "null", "list", "object"])
def test_a_score_table_rejects_a_score_that_is_not_a_json_number(tmp_path, score):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"query": "q", "text": "a", "score": 0.25}) + "\n"
                    + json.dumps({"query": "q", "text": "t", "score": score}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ResourceError,
                       match=rf"s\.jsonl:2: bad score row: score must be a number, "
                             rf"got {type(score).__name__}$"):
        TableScorer.load(path)


def test_a_score_table_takes_integer_and_float_scores_as_floats(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"query": "q", "text": "a", "score": 1}) + "\n"
                    + json.dumps({"query": "q", "text": "b", "score": -0.5}) + "\n",
                    encoding="utf-8")
    scores = TableScorer.load(path).score("q", ["a", "b"])
    assert scores == [1.0, -0.5]
    assert [type(score) for score in scores] == [float, float]


def embedding_line(text, embedding):
    return json.dumps({"text": text, "embedding": embedding})


def numpy_error(value) -> str:
    try:
        np.asarray(value, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        return str(exc)
    raise AssertionError(f"numpy converts {value!r}")


NOT_FLAT = "bad embedding row: embedding must be a flat list of finite numbers"


@pytest.mark.parametrize("lines,error,fault", [
    ([embedding_line("a", [1.0, float("nan")]), "{not json"], ResourceError, f"1: {NOT_FLAT}"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", [1.0, 0.5, 0.25]),
      embedding_line("a", [0.0, 1.0])], ResourceError, "2: embedding dim 3 != 2"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("a", [0.0, 1.0]),
      embedding_line("b", [1.0, 0.5, 0.25])], RecordConflictError,
     "2: text 'a' appears twice with different embeddings"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", [[1.0, 0.5]]),
      embedding_line("c", [1.0])], ResourceError, f"2: {NOT_FLAT}"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", [1.0, [0.5, 0.25]]),
      embedding_line("c", [float("inf"), 0.5])], ResourceError,
     f"2: bad embedding row: {numpy_error([1.0, [0.5, 0.25]])}"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", [1.0, 10 ** 400]),
      embedding_line("c", [float("nan"), 0.5])], ResourceError,
     f"2: bad embedding row: {numpy_error([1.0, 10 ** 400])}"),
    ([embedding_line("a", [float("nan"), 0.5]), embedding_line("b", [1.0, 10 ** 400])],
     ResourceError, f"1: {NOT_FLAT}"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", {"x": 1.0}),
      embedding_line("c", 5)], ResourceError,
     f"2: bad embedding row: {numpy_error({'x': 1.0})}"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", [1.0, 0.5]).replace('"b"', "5"),
      embedding_line("c", [float("nan"), 0.5])], ResourceError,
     "2: bad embedding row: 'text' must be a string, got int"),
    # numpy converts a numeric string or a boolean, but neither is a JSON number
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", ["1.5", True])], ResourceError,
     f"2: {NOT_FLAT}"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", ["1.5", "-2e-308"]),
      embedding_line("c", [1.0])], ResourceError, f"2: {NOT_FLAT}"),
    ([embedding_line("a", [1.0, 0.5]), embedding_line("b", [True, 0.1]),
      embedding_line("c", [float("nan"), 0.5])], ResourceError, f"2: {NOT_FLAT}"),
    ([embedding_line("a", [float("nan"), 0.5]), embedding_line("b", [1.0, False])],
     ResourceError, f"1: {NOT_FLAT}"),
], ids=["nan_before_malformed", "dim_before_conflict", "conflict_before_dim",
        "nested_row", "ragged_row", "int_too_large_before_nan", "nan_before_int_too_large",
        "object_row", "bad_text_before_nan", "string_and_bool_row",
        "numeric_strings_before_dim", "bool_before_nan", "nan_before_bool"])
def test_an_embedding_table_with_several_faults_names_the_first_in_file_order(
        tmp_path, lines, error, fault):
    path = tmp_path / "e.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(error) as exc:
        TableEmbedder.load(path)
    assert type(exc.value) is error
    assert str(exc.value) == f"{path}:{fault}"


def test_a_loaded_embedding_holds_the_bits_a_row_by_row_conversion_gives(tmp_path):
    values = [[1, 2 ** 64 + 1], [10 ** 300, -0.0], [5e-324, 1.7976931348623157e308]]
    path = tmp_path / "e.jsonl"
    path.write_text("".join(embedding_line(f"t{i}", value) + "\n"
                            for i, value in enumerate(values)), encoding="utf-8")
    table = TableEmbedder.load(path).table
    assert [table[f"t{i}"].tobytes() for i in range(len(values))] == [
        np.asarray(value, dtype=float).tobytes() for value in values]
    assert not any(vec.flags.writeable for vec in table.values())
    assert len({id(vec.base) for vec in table.values()}) == 1  # rows of one matrix


class Drifting:
    """A backend that answers every call with a new value, as a
    nondeterministic model would."""

    def __init__(self):
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return [np.full(4, float(self.calls)) for _ in texts]

    def score(self, query_text, segment_texts):
        self.calls += 1
        return [float(self.calls)] * len(segment_texts)


def table_rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def written_rows(sink: JsonlSink):
    """The rows an open sink has written so far: those of its temp file,
    flushed first, as the table itself is written only on close."""
    sink._fh.flush()
    return table_rows(sink._tmp)


def test_a_sink_leaves_its_table_as_it_was_until_it_closes(tmp_path):
    table = tmp_path / "t.jsonl"
    table.write_text("old\n")
    kept, dropped = (JsonlSink(table, RecordConflictError) for _ in range(2))
    kept.write([("k", {"k": "new"})])
    dropped.write([("d", {"k": "dropped"})])
    assert table.read_text() == "old\n"
    dropped.discard()
    dropped.close()
    assert table.read_text() == "old\n"
    kept.close()
    kept.close()
    kept.discard()
    assert table_rows(table) == [{"k": "new"}]
    assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]


def test_recorders_write_a_repeated_input_once(tmp_path):
    embedder = RecordingEmbedder(HashEmbedder(dim=4), tmp_path / "e.jsonl")
    embedder.embed(["a", "b", "a"])
    embedder.embed(["b"])
    embedder.close()
    scorer = RecordingScorer(LexicalOverlapScorer(), tmp_path / "s.jsonl")
    scorer.score("liver", ["liver disease", "liver disease"])
    scorer.score("liver", ["liver disease"])
    scorer.close()
    assert [row["text"] for row in table_rows(tmp_path / "e.jsonl")] == ["a", "b"]
    assert len(table_rows(tmp_path / "s.jsonl")) == 1


def test_recorders_reject_a_repeated_input_with_a_different_value(tmp_path):
    embedder = RecordingEmbedder(Drifting(), tmp_path / "e.jsonl")
    embedder.embed(["a"])
    with pytest.raises(RecordConflictError):
        embedder.embed(["a"])
    embedder.close()
    scorer = RecordingScorer(Drifting(), tmp_path / "s.jsonl")
    scorer.score("q", ["t"])
    with pytest.raises(RecordConflictError) as exc:
        scorer.score("q", ["t"])
    scorer.close()
    assert exc.value.key == ("q", "t")
    assert len(table_rows(tmp_path / "e.jsonl")) == len(table_rows(tmp_path / "s.jsonl")) == 1


def test_recording_scorer_writes_one_row_per_pair_in_input_order(tmp_path):
    texts = ["gamma liver", "alpha liver", "beta"]
    scorer = RecordingScorer(LexicalOverlapScorer(), tmp_path / "s.jsonl")
    scores = scorer.score("alpha liver", texts)
    scorer.close()
    assert [(row["query"], row["text"], row["score"])
            for row in table_rows(tmp_path / "s.jsonl")] == \
        [("alpha liver", text, value) for text, value in zip(texts, scores)]


def test_recording_scorer_rejects_a_conflicting_pair_inside_a_batch(tmp_path):
    scorer = RecordingScorer(Drifting(), tmp_path / "s.jsonl")
    scorer.score("q", ["t"])
    with pytest.raises(RecordConflictError) as exc:
        scorer.score("q", ["u", "t"])
    scorer.close()
    assert exc.value.key == ("q", "t")


def test_recording_scorer_records_nothing_from_a_miscounted_batch(tmp_path):
    class ShortScorer:
        def score(self, query_text, segment_texts):
            return [0.5] * (len(segment_texts) - 1)

    scorer = RecordingScorer(ShortScorer(), tmp_path / "s.jsonl")
    with pytest.raises(RetrievalError, match="^cross-scorer returned 1 scores for 2 segments$"):
        scorer.score("q", ["a", "b"])
    scorer.close()
    assert table_rows(tmp_path / "s.jsonl") == []


def test_recording_embedder_records_nothing_from_a_miscounted_batch(tmp_path):
    class ShortEmbedder:
        def embed(self, texts):
            return HashEmbedder(dim=4).embed(texts)[:-1]

    embedder = RecordingEmbedder(ShortEmbedder(), tmp_path / "e.jsonl")
    with pytest.raises(RetrievalError, match="^embedder returned 2 vectors for 3 texts$"):
        embedder.embed(["a", "b", "c"])
    embedder.close()
    assert table_rows(tmp_path / "e.jsonl") == []


def test_recorders_record_nothing_from_a_batch_holding_a_non_finite_value(tmp_path):
    class NanBackend:
        def embed(self, texts):
            return [np.array([1.0, float("nan")]) if text == "b" else np.ones(2)
                    for text in texts]

        def score(self, query_text, segment_texts):
            return [float("nan") if text == "b" else 0.5 for text in segment_texts]

    embedder = RecordingEmbedder(NanBackend(), tmp_path / "e.jsonl")
    with pytest.raises(RetrievalError,
                       match="^embedder returned a non-finite vector at position 1$"):
        embedder.embed(["a", "b"])
    embedder.close()
    scorer = RecordingScorer(NanBackend(), tmp_path / "s.jsonl")
    with pytest.raises(RetrievalError, match="^cross-scorer returned nan at position 1$"):
        scorer.score("q", ["a", "b"])
    scorer.close()
    assert table_rows(tmp_path / "e.jsonl") == table_rows(tmp_path / "s.jsonl") == []


def test_recorded_tables_load_back_bit_for_bit(tmp_path):
    texts = ["Jaundice and pruritus", "Ascites — grade 2", "ALP 3x ULN"]
    embedder = RecordingEmbedder(HashEmbedder(dim=16), tmp_path / "e.jsonl")
    recorded = embedder.embed(texts)
    embedder.close()
    replayed = TableEmbedder.load(tmp_path / "e.jsonl").embed(texts)
    assert [v.tobytes() for v in replayed] == [v.tobytes() for v in recorded]

    pairs = [(q, t) for q in texts for t in texts]
    scorer = RecordingScorer(LexicalOverlapScorer(), tmp_path / "s.jsonl")
    scores = [scorer.score(q, texts) for q in texts]
    scorer.close()
    table = TableScorer.load(tmp_path / "s.jsonl")
    assert [table.score(q, [t]) for q, t in pairs] == [[s] for row in scores for s in row]


def test_sink_shared_by_threads_keeps_one_line_per_key(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl", RecordConflictError)
    rows = [(i, {"key": i}) for i in range(50)]
    threads = [threading.Thread(target=lambda: [sink.write([row]) for row in rows])
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so races show
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
        sink.close()
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(row["key"] for row in table_rows(tmp_path / "t.jsonl")) == list(range(50))


# -- held writes ---------------------------------------------------------------

def test_held_rows_land_in_call_order_when_written(tmp_path):
    first = JsonlSink(tmp_path / "a.jsonl", RecordConflictError)
    second = JsonlSink(tmp_path / "b.jsonl", RecordConflictError)
    held: list = []
    with holding(held):
        first.write([("x", {"k": "x"})])
        second.write([("y", {"k": "y"}), ("z", {"k": "z"})])
        first.write([("w", {"k": "w"})])
    assert written_rows(first) == written_rows(second) == []
    first.write([("v", {"k": "v"})])  # outside the context: written at once
    write_held(held)
    first.close()
    second.close()
    assert [row["k"] for row in table_rows(tmp_path / "a.jsonl")] == ["v", "x", "w"]
    assert [row["k"] for row in table_rows(tmp_path / "b.jsonl")] == ["y", "z"]


def test_a_held_row_is_written_as_it_was_encoded_when_held(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl", RecordConflictError)
    row = {"k": "when held"}
    held: list = []
    with holding(held):
        sink.write([("key", row)])
    row["k"] = "changed after"
    write_held(held)
    sink.close()
    assert table_rows(tmp_path / "t.jsonl") == [{"k": "when held"}]


def test_writes_held_under_an_outer_holding_are_held_again_and_committed_with_it(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl", RecordConflictError)
    trace = Trace("case")
    outer: list = []
    with holding(outer):
        trace.decision("first", {})
        inner: list = []
        with holding(inner):
            trace.decision("held", {})
            sink.write([("row", {"k": "row"})])
        write_held(inner)
        assert [item for _, item in outer][1:] == [item for _, item in inner]
    assert len(outer) == 3
    assert trace.records == [] and written_rows(sink) == []
    write_held(outer)
    sink.close()
    assert [(r["seq"], r["decision"]) for r in trace.records] == [(0, "first"), (1, "held")]
    assert table_rows(tmp_path / "t.jsonl") == [{"k": "row"}]


def test_dropped_held_rows_write_nothing(tmp_path):
    embedder = RecordingEmbedder(HashEmbedder(dim=4), tmp_path / "e.jsonl")
    with holding([]):
        embedder.embed(["a", "b"])
    embedder.close()
    assert table_rows(tmp_path / "e.jsonl") == []


def test_a_conflicting_held_repeat_raises_when_written(tmp_path):
    scorer = RecordingScorer(Drifting(), tmp_path / "s.jsonl")
    recorder = TranscriptRecorder(tmp_path / "t.jsonl")
    scorer.score("q", ["t"])
    recorder.record("k", "ner", "first")
    held: list = []
    with holding(held):
        scorer.score("q", ["t"])
    with pytest.raises(RecordConflictError):
        write_held(held)
    held = []
    with holding(held):
        recorder.record("k", "ner", "second")
    with pytest.raises(RecordConflictError,
                       match="^transcript key k appears twice with different responses$"):
        write_held(held)
    scorer.close()
    recorder.close()
    assert len(table_rows(tmp_path / "s.jsonl")) == len(table_rows(tmp_path / "t.jsonl")) == 1


def test_a_thread_holding_nothing_writes_while_another_holds(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl", RecordConflictError)
    held: list = []
    holding_rows = threading.Event()
    done = threading.Event()

    def holder():
        with holding(held):
            sink.write([("held", {"k": "held"})])
            holding_rows.set()
            done.wait(timeout=10)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert holding_rows.wait(timeout=10)
        sink.write([("direct", {"k": "direct"})])
        assert [row["k"] for row in written_rows(sink)] == ["direct"]
    finally:
        done.set()
        thread.join(timeout=10)
    write_held(held)
    sink.close()
    assert [row["k"] for row in table_rows(tmp_path / "t.jsonl")] == ["direct", "held"]


def test_write_whole_replaces_all_a_longer_file_held(tmp_path):
    path = tmp_path / "out" / "results.jsonl"
    assert write_whole(path, "first\nsecond\n") == path  # the parent is made
    write_whole(path, "\u00e9\n")
    assert path.read_bytes() == "\u00e9\n".encode("utf-8")


def test_write_whole_writes_bytes_as_they_are(tmp_path):
    path = tmp_path / "out" / "case.trace.jsonl"
    write_whole(path, "\u00e9 text first\n")
    assert write_whole(path, b"\xc3\xa9\n\xff") == path  # bytes are not decoded or checked
    assert path.read_bytes() == b"\xc3\xa9\n\xff"


def test_write_whole_makes_every_missing_parent(tmp_path):
    path = tmp_path / "a" / "b" / "case.trace.jsonl"
    write_whole(path, "one\n")
    write_whole(path.with_name("other.jsonl"), "two\n")  # the parent is there now
    assert [p.read_text() for p in (path, path.with_name("other.jsonl"))] == ["one\n", "two\n"]


def test_write_whole_makes_nothing_when_the_text_does_not_encode(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_whole(tmp_path / "out" / "results.jsonl", "lone \ud800\n")
    assert list(tmp_path.iterdir()) == []


def test_write_whole_leaves_the_old_file_when_the_text_does_not_encode(tmp_path):
    path = tmp_path / "case.trace.jsonl"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        write_whole(path, "lone \ud800\n")
    assert path.read_text() == "old\n"
