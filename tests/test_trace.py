"""Audit trace: sequencing, digests, persistence, and the leakage scan."""

from __future__ import annotations

import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxcouncil.jsonl import _CANONICAL, encode_line, holding, write_held
from dxcouncil.trace import Trace, scan_for_leakage


def sample_trace():
    return append_sample(Trace("case-x"))


def append_sample(t: Trace) -> Trace:
    t.exchange(task="ner", canonical_key="k1", prompt="Patient record: itching",
               response='["itching"]', backend="live")
    t.retrieval(query="q", dense=[{"segment_id": "s1", "dense_score": 0.5}],
                reranked=[], k=8, n=4)
    t.paths(start="f", end="d", h_max=3, enumerated=[])
    t.prune_batch(batch_index=0, size=2, bits=[1, 0], guideline_ids=["s1"])
    t.decision("complexity", {"flag": "SIMPLE"})
    return t


def test_sequence_numbers_are_gapless_and_ordered():
    t = sample_trace()
    assert [r["seq"] for r in t.records] == [0, 1, 2, 3, 4]
    assert [r["type"] for r in t.records] == [
        "exchange", "retrieval", "paths", "prune_batch", "decision"]


def test_held_records_are_numbered_when_written_and_reset_the_digest():
    t = Trace("case-x")
    t.decision("complexity", {"flag": "SIMPLE"})
    before = t.digest()
    held: list = []
    with holding(held):
        append_sample(t)
    held_records = [record for _, (record, _, _) in held]
    assert len(held_records) == 5 and not any("seq" in r for r in held_records)
    stamps = [ts for _, (_, ts, _) in held]
    assert len(t.records) == 1 and t.digest() == before
    assert len(t.timings()["ts"]) == 1
    write_held(held)
    assert [r["seq"] for r in t.records] == list(range(6))
    assert [r["type"] for r in t.records[1:]] == [r["type"] for r in sample_trace().records]
    # each held record keeps the time it was made at, not its commit's
    assert t.timings()["ts"][1:] == stamps
    assert t.digest() != before
    whole = Trace("case-x")
    whole.decision("complexity", {"flag": "SIMPLE"})
    assert t.digest() == append_sample(whole).digest()


def test_filters_select_by_task_and_decision():
    t = sample_trace()
    assert len(t.exchanges()) == 1
    assert t.exchanges(task="align") == []
    assert len(t.decisions("complexity")) == 1
    assert t.decisions("roster") == []
    assert list(t.rendered_prompts()) == ["Patient record: itching"]


def test_record_and_replay_traces_write_equal_files(tmp_path):
    a, b = Trace("case"), Trace("case")
    a.exchange(task="ner", canonical_key="k", prompt="p", response="r",
               backend="live")
    a.decision("complexity", {"flag": "SIMPLE"})
    b.exchange(task="ner", canonical_key="k", prompt="p", response="r",
               backend="replay")
    b.decision("complexity", {"flag": "SIMPLE"})
    assert (a.write(tmp_path / "a.trace.jsonl").read_bytes()
            == b.write(tmp_path / "b.trace.jsonl").read_bytes())
    assert a.digest() == b.digest()
    # the labels and times live in each trace's timing line
    assert (a.timings()["backend"], b.timings()["backend"]) == (
        ["live", None], ["replay", None])

    c = Trace("case")
    c.exchange(task="ner", canonical_key="k", prompt="different", response="r",
               backend="live")
    assert a.digest() != c.digest()


def test_the_timing_line_holds_one_time_and_label_per_record():
    before = time.time()
    t = sample_trace()
    after = time.time()
    timings = t.timings()
    assert list(timings) == ["case_id", "ts", "backend"]
    assert timings["case_id"] == "case-x"
    assert len(timings["ts"]) == len(t.records)
    assert all(before <= ts <= after for ts in timings["ts"])
    assert timings["backend"] == ["live", None, None, None, None]
    assert not any("ts" in r or "backend" in r for r in t.records)
    # the line is a copy, which a later record does not change
    t.decision("final_report", {"diagnosis": "X"})
    assert len(timings["ts"]) == 5 and len(t.timings()["ts"]) == 6


def test_digest_covers_the_case_id():
    a, b = Trace("case-1"), Trace("case-2")
    assert a.digest() != b.digest()


def test_digest_covers_records_appended_after_an_earlier_digest():
    t = sample_trace()
    t.digest()
    t.decision("final_report", {"diagnosis": "X"})
    fresh = sample_trace()
    fresh.decision("final_report", {"diagnosis": "X"})
    assert t.digest() == fresh.digest()


def test_write_then_load_preserves_digest(tmp_path):
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"type": "header", "case_id": "case-x"}
    assert lines[-1]["type"] == "digest"
    loaded = Trace.load(path)
    assert loaded.case_id == "case-x"
    assert loaded.digest() == t.digest()
    assert len(loaded.records) == len(t.records)
    assert loaded.records == t.records


def test_write_produces_these_exact_bytes(tmp_path):
    # every line is its canonical line (sorted, compact, UTF-8): the header
    # and the digest line too
    t = Trace("case-\u00e9")
    t.exchange(task="ner", canonical_key="k1",
               prompt="Patient record: itching \u2192 jaundice",
               response='["itching"]', backend="live")
    t.retrieval(query="q", dense=[{"segment_id": "s1", "dense_score": 0.5}],
                reranked=[], k=8, n=4)
    t.decision("complexity", {"flag": "SIMPLE", "z": 1, "a": [True, None]})
    path = t.write(tmp_path / "case.trace.jsonl")
    assert path.read_bytes() == (
        b'{"case_id":"case-\xc3\xa9","type":"header"}\n'
        b'{"key":"k1","prompt":"Patient record: itching \xe2\x86\x92 jaundice",'
        b'"response":"[\\"itching\\"]","seq":0,"task":"ner","type":"exchange"}\n'
        b'{"dense":[{"dense_score":0.5,"segment_id":"s1"}],"k":8,"n":4,"query":"q",'
        b'"reranked":[],"seq":1,"type":"retrieval"}\n'
        b'{"decision":"complexity","payload":{"a":[true,null],"flag":"SIMPLE","z":1},'
        b'"seq":2,"type":"decision"}\n'
        b'{"digest":"2b1c656b69db7036963bf27cd48e0bc3022db586f32b5d52aba10f1216a1621a",'
        b'"type":"digest"}\n')


class Label(str):
    pass


def test_a_value_orjson_writes_otherwise_is_written_as_the_stdlib_writes_it(tmp_path):
    # one record per value, so each value but -0.0 (which orjson writes as
    # the stdlib does) sends its line to the stdlib encoder alone; these are
    # the stdlib's bytes
    t = Trace("case-f")
    for value in [1e-05, 9.999999999999999e-05, 1e16, 5e-324, -0.0, 2**64, -(2**63) - 1,
                  {7: "seven"}, Label("PBC")]:
        t.decision("probe", {"value": value})
    path = t.write(tmp_path / "case-f.trace.jsonl")
    records = b"".join(
        b'{"decision":"probe","payload":{"value":%s},"seq":%d,"type":"decision"}\n'
        % (written, seq) for seq, written in enumerate([
            b"1e-05", b"9.999999999999999e-05", b"1e+16", b"5e-324", b"-0.0",
            b"18446744073709551616", b"-9223372036854775809", b'{"7":"seven"}', b'"PBC"']))
    assert path.read_bytes() == (
        b'{"case_id":"case-f","type":"header"}\n' + records
        + b'{"digest":"1dde3e96d90d52c43bbf4b48c3c9f6ea67854c81f5d2e74e4865164832d0efd8",'
        b'"type":"digest"}\n')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_a_trace_holding_a_nan_or_an_infinity_is_not_written(tmp_path, value):
    # strict JSON has no number for them, and decode reads none back
    t = sample_trace()
    t.decision("probe", {"value": [0.5, value]})
    with pytest.raises(ValueError, match="not JSON compliant"):
        t.write(tmp_path / "case-x.trace.jsonl")
    assert not (tmp_path / "case-x.trace.jsonl").exists()


def _canonical_or_error(encode, value):
    try:
        return encode(value)
    except Exception as exc:  # the error's type is what is compared
        return type(exc)


# each end of the range where orjson writes floats, its neighbours, and the
# floats JSON has no number for
_EDGE_FLOATS = [s * x for s in (1.0, -1.0) for b in (1e-4, 1e16)
                for x in (math.nextafter(b, 0), b, math.nextafter(b, math.inf))
                ] + [math.nan, math.inf, -math.inf]
# values orjson writes as the stdlib does
_PLAIN = (st.none() | st.booleans() | st.integers(-(2**63), 2**64 - 1) | st.text()
          | st.sampled_from([0.0, -0.0]) | st.floats(1e-4, 1e16, exclude_max=True)
          | st.floats(-1e16, -1e-4, exclude_min=True))
# values it writes otherwise, raises on, or writes where the stdlib raises
_ODD = (st.text(st.characters(exclude_categories=()))  # lone surrogates too
        | st.integers() | st.sampled_from([2**64, -(2**63) - 1]) | st.floats()
        | st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                    st.integers(-1074, 1024))  # every exponent
        | st.builds(Label, st.text(max_size=3)) | st.dates())


def _mostly(plain, *odd):
    # six values in eight are plain, and each odd strategy gives one, so
    # most values hold one odd part or none
    return st.integers(0, 7).flatmap(lambda i: odd[i] if i < len(odd) else plain)


_JSON_LIKE = st.recursive(
    _mostly(_PLAIN, _ODD, st.sampled_from(_EDGE_FLOATS)),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_mostly(st.text(), _ODD, st.builds(Label, st.text(max_size=2))),
                      children, max_size=4),
    max_leaves=8)


@settings(max_examples=100)
@given(st.lists(_JSON_LIKE, min_size=1, max_size=4))
def test_encode_line_writes_the_stdlib_canonical_bytes_or_raises_its_error(values):
    for value in [values, *values]:
        assert _canonical_or_error(encode_line, value) == _canonical_or_error(
            lambda v: _CANONICAL.encode(v).encode("utf-8"), value)


def test_encode_line_leaves_a_value_orjson_refuses_to_the_stdlib_encoder():
    deep = []
    for _ in range(300):  # orjson refuses more than 254 levels
        deep = [deep]
    assert encode_line(deep) == b"[" * 301 + b"]" * 301
    circular = {"a": []}
    circular["a"].append(circular)
    with pytest.raises(ValueError, match="Circular reference"):
        encode_line(circular)


def test_load_rejects_a_file_whose_records_carry_their_times(tmp_path):
    # the format written before the timing sidecar: each record line ends
    # with its ts, and an exchange's with its backend label too, neither of
    # which the stored digest covers
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, record in enumerate(t.records, start=1):
        tail = ',"backend":"live"' if record["type"] == "exchange" else ""
        lines[i] = lines[i][:-1] + f',"ts":1700000000.125{tail}}}'
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="holds no ts or backend key") as caught:
        Trace.load(path)
    assert str(caught.value).startswith(f"{path}:2: ")


def write_partial(tmp_path, edit):
    # a crashed case's partial trace: header and records, no digest line
    path = sample_trace().write(tmp_path / "case-x.trace.jsonl")
    header, *records = path.read_text(encoding="utf-8").splitlines()[:-1]
    rows = [json.loads(line) for line in records]
    edit(rows)
    path.write_text("\n".join([header, *map(json.dumps, rows)]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("edit", [
    lambda rows: rows[1].update(ts=1700000000.125),
    lambda rows: rows[1].update(backend="live"),
    lambda rows: rows[1].update(seq=0),  # seqs 0, 0
    lambda rows: rows[1].update(seq=7),  # seqs 0, 7
], ids=["ts", "backend", "repeated-seq", "gapped-seq"])
def test_load_rejects_a_partial_trace_at_its_second_record(tmp_path, edit):
    path = write_partial(tmp_path, edit)
    with pytest.raises(ValueError) as caught:
        Trace.load(path)
    assert str(caught.value).startswith(f"{path}:3: bad trace line: ")


def test_load_detects_tampering(tmp_path):
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("itching", "scratching")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        Trace.load(path)


def test_load_tolerates_a_missing_digest_line(tmp_path):
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    loaded = Trace.load(path)
    assert len(loaded.records) == 5


def test_load_requires_a_header(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text(json.dumps({"type": "digest", "digest": "x"}) + "\n")
    with pytest.raises(ValueError):
        Trace.load(path)


@pytest.mark.parametrize("line", ["[1, 2]", '"text"', '{"type": "decision"}',
                                  '{"type": "decision", "seq": 0'])
def test_load_names_the_file_and_line_of_a_malformed_line(tmp_path, line):
    path = sample_trace().write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2] = line
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        Trace.load(path)
    assert type(caught.value) is ValueError
    assert str(caught.value).startswith(f"{path}:3: ")


# a sample trace file's lines: header (line 1), five records, digest (line 7)
@pytest.mark.parametrize("edit,line_no,reason", [
    (lambda lines: [lines[0].replace('"case-x"', "7"), *lines[1:]], 1,
     "'case_id' must be a string, got int"),
    (lambda lines: [lines[0].replace('"case-x"', "7"), *lines[1:-1]], 1,
     "'case_id' must be a string, got int"),
    (lambda lines: [lines[0], lines[1], lines[0], *lines[2:]], 3, "a second header"),
    (lambda lines: [lines[1], lines[0], *lines[2:]], 1, "a line before the header"),
    (lambda lines: [lines[-1], *lines], 1, "a line before the header"),
    (lambda lines: [*lines, lines[-1]], 8, "a line after the digest line"),
    (lambda lines: [*lines, lines[-2]], 8, "a line after the digest line"),
    (lambda lines: [*lines, lines[0]], 8, "a line after the digest line"),
    (lambda lines: [*lines[:-1], '{"digest":null,"type":"digest"}', lines[-2]], 7,
     "'digest' must be a string, got NoneType"),
], ids=["int_case_id", "int_case_id_without_digest", "second_header",
        "record_before_header", "digest_before_header", "second_digest",
        "record_after_digest", "header_after_digest", "null_digest"])
def test_load_rejects_a_malformed_trace_at_its_line(tmp_path, edit, line_no, reason):
    path = sample_trace().write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        Trace.load(path)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{path}:{line_no}: bad trace line: {reason}"


def deep_record(depth):
    return ('{"decision":"d","payload":' + "[" * depth + "]" * depth
            + ',"seq":0,"type":"decision"}')


@pytest.mark.parametrize("digest", [False, True], ids=["partial", "with_digest"])
def test_load_rejects_a_record_too_deep_to_encode_naming_the_file(tmp_path, digest):
    # decode reads it, and encoding it for the digest passes the recursion limit
    path = tmp_path / "case-x.trace.jsonl"
    tail = ['{"digest":"x","type":"digest"}'] if digest else []
    path.write_text("\n".join(['{"case_id":"case-x","type":"header"}', deep_record(5_000),
                               *tail]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        Trace.load(path)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{path}: a record is nested too deep to encode"


def test_load_rejects_a_record_nested_past_the_decoders_limit_at_its_line(tmp_path):
    path = tmp_path / "case-x.trace.jsonl"
    path.write_text('{"case_id":"case-x","type":"header"}\n' + deep_record(100_000) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        Trace.load(path)
    assert str(caught.value) == (
        f"{path}:2: bad trace line: nested deeper than 10000 levels")


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                         ids=["U+2028", "U+2029", "U+0085"])
def test_a_prompt_holding_a_line_separator_loads_back_with_its_digest(tmp_path, char):
    t = Trace("case-x")
    t.exchange(task="ner", canonical_key="k", prompt=f"itching{char}jaundice",
               response='["itching"]', backend="live")
    loaded = Trace.load(t.write(tmp_path / "case-x.trace.jsonl"))
    assert loaded.records == t.records
    assert loaded.digest() == t.digest()


def test_leakage_scan_hits_prompts_only():
    t = Trace("case")
    t.exchange(task="ner", canonical_key="k1", prompt="The label PBC appears here",
               response="clean", backend="live")
    t.exchange(task="ner", canonical_key="k2", prompt="clean prompt",
               response="PBC mentioned in the response only", backend="live")
    t.decision("final_report", {"final_diagnosis": "PBC"})
    hits = scan_for_leakage(t, ["PBC", "AIH"])
    assert hits == [(0, "PBC")]


def test_leakage_scan_is_case_sensitive_and_skips_empty_labels():
    t = Trace("case")
    t.exchange(task="ner", canonical_key="k", prompt="pbc in lowercase",
               response="r", backend="live")
    assert scan_for_leakage(t, ["PBC", ""]) == []
    assert scan_for_leakage(t, ["pbc"]) == [(0, "pbc")]
