"""The shared JSONL reader behind every loader, and the shared record sink
behind every recorder, with the writes a gateway branch holds."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

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
from dxcouncil.jsonl import JsonlSink, holding, write_held, write_whole
from dxcouncil.trace import Trace

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
    assert table_rows(tmp_path / "a.jsonl") == table_rows(tmp_path / "b.jsonl") == []
    first.write([("v", {"k": "v"})])  # outside the context: written at once
    write_held(held)
    first.close()
    second.close()
    assert [row["k"] for row in table_rows(tmp_path / "a.jsonl")] == ["v", "x", "w"]
    assert [row["k"] for row in table_rows(tmp_path / "b.jsonl")] == ["y", "z"]


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
    assert trace.records == [] and table_rows(tmp_path / "t.jsonl") == []
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
        assert [row["k"] for row in table_rows(tmp_path / "t.jsonl")] == ["direct"]
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


def test_write_whole_leaves_the_old_file_when_the_text_does_not_encode(tmp_path):
    path = tmp_path / "case.trace.jsonl"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        write_whole(path, "lone \ud800\n")
    assert path.read_text() == "old\n"
