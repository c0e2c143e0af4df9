"""End-to-end case execution against the recorded replay fixtures."""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import numpy as np
import pytest

from dxcouncil.backends import (
    HashEmbedder,
    HttpEmbedder,
    RecordingEmbedder,
    TableEmbedder,
    TableScorer,
)
from dxcouncil.config import BackendMode, validate_config
from dxcouncil.differential import read_cases
from dxcouncil.errors import CaseFailure, ResourceError, RetrievalError
from dxcouncil.gateway import ReplayChatBackend, TaskKind, load_transcript
from dxcouncil.guidelines import read_corpus
from dxcouncil.runner import (Runtime, _wire_backends, diagnoses_agree,
                              resolve_diagnosis_label, run_batch, run_case, trace_path_for)
from dxcouncil.trace import Trace

from conftest import FIXTURES, read_timings


@pytest.fixture
def replay_runtime(tmp_path):
    config = validate_config(FIXTURES / "replay_config.yaml")
    config = dataclasses.replace(config, output_dir=tmp_path / "out")
    runtime = Runtime(config)
    yield runtime
    runtime.close()


def case_by_id(runtime, case_id):
    for case in read_cases(runtime.config.cases_path):
        if case.case_id == case_id:
            return case
    raise AssertionError(case_id)


# label equivalence


def test_abbreviation_resolves_to_same_concept_as_full_name(fixture_graph):
    short = resolve_diagnosis_label(fixture_graph, "PBC")
    full = resolve_diagnosis_label(fixture_graph, "Primary biliary cholangitis")
    assert short is not None
    assert short == full


def test_distinct_diseases_do_not_agree(fixture_graph):
    assert not diagnoses_agree(fixture_graph, "PBC",
                               "Primary sclerosing cholangitis")
    assert diagnoses_agree(fixture_graph, "PSC",
                           "Primary sclerosing cholangitis")


def test_word_overlap_never_counts_as_agreement(fixture_graph):
    # scrambled word order shares every token with the real name; the
    # fuzzy tier would score it 1.0 but label matching must not use it
    scrambled = "cholangitis biliary primary"
    assert resolve_diagnosis_label(fixture_graph, scrambled) is None
    assert not diagnoses_agree(fixture_graph, "Primary biliary cholangitis",
                               scrambled)


def test_off_vocabulary_labels_fall_back_to_casefold(fixture_graph):
    assert diagnoses_agree(fixture_graph, "Zebra fever", "zebra FEVER")
    assert not diagnoses_agree(fixture_graph, "Zebra fever", "Yeti flu")


def test_blank_label_resolves_to_nothing(fixture_graph):
    assert resolve_diagnosis_label(fixture_graph, "   ") is None


# single-case execution


def test_simple_case_takes_direct_route_and_is_correct(replay_runtime,
                                                       fixture_graph):
    case = case_by_id(replay_runtime, "case-01")
    report, trace = run_case(replay_runtime, case)
    assert diagnoses_agree(fixture_graph, case.ground_truth,
                           report.final_diagnosis)
    final = trace.decisions(decision="final_report")
    assert len(final) == 1
    assert final[0]["payload"]["route"] == "direct"
    replay_runtime.wait_for_traces()  # the trace is written behind the case
    path = trace_path_for(replay_runtime.config, "case-01")
    assert path.exists()
    assert Trace.load(path).digest() == trace.digest()


def test_repeat_run_of_one_case_is_digest_identical(replay_runtime):
    case = case_by_id(replay_runtime, "case-04")
    _, first = run_case(replay_runtime, case)
    _, second = run_case(replay_runtime, case)
    assert first.digest() == second.digest()


def test_unrecorded_case_fails_with_stage_and_partial_trace(replay_runtime):
    bogus = dataclasses.replace(case_by_id(replay_runtime, "case-01"),
                                case_id="case-xx",
                                narrative="A narrative nobody recorded.")
    with pytest.raises(CaseFailure) as exc:
        run_case(replay_runtime, bogus)
    assert exc.value.case_id == "case-xx"
    assert exc.value.stage == "extract"
    replay_runtime.wait_for_traces()
    assert trace_path_for(replay_runtime.config, "case-xx").exists()


# batch execution


def test_full_replay_batch_is_perfect(replay_runtime):
    result = run_batch(replay_runtime)
    assert result.ok
    assert result.failed == 0
    assert len(result.rows) == 10
    assert all(row.status == "ok" and row.correct for row in result.rows)
    assert result.metrics.cases == 10
    assert result.metrics.correct == 10
    assert result.metrics.weighted_f1 == pytest.approx(100.0)

    out = replay_runtime.config.output_dir
    rows = [json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()]
    assert [row["case_id"] for row in rows] == [f"case-{i:02d}"
                                               for i in range(1, 11)]
    assert all(row["trace_digest"] for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cases"] == 10
    assert summary["correct"] == 10
    assert summary["weighted_f1"] == pytest.approx(100.0)
    for case_id in ("case-01", "case-10"):
        assert (out / f"{case_id}.trace.jsonl").exists()


def test_thread_pool_batch_matches_the_serial_batch(replay_runtime):
    serial = run_batch(replay_runtime)
    config = dataclasses.replace(replay_runtime.config, workers=4,
                                 output_dir=replay_runtime.config.output_dir / "pooled")
    pooled_runtime = Runtime(config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so races show
    try:
        pooled = run_batch(pooled_runtime)
    finally:
        sys.setswitchinterval(interval)
        pooled_runtime.close()
    assert pooled.ok
    assert pooled.rows == serial.rows
    assert all(row.trace_digest for row in pooled.rows)


def test_batch_keeps_going_past_a_failing_case(replay_runtime, tmp_path):
    good = case_by_id(replay_runtime, "case-01")
    cases_path = tmp_path / "mixed.jsonl"
    with open(cases_path, "w") as fh:
        fh.write(json.dumps({"case_id": good.case_id,
                             "narrative": good.narrative,
                             "ground_truth": good.ground_truth}) + "\n")
        fh.write(json.dumps({"case_id": "case-xx",
                             "narrative": "A narrative nobody recorded.",
                             "ground_truth": "DILI"}) + "\n")
    runtime = Runtime(dataclasses.replace(replay_runtime.config,
                                          cases_path=cases_path))
    result = run_batch(runtime)
    runtime.close()
    assert not result.ok
    assert result.failed == 1
    by_id = {row.case_id: row for row in result.rows}
    assert by_id["case-01"].status == "ok" and by_id["case-01"].correct
    bad = by_id["case-xx"]
    assert bad.status == "error"
    assert bad.failed_stage == "extract"
    assert bad.final_diagnosis is None
    # the broken case is excluded from the weighted metrics
    assert result.metrics.cases == 1
    summary = json.loads(
        (runtime.config.output_dir / "summary.json").read_text())
    assert summary["cases"] == 2
    assert summary["correct"] == 1


class MalformedHypotheses(ReplayChatBackend):
    """The fixture transcript, except a malformed answer to each
    differential prompt that holds ``narrative``."""

    def __init__(self, transcript, narrative: str):
        super().__init__(load_transcript(transcript))
        self.narrative = narrative

    def respond(self, kind, system, user, key):
        if kind is TaskKind.HYPOTHESIZE and self.narrative in user:
            return "{not a differential"
        return super().respond(kind, system, user, key)


def test_a_rerun_into_the_same_output_dir_leaves_only_the_new_run(replay_runtime, tmp_path):
    config = replay_runtime.config
    failing = case_by_id(replay_runtime, "case-03")

    def batch(output_dir):
        runtime = Runtime(dataclasses.replace(config, output_dir=output_dir),
                          chat_backend=MalformedHypotheses(config.transcript_path,
                                                           failing.narrative),
                          embedder=TableEmbedder.load(config.embeddings_path),
                          scorer=TableScorer.load(config.scores_path))
        try:
            return run_batch(runtime)
        finally:
            runtime.close()

    fresh_dir, rerun_dir = tmp_path / "fresh", tmp_path / "rerun"
    fresh = batch(fresh_dir)
    assert [(row.case_id, row.failed_stage) for row in fresh.rows if row.status != "ok"] == [
        ("case-03", "hypothesize")]
    # what a longer earlier run left behind
    rerun_dir.mkdir()
    names = sorted(path.name for path in fresh_dir.iterdir())
    assert len(names) == 13 and "timings.jsonl" in names
    for name in names:
        text = (fresh_dir / name).read_text(encoding="utf-8")
        (rerun_dir / name).write_text(text * 2 if name.endswith(".trace.jsonl")
                                      else text + text.splitlines(True)[0],
                                      encoding="utf-8")

    rerun = batch(rerun_dir)
    assert rerun.rows == fresh.rows
    for name in names:
        new, old = ((out / name).read_text(encoding="utf-8") for out in (rerun_dir, fresh_dir))
        if name == "timings.jsonl":
            # the times differ between two runs; how many there are does not
            new, old = ([dict(row, ts=len(row["ts"])) for row in map(json.loads, text.splitlines())]
                        for text in (new, old))
        assert new == old
    timings = read_timings(rerun_dir)
    for row in rerun.rows:
        trace = Trace.load(rerun_dir / f"{row.case_id}.trace.jsonl")
        assert trace.digest() == Trace.load(fresh_dir / f"{row.case_id}.trace.jsonl").digest()
        # a failed case's partial trace has its timing line too
        assert len(timings[row.case_id]["ts"]) == len(trace.records)
        if row.status == "ok":
            assert trace.digest() == row.trace_digest
        else:
            assert trace.exchanges()[-1]["response"] == "{not a differential"


class FirstAnswerReplaced(ReplayChatBackend):
    """The fixture transcript, except ``reply`` answers the batch's first
    ``kind`` prompt."""

    def __init__(self, transcript, kind: TaskKind, reply: str):
        super().__init__(load_transcript(transcript))
        self.kind, self.reply = kind, reply

    def respond(self, kind, system, user, key):
        if kind is self.kind and self.reply is not None:
            reply, self.reply = self.reply, None
            return reply
        return super().respond(kind, system, user, key)


@pytest.mark.parametrize("kind,reply,stage", [
    (TaskKind.HYPOTHESIZE, "[" * 100_000, "hypothesize"),
    (TaskKind.ALIGN, "9" * 5000, "extract"),
    (TaskKind.SPECIALIST_OPINION, json.dumps({"stance": "S", "confidence": 10 ** 400,
                                              "sufficiency": "Suf", "justification": "j"}),
     "deliberate"),
], ids=["nested-100000-deep", "5000-digit-align", "400-digit-confidence"])
def test_a_reply_too_deep_or_too_large_fails_one_case_at_its_stage(replay_runtime, kind,
                                                                   reply, stage):
    config = replay_runtime.config
    runtime = Runtime(config, chat_backend=FirstAnswerReplaced(config.transcript_path,
                                                               kind, reply),
                      embedder=replay_runtime.embedder, scorer=replay_runtime.scorer)
    result = run_batch(runtime)
    failed = [row for row in result.rows if row.status != "ok"]
    assert [row.failed_stage for row in failed] == [stage]
    assert "offending span" in failed[0].error
    summary = json.loads((config.output_dir / "summary.json").read_text())
    assert summary["cases"] == 10
    assert len((config.output_dir / "results.jsonl").read_text().splitlines()) == 10


def test_empty_case_file_is_an_error(replay_runtime, tmp_path):
    empty = tmp_path / "none.jsonl"
    empty.write_text("")
    runtime = Runtime(dataclasses.replace(replay_runtime.config,
                                          cases_path=empty))
    with pytest.raises(ResourceError, match=f"^no cases in {re.escape(str(empty))}$"):
        run_batch(runtime)
    runtime.close()


def test_embedding_transport_failure_fails_cases_at_the_evidence_stage(
        replay_runtime, http_stub, no_network):
    config = replay_runtime.config
    table = TableEmbedder.load(config.embeddings_path)
    corpus = [segment.text for segment in read_corpus(config.corpus_path)]
    http_stub.reply({"data": [{"index": i, "embedding": list(v)}
                              for i, v in enumerate(table.embed(corpus))]})
    runtime = Runtime(config,
                      chat_backend=ReplayChatBackend.from_file(config.transcript_path),
                      embedder=HttpEmbedder(http_stub.url + "/v1", "m"),
                      scorer=TableScorer.load(config.scores_path))
    # the one request so far embedded the corpus at set-up; every later one
    # is a query embedding during a case, and the endpoint is gone by then
    assert http_stub.requests[0]["body"]["input"] == corpus
    http_stub.close()
    result = run_batch(runtime)
    assert len(result.rows) == result.failed == 10
    assert {row.failed_stage for row in result.rows} == {"evidence"}
    assert all("Connection refused" in row.error for row in result.rows)
    summary = json.loads((config.output_dir / "summary.json").read_text())
    assert summary["cases"] == 10
    assert len((config.output_dir / "results.jsonl").read_text().splitlines()) == 10
    assert len(http_stub.requests) == 1


def test_a_short_score_list_fails_cases_at_the_evidence_stage(replay_runtime):
    config = replay_runtime.config
    table = TableScorer.load(config.scores_path)

    class ShortScorer:
        def score(self, query_text, segment_texts):
            return table.score(query_text, segment_texts)[:-1]

    runtime = Runtime(config, chat_backend=replay_runtime.chat_backend,
                      embedder=replay_runtime.embedder, scorer=ShortScorer())
    result = run_batch(runtime)
    assert len(result.rows) == result.failed == 10
    assert {row.failed_stage for row in result.rows} == {"evidence"}
    assert all("returned 7 scores for 8 segments" in row.error for row in result.rows)
    summary = json.loads((config.output_dir / "summary.json").read_text())
    assert summary["cases"] == 10
    assert len((config.output_dir / "results.jsonl").read_text().splitlines()) == 10


def no_vector(texts):
    return []


def bare_number(texts):
    return [np.float64(1.0)]


def empty_vector(texts):
    return [np.zeros(0)]


def connection_reset(texts_or_vectors):
    raise ConnectionResetError("connection reset")


@pytest.mark.parametrize("reply,error", [
    (no_vector, "embedder returned 0 vectors for 1 texts"),
    (bare_number, "embedder returned a 0-d vector at position 0"),
    (empty_vector, "embedder returned an empty vector at position 0"),
    (connection_reset, "embedding 1 texts failed: connection reset"),
], ids=["no-vector", "bare-number", "empty", "raises"])
def test_a_bad_query_embedding_fails_cases_at_the_evidence_stage(replay_runtime, reply,
                                                                 error):
    config = replay_runtime.config
    table = TableEmbedder.load(config.embeddings_path)

    class BadQueryVector:
        # the corpus is embedded in one call at set-up; a query is one text
        def embed(self, texts):
            return table.embed(texts) if len(texts) > 1 else reply(texts)

    runtime = Runtime(config, chat_backend=replay_runtime.chat_backend,
                      embedder=BadQueryVector(), scorer=replay_runtime.scorer)
    result = run_batch(runtime)
    assert len(result.rows) == result.failed == 10
    assert {row.failed_stage for row in result.rows} == {"evidence"}
    assert {row.error for row in result.rows} == {error}
    summary = json.loads((config.output_dir / "summary.json").read_text())
    assert summary["cases"] == 10
    assert len((config.output_dir / "results.jsonl").read_text().splitlines()) == 10


def fourth_is_a_bare_number(vectors):
    return vectors[:3] + [np.float64(1.0)] + vectors[4:]


def fourth_is_empty(vectors):
    return vectors[:3] + [np.zeros(0)] + vectors[4:]


@pytest.mark.parametrize("reply,error", [
    (fourth_is_a_bare_number, "embedder returned a 0-d vector at position 3"),
    (fourth_is_empty, "embedder returned an empty vector at position 3"),
    (connection_reset, "embedding 25 texts failed: connection reset"),
], ids=["bare-number", "empty", "raises"])
def test_a_bad_corpus_embedding_fails_the_runtime(replay_runtime, reply, error):
    config = replay_runtime.config
    table = TableEmbedder.load(config.embeddings_path)

    class BadCorpusVectors:
        def embed(self, texts):
            return reply(table.embed(texts))

    with pytest.raises(RetrievalError, match=f"^{re.escape(error)}$"):
        Runtime(config, chat_backend=replay_runtime.chat_backend,
                embedder=BadCorpusVectors(), scorer=replay_runtime.scorer)


def test_a_failed_set_up_leaves_the_record_tables_and_no_stray_file(replay_runtime, tmp_path,
                                                                    http_stub):
    bad_corpus = tmp_path / "corpus.jsonl"
    bad_corpus.write_text("{not json\n")
    tables = [tmp_path / "tables" / name for name in ("t.jsonl", "e.jsonl", "s.jsonl")]
    tables[0].parent.mkdir()
    for table in tables:
        table.write_text(f"old {table.name}\n")
    record = dataclasses.replace(replay_runtime.config, mode=BackendMode.RECORD,
                                 endpoint=http_stub.url + "/v1", corpus_path=bad_corpus,
                                 transcript_path=tables[0], embeddings_path=tables[1],
                                 scores_path=tables[2])
    # the corpus fails after all three sinks are made; a score table in a
    # missing directory fails when its sink is made, before any model call
    missing_scores = tmp_path / "missing" / "s.jsonl"
    bad_row = r"corpus\.jsonl:1: bad corpus row: "
    for config, error, match in [
            (record, ResourceError, bad_row),
            (dataclasses.replace(record, corpus_path=replay_runtime.config.corpus_path,
                                 scores_path=missing_scores), FileNotFoundError, None)]:
        with pytest.raises(error, match=match):
            Runtime(config)
        assert [table.read_text() for table in tables] == [
            f"old {table.name}\n" for table in tables]
        assert sorted(p.name for p in tables[0].parent.iterdir()) == sorted(
            table.name for table in tables)
    assert http_stub.requests == []
    assert not missing_scores.parent.exists()

    # injected backends are the caller's: closing one still writes its table
    injected = tmp_path / "injected.jsonl"
    embedder = RecordingEmbedder(HashEmbedder(), injected)
    with pytest.raises(ResourceError, match=bad_row):
        Runtime(record, chat_backend=replay_runtime.chat_backend, embedder=embedder,
                scorer=replay_runtime.scorer)
    assert not injected.exists()
    embedder.embed(["late"])
    embedder.close()
    assert [row["text"] for row in map(json.loads, injected.read_text().splitlines())] == [
        "late"]


def test_backends_are_injected_all_together_or_not_at_all(replay_runtime, tmp_path):
    config = replay_runtime.config
    with pytest.raises(ValueError):
        Runtime(config, embedder=HashEmbedder())
    tables = [tmp_path / name for name in ("t.jsonl", "e.jsonl", "s.jsonl")]
    record = dataclasses.replace(config, mode=BackendMode.RECORD,
                                 endpoint="http://model.invalid/v1",
                                 transcript_path=tables[0], embeddings_path=tables[1],
                                 scores_path=tables[2])
    runtime = Runtime(record, chat_backend=replay_runtime.chat_backend,
                      embedder=replay_runtime.embedder, scorer=replay_runtime.scorer)
    runtime.close()
    # injected backends leave the config's record tables untouched
    assert not any(path.exists() for path in tables)


@pytest.mark.parametrize("models,sent", [
    ({}, ["default", "default", "default"]),
    ({"chat_model": "c", "embed_model": "e", "rerank_model": "r"}, ["c", "e", "r"]),
], ids=["absent", "configured"])
def test_each_model_name_is_posted_as_the_config_names_it(tmp_path, http_stub, no_network,
                                                          models, sent):
    doc = {"kg": {"concepts": "c.tsv", "triples": "t.tsv"}, "corpus": {"path": "g.jsonl"},
           "cases": {"path": "cases.jsonl"},
           "backend": {"mode": "live", "endpoint": http_stub.url + "/v1", **models}}
    chat, embedder, scorer = _wire_backends(validate_config(doc, base_dir=tmp_path))
    http_stub.reply({"choices": [{"message": {"content": "ok"}}]})
    http_stub.reply({"data": [{"index": 0, "embedding": [1.0]}]})
    http_stub.reply({"results": [{"index": 0, "relevance_score": 0.5}]})
    chat.respond(TaskKind.NER, "system", "user", "key")
    embedder.embed(["a"])
    scorer.score("q", ["a"])
    assert [(r["path"], r["body"]["model"]) for r in http_stub.requests] == list(zip(
        ["/v1/chat/completions", "/v1/embeddings", "/v1/rerank"], sent))
