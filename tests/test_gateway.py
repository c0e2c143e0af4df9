"""Model gateway: canonical keys, record and replay, transport behavior."""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dxcouncil import backends
from dxcouncil.backends import HttpEmbedder, HttpScorer
from dxcouncil.errors import (
    GatewayError,
    JudgmentParseError,
    RecordConflictError,
    ReplayMissError,
    ResourceError,
    RetrievalError,
    TransportError,
)
from dxcouncil.gateway import (
    Gateway,
    HttpChatBackend,
    RecordingBackend,
    ReplayChatBackend,
    ScriptedResponder,
    TaskKind,
    TranscriptRecorder,
    canonical_key,
    load_transcript,
    normalize_prompt,
)
from dxcouncil.templates import get_template
from dxcouncil.trace import Trace

from conftest import DROP, HANG, backend_label, scripted_gateway


def rendered_for(kind: TaskKind, variables: dict[str, str]) -> str:
    system, user = get_template(kind).render(variables)
    return system + "\n\n" + user


def test_replay_serves_the_recorded_response():
    rendered = rendered_for(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})
    key = canonical_key(TaskKind.VERBALIZE, rendered)
    gw = Gateway(ReplayChatBackend({key: "YES"}), Trace("case"), {})
    assert gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"}) == "YES"
    exchange = gw.trace.exchanges()[-1]
    assert exchange["response"] == "YES"
    assert exchange["key"] == key
    assert backend_label(gw.trace, exchange) == "replay"


def test_replay_miss_names_the_task():
    gw = Gateway(ReplayChatBackend({}), Trace("case"), {})
    with pytest.raises(ReplayMissError) as exc:
        gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})
    assert exc.value.task == "verbalize"


def test_unbound_placeholder_is_an_error():
    gw = scripted_gateway([(TaskKind.VERBALIZE, "", "ok")])
    with pytest.raises(GatewayError,
                       match="^placeholder {path} unbound for task 'verbalize'$"):
        gw.complete(TaskKind.VERBALIZE, {})


# the single-pass renderer templates had before they were split at
# registration, kept here as the oracle of the split one
PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


def render_by_substitution(kind: TaskKind, variables: dict) -> tuple[str, str]:
    def sub(match: re.Match) -> str:
        name = match.group(1)
        if name not in variables:
            raise GatewayError(f"placeholder {{{name}}} unbound for task {kind.value!r}")
        return str(variables[name])

    template = get_template(kind)
    return PLACEHOLDER.sub(sub, template.system), PLACEHOLDER.sub(sub, template.user)


def outcome(render, kind: TaskKind, variables: dict):
    try:
        return render(kind, variables)
    except GatewayError as exc:
        return f"GatewayError: {exc}"


# values that re.sub would expand as a replacement string, or a renderer that
# ran twice would expand as placeholders
VALUE = st.one_of(
    st.lists(st.sampled_from(["{narrative}", "{path}", "{evidence}", "{", "}", "{}",
                              "\\", "\\1", "\\g<0>", "\\n", "\n", " ", "a",
                              "é", "肝", "\U0001f600", "\u2028"])).map("".join),
    st.text(),
    st.integers(),
)


@given(kind=st.sampled_from(TaskKind), data=st.data())
def test_a_split_template_renders_what_single_pass_substitution_renders(kind, data):
    template = get_template(kind)
    names = sorted(set(PLACEHOLDER.findall(template.system + template.user)))
    bound = data.draw(st.lists(st.sampled_from(names), unique=True), label="bound") \
        if data.draw(st.booleans(), label="some unbound") else names
    variables = {name: data.draw(VALUE, label=name) for name in bound}
    variables.update(data.draw(st.dictionaries(st.sampled_from(["extra", "unused"]), VALUE),
                               label="unused"))
    assert outcome(lambda k, v: get_template(k).render(v), kind, variables) \
        == outcome(render_by_substitution, kind, variables)


def test_an_unbound_system_placeholder_is_named_before_an_unbound_user_one():
    # the specialist system text names {specialty}; its user text names the rest
    template = get_template(TaskKind.SPECIALIST_OPINION)
    with pytest.raises(GatewayError,
                       match="^placeholder {specialty} unbound for task 'specialist_opinion'$"):
        template.render({})
    with pytest.raises(GatewayError,
                       match="^placeholder {narrative} unbound for task 'specialist_opinion'$"):
        template.render({"specialty": "hepatology"})


def test_same_variables_same_key_different_variables_different_key():
    gw = scripted_gateway([(TaskKind.VERBALIZE, "", "ok")])
    gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})
    gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})
    gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> C"})
    a, b, c = (exchange["key"] for exchange in gw.trace.exchanges())
    assert a == b
    assert a != c


def test_key_depends_on_task_kind():
    rendered = "same prompt body"
    k1 = canonical_key(TaskKind.NER, rendered)
    k2 = canonical_key(TaskKind.ALIGN, rendered)
    assert k1 != k2
    # recorded transcripts hash the template version "v1" after the task kind
    assert k1 == hashlib.sha256(b"ner\nv1\nsame prompt body").hexdigest()


def test_prompt_normalization_is_whitespace_stable():
    assert normalize_prompt("a  \r\nb\t\n\n") == "a\nb"
    task = TaskKind.NER
    assert canonical_key(task, "line one  \r\nline two\n") \
        == canonical_key(task, "line one\nline two")
    assert canonical_key(task, "line one\nline two") \
        != canonical_key(task, "line one\nline 2")


def normalize_line_by_line(text: str) -> str:
    # the form normalize_prompt had before it skipped the CR replace on text
    # with no CR
    unified = text.replace("\r\n", "\n").replace("\r", "\n")
    return "\n".join(line.rstrip() for line in unified.split("\n")).rstrip()


# line breaks and the characters str.rstrip takes for whitespace, some of
# which str.splitlines would also split at
DRIFT = st.lists(st.sampled_from([
    "\r", "\r\n", "\n", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\xa0", "\u2028", "\u3000", " ", "a", "é", "{x}"])).map("".join)


@given(text=st.one_of(DRIFT, st.text()))
def test_normalize_prompt_equals_the_line_by_line_form(text):
    assert normalize_prompt(text) == normalize_line_by_line(text)


LINE = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"))


@given(kind=st.sampled_from(TaskKind), lines=st.lists(LINE, min_size=1),
       ending=st.sampled_from(["\n", "\r\n", "\r"]),
       pads=st.lists(st.text(" \t"), min_size=1), trailing=st.integers(0, 3))
def test_canonical_key_ignores_line_endings_trailing_spaces_and_newlines(
        kind, lines, ending, pads, trailing):
    # every line padded, lines joined by one line-ending style throughout (a
    # CR ending before an empty line and an LF would read as one CRLF)
    padded = [line + pads[i % len(pads)] for i, line in enumerate(lines)]
    drifted = ending.join(padded) + ending * trailing
    assert canonical_key(kind, drifted) == canonical_key(kind, "\n".join(lines))


@given(prompt=st.text(), kinds=st.lists(st.sampled_from(TaskKind), min_size=2,
                                        max_size=2, unique=True))
def test_canonical_key_differs_across_task_kinds(prompt, kinds):
    first, second = kinds
    assert canonical_key(first, prompt) != canonical_key(second, prompt)


def test_record_then_reload_then_replay_identical(tmp_path):
    transcript = tmp_path / "t.jsonl"
    recorder = TranscriptRecorder(transcript)
    scripted = ScriptedResponder([(TaskKind.VERBALIZE, "", lambda s, u: u[-20:])])
    rec_gw = Gateway(RecordingBackend(scripted, recorder), Trace("record"), {})
    for i in range(3):
        rec_gw.complete(TaskKind.VERBALIZE, {"path": f"A --[r{i}]--> B"})
    recorder.close()

    replay_gw = Gateway(ReplayChatBackend.from_file(transcript), Trace("replay"), {})
    for i, exchange in enumerate(rec_gw.trace.exchanges()):
        again = replay_gw.complete(TaskKind.VERBALIZE, {"path": f"A --[r{i}]--> B"})
        assert again == exchange["response"]
        assert replay_gw.trace.exchanges()[-1]["key"] == exchange["key"]
    assert len(load_transcript(transcript)) == 3


def test_recorder_dedupes_and_rejects_conflicts(tmp_path):
    transcript = tmp_path / "t.jsonl"
    recorder = TranscriptRecorder(transcript)
    recorder.record("k1", "ner", "response A")
    recorder.record("k1", "ner", "response A")  # identical repeat is fine
    with pytest.raises(RecordConflictError,
                       match="^transcript key k1 appears twice with different responses$"):
        recorder.record("k1", "ner", "response B")
    recorder.close()
    assert len(transcript.read_text().splitlines()) == 1


def test_load_transcript_rejects_conflicting_rows(tmp_path):
    path = tmp_path / "t.jsonl"
    rows = [{"key": "k", "task": "ner", "response": "A"},
            {"key": "k", "task": "ner", "response": "B"}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(RecordConflictError,
                       match=r"t\.jsonl:2: transcript key k appears twice with different "
                             r"responses$"):
        load_transcript(path)
    path.write_text(json.dumps(rows[0]) + "\n" + json.dumps(rows[0]) + "\n")
    assert load_transcript(path) == {"k": "A"}
    path.write_text("not json\n")
    with pytest.raises(ResourceError, match=r"t\.jsonl:1: bad transcript row: "):
        load_transcript(path)


def test_record_and_replay_traces_share_a_digest(tmp_path):
    transcript = tmp_path / "t.jsonl"
    variables = [{"path": "A --[r]--> B"}, {"path": "B --[r]--> C"}]

    recorder = TranscriptRecorder(transcript)
    rec_trace = Trace("case")
    rec_gw = Gateway(RecordingBackend(
        ScriptedResponder([(TaskKind.VERBALIZE, "", "sentence.")]), recorder),
        rec_trace, {})
    for v in variables:
        rec_gw.complete(TaskKind.VERBALIZE, v)
    recorder.close()

    rep_trace = Trace("case")
    rep_gw = Gateway(ReplayChatBackend.from_file(transcript), rep_trace, {})
    for v in variables:
        rep_gw.complete(TaskKind.VERBALIZE, v)

    assert rec_trace.digest() == rep_trace.digest()
    # the backend label differs but is kept out of the records
    assert rec_trace.records == rep_trace.records
    assert backend_label(rec_trace, rec_trace.exchanges()[0]) == "live"
    assert backend_label(rep_trace, rep_trace.exchanges()[0]) == "replay"


def test_empty_backend_response_rejected():
    gw = scripted_gateway([(TaskKind.VERBALIZE, "", "   ")])
    with pytest.raises(GatewayError, match="^empty response for task 'verbalize'$"):
        gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})


def test_unmatched_scripted_prompt_is_a_gateway_error():
    gw = scripted_gateway([(TaskKind.NER, "", "[]")])
    with pytest.raises(GatewayError):
        gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})


def test_exchanges_are_traced_in_order():
    trace = Trace("case")
    gw = scripted_gateway([(TaskKind.VERBALIZE, "", "ok")], trace)
    gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})
    gw.complete(TaskKind.VERBALIZE, {"path": "B --[r]--> C"})
    rows = trace.exchanges(task="verbalize")
    assert [r["seq"] for r in rows] == [0, 1]
    assert "A --[r]--> B" in rows[0]["prompt"]


def test_complete_returns_the_parsed_payload_and_traces_a_malformed_response():
    trace = Trace("case")
    gw = scripted_gateway([(TaskKind.ASSESS_COMPLEXITY, "", " SIMPLE\n"),
                           (TaskKind.PRUNE, "", "1,0")], trace)
    variables = {"narrative": "n", "findings": "f", "hypotheses": "h"}
    assert gw.complete(TaskKind.ASSESS_COMPLEXITY, variables) == "SIMPLE"
    prune = {"narrative": "n", "guidelines": "g", "paths": "p", "path_count": "3"}
    with pytest.raises(JudgmentParseError, match=r"^got 2 judgments for a batch of 3 "
                                                 r"\(offending span: '1,0'\)$"):
        gw.complete(TaskKind.PRUNE, prune)
    assert gw.complete(TaskKind.PRUNE, dict(prune, path_count="2")) == (1, 0)
    # a response outside its grammar is in the trace before the error surfaces
    gw = scripted_gateway([(TaskKind.ASSESS_COMPLEXITY, "", "MAYBE")], trace)
    with pytest.raises(JudgmentParseError):
        gw.complete(TaskKind.ASSESS_COMPLEXITY, variables)
    assert [r["response"] for r in trace.exchanges()] == [" SIMPLE\n", "1,0", "1,0",
                                                          "MAYBE"]


# -- live transport (a loopback stub server) --------------------------------

CHAT = "/v1/chat/completions"


def test_http_chat_retries_once_then_raises(http_stub):
    http_stub.reply(DROP)
    http_stub.reply(DROP)
    backend = HttpChatBackend(http_stub.url + CHAT, "m")
    with pytest.raises(TransportError):
        backend.respond(TaskKind.NER, "sys", "user", "key")
    assert len(http_stub.requests) == 2


def test_http_chat_recovers_on_second_attempt(http_stub):
    http_stub.reply(b"oops", status=500)
    http_stub.reply({"choices": [{"message": {"content": "hello"}}]})
    backend = HttpChatBackend(http_stub.url + CHAT, "m")
    assert backend.respond(TaskKind.NER, "s", "u", "k") == "hello"


def test_a_live_reply_holding_a_lone_surrogate_is_malformed_and_never_recorded(
        http_stub, tmp_path):
    http_stub.reply({"choices": [{"message": {"content": "A causes B \ud800."}}]})
    transcript = tmp_path / "t.jsonl"
    backend = RecordingBackend(HttpChatBackend(http_stub.url + CHAT, "m"),
                               TranscriptRecorder(transcript))
    gw = Gateway(backend, Trace("case"), {})
    # inside a branch, where a recorded row would be held and written at the commit
    with pytest.raises(TransportError, match="^malformed response from .*surrogates not allowed"):
        gw.branches([lambda: gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})])
    backend.close()
    assert transcript.read_text() == ""
    assert gw.trace.records == []


def test_http_chat_malformed_body_fails_fast(http_stub):
    http_stub.reply({"unexpected": True})
    backend = HttpChatBackend(http_stub.url + CHAT, "m")
    with pytest.raises(TransportError):
        backend.respond(TaskKind.NER, "s", "u", "k")
    assert len(http_stub.requests) == 1


@pytest.mark.parametrize("reply,status", [
    (DROP, 200),
    (b"busy", 503),
    (b"raw", 200),
    ({"unexpected": True}, 200),
], ids=["connection_error", "status_503", "non_json", "wrong_shape"])
@pytest.mark.parametrize("call", [
    lambda url: HttpEmbedder(url + "/v1", "m").embed(["a"]),
    lambda url: HttpScorer(url + "/v1", "m").score("q", ["t"]),
], ids=["embed", "rerank"])
def test_embed_and_rerank_failures_are_transport_errors_without_retry(
        http_stub, call, reply, status):
    http_stub.reply(reply, status=status)
    with pytest.raises(TransportError):
        call(http_stub.url)
    assert len(http_stub.requests) == 1


def test_http_scorer_sends_one_request_and_places_scores_by_index(http_stub):
    # rerank services sort results by relevance, not by input position
    ranked = [{"index": 2, "relevance_score": 0.9}, {"index": 0, "relevance_score": 0.5},
              {"index": 1, "relevance_score": 0.1}]
    http_stub.reply({"results": ranked})
    scores = HttpScorer(http_stub.url + "/v1", "m").score("q", ["a", "b", "c"])
    assert scores == [0.5, 0.1, 0.9]
    assert [(r["path"], r["body"]) for r in http_stub.requests] == [
        ("/v1/rerank", {"model": "m", "query": "q", "documents": ["a", "b", "c"]})]


INDEX_FAULTS = {"duplicate": [0, 0, 1], "out_of_range": [0, 1, 3], "negative": [-1, 0, 1],
                "missing": [0, 1, None], "not_int": [0, 1, True]}


@pytest.mark.parametrize("client,indices", [
    ("score", [0, 1]), ("score", [0, 1, 2, 3]),
    *(("score", indices) for indices in INDEX_FAULTS.values()),
    *(("embed", indices) for indices in INDEX_FAULTS.values()),
], ids=["short", "long", *INDEX_FAULTS, *(f"embed_{name}" for name in INDEX_FAULTS)])
def test_http_scorer_rejects_results_that_miss_or_repeat_a_document(http_stub, client,
                                                                     indices):
    # the embedder places its vectors by the same index rule
    key, field, value = (("results", "relevance_score", 0.5) if client == "score"
                         else ("data", "embedding", [1.0]))
    rows = [{field: value} if index is None else {"index": index, field: value}
            for index in indices]
    http_stub.reply({key: rows})
    with pytest.raises(TransportError):
        if client == "score":
            HttpScorer(http_stub.url + "/v1", "m").score("q", ["a", "b", "c"])
        else:
            HttpEmbedder(http_stub.url + "/v1", "m").embed(["a", "b", "c"])
    assert len(http_stub.requests) == 1


def test_http_embedder_places_vectors_by_index(http_stub):
    data = [{"index": 2, "embedding": [2.0]}, {"index": 0, "embedding": [0.0]},
            {"index": 1, "embedding": [1.0]}]
    http_stub.reply({"data": data})
    vectors = HttpEmbedder(http_stub.url + "/v1", "m").embed(["a", "b", "c"])
    assert [vec.tolist() for vec in vectors] == [[0.0], [1.0], [2.0]]


@pytest.mark.parametrize("embedding", [0.5, [[1.0, 0.0]]], ids=["number", "nested"])
def test_http_embedder_rejects_a_vector_that_is_not_1d(http_stub, embedding):
    http_stub.reply({"data": [{"index": 0, "embedding": [1.0, 0.0]},
                              {"index": 1, "embedding": embedding}]})
    with pytest.raises(RetrievalError,
                       match=f"^embedder returned a {np.ndim(embedding)}-d vector at position 1$"):
        HttpEmbedder(http_stub.url + "/v1", "m").embed(["a", "b"])


def test_http_embedder_rejects_a_vector_count_that_differs_from_the_texts(http_stub):
    http_stub.reply({"data": [{"index": 0, "embedding": [1.0, 0.0]}]})
    with pytest.raises(RetrievalError, match="^embedder returned 1 vectors for 2 texts$"):
        HttpEmbedder(http_stub.url + "/v1", "m").embed(["a", "b"])


@pytest.mark.parametrize("send,path,body", [
    (lambda url: HttpChatBackend(url + CHAT, "m").respond(TaskKind.NER, "sys", "user", "k"),
     CHAT, {"model": "m", "messages": [{"role": "system", "content": "sys"},
                                       {"role": "user", "content": "user"}],
            "temperature": 0}),
    (lambda url: HttpEmbedder(url + "/v1/", "m").embed(["a", "é\ud800"]),
     "/v1/embeddings", {"input": ["a", "é\ud800"], "model": "m"}),
    (lambda url: HttpScorer(url + "/v1", "m").score("q", ["a"]),
     "/v1/rerank", {"model": "m", "query": "q", "documents": ["a"]}),
], ids=["chat", "embed", "rerank"])
def test_each_client_posts_its_json_body_to_its_path(http_stub, send, path, body):
    http_stub.reply(b"{}")
    with pytest.raises(TransportError, match="^malformed response from "):
        send(http_stub.url)
    assert http_stub.requests == [{"path": path, "content_type": "application/json",
                                   "body": body}]


def test_a_reply_that_never_comes_times_out_after_two_chat_attempts(http_stub, monkeypatch):
    monkeypatch.setattr(backends, "POST_TIMEOUT_S", 0.2)
    http_stub.reply(HANG)
    http_stub.reply(HANG)
    url = http_stub.url + CHAT
    with pytest.raises(TransportError, match=f"^request to {re.escape(url)} failed: "):
        HttpChatBackend(url, "m").respond(TaskKind.NER, "s", "u", "k")
    assert len(http_stub.requests) == 2


def test_a_refused_connection_is_a_transport_error_naming_the_url(refused_url):
    url = refused_url + CHAT
    with pytest.raises(TransportError, match=f"^request to {re.escape(url)} failed: .*refused"):
        HttpChatBackend(url, "m").respond(TaskKind.NER, "s", "u", "k")


@pytest.mark.parametrize("post,reply", [
    (lambda url: HttpChatBackend(url + CHAT, "m").respond(TaskKind.NER, "s", "u", "k"),
     b"[" * 100_000),
    (lambda url: HttpScorer(url + "/v1", "m").score("q", ["t"]),
     {"results": [{"index": 0, "relevance_score": 10 ** 400}]}),
    (lambda url: HttpEmbedder(url + "/v1", "m").embed(["t"]),
     {"data": [{"index": 0, "embedding": [1.0, 10 ** 400]}]}),
], ids=["nested-100000-deep", "400-digit-score", "400-digit-embedding-value"])
def test_a_reply_too_deep_or_too_large_to_read_is_malformed_and_not_retried(http_stub, post,
                                                                            reply):
    http_stub.reply(reply)
    http_stub.reply(reply)
    with pytest.raises(TransportError, match="^malformed response from "):
        post(http_stub.url)
    assert len(http_stub.requests) == 1


def test_a_reply_in_utf16_or_utf32_reads_as_json(http_stub):
    for codec in ("utf-16", "utf-32-le"):
        http_stub.reply(json.dumps({"choices": [{"message": {"content": "héllo"}}]})
                        .encode(codec))
        assert HttpChatBackend(http_stub.url + CHAT, "m").respond(
            TaskKind.NER, "s", "u", "k") == "héllo"
