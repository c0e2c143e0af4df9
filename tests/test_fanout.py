"""Branches: run side by side, committed in sequential order.

Every piece of a case's independent work runs as a ``Gateway.branches``
branch: each call of a fan-out site (finding aligns, path verbalizations,
prune batches, dispatches, one panel round's opinions), each finding's
paths, each hypothesis's evidence package (beside the complexity route) and
each hypothesis's panel. These tests pin what that may not change: the
trace records, digests, failure stages and recorded table rows of a run
whose calls are answered out of order, or fail part way through a fan-out
or a branch, or run on a saturated pool, equal those of the same run made
one call at a time. A replay-labelled backend is that sequential run, since
a replay gateway runs branches inline, one after another.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from collections import Counter
from collections.abc import Collection
from concurrent.futures import Future, ThreadPoolExecutor, wait
from functools import partial
from itertools import takewhile
from time import perf_counter, sleep
from typing import NamedTuple

import pytest

from dxcouncil import gateway as gateway_module
from dxcouncil.backends import RecordingEmbedder, RecordingScorer, TableEmbedder, TableScorer
from dxcouncil.config import validate_config
from dxcouncil.differential import read_cases
from dxcouncil.errors import CaseFailure, TransportError
from dxcouncil.gateway import (
    LIVE,
    REPLAY,
    Gateway,
    RecordingBackend,
    ReplayChatBackend,
    TaskKind,
    TranscriptRecorder,
    load_transcript,
)
from dxcouncil.runner import Runtime, run_batch, run_case, trace_path_for
from dxcouncil.trace import Trace

from conftest import FIXTURES, read_timings

FIXTURE_TRANSCRIPT = load_transcript(FIXTURES / "transcript.jsonl")
FAN_OUT_SITES = ("align", "verbalize", "prune", "dispatch", "specialist_opinion")
# text outside the grammar of every fan-out task but verbalize, whose
# grammar is free text: there it is taken, and the case fails at the next
# call whose prompt carries it, which the recorded transcript cannot answer
MALFORMED = "{not a judgment"
FAULTS = ("transport", "empty", "malformed")
# the backend label of an exchange answered from the runtime's answer table
SHARED = "shared"


class TableBackend(ReplayChatBackend):
    """The fixture transcript under a chosen label. Logs each call's key
    and thread; optionally sleeps per call and fails every call of one key."""

    def __init__(self, label: str, *, delay_s: float = 0.0,
                 fault: tuple[str, str] | None = None):
        super().__init__(FIXTURE_TRANSCRIPT)
        self.label = label
        self.delay_s = delay_s
        self.fault_key, self.fault = fault or (None, None)
        self.calls: list[tuple[str, int]] = []

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        self.calls.append((key, threading.get_ident()))
        if self.delay_s:
            sleep(self.delay_s)
        if key == self.fault_key:
            if self.fault == "transport":
                raise TransportError("injected transport failure")
            return "" if self.fault == "empty" else MALFORMED
        return super().respond(kind, system, user, key)


class Outcome(NamedTuple):
    rows: dict[str, tuple[str, str | None, str | None]]
    records: dict[str, list[dict]]
    # each case's exchanges as (key, backend label), in trace order
    exchanges: dict[str, list[tuple[str, str]]]
    transcript: bytes
    embeddings: bytes
    scores: bytes


def exchange_labels(traces: dict[str, Trace], output_dir) -> dict[str, list[tuple[str, str]]]:
    """Each case's exchanges as (key, backend label), the labels read from
    the run's timing sidecar."""
    labels = {case_id: row["backend"] for case_id, row in read_timings(output_dir).items()}
    return {case_id: [(r["key"], labels[case_id][r["seq"]]) for r in trace.exchanges()]
            for case_id, trace in traces.items()}


def fixture_config(tmp_path, workers: int = 1):
    return dataclasses.replace(validate_config(FIXTURES / "replay_config.yaml"),
                               output_dir=tmp_path / "out", workers=workers)


class FaultyRetrieval:
    """An embedder and a scorer in one, failing the one call (``"embed"`` or
    ``"score"``) made for the retrieval query ``query``."""

    def __init__(self, embedder: TableEmbedder, scorer: TableScorer, call: str, query: str):
        self.embedder, self.scorer = embedder, scorer
        self.call, self.query = call, query

    def embed(self, texts: list[str]):
        if self.call == "embed" and texts == [self.query]:
            raise TransportError("injected embed failure")
        return self.embedder.embed(texts)

    def score(self, query_text: str, segment_texts: list[str]):
        if self.call == "score" and query_text == self.query:
            raise TransportError("injected score failure")
        return self.scorer.score(query_text, segment_texts)


def fixture_runtime(config, chat_backend, tables=None,
                    retrieval_fault: tuple[str, str] | None = None) -> Runtime:
    """The fixture bundle's runtime around ``chat_backend``; with a
    ``tables`` directory, the embedder and scorer record their rows there;
    with a ``retrieval_fault`` (call, query), that call fails."""
    embedder = TableEmbedder.load(config.embeddings_path)
    scorer = TableScorer.load(config.scores_path)
    if retrieval_fault is not None:
        embedder = scorer = FaultyRetrieval(embedder, scorer, *retrieval_fault)
    if tables is not None:
        embedder = RecordingEmbedder(embedder, tables / "embeddings.jsonl")
        scorer = RecordingScorer(scorer, tables / "scores.jsonl")
    return Runtime(config, chat_backend=chat_backend, embedder=embedder, scorer=scorer)


def run_recorded(tmp_path, backend: TableBackend, workers: int = 1,
                 retrieval_fault: tuple[str, str] | None = None) -> Outcome:
    """The fixture batch with ``backend`` behind a transcript recorder and the
    embedder and scorer behind theirs; each case's trace is read back from
    its file."""
    config = fixture_config(tmp_path, workers)
    tmp_path.mkdir(exist_ok=True)
    transcript = tmp_path / "transcript.jsonl"
    runtime = fixture_runtime(
        config, RecordingBackend(backend, TranscriptRecorder(transcript)), tmp_path,
        retrieval_fault)
    try:
        result = run_batch(runtime)
    finally:
        runtime.close()
    traces = {row.case_id: Trace.load(trace_path_for(config, row.case_id))
              for row in result.rows}
    return Outcome(
        rows={row.case_id: (row.status, row.failed_stage, row.trace_digest)
              for row in result.rows},
        records={case_id: trace.records for case_id, trace in traces.items()},
        exchanges=exchange_labels(traces, config.output_dir),
        transcript=transcript.read_bytes(),
        embeddings=(tmp_path / "embeddings.jsonl").read_bytes(),
        scores=(tmp_path / "scores.jsonl").read_bytes())


@pytest.fixture(scope="module")
def sequential(tmp_path_factory) -> Outcome:
    outcome = run_recorded(tmp_path_factory.mktemp("sequential"), TableBackend(REPLAY))
    assert outcome.transcript == (FIXTURES / "transcript.jsonl").read_bytes()
    assert outcome.embeddings == (FIXTURES / "embeddings.jsonl").read_bytes()
    assert outcome.scores == (FIXTURES / "scores.jsonl").read_bytes()
    assert all(status == "ok" for status, _, _ in outcome.rows.values())
    return outcome


# -- answered out of order ----------------------------------------------------

class ReversingPool:
    """Stands in for the gateway's pool. Its futures count as started, so
    the submitting thread cannot take one back to run itself. It holds each
    thread's branches until that thread waits on them, then answers them on
    a thread of their own, last submitted first; no call's order depends on
    a sleep."""

    def __init__(self):
        self._held: dict[int, list] = {}
        self._lock = threading.Lock()
        self.threads: list[threading.Thread] = []

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            self._held.setdefault(threading.get_ident(), []).append((future, fn, args))
        return future

    def wait(self, futures):
        with self._lock:
            held = self._held.pop(threading.get_ident(), [])
        if held:
            thread = threading.Thread(target=self._answer, args=(held[::-1],))
            self.threads.append(thread)
            thread.start()
        return wait(futures, timeout=10)

    @staticmethod
    def _answer(calls) -> None:
        for future, fn, args in calls:
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)


@pytest.mark.parametrize("workers", [1, 4])
def test_fan_outs_answered_in_reverse_commit_in_submission_order(
        tmp_path, monkeypatch, sequential, workers):
    pool = ReversingPool()
    monkeypatch.setattr(gateway_module, "_POOL", pool)
    monkeypatch.setattr(gateway_module, "wait", pool.wait)
    backend = TableBackend(LIVE)
    got = run_recorded(tmp_path, backend, workers)
    for thread in pool.threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in pool.threads)

    assert got.rows == sequential.rows
    assert got.records == sequential.records
    for table in ("transcript", "embeddings", "scores"):
        if workers == 1:
            assert getattr(got, table) == getattr(sequential, table)
        else:
            # concurrent cases interleave their rows in commit order
            assert sorted(getattr(got, table).splitlines()) == sorted(
                getattr(sequential, table).splitlines())
    # the backend was asked for every exchange not answered from the answer
    # table (each of the 208 distinct keys at least once, and the one key a
    # case asks twice twice), and really was asked out of order
    asked = [key for key, _ in backend.calls]
    fresh = [key for exchanges in got.exchanges.values()
             for key, label in exchanges if label != SHARED]
    assert Counter(asked) == Counter(fresh)
    assert 209 <= len(asked) <= sum(map(len, got.exchanges.values()))
    if workers == 1:
        # one case after another: an exchange is shared exactly when an
        # earlier case committed its key
        earlier: set[str] = set()
        for exchanges in got.exchanges.values():
            assert [label == SHARED for _, label in exchanges] == [
                key in earlier for key, _ in exchanges]
            earlier.update(key for key, _ in exchanges)
        assert asked != fresh


# -- a fault part way through a fan-out ----------------------------------------

def fault_position(outcome: Outcome, task: str) -> tuple[str, int, str]:
    """(case id, exchange index, key) of a call in the longest run of
    ``task`` exchanges, the second one where the run has more than one,
    whose key occurs nowhere else in the batch."""
    counts = Counter(r["key"] for records in outcome.records.values()
                     for r in records if r["type"] == "exchange")
    runs: list[list[tuple[str, int, str]]] = []
    for case_id, records in outcome.records.items():
        exchanges = [r for r in records if r["type"] == "exchange"]
        run: list[tuple[str, int, str]] = []
        for index, r in enumerate(exchanges):
            if r["task"] == task:
                run.append((case_id, index, r["key"]))
            elif run:
                runs.append(run)
                run = []
        if run:
            runs.append(run)
    for run in sorted(runs, key=len, reverse=True):
        for position in run[1:] + run[:1]:
            if counts[position[2]] == 1:
                return position
    raise AssertionError(f"no batch-unique {task} call in the fixture traces")


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("task", FAN_OUT_SITES)
def test_fault_in_a_fan_out_fails_as_the_sequential_run_does(
        tmp_path, sequential, task, fault):
    case_id, index, key = fault_position(sequential, task)
    seq = run_recorded(tmp_path / "seq", TableBackend(REPLAY, fault=(key, fault)))
    got = run_recorded(tmp_path / "fan", TableBackend(LIVE, fault=(key, fault)))

    status, stage, _ = got.rows[case_id]
    assert status == "error"
    assert (status, stage) == seq.rows[case_id][:2]
    assert got.records[case_id] == seq.records[case_id]
    taken = sum(1 for r in got.records[case_id] if r["type"] == "exchange")
    if (task, fault) == ("verbalize", "malformed"):
        assert taken > index + 1
    else:
        # only a response that reached the parser is traced
        assert taken == index + (fault == "malformed")
    for other in got.rows.keys() - {case_id}:
        assert got.rows[other] == sequential.rows[other]
    # rows land at commit: none for a response the case never took, and the
    # failing response itself only where it was taken (recorded before the
    # empty check, as a replay must reproduce it)
    assert got.transcript == seq.transcript
    assert (got.embeddings, got.scores) == (seq.embeddings, seq.scores)
    recorded = {row["key"]: row["response"]
                for row in map(json.loads, got.transcript.decode().splitlines())}
    if fault == "transport":
        assert key not in recorded
    else:
        assert recorded[key] == ("" if fault == "empty" else MALFORMED)
    if (task, fault) != ("verbalize", "malformed"):
        # the responses the failing case would have taken next, which no
        # other call of the batch asked for
        keys = {cid: [r["key"] for r in records if r["type"] == "exchange"]
                for cid, records in sequential.records.items()}
        elsewhere = {k for cid, ks in keys.items() if cid != case_id for k in ks}
        later = set(keys[case_id][index + 1:]) - set(keys[case_id][:index + 1]) - elsewhere
        assert later and not later & recorded.keys()


# -- a fault inside a branch ---------------------------------------------------

class Exchange(NamedTuple):
    index: int  # among the case's exchanges
    key: str
    task: str


class Branches(NamedTuple):
    evidence: list[list[Exchange]]
    route: list[Exchange]
    panels: list[list[Exchange]]


def branches_of(records: list[dict]) -> Branches:
    """A case's exchanges grouped by the branch that made them: each
    hypothesis's evidence package (opened by its retrieval record), the
    complexity route, and each hypothesis's panel (closed by its last
    ``snapshot`` decision)."""
    evidence: list[list[Exchange]] = []
    route: list[Exchange] = []
    panels: list[tuple[str, list[Exchange]]] = []
    pending: list[Exchange] = []
    phase = "extract"
    exchanges = 0
    for r in records:
        if r["type"] == "retrieval" and phase == "evidence":
            evidence.append([])
        elif r["type"] == "decision" and r["decision"] == "snapshot":
            hypothesis = r["payload"]["hypothesis"]
            if panels and panels[-1][0] == hypothesis:
                panels[-1][1].extend(pending)
            else:
                panels.append((hypothesis, pending))
            pending = []
        if r["type"] != "exchange":
            continue
        exchange = Exchange(exchanges, r["key"], r["task"])
        exchanges += 1
        if exchange.task == "assess_complexity":
            phase = "route"
        elif exchange.task == "specialist_opinion" and phase == "route":
            phase = "panels"
        elif exchange.task in ("final_adjudicate", "generalist_direct"):
            phase = "close"
        if phase == "evidence":
            evidence[-1].append(exchange)
        elif phase == "route":
            route.append(exchange)
        elif phase == "panels":
            pending.append(exchange)
        if exchange.task == "hypothesize":
            phase = "evidence"
    return Branches(evidence, route, [exchanges for _, exchanges in panels])


BRANCH_FAULTS = {
    # where the fault sits: the stage the case then fails at
    "evidence_second": "evidence",
    "route_assess": "route",
    "route_dispatch": "dispatch",
    "panel_second": "deliberate",
    # a continuing round's interim report, while its refinement runs beside it
    "round_interim": "deliberate",
    # a continuing round's refinement query, while the round's close runs
    "round_refine": "deliberate",
}


def exchange_counts(outcome: Outcome) -> Counter:
    return Counter(r["key"] for records in outcome.records.values()
                   for r in records if r["type"] == "exchange")


def continuing_round(outcome: Outcome) -> tuple[str, Exchange, list[Exchange]]:
    """(case id, interim report exchange, the exchanges of its refinement
    branch) of the continuing panel round whose refinement makes the most
    calls, among those whose report and refinement query are batch-unique."""
    counts = exchange_counts(outcome)
    rounds: list[tuple[str, Exchange, list[Exchange]]] = []
    for case_id, records in outcome.records.items():
        exchanges = [Exchange(index, r["key"], r["task"]) for index, r in
                     enumerate(r for r in records if r["type"] == "exchange")]
        for interim, refine in zip(exchanges, exchanges[1:]):
            if ((interim.task, refine.task) == ("interim_consensus", "refine_query")
                    and counts[interim.key] == counts[refine.key] == 1):
                branch = list(takewhile(lambda e: e.task != "specialist_opinion",
                                        exchanges[refine.index:]))
                rounds.append((case_id, interim, branch))
    assert rounds, "no continuing round with batch-unique calls in the fixture traces"
    return max(rounds, key=lambda found: len(found[2]))


def branch_fault_position(outcome: Outcome, where: str) -> tuple[str, Exchange]:
    """(case id, exchange) of the call to fail for ``where``: in the case with
    the most branches of that kind, the last batch-unique call of the second
    evidence branch, of the route's assess or dispatch calls, or of the
    second panel; or a continuing round's report or refinement query."""
    if where in ("round_interim", "round_refine"):
        case_id, interim, refinement = continuing_round(outcome)
        return case_id, interim if where == "round_interim" else refinement[0]
    counts = exchange_counts(outcome)
    branches = {case_id: branches_of(records)
                for case_id, records in outcome.records.items()}

    def pick(case_id: str, exchanges: list[Exchange]) -> tuple[str, Exchange]:
        unique = [e for e in exchanges if counts[e.key] == 1]
        assert unique, f"no batch-unique call for {where} in {case_id}"
        return case_id, unique[-1]

    if where in ("evidence_second", "panel_second"):
        field = "evidence" if where == "evidence_second" else "panels"

        def size(case_id: str) -> tuple[int, int]:
            kind = getattr(branches[case_id], field)
            return len(kind), len(kind[1]) if len(kind) > 1 else 0

        case_id = max(branches, key=size)
        return pick(case_id, getattr(branches[case_id], field)[1])
    task = "assess_complexity" if where == "route_assess" else "dispatch"
    case_id = max((c for c in branches
                   if any(e.task == "dispatch" for e in branches[c].route)),
                  key=lambda c: len(branches[c].evidence))
    return pick(case_id, [e for e in branches[case_id].route if e.task == task])


def later_branch_exchanges(outcome: Outcome, case_id: str, where: str,
                           failing: Exchange) -> list[Exchange]:
    """The calls made by the case's branches that run beside the failing one
    and come after it in branch order."""
    branches = branches_of(outcome.records[case_id])
    if where == "evidence_second":
        return [e for branch in branches.evidence[2:] for e in branch] + branches.route
    if where.startswith(("panel", "round")):
        [panel] = [i for i, exchanges in enumerate(branches.panels) if failing in exchanges]
        later = [e for exchanges in branches.panels[panel + 1:] for e in exchanges]
        if where == "round_interim":
            later += continuing_round(outcome)[2]
        return later
    return []  # the route is the last branch of its phase


def unique_keys(outcome: Outcome, case_id: str, exchanges: list[Exchange],
                before: int) -> set[str]:
    """Keys of ``exchanges`` that no other case of the batch and none of the
    case's first ``before`` exchanges asks for."""
    elsewhere = {r["key"] for cid, records in outcome.records.items() if cid != case_id
                 for r in records if r["type"] == "exchange"}
    earlier = [r["key"] for r in outcome.records[case_id] if r["type"] == "exchange"]
    return {e.key for e in exchanges} - elsewhere - set(earlier[:before])


def later_queries(seq: Outcome, got: Outcome, case_id: str) -> set[str]:
    """Retrieval queries of the sequential run that the failed case never
    traced."""
    def queries(outcome: Outcome) -> set[str]:
        return {r["query"] for r in outcome.records[case_id] if r["type"] == "retrieval"}

    return queries(seq) - queries(got)


def table_keys(outcome: Outcome) -> tuple[set[str], set[str], set[str]]:
    """The transcript keys, embedded texts and scored queries recorded."""
    def rows(data: bytes) -> list[dict]:
        return [json.loads(line) for line in data.decode().splitlines()]

    return ({row["key"] for row in rows(outcome.transcript)},
            {row["text"] for row in rows(outcome.embeddings)},
            {row["query"] for row in rows(outcome.scores)})


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("where", BRANCH_FAULTS)
def test_fault_in_a_branch_fails_as_the_sequential_run_does(
        tmp_path, sequential, where, fault):
    case_id, exchange = branch_fault_position(sequential, where)
    seq = run_recorded(tmp_path / "seq", TableBackend(REPLAY, fault=(exchange.key, fault)))
    backend = TableBackend(LIVE, fault=(exchange.key, fault))
    got = run_recorded(tmp_path / "branch", backend)

    assert got.rows[case_id][:2] == seq.rows[case_id][:2] == ("error", BRANCH_FAULTS[where])
    assert got.records[case_id] == seq.records[case_id]
    taken = sum(1 for r in got.records[case_id] if r["type"] == "exchange")
    assert taken == exchange.index + (fault == "malformed")
    for other in got.rows.keys() - {case_id}:
        assert got.rows[other] == sequential.rows[other]
    assert (got.transcript, got.embeddings, got.scores) == (
        seq.transcript, seq.embeddings, seq.scores)

    # the branches after the failing one left no row behind, whether a pool
    # thread had started them or they were dropped unstarted
    later = unique_keys(sequential, case_id,
                        later_branch_exchanges(sequential, case_id, where, exchange),
                        exchange.index + 1)
    assert later or where.startswith("route")
    keys, texts, queries = table_keys(got)
    assert not later & keys
    assert not later_queries(sequential, got, case_id) & (texts | queries)


@pytest.mark.parametrize("call", ["embed", "score"])
def test_a_retrieval_fault_beside_a_packages_path_work_fails_as_the_sequential_run_does(
        tmp_path, sequential, call):
    # the second package's retrieval fails while its path work (the
    # hypothesis align, then the path verbalizations) runs beside it
    case_id, _ = branch_fault_position(sequential, "evidence_second")
    records = sequential.records[case_id]
    packages = branches_of(records).evidence
    route_at = next(i for i, r in enumerate(records) if r.get("task") == "assess_complexity")
    query = [r["query"] for r in records[:route_at] if r["type"] == "retrieval"][1]
    seq = run_recorded(tmp_path / "seq", TableBackend(REPLAY), retrieval_fault=(call, query))
    backend = TableBackend(LIVE)
    got = run_recorded(tmp_path / "branch", backend, retrieval_fault=(call, query))

    assert got.rows[case_id][:2] == seq.rows[case_id][:2] == ("error", "evidence")
    assert got.records[case_id] == seq.records[case_id]
    first = packages[1][0].index
    assert sum(1 for r in got.records[case_id] if r["type"] == "exchange") == first
    for other in got.rows.keys() - {case_id}:
        assert got.rows[other] == sequential.rows[other]
    assert (got.transcript, got.embeddings, got.scores) == (
        seq.transcript, seq.embeddings, seq.scores)

    # the package's path work (its prune needs the failed retrieval) and the
    # branches after it left no row behind, whether started or dropped
    path_work = [e for e in packages[1] if e.task != "prune"]
    later = unique_keys(sequential, case_id,
                        path_work + later_branch_exchanges(sequential, case_id,
                                                           "evidence_second", packages[1][-1]),
                        first)
    assert {e.task for e in path_work} == {"align", "verbalize"}
    assert later
    keys, texts, queries = table_keys(got)
    assert not later & keys
    assert not (later_queries(sequential, got, case_id) - {query}) & (texts | queries)
    assert query not in queries and (query in texts) == (call == "score")


# -- the failed row of a fault at each task kind ---------------------------------

NOT_JSON = ("response is not valid JSON: Expecting property name enclosed in double "
            "quotes (offending span: '{not a judgment')")
FAILED_ROWS = {
    # (task, fault): (case id, failed stage, error) of the one case that fails
    ("ner", "transport"): ("case-01", "extract", "injected transport failure"),
    ("ner", "empty"): ("case-01", "extract", "empty response for task 'ner'"),
    ("ner", "malformed"): ("case-01", "extract", NOT_JSON),
    ("align", "transport"): ("case-01", "extract", "injected transport failure"),
    ("align", "empty"): ("case-01", "extract", "empty response for task 'align'"),
    ("align", "malformed"): ("case-01", "extract", "expected a candidate number or NONE "
                             "(offending span: '{not a judgment')"),
    ("hypothesize", "transport"): ("case-01", "hypothesize", "injected transport failure"),
    ("hypothesize", "empty"): ("case-01", "hypothesize",
                               "empty response for task 'hypothesize'"),
    ("hypothesize", "malformed"): ("case-01", "hypothesize", NOT_JSON),
    ("verbalize", "transport"): ("case-01", "evidence", "injected transport failure"),
    ("verbalize", "empty"): ("case-01", "evidence", "empty response for task 'verbalize'"),
    ("verbalize", "malformed"): ("case-01", "evidence", "replay transcript has no entry "
                                 "for prune key b3d56259af975f6cf6093d687c8603c0ef890aeb"
                                 "933ea2b79c8586535f795266"),
    ("prune", "transport"): ("case-01", "evidence", "injected transport failure"),
    ("prune", "empty"): ("case-01", "evidence", "empty response for task 'prune'"),
    ("prune", "malformed"): ("case-01", "evidence", "expected comma-separated 0/1 digits "
                             "(offending span: '{not a judgment')"),
    ("assess_complexity", "transport"): ("case-01", "route", "injected transport failure"),
    ("assess_complexity", "empty"): ("case-01", "route",
                                     "empty response for task 'assess_complexity'"),
    ("assess_complexity", "malformed"): ("case-01", "route", "expected SIMPLE or COMPLEX "
                                         "(offending span: '{not a judgment')"),
    ("dispatch", "transport"): ("case-02", "dispatch", "injected transport failure"),
    ("dispatch", "empty"): ("case-02", "dispatch", "empty response for task 'dispatch'"),
    ("dispatch", "malformed"): ("case-02", "dispatch", NOT_JSON),
    ("specialist_opinion", "transport"): ("case-02", "deliberate",
                                          "injected transport failure"),
    ("specialist_opinion", "empty"): ("case-02", "deliberate",
                                      "empty response for task 'specialist_opinion'"),
    ("specialist_opinion", "malformed"): ("case-02", "deliberate", NOT_JSON),
    ("refine_query", "transport"): ("case-04", "deliberate", "injected transport failure"),
    ("refine_query", "empty"): ("case-04", "deliberate",
                                "empty response for task 'refine_query'"),
    ("refine_query", "malformed"): ("case-04", "deliberate", NOT_JSON),
    ("interim_consensus", "transport"): ("case-02", "deliberate",
                                         "injected transport failure"),
    ("interim_consensus", "empty"): ("case-02", "deliberate",
                                     "empty response for task 'interim_consensus'"),
    ("interim_consensus", "malformed"): ("case-02", "deliberate", NOT_JSON),
    ("final_adjudicate", "transport"): ("case-02", "adjudicate", "injected transport failure"),
    ("final_adjudicate", "empty"): ("case-02", "adjudicate",
                                    "empty response for task 'final_adjudicate'"),
    ("final_adjudicate", "malformed"): ("case-02", "adjudicate", NOT_JSON),
    ("generalist_direct", "transport"): ("case-01", "direct_diagnosis",
                                         "injected transport failure"),
    ("generalist_direct", "empty"): ("case-01", "direct_diagnosis",
                                     "empty response for task 'generalist_direct'"),
    ("generalist_direct", "malformed"): ("case-01", "direct_diagnosis", NOT_JSON),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("kind", list(TaskKind), ids=lambda kind: kind.value)
def test_a_fault_at_the_first_call_of_each_kind_leaves_these_rows(
        tmp_path, sequential, kind, fault):
    """Pins each failed row's stage and message, whatever error class
    carries them: the first call of ``kind`` in the batch is faulted, inline."""
    key = next(r["key"] for records in sequential.records.values() for r in records
               if r["type"] == "exchange" and r["task"] == kind.value)
    runtime = fixture_runtime(fixture_config(tmp_path),
                              TableBackend(REPLAY, fault=(key, fault)))
    try:
        result = run_batch(runtime)
    finally:
        runtime.close()
    case_id, stage, error = FAILED_ROWS[kind.value, fault]
    assert {row.case_id: (row.status, row.failed_stage, row.error) for row in result.rows} == {
        cid: ("error", stage, error) if cid == case_id else ("ok", None, None)
        for cid in sequential.rows}


# -- latency shape ------------------------------------------------------------

def case_10(config):
    [case] = [c for c in read_cases(config.cases_path) if c.case_id == "case-10"]
    return case


def case_10_wall_s(tmp_path, delay_s: float) -> tuple[float, int]:
    """Wall time and call count of case-10 against a live-labelled backend
    that takes ``delay_s`` per call."""
    config = fixture_config(tmp_path)
    backend = TableBackend(LIVE, delay_s=delay_s)
    runtime = fixture_runtime(config, backend)
    try:
        start = perf_counter()
        _, trace = run_case(runtime, case_10(config))
        wall_s = perf_counter() - start
    finally:
        runtime.close()
    calls = len(trace.exchanges())
    assert calls == len(backend.calls) == 42
    return wall_s, calls


def test_case_wall_time_tracks_fan_out_waves_not_calls(tmp_path):
    delay_s = 0.02
    wall_s, calls = case_10_wall_s(tmp_path, delay_s)
    # one call after another would take calls * delay_s; the fan-outs and
    # branches of case-10 leave 12 sequential waves
    assert wall_s < 0.8 * calls * delay_s


def test_case_wall_time_tracks_branch_waves(tmp_path):
    delay_s = 0.02
    wall_s, calls = case_10_wall_s(tmp_path, delay_s)
    # fan-outs alone leave 24 sequential waves (about 0.5 s here); running
    # the evidence packages, the route and the panels side by side leaves 12
    assert wall_s < 0.5 * calls * delay_s


def test_replay_answers_every_call_inline_on_the_callers_thread(tmp_path):
    config = fixture_config(tmp_path)
    backend = TableBackend(REPLAY)
    runtime = fixture_runtime(config, backend)
    try:
        run_case(runtime, case_10(config))
    finally:
        runtime.close()
    assert len(backend.calls) == 42
    assert {thread for _, thread in backend.calls} == {threading.get_ident()}


class Meeting:
    """Calls that must be in flight at once: each call that arrives waits,
    up to 5 s, for all the others, and notes whether they all came. Once
    one wait times out, every later arrival notes a miss at once."""

    def __init__(self, parties: int):
        self._barrier = threading.Barrier(parties, timeout=5)
        self.met: list[bool] = []

    def attend(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            self.met.append(False)
        else:
            self.met.append(True)


class MeetingBackend(TableBackend):
    """The live-labelled fixture backend; a call of one of ``keys`` attends
    ``meeting`` first."""

    def __init__(self, meeting: Meeting, keys: Collection[str]):
        super().__init__(LIVE)
        self.meeting, self.keys = meeting, keys

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        if key in self.keys:
            self.meeting.attend()
        return super().respond(kind, system, user, key)


class MeetingEmbedder(TableEmbedder):
    """The fixture embedder; embedding one of ``queries`` attends
    ``meeting`` first."""

    def __init__(self, config, meeting: Meeting, queries: Collection[str]):
        table = TableEmbedder.load(config.embeddings_path)
        super().__init__(table.table)
        self.meeting, self.queries = meeting, queries

    def embed(self, texts: list[str]):
        if len(texts) == 1 and texts[0] in self.queries:
            self.meeting.attend()
        return super().embed(texts)


def run_meeting(tmp_path, case_id: str, meeting: Meeting, keys: Collection[str] = (),
                queries: Collection[str] = ()) -> None:
    """Run one fixture case live, with the calls of ``keys`` and the
    embeddings of ``queries`` attending ``meeting``."""
    config = fixture_config(tmp_path)
    [case] = [c for c in read_cases(config.cases_path) if c.case_id == case_id]
    runtime = Runtime(config, chat_backend=MeetingBackend(meeting, keys),
                      embedder=MeetingEmbedder(config, meeting, queries),
                      scorer=TableScorer.load(config.scores_path))
    try:
        run_case(runtime, case)
    finally:
        runtime.close()


def test_a_packages_embed_request_is_in_flight_with_its_hypothesis_align(
        tmp_path, sequential):
    case_id = "case-10"
    records = sequential.records[case_id]
    opened = next(i for i, r in enumerate(records) if r["type"] == "retrieval")
    align = records[opened + 1]
    assert align["task"] == "align"
    meeting = Meeting(2)
    run_meeting(tmp_path, case_id, meeting, keys={align["key"]},
                queries={records[opened]["query"]})
    assert meeting.met == [True, True]


def test_a_supplements_query_retrievals_are_in_flight_together(tmp_path, sequential):
    case_id = "case-08"
    records = sequential.records[case_id]
    refined = next(i for i, r in enumerate(records) if r.get("task") == "refine_query")
    queries = [r["query"] for r in takewhile(lambda r: r["type"] == "retrieval",
                                             records[refined + 1:])]
    assert len(queries) == 2
    # no other retrieval of the case embeds these queries
    counts = Counter(r["query"] for r in records if r["type"] == "retrieval")
    assert [counts[query] for query in queries] == [1, 1]
    meeting = Meeting(2)
    run_meeting(tmp_path, case_id, meeting, queries=set(queries))
    assert meeting.met == [True, True]


def test_a_continuing_rounds_report_is_in_flight_with_its_refinement(tmp_path, sequential):
    case_id, interim, refinement = continuing_round(sequential)
    meeting = Meeting(2)
    run_meeting(tmp_path, case_id, meeting, keys={interim.key, refinement[0].key})
    assert meeting.met == [True, True]


class SiblingBackend(TableBackend):
    """Fails every prune call once a dispatch call has come, and holds
    every dispatch call until ``release`` is set, which it does 0.1 s after
    the first prune fails."""

    def __init__(self):
        super().__init__(LIVE)
        self.dispatching, self.release = threading.Event(), threading.Event()
        self.timers: list[threading.Timer] = []
        self.dispatched: list[str] = []

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        if kind is TaskKind.PRUNE:
            if not self.dispatching.wait(timeout=10):
                raise TimeoutError("no dispatch call came")
            if not self.timers:
                self.timers.append(threading.Timer(0.1, self.release.set))
                self.timers[0].start()
            raise TransportError("injected transport failure")
        if kind is TaskKind.DISPATCH:
            self.dispatching.set()
            if not self.release.wait(timeout=10):
                raise TimeoutError("release never set")
            response = super().respond(kind, system, user, key)
            self.dispatched.append(key)
            return response
        return super().respond(kind, system, user, key)


def test_a_failed_branch_returns_after_its_siblings_settle_and_keeps_none_of_their_rows(
        tmp_path, sequential):
    config = fixture_config(tmp_path)
    backend = SiblingBackend()
    transcript = tmp_path / "transcript.jsonl"
    runtime = fixture_runtime(config, RecordingBackend(backend,
                                                       TranscriptRecorder(transcript)))
    try:
        with pytest.raises(CaseFailure) as failure:
            run_case(runtime, case_10(config))
        # the route branch was still waiting on its dispatches when the
        # first evidence branch failed
        dispatched = len(backend.dispatched)
    finally:
        runtime.close()
        for timer in backend.timers:
            timer.join(timeout=10)
    assert failure.value.stage == "evidence"
    dispatches = branches_of(sequential.records["case-10"]).route[1:]
    assert dispatched == len(dispatches) == 3
    # rows up to the first evidence branch's failing prune call, and none of
    # the later evidence branches' or the route's
    exchanges = [(r["key"], r["task"]) for r in sequential.records["case-10"]
                 if r["type"] == "exchange"]
    first_prune = [task for _, task in exchanges].index("prune")
    recorded = [json.loads(line)["key"] for line in transcript.read_text().splitlines()]
    assert recorded == list(dict.fromkeys(key for key, _ in exchanges[:first_prune]))


def test_an_interrupted_branch_keeps_its_records_and_returns_after_its_siblings_end():
    gw = Gateway(TableBackend(LIVE), Trace("interrupt"), {})
    started, ended = threading.Event(), threading.Event()

    def interrupted():
        assert started.wait(timeout=5), "the sibling never started"
        gw.trace.decision("first", {})
        raise KeyboardInterrupt

    def slow():
        started.set()
        sleep(0.3)
        gw.trace.decision("second", {})
        ended.set()

    with pytest.raises(KeyboardInterrupt):
        gw.branches([interrupted, slow])
    # no branch outlives the call, and the trace holds what the sequential
    # run holds: the interrupted branch's records and none after them
    assert ended.is_set()
    assert [r["decision"] for r in gw.trace.records] == ["first"]


# -- a saturated pool ------------------------------------------------------------

def nest(gw: Gateway, path: str, depth: int) -> str:
    """A branch of ``gw`` that traces its entry, runs three branches of its
    own until ``depth`` reaches 3, then traces its exit."""
    gw.trace.decision("enter", {"path": path})
    if depth < 3:
        gw.branches([partial(nest, gw, f"{path}.{i}", depth + 1) for i in range(3)])
    gw.trace.decision("leave", {"path": path})
    return path


@pytest.fixture
def one_thread_pool(monkeypatch):
    """The gateway's pool swapped for one of a single thread. It is shut
    down without joining its thread, so a test whose thread is stuck
    waiting on queued branches fails on its own timeout instead of hanging
    in the teardown."""
    pool = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(gateway_module, "_POOL", pool)
    yield pool
    pool.shutdown(wait=False)


def test_branches_nest_three_deep_on_a_one_thread_pool(one_thread_pool):
    sequential = Gateway(TableBackend(REPLAY), Trace("nested"), {})
    tree = [partial(nest, sequential, str(i), 1) for i in range(3)]
    assert sequential.branches(tree) == ["0", "1", "2"]

    gw = Gateway(TableBackend(LIVE), Trace("nested"), {})
    tree = [partial(nest, gw, str(i), 1) for i in range(3)]
    # the outer call holds the pool's only thread, so every branch it starts
    # is queued behind a thread that waits on it
    assert one_thread_pool.submit(gw.branches, tree).result(timeout=10) == ["0", "1", "2"]
    assert len(gw.trace.records) == 2 * (3 + 9 + 27)
    assert gw.trace.records == sequential.trace.records


def test_a_one_thread_pool_under_four_workers_runs_the_batch_as_the_sequential_run(
        tmp_path, one_thread_pool, sequential):
    outcomes: list[Outcome] = []
    switch_s = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the case threads more finely
    try:
        batch = threading.Thread(target=lambda: outcomes.append(
            run_recorded(tmp_path, TableBackend(LIVE), workers=4)))
        batch.start()
        batch.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_s)
    assert not batch.is_alive()
    [got] = outcomes
    assert got.rows == sequential.rows
    assert got.records == sequential.records
    for table in ("transcript", "embeddings", "scores"):
        # concurrent cases interleave their rows in commit order
        assert sorted(getattr(got, table).splitlines()) == sorted(
            getattr(sequential, table).splitlines())


@pytest.mark.parametrize("error", [TransportError("injected"), KeyboardInterrupt()],
                         ids=["engine-error", "interrupt"])
def test_a_task_taken_back_after_a_failed_one_is_dropped(one_thread_pool, error):
    gw = Gateway(TableBackend(LIVE), Trace("dropped"), {})
    release = threading.Event()
    one_thread_pool.submit(release.wait)  # the pool's only thread starts no task
    ran: list[int] = []

    def failing():
        gw.trace.decision("first", {})
        raise error

    try:
        with pytest.raises(type(error)):
            gw.branches([failing] + [partial(ran.append, i) for i in range(3)])
    finally:
        release.set()
    # the later tasks' writes could never be committed, so none of them ran
    assert ran == []
    assert [r["decision"] for r in gw.trace.records] == ["first"]


def test_the_sixteen_leaves_of_a_four_by_four_nest_are_in_flight_together():
    # four branches, each a parent blocked on four leaves of its own; every
    # leaf holds its thread until all sixteen have come
    meeting = Meeting(16)
    gw = Gateway(TableBackend(LIVE), Trace("nested"), {})
    gw.branches([partial(gw.branches, [meeting.attend] * 4)] * 4)
    assert meeting.met == [True] * 16


def test_the_first_task_runs_on_the_callers_thread():
    gw = Gateway(TableBackend(LIVE), Trace("first"), {})
    assert gw.branches([threading.get_ident]) == [threading.get_ident()]
    here, *rest = gw.branches([threading.get_ident] * 3)
    assert here == threading.get_ident() and len(rest) == 2
