"""Fan-out calls: sent together, committed in submission order.

Each call site with independent model calls (finding aligns, path
verbalizations, prune batches, dispatches, one panel round's opinions) makes
them in one ``Gateway.complete_all``. These tests pin what that may not
change: the trace records, digests, failure stages and recorded transcript
rows of a run whose calls are answered out of order, or fail part way
through a fan-out, equal those of the same run made one call at a time.
A replay-labelled backend is that sequential run, since replay answers each
call inline when it is taken.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter, sleep
from typing import NamedTuple

import pytest

from dxcouncil import gateway as gateway_module
from dxcouncil.backends import TableEmbedder, TableScorer
from dxcouncil.config import validate_config
from dxcouncil.differential import read_cases
from dxcouncil.errors import TransportError
from dxcouncil.gateway import (
    FANOUT,
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

from conftest import FIXTURES

FIXTURE_TRANSCRIPT = load_transcript(FIXTURES / "transcript.jsonl")
FAN_OUT_SITES = ("align", "verbalize", "prune", "dispatch", "specialist_opinion")
# text outside the grammar of every fan-out task but verbalize, whose
# grammar is free text: there it is taken, and the case fails at the next
# call whose prompt carries it, which the recorded transcript cannot answer
MALFORMED = "{not a judgment"
FAULTS = ("transport", "empty", "malformed")


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
    transcript: bytes


def canonical_records(trace: Trace) -> list[dict]:
    return [{k: v for k, v in r.items() if k not in ("ts", "backend")}
            for r in trace.records]


def fixture_config(tmp_path, workers: int = 1):
    return dataclasses.replace(validate_config(FIXTURES / "replay_config.yaml"),
                               output_dir=tmp_path / "out", workers=workers)


def fixture_runtime(config, chat_backend) -> Runtime:
    return Runtime(config, chat_backend=chat_backend,
                   embedder=TableEmbedder.load(config.embeddings_path),
                   scorer=TableScorer.load(config.scores_path))


def run_recorded(tmp_path, backend: TableBackend, workers: int = 1) -> Outcome:
    """The fixture batch with ``backend`` behind a transcript recorder; each
    case's trace is read back from its file."""
    config = fixture_config(tmp_path, workers)
    tmp_path.mkdir(exist_ok=True)
    transcript = tmp_path / "transcript.jsonl"
    runtime = fixture_runtime(config, RecordingBackend(backend,
                                                       TranscriptRecorder(transcript)))
    try:
        result = run_batch(runtime)
    finally:
        runtime.close()
    return Outcome(
        rows={row.case_id: (row.status, row.failed_stage, row.trace_digest)
              for row in result.rows},
        records={row.case_id: canonical_records(Trace.load(trace_path_for(config,
                                                                          row.case_id)))
                 for row in result.rows},
        transcript=transcript.read_bytes())


@pytest.fixture(scope="module")
def sequential(tmp_path_factory) -> Outcome:
    outcome = run_recorded(tmp_path_factory.mktemp("sequential"), TableBackend(REPLAY))
    assert outcome.transcript == (FIXTURES / "transcript.jsonl").read_bytes()
    assert all(status == "ok" for status, _, _ in outcome.rows.values())
    return outcome


# -- answered out of order ----------------------------------------------------

class _HeldFuture(Future):
    def __init__(self, pool: "ReversingPool"):
        super().__init__()
        self._pool = pool

    def result(self, timeout=None):
        self._pool.release()
        return super().result(timeout=10)


class ReversingPool:
    """Stands in for the gateway's pool. It holds each fan-out's calls until
    the thread that submitted them first waits for a result, then answers
    them on a thread of their own, last submitted first; no call's order
    depends on a sleep."""

    def __init__(self):
        self._held: dict[int, list] = {}
        self._lock = threading.Lock()
        self.threads: list[threading.Thread] = []

    def submit(self, fn, *args) -> Future:
        future = _HeldFuture(self)
        with self._lock:
            self._held.setdefault(threading.get_ident(), []).append((future, fn, args))
        return future

    def release(self) -> None:
        with self._lock:
            held = self._held.pop(threading.get_ident(), [])
        if held:
            thread = threading.Thread(target=self._answer, args=(held[::-1],))
            self.threads.append(thread)
            thread.start()

    @staticmethod
    def _answer(calls) -> None:
        for future, fn, args in calls:
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)


@pytest.mark.parametrize("workers", [1, 4])
def test_fan_outs_answered_in_reverse_commit_in_submission_order(
        tmp_path, monkeypatch, sequential, workers):
    pool = ReversingPool()
    monkeypatch.setattr(gateway_module, "_POOL", pool)
    backend = TableBackend(LIVE)
    got = run_recorded(tmp_path, backend, workers)
    for thread in pool.threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in pool.threads)

    assert got.rows == sequential.rows
    assert got.records == sequential.records
    if workers == 1:
        assert got.transcript == sequential.transcript
    else:
        # concurrent cases interleave their rows in commit order
        assert sorted(got.transcript.splitlines()) == sorted(
            sequential.transcript.splitlines())
    # the backend really was asked out of order
    asked = [key for key, _ in backend.calls]
    committed = [r["key"] for records in sequential.records.values()
                 for r in records if r["type"] == "exchange"]
    assert Counter(asked) == Counter(committed)
    if workers == 1:
        assert asked != committed


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


# -- latency shape ------------------------------------------------------------

def case_10(config):
    [case] = [c for c in read_cases(config.cases_path) if c.case_id == "case-10"]
    return case


def test_case_wall_time_tracks_fan_out_waves_not_calls(tmp_path):
    delay_s = 0.02
    config = fixture_config(tmp_path)
    backend = TableBackend(LIVE, delay_s=delay_s)
    runtime = fixture_runtime(config, backend)
    try:
        start = perf_counter()
        _, trace = run_case(runtime, case_10(config), write_trace=False)
        wall_s = perf_counter() - start
    finally:
        runtime.close()
    calls = len(trace.exchanges())
    assert calls == len(backend.calls) == 42
    # one call after another would take calls * delay_s; the fan-outs of
    # case-10 leave 24 sequential waves
    assert wall_s < 0.8 * calls * delay_s


def test_replay_answers_every_call_inline_on_the_callers_thread(tmp_path):
    config = fixture_config(tmp_path)
    backend = TableBackend(REPLAY)
    runtime = fixture_runtime(config, backend)
    try:
        run_case(runtime, case_10(config), write_trace=False)
    finally:
        runtime.close()
    assert len(backend.calls) == 42
    assert {thread for _, thread in backend.calls} == {threading.get_ident()}


# -- stopping early -------------------------------------------------------------

class GatedBackend:
    """Answers the call for narrative 0 at once and every other call once
    ``gate`` is set; notes which narratives it was asked about and which
    keys the gateway recorded."""

    label = LIVE

    def __init__(self):
        self.gate = threading.Event()
        self.asked: list[int] = []
        self.arrived = threading.Condition()
        self.rows: list[str] = []

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        number = int(re.search(r"narrative #(\d+)", user).group(1))
        with self.arrived:
            self.asked.append(number)
            self.arrived.notify_all()
        if number and not self.gate.wait(timeout=10):
            raise TimeoutError("gate never opened")
        return '["finding"]'

    def record(self, kind: TaskKind, key: str, response: str) -> None:
        self.rows.append(key)


def test_stopping_early_drops_later_responses_and_cancels_queued_calls(monkeypatch):
    pool = ThreadPoolExecutor(max_workers=FANOUT)
    monkeypatch.setattr(gateway_module, "_POOL", pool)
    backend = GatedBackend()
    gw = Gateway(backend, Trace("early"))
    try:
        payloads = gw.complete_all(TaskKind.NER, [{"narrative": f"narrative #{i}"}
                                                  for i in range(2 * FANOUT + 1)])
        assert next(payloads) == ["finding"]
        # every pool thread now holds a gated call: narratives 1..FANOUT
        with backend.arrived:
            assert backend.arrived.wait_for(lambda: len(backend.asked) == FANOUT + 1,
                                            timeout=10)
        payloads.close()
    finally:
        backend.gate.set()
        pool.shutdown(wait=True)
    assert sorted(backend.asked) == list(range(FANOUT + 1))
    assert len(gw.trace.exchanges()) == len(backend.rows) == 1
