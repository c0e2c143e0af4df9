"""The answer table: one backend request per distinct prompt per run.

A runtime keeps every exchange of each case that returned its report, and
its gateways answer a key found there without asking the backend, tracing
the exchange with the backend label ``"shared"``. These tests pin what the
table may share and what it may not change: a key an earlier case asked
reaches the backend once, a failed case shares nothing, a new runtime shares
nothing, and the traces, digests and record tables equal those of a run that
asks the backend for every call.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from dxcouncil.config import validate_config
from dxcouncil.gateway import LIVE, REPLAY, Gateway, ScriptedResponder, TaskKind
from dxcouncil.runner import Runtime, run_batch, run_case, trace_path_for
from dxcouncil.trace import Trace

from conftest import FIXTURES, backend_label
from test_fanout import (  # noqa: F401  (sequential is a fixture)
    MALFORMED,
    SHARED,
    Outcome,
    TableBackend,
    case_10,
    exchange_labels,
    fixture_config,
    fixture_runtime,
    run_recorded,
    sequential,
)


def exchange_keys(outcome: Outcome) -> dict[str, list[str]]:
    return {case_id: [r["key"] for r in records if r["type"] == "exchange"]
            for case_id, records in outcome.records.items()}


def first_asks(outcome: Outcome) -> Counter:
    """How often each key is asked in the first case, in batch order, that
    asks it: the backend requests of a run that shares across cases."""
    asks: Counter = Counter()
    seen: set[str] = set()
    for keys in exchange_keys(outcome).values():
        asks.update(key for key in keys if key not in seen)
        seen.update(keys)
    return asks


def repeated_key(outcome: Outcome, task: str) -> tuple[str, str, str]:
    """(key, first case, second case) of the first ``task`` key, in batch
    order, that a later case asks again."""
    keys = exchange_keys(outcome)
    tasks = {r["key"]: r["task"] for records in outcome.records.values()
             for r in records if r["type"] == "exchange"}
    first: dict[str, str] = {}
    for case_id, case_keys in keys.items():
        for key in case_keys:
            if key in first and first[key] != case_id and tasks[key] == task:
                return key, first[key], case_id
            first.setdefault(key, case_id)
    raise AssertionError(f"no {task} key repeats across cases")


class FirstAskFails(TableBackend):
    """``TableBackend`` whose fault hits the first call of its key only."""

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        try:
            return super().respond(kind, system, user, key)
        finally:
            if key == self.fault_key:
                self.fault_key = None


def run_unrecorded(tmp_path, backend: TableBackend) -> tuple[Runtime, dict, dict, dict]:
    """The fixture batch against ``backend`` with no recorder (a recorder
    would reject a key answered twice, differently): the closed runtime,
    and each case's row, trace, and exchanges as (key, backend label)."""
    config = fixture_config(tmp_path)
    runtime = fixture_runtime(config, backend)
    try:
        result = run_batch(runtime)
    finally:
        runtime.close()
    traces = {row.case_id: Trace.load(trace_path_for(config, row.case_id))
              for row in result.rows}
    return (runtime, {row.case_id: row for row in result.rows}, traces,
            exchange_labels(traces, config.output_dir))


def labels_in(exchanges: dict[str, list[tuple[str, str]]], case_id: str,
              key: str) -> list[str]:
    return [label for k, label in exchanges[case_id] if k == key]


def test_gateway_answers_a_key_in_its_table_without_the_backend():
    def never(system: str, user: str) -> str:
        raise AssertionError("the backend was asked")

    probe = Gateway(ScriptedResponder([(TaskKind.VERBALIZE, "", "known")]), Trace("case"), {})
    probe.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"})
    [asked] = probe.trace.exchanges()
    gw = Gateway(ScriptedResponder([(TaskKind.VERBALIZE, "", never)]), Trace("case"),
                 {asked["key"]: "known"})
    assert gw.complete(TaskKind.VERBALIZE, {"path": "A --[r]--> B"}) == "known"
    [shared] = gw.trace.exchanges()
    assert backend_label(gw.trace, shared) == SHARED
    # the record leaves out the backend label, so sharing does not change it
    assert gw.trace.records == probe.trace.records
    assert gw.trace.digest() == probe.trace.digest()


def test_a_key_an_earlier_case_asked_reaches_the_backend_once(tmp_path, sequential):
    backend = TableBackend(LIVE)
    got = run_recorded(tmp_path, backend)
    asked = Counter(key for key, _ in backend.calls)
    assert asked == first_asks(sequential)
    # the fixture batch commits 231 exchanges of 208 distinct keys; one
    # key repeats within its first case, which still asks it twice
    assert (sum(len(keys) for keys in exchange_keys(sequential).values()),
            len(asked), sum(asked.values())) == (231, 208, 209)

    key, first, second = repeated_key(sequential, "align")
    assert labels_in(got.exchanges, first, key) == [LIVE]
    assert labels_in(got.exchanges, second, key) == [SHARED]
    assert got.rows == sequential.rows
    assert got.records == sequential.records
    assert (got.transcript, got.embeddings, got.scores) == (
        sequential.transcript, sequential.embeddings, sequential.scores)

    # a replay run wired from the bundle's config has the same digests
    config = dataclasses.replace(validate_config(FIXTURES / "replay_config.yaml"),
                                 output_dir=tmp_path / "replayed")
    runtime = Runtime(config)
    try:
        replayed = run_batch(runtime)
    finally:
        runtime.close()
    assert {row.case_id: row.trace_digest for row in replayed.rows} == {
        case_id: digest for case_id, (_, _, digest) in got.rows.items()}
    # and shares through the same table
    traces = {row.case_id: Trace.load(trace_path_for(config, row.case_id))
              for row in replayed.rows}
    assert {label for exchanges in exchange_labels(traces, config.output_dir).values()
            for _, label in exchanges} == {REPLAY, SHARED}


@pytest.mark.parametrize("fault", ["transport", "malformed"])
def test_a_failed_first_ask_makes_the_next_case_ask_again(tmp_path, sequential, fault):
    key, first, second = repeated_key(sequential, "align")
    backend = FirstAskFails(LIVE, fault=(key, fault))
    _, rows, traces, exchanges = run_unrecorded(tmp_path, backend)

    assert rows[first].status == "error"
    assert [k for k, _ in backend.calls].count(key) == 2
    assert labels_in(exchanges, second, key) == [LIVE]
    # the malformed answer was traced by the case it failed, and shared
    # with none
    assert [r["response"] for r in traces[first].exchanges() if r["key"] == key] == (
        [MALFORMED] if fault == "malformed" else [])
    for case_id, row in rows.items():
        if case_id != first:
            assert (row.status, row.failed_stage, row.trace_digest) == \
                sequential.rows[case_id]


def test_the_answers_of_a_failed_case_are_not_shared(tmp_path, sequential):
    key, first, second = repeated_key(sequential, "align")
    keys = exchange_keys(sequential)
    cases_asking = Counter(k for case_keys in keys.values() for k in set(case_keys))
    # a call of the first case after its ask of ``key`` that no other case makes
    later = next(k for k in keys[first][keys[first].index(key) + 1:] if cases_asking[k] == 1)
    backend = TableBackend(LIVE, fault=(later, "transport"))
    runtime, rows, _, exchanges = run_unrecorded(tmp_path, backend)

    assert rows[first].status == "error"
    assert labels_in(exchanges, first, key) == [LIVE]
    assert labels_in(exchanges, second, key) == [LIVE]
    assert [k for k, _ in backend.calls].count(key) == 2
    only_first = {k for k in keys[first] if cases_asking[k] == 1}
    assert only_first and not only_first & runtime.answers.keys()
    for case_id, row in rows.items():
        if case_id != first:
            assert (row.status, row.failed_stage, row.trace_digest) == \
                sequential.rows[case_id]


def test_a_second_runtime_starts_with_an_empty_table(tmp_path):
    config = fixture_config(tmp_path)
    backend = TableBackend(LIVE)
    first = fixture_runtime(config, backend)
    try:
        run_batch(first)
    finally:
        first.close()
    assert len(first.answers) == 208

    second = fixture_runtime(config, backend)
    assert second.answers == {}
    backend.calls.clear()
    try:
        _, trace = run_case(second, case_10(config))
    finally:
        second.close()
    assert len(backend.calls) == len(trace.exchanges()) == 42
    assert {backend_label(trace, r) for r in trace.exchanges()} == {LIVE}

