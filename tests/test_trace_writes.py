"""Trace writes behind the case.

Every runtime, whatever its chat backend's label, hands each case's trace
write to one writer thread and goes on to the next case. These tests pin,
under a replay and a live label alike, what that may not change: every
write runs on that one thread, never the batch's own; every trace is on
disk, loads and carries the digest of its row (the replay run's digest)
once ``run_batch`` or ``Runtime.close`` has returned or raised; and no
write is still running then. Each trace file holds no time and no backend
label, so a record run and its replay write equal files; the run's timing
sidecar holds those, one line per case.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from time import sleep
from types import SimpleNamespace

import pytest

from dxcouncil import runner
from dxcouncil.differential import read_cases
from dxcouncil.gateway import LIVE, REPLAY, TaskKind
from dxcouncil.config import validate_config
from dxcouncil.runner import Runtime, run_batch, run_case, trace_path_for
from dxcouncil.trace import Trace

from conftest import FIXTURES, read_timings
from test_fanout import (  # noqa: F401  (sequential is a fixture)
    SHARED,
    TableBackend,
    fixture_config,
    fixture_runtime,
    run_recorded,
    sequential,
)

CASE_IDS = [f"case-{i:02d}" for i in range(1, 11)]
LABELS = pytest.mark.parametrize("label", [REPLAY, LIVE])


@pytest.fixture
def slow_writes(monkeypatch):
    """``Trace.write`` made 50 ms slower and watched: ``running`` counts
    the writes in progress and ``threads`` the thread each one ran on."""
    state = SimpleNamespace(running=0, threads=[], lock=threading.Lock())
    write = Trace.write

    def slow_write(trace, path):
        with state.lock:
            state.running += 1
            state.threads.append(threading.get_ident())
        try:
            sleep(0.05)
            return write(trace, path)
        finally:
            with state.lock:
                state.running -= 1

    monkeypatch.setattr(Trace, "write", slow_write)
    return state


class InterruptedAt(TableBackend):
    """The fixture transcript under a chosen label, except that a
    ``KeyboardInterrupt`` ends the complexity call of one case."""

    def __init__(self, label: str, narrative: str):
        super().__init__(label)
        self.narrative = narrative

    def respond(self, kind, system, user, key):
        if kind is TaskKind.ASSESS_COMPLEXITY and self.narrative in user:
            raise KeyboardInterrupt
        return super().respond(kind, system, user, key)


def loaded_digests(config, case_ids) -> dict[str, str]:
    return {case_id: Trace.load(trace_path_for(config, case_id)).digest()
            for case_id in case_ids}


def written_behind(slow_writes, count: int) -> None:
    """``count`` writes ran, all on one thread that is not this one."""
    assert len(slow_writes.threads) == count
    assert len(set(slow_writes.threads)) == 1
    assert threading.get_ident() not in slow_writes.threads


@LABELS
@pytest.mark.parametrize("workers", [1, 4])
def test_a_batch_has_every_trace_on_disk_when_it_returns(tmp_path, slow_writes, sequential,
                                                         label, workers):
    config = fixture_config(tmp_path, workers)
    runtime = fixture_runtime(config, TableBackend(label))
    switch_s = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # case threads start their writes side by side
    try:
        result = run_batch(runtime)
        sys.setswitchinterval(switch_s)
        assert slow_writes.running == 0
        assert loaded_digests(config, CASE_IDS) == {
            row.case_id: row.trace_digest for row in result.rows} == {
            case_id: digest for case_id, (_, _, digest) in sequential.rows.items()}
    finally:
        sys.setswitchinterval(switch_s)
        runtime.close()
    written_behind(slow_writes, 10)


@LABELS
def test_a_failed_behind_write_raises_from_run_batch_and_writes_no_results(tmp_path, label):
    config = fixture_config(tmp_path)
    trace_path_for(config, "case-03").mkdir(parents=True)
    runtime = fixture_runtime(config, TableBackend(label))
    try:
        with pytest.raises(IsADirectoryError):
            run_batch(runtime)
        assert not (config.output_dir / "results.jsonl").exists()
        assert not (config.output_dir / "summary.json").exists()
        assert not (config.output_dir / "timings.jsonl").exists()
        # the write failed behind case-03, so the later cases ran and wrote theirs
        assert sorted(loaded_digests(config, set(CASE_IDS) - {"case-03"})) == sorted(
            set(CASE_IDS) - {"case-03"})
    finally:
        runtime.close()  # the failed write was settled by run_batch


@LABELS
def test_an_interrupt_in_a_case_surfaces_once_the_traces_so_far_are_written(tmp_path,
                                                                            slow_writes,
                                                                            label):
    config = fixture_config(tmp_path)
    [case_03] = [c for c in read_cases(config.cases_path) if c.case_id == "case-03"]
    runtime = fixture_runtime(config, InterruptedAt(label, case_03.narrative))
    try:
        with pytest.raises(KeyboardInterrupt):
            run_batch(runtime)
        assert slow_writes.running == 0
        assert sorted(loaded_digests(config, CASE_IDS[:3])) == CASE_IDS[:3]
        assert not any(trace_path_for(config, case_id).exists() for case_id in CASE_IDS[3:])
        # the interrupted case's partial trace holds what ran before the interrupt
        partial = Trace.load(trace_path_for(config, "case-03"))
        assert [r["task"] for r in partial.exchanges()][:1] == ["ner"]
        assert "assess_complexity" not in {r["task"] for r in partial.exchanges()}
        timings = read_timings(config.output_dir)
        assert list(timings) == CASE_IDS[:3]
        assert len(timings["case-03"]["ts"]) == len(partial.records)
    finally:
        runtime.close()
    written_behind(slow_writes, 3)


@LABELS
def test_an_interrupt_while_run_batch_waits_leaves_the_writes_to_close(tmp_path, slow_writes,
                                                                      monkeypatch, label):
    config = fixture_config(tmp_path)
    runtime = fixture_runtime(config, TableBackend(label))
    wait = runner.wait

    def interrupted_wait(futures):
        monkeypatch.setattr(runner, "wait", wait)
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "wait", interrupted_wait)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_batch(runtime)
    finally:
        runtime.close()
    assert slow_writes.running == 0
    assert sorted(loaded_digests(config, CASE_IDS)) == CASE_IDS


@LABELS
def test_a_direct_run_case_has_its_trace_on_disk_once_the_runtime_closes(tmp_path,
                                                                         slow_writes, label):
    config = fixture_config(tmp_path)
    runtime = fixture_runtime(config, TableBackend(label))
    try:
        _, trace = run_case(runtime, read_cases(config.cases_path)[0])
    finally:
        runtime.close()
    assert slow_writes.running == 0
    assert loaded_digests(config, ["case-01"]) == {"case-01": trace.digest()}
    written_behind(slow_writes, 1)


@pytest.mark.parametrize("workers", [1, 4])
def test_a_record_run_and_its_replay_write_equal_trace_files(tmp_path, workers):
    recorded = run_recorded(tmp_path / "record", TableBackend(LIVE), workers)
    assert all(status == "ok" for status, _, _ in recorded.rows.values())
    config = dataclasses.replace(validate_config(FIXTURES / "replay_config.yaml"),
                                 output_dir=tmp_path / "replay")
    runtime = Runtime(config)
    try:
        run_batch(runtime)
    finally:
        runtime.close()
    record_config = fixture_config(tmp_path / "record", workers)
    for case_id in CASE_IDS:
        assert (trace_path_for(record_config, case_id).read_bytes()
                == trace_path_for(config, case_id).read_bytes()), case_id
    # the backend labels differ, in the sidecars only
    labels = [{label for row in read_timings(out).values() for label in row["backend"]}
              for out in (record_config.output_dir, config.output_dir)]
    assert labels == [{LIVE, SHARED, None}, {REPLAY, SHARED, None}]


@LABELS
@pytest.mark.parametrize("workers", [1, 4])
def test_the_timing_sidecar_holds_a_time_per_record_and_each_exchanges_label(
        tmp_path, sequential, label, workers):
    config = fixture_config(tmp_path, workers)
    runtime = fixture_runtime(config, TableBackend(label))
    try:
        run_batch(runtime)
    finally:
        runtime.close()
    timings = read_timings(config.output_dir)
    assert sorted(timings) == CASE_IDS
    asked: set[str] = set()
    shared = 0
    for case_id, records in sequential.records.items():
        line = timings[case_id]
        assert len(line["ts"]) == len(line["backend"]) == len(records)
        assert all(isinstance(ts, float) for ts in line["ts"])
        # an exchange whose key an earlier case asked is answered from the
        # runtime's answer table; a key asked twice within its first case is not
        want = [None if r["type"] != "exchange" else SHARED if r["key"] in asked else label
                for r in records]
        if workers == 1:
            assert line["backend"] == want, case_id
        else:  # which case asks a key first depends on which cases have finished
            assert [label is None for label in line["backend"]] == [
                label is None for label in want]
            assert set(line["backend"]) <= {None, label, SHARED}
        shared += line["backend"].count(SHARED)
        asked.update(r["key"] for r in records if r["type"] == "exchange")
    if workers == 1:
        assert shared == 22
