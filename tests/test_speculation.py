"""Speculation: the work that waits on an aligner answer starts on its guess.

``Gateway.speculate(decide, guess, then)`` runs ``then(guess)`` beside
``decide`` and keeps it only when ``decide``'s outcome equals the guess. The
pipeline speculates twice per case: the differential on the guessed
findings beside the finding aligns, and each hypothesis's path work beside
its own align. These tests pin that a hit, a miss and a fault on either side
leave the trace, the failed rows and the record tables of the sequential run
(a replay-labelled backend, whose gateway runs ``decide`` and then ``then``
on one thread), and that the speculative requests really are in flight
while the aligner's are.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from time import sleep
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from make_fixtures import build_rules

from dxcouncil import runner as runner_module
from dxcouncil.backends import (
    HashEmbedder,
    LexicalOverlapScorer,
    RecordingEmbedder,
    RecordingScorer,
)
from dxcouncil.errors import CaseFailure, KgError, TransportError
from dxcouncil.gateway import (
    LIVE,
    REPLAY,
    Gateway,
    RecordingBackend,
    ScriptedResponder,
    TaskKind,
    TranscriptRecorder,
)
from dxcouncil.runner import Runtime, run_batch, run_case, trace_path_for
from dxcouncil.trace import Trace

from conftest import FIXTURES
from test_fanout import (  # noqa: F401  (sequential and one_thread_pool are fixtures)
    SHARED,
    Outcome,
    TableBackend,
    branches_of,
    exchange_labels,
    fixture_config,
    one_thread_pool,
    run_recorded,
    sequential,
)


# -- the mechanism ---------------------------------------------------------------

class Labelled:
    """A backend that is never asked; only its label matters."""

    def __init__(self, label: str):
        self.label = label

    def respond(self, kind, system, user, key):
        raise AssertionError("no model call expected")


class Step:
    """``decide`` and ``then`` for one ``speculate`` call, each tracing a
    decision. ``decide`` returns ``outcome`` (or raises ``error``), after
    waiting, if ``overlap`` is set, until ``then`` has started; ``then``
    notes each value it starts and ends on, and raises for ``fail_on``."""

    def __init__(self, gw: Gateway, outcome, error: BaseException | None = None,
                 overlap: bool = True, fail_on=None):
        self.gw, self.outcome, self.error = gw, outcome, error
        self.overlap, self.fail_on = overlap, fail_on
        self.started = threading.Event()
        self.ran: list[tuple[object, int]] = []
        self.ended: list[object] = []

    def decide(self):
        if self.overlap:
            assert self.started.wait(timeout=5), "then(guess) never started"
        self.gw.trace.decision("decide", {})
        if self.error is not None:
            raise self.error
        return self.outcome

    def then(self, value):
        self.ran.append((value, threading.get_ident()))
        self.started.set()
        self.gw.trace.decision("then", {"value": value})
        sleep(0.01)  # still running when decide is done
        self.ended.append(value)
        if value == self.fail_on:
            raise TransportError(f"then failed on {value}")
        return f"from {value}"


def trail(gw: Gateway) -> list[tuple[str, dict]]:
    return [(r["decision"], r["payload"]) for r in gw.trace.records]


def live_gateway() -> Gateway:
    return Gateway(Labelled(LIVE), Trace("speculate"), {})


def test_a_hit_keeps_the_speculative_work_and_commits_it_after_the_decision():
    gw = live_gateway()
    step = Step(gw, "A")
    assert gw.speculate(step.decide, "A", step.then) == "from A"
    [(value, thread)] = step.ran
    assert value == "A" and thread != threading.get_ident()
    assert trail(gw) == [("decide", {}), ("then", {"value": "A"})]
    assert [r["seq"] for r in gw.trace.records] == [0, 1]


def test_a_miss_drops_the_speculative_work_and_runs_then_on_the_outcome():
    gw = live_gateway()
    step = Step(gw, "B")
    assert gw.speculate(step.decide, "A", step.then) == "from B"
    assert [value for value, _ in step.ran] == ["A", "B"]
    assert step.ran[1][1] == threading.get_ident()
    assert trail(gw) == [("decide", {}), ("then", {"value": "B"})]


@pytest.mark.parametrize("error", [TransportError("decide failed"), KeyboardInterrupt()])
def test_a_failed_decision_drops_the_speculative_work_once_it_has_ended(error):
    gw = live_gateway()
    step = Step(gw, "A", error=error)
    with pytest.raises(type(error)):
        gw.speculate(step.decide, "A", step.then)
    # no speculative task outlives the call and none of its writes is
    # committed, whatever the decision raised; a failed decision's own
    # writes are committed before its error, an interrupt included, is raised
    assert step.ended == ["A"]
    assert ("then", {"value": "A"}) not in trail(gw)
    assert trail(gw) == [("decide", {})]


def test_an_interrupted_decision_keeps_its_records_and_returns_after_the_speculation_ends():
    gw = live_gateway()
    started, ended = threading.Event(), threading.Event()

    def decide():
        assert started.wait(timeout=5), "then(guess) never started"
        gw.trace.decision("decide", {})
        raise KeyboardInterrupt

    def then(value):
        started.set()
        sleep(0.3)
        gw.trace.decision("then", {"value": value})
        ended.set()

    with pytest.raises(KeyboardInterrupt):
        gw.speculate(decide, "A", then)
    assert ended.is_set()
    assert trail(gw) == [("decide", {})]


def test_a_speculative_failure_is_raised_on_a_hit_after_its_writes():
    gw = live_gateway()
    step = Step(gw, "A", fail_on="A")
    with pytest.raises(TransportError, match="then failed on A"):
        gw.speculate(step.decide, "A", step.then)
    assert trail(gw) == [("decide", {}), ("then", {"value": "A"})]


def test_a_speculative_failure_is_dropped_on_a_miss():
    gw = live_gateway()
    step = Step(gw, "B", fail_on="A")
    assert gw.speculate(step.decide, "A", step.then) == "from B"
    assert trail(gw) == [("decide", {}), ("then", {"value": "B"})]


@pytest.mark.parametrize("outcome", ["A", "B"])
def test_a_replay_gateway_runs_then_once_on_the_outcome_on_this_thread(outcome):
    gw = Gateway(Labelled(REPLAY), Trace("speculate"), {})
    step = Step(gw, outcome, overlap=False)
    assert gw.speculate(step.decide, "A", step.then) == f"from {outcome}"
    assert step.ran == [(outcome, threading.get_ident())]
    assert trail(gw) == [("decide", {}), ("then", {"value": outcome})]


def test_a_replay_gateway_never_runs_then_after_a_failed_decision():
    gw = Gateway(Labelled(REPLAY), Trace("speculate"), {})
    step = Step(gw, "A", error=TransportError("decide failed"), overlap=False)
    with pytest.raises(TransportError):
        gw.speculate(step.decide, "A", step.then)
    assert step.ran == [] and trail(gw) == [("decide", {})]


@pytest.mark.parametrize("outcome", ["A", "B"])
def test_speculative_work_queued_on_a_busy_pool_is_taken_back(one_thread_pool, outcome):
    gw = live_gateway()
    step = Step(gw, outcome, overlap=False)
    # the call holds the pool's only thread, so the speculative task is
    # still queued when the decision is made
    result = one_thread_pool.submit(gw.speculate, step.decide, "A", step.then)
    assert result.result(timeout=10) == f"from {outcome}"
    assert [value for value, _ in step.ran] == [outcome]
    assert trail(gw) == [("decide", {}), ("then", {"value": outcome})]


def test_speculation_nests_inside_branches_and_commits_in_their_order():
    gws = {label: Gateway(Labelled(label), Trace("nested"), {}) for label in (REPLAY, LIVE)}
    for gw in gws.values():
        steps = [Step(gw, value, overlap=gw.backend.label == LIVE) for value in "AB"]
        assert gw.branches([lambda step=step: gw.speculate(step.decide, "A", step.then)
                            for step in steps]) == ["from A", "from B"]
    assert gws[LIVE].trace.records == gws[REPLAY].trace.records


# -- the fixture batch -------------------------------------------------------------

class Holds:
    """Aligner answers held back until the speculation on their guess is
    under way: a request of an align key in ``holds`` waits, up to 5 s,
    until one of the keys that align maps to has been requested, and notes
    whether one was. Once one wait times out, every later hold notes a miss
    at once."""

    def __init__(self, holds: dict[str, set[str]]):
        self.arrived = {align: threading.Event() for align in holds}
        self.opens: dict[str, list[threading.Event]] = defaultdict(list)
        for align, keys in holds.items():
            for key in keys:
                self.opens[key].append(self.arrived[align])
        self.met: list[bool] = []

    def arrive(self, key: str) -> None:
        for event in self.opens.get(key, ()):
            event.set()
        if key in self.arrived:
            self.met.append(all(self.met) and self.arrived[key].wait(timeout=5))


class HoldingBackend(TableBackend):
    """The live-labelled fixture backend, holding the align requests of
    ``holds`` (see ``Holds``) and failing every request of ``fault_key``
    with a transport error."""

    def __init__(self, holds: dict[str, set[str]], fault_key: str | None = None):
        super().__init__(LIVE, fault=(fault_key, "transport") if fault_key else None)
        self.holds = Holds(holds)

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        self.holds.arrive(key)
        return super().respond(kind, system, user, key)


# batch-unique mentions of case-01 whose top match is an exact name match
MISSES = {"finding": "anechoic liver lesion on ultrasound", "hypothesis": "Liver cyst"}


def exchanges_of(outcome: Outcome, case_id: str) -> list[dict]:
    return [r for r in outcome.records[case_id] if r["type"] == "exchange"]


def align_key(outcome: Outcome, site: str) -> str:
    [key] = [r["key"] for r in exchanges_of(outcome, "case-01")
             if r["task"] == "align" and f"Mention: {MISSES[site]}\n" in r["prompt"]]
    return key


def guessed_keys(outcome: Outcome, site: str) -> list[str]:
    """The keys of the requests that case-01's speculation on the guess for
    ``MISSES[site]`` makes, in the order the fixture run asks them."""
    if site == "finding":
        return [r["key"] for r in exchanges_of(outcome, "case-01") if r["task"] == "hypothesize"]
    align = align_key(outcome, site)
    [package] = [branch for branch in branches_of(outcome.records["case-01"]).evidence
                 if branch[0].key == align]
    return [e.key for e in package if e.task == "verbalize"]


class ScriptedBackend:
    """The fixture's scripted models under ``label``, with ``rules`` tried
    first. Logs every request's key, holds the align requests of ``holds``
    (see ``Holds``) and fails every request of ``fault_key`` with a
    transport error."""

    def __init__(self, label: str, rules=(), holds: dict[str, set[str]] | None = None,
                 fault_key: str | None = None):
        self.label = label
        self.holds = Holds(holds or {})
        self.fault_key = fault_key
        self.asked: list[str] = []
        self._responder = ScriptedResponder([*rules, *build_rules()])

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        self.asked.append(key)
        self.holds.arrive(key)
        if key == self.fault_key:
            raise TransportError("injected transport failure")
        return self._responder.respond(kind, system, user, key)


def run_scripted(tmp_path, backend: ScriptedBackend) -> Outcome:
    """The fixture batch recorded from ``backend`` and the scripted
    embedder and scorer, as the fixture tables were made."""
    config = fixture_config(tmp_path)
    tmp_path.mkdir(exist_ok=True)
    tables = {name: tmp_path / f"{name}.jsonl" for name in ("transcript", "embeddings", "scores")}
    runtime = Runtime(
        config,
        chat_backend=RecordingBackend(backend, TranscriptRecorder(tables["transcript"])),
        embedder=RecordingEmbedder(HashEmbedder(), tables["embeddings"]),
        scorer=RecordingScorer(LexicalOverlapScorer(), tables["scores"]))
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
        **{name: path.read_bytes() for name, path in tables.items()})


def rejecting(site: str, answer: str) -> list:
    return [(TaskKind.ALIGN, f"Mention: {MISSES[site]}\n", answer)]


@pytest.mark.parametrize("answer", ["2", "NONE"])
@pytest.mark.parametrize("site", MISSES)
def test_a_rejected_guess_leaves_what_the_sequential_run_leaves(
        tmp_path, sequential, site, answer):
    seq_backend = ScriptedBackend(REPLAY, rejecting(site, answer))
    seq = run_scripted(tmp_path / "seq", seq_backend)
    # the rejecting answer waits until the speculation is under way
    holds = {align_key(sequential, site): set(guessed_keys(sequential, site))}
    backend = ScriptedBackend(LIVE, rejecting(site, answer), holds)
    got = run_scripted(tmp_path / "live", backend)

    # the aligner did reject the guess, and every case still ran
    [align] = [r for r in exchanges_of(seq, "case-01") if r["key"] in holds]
    assert align["response"] == answer
    assert backend.holds.met == [True]
    assert all(status == "ok" for status, _, _ in seq.rows.values())
    assert got.rows == seq.rows
    assert got.records == seq.records
    assert (got.transcript, got.embeddings, got.scores) == (
        seq.transcript, seq.embeddings, seq.scores)
    # the backend saw the sequential run's requests and the speculative
    # ones, none of which reached a trace or a table
    asked, sequential_asked = Counter(backend.asked), Counter(seq_backend.asked)
    speculative = asked - sequential_asked
    assert asked == sequential_asked + speculative
    # one request: the differential on the guessed findings, or the one
    # path verbalization to the guessed disease
    assert list(speculative.elements()) == guessed_keys(sequential, site)
    assert sum(speculative.values()) == 1
    traced = {r["key"] for case_id in got.records for r in exchanges_of(got, case_id)}
    assert not speculative.keys() & traced
    assert not any(key.encode() in got.transcript for key in speculative)


@pytest.mark.parametrize("site", MISSES)
def test_a_fault_in_speculative_work_the_aligner_rejects_leaves_no_trace(
        tmp_path, sequential, site):
    fault_key = guessed_keys(sequential, site)[0]
    seq = run_scripted(tmp_path / "seq", ScriptedBackend(REPLAY, rejecting(site, "NONE")))
    backend = ScriptedBackend(LIVE, rejecting(site, "NONE"),
                              {align_key(sequential, site): {fault_key}}, fault_key)
    got = run_scripted(tmp_path / "live", backend)

    assert backend.holds.met == [True] and fault_key in backend.asked
    assert all(status == "ok" for status, _, _ in got.rows.values())
    assert got.rows == seq.rows
    assert got.records == seq.records
    assert (got.transcript, got.embeddings, got.scores) == (
        seq.transcript, seq.embeddings, seq.scores)


@pytest.mark.parametrize("site", MISSES)
def test_a_fault_in_confirmed_speculative_work_fails_as_the_sequential_run_does(
        tmp_path, sequential, site):
    key = guessed_keys(sequential, site)[0]
    seq = run_recorded(tmp_path / "seq", TableBackend(REPLAY, fault=(key, "transport")))
    backend = HoldingBackend({align_key(sequential, site): {key}}, fault_key=key)
    got = run_recorded(tmp_path / "live", backend)

    assert backend.holds.met == [True]
    stage = "hypothesize" if site == "finding" else "evidence"
    assert got.rows["case-01"][:2] == seq.rows["case-01"][:2] == ("error", stage)
    assert got.rows == seq.rows
    assert got.records == seq.records
    index = [r["key"] for r in exchanges_of(sequential, "case-01")].index(key)
    assert len(exchanges_of(got, "case-01")) == index
    assert (got.transcript, got.embeddings, got.scores) == (
        seq.transcript, seq.embeddings, seq.scores)


def speculated_requests(outcome: Outcome) -> dict[str, set[str]]:
    """For each fresh align request of the batch whose guess starts fresh
    requests: those requests. A finding align's is its case's
    differential; a hypothesis align's are the path verbalizations of its
    package."""
    holds: dict[str, set[str]] = {}
    for case_id, records in outcome.records.items():
        fresh = {key for key, label in outcome.exchanges[case_id] if label != SHARED}
        exchanges = exchanges_of(outcome, case_id)
        differential = next(i for i, r in enumerate(exchanges) if r["task"] == "hypothesize")
        for r in exchanges[:differential]:
            if r["task"] == "align" and r["key"] in fresh:
                holds[r["key"]] = {exchanges[differential]["key"]}
        for package in branches_of(records).evidence:
            align, *rest = package
            verbalized = {e.key for e in rest if e.task == "verbalize"} & fresh
            if align.key in fresh and verbalized:
                holds[align.key] = verbalized
    return holds


def test_each_aligner_answer_waits_for_the_speculation_on_its_guess(tmp_path, sequential):
    holds = speculated_requests(sequential)
    backend = HoldingBackend(holds)
    got = run_recorded(tmp_path, backend)

    assert len(holds) == 36
    assert backend.holds.met == [True] * len(holds)
    assert got.rows == sequential.rows
    assert got.records == sequential.records
    for table in ("transcript", "embeddings", "scores"):
        assert getattr(got, table) == (FIXTURES / f"{table}.jsonl").read_bytes()


# -- drawn aligner answers ---------------------------------------------------------

@pytest.fixture(scope="module")
def align_counts(sequential) -> dict[str, int]:
    """Each mention the fixture batch aligns, with its number of candidates.
    Which mentions are aligned, and against which candidates, does not
    depend on the aligner's answers: the mentions and the differential are
    scripted per case, and the candidates are the mention's matches."""
    counts = {}
    for case_id in sequential.records:
        for r in exchanges_of(sequential, case_id):
            if r["task"] == "align":
                mention = r["prompt"].split("Mention: ", 1)[1].split("\n", 1)[0]
                entries = r["prompt"].split("Candidate standardized entries:\n", 1)[1]
                counts[mention] = entries.split("\n\n", 1)[0].count("\n") + 1
    return counts


class CauseLog:
    """``run_case`` that notes the class of each failed case's cause."""

    def __init__(self):
        self.causes: list[type] = []

    def __call__(self, runtime, case):
        try:
            return run_case(runtime, case)
        except CaseFailure as exc:
            self.causes.append(type(exc.cause))
            raise


@settings(max_examples=10)
@given(data=st.data())
def test_over_drawn_aligner_answers_the_live_run_is_the_sequential_run(
        tmp_path_factory, align_counts, data):
    # each mention's aligner answer, one of its candidate numbers or NONE
    picks = data.draw(st.fixed_dictionaries(
        {mention: st.integers(0, count) for mention, count in align_counts.items()}))

    def aligner(system: str, user: str) -> str:
        pick = picks[user.split("Mention: ", 1)[1].split("\n", 1)[0]]
        return str(pick) if pick else "NONE"

    rules = [(TaskKind.ALIGN, "", aligner)]
    log = CauseLog()
    with mock.patch.object(runner_module, "run_case", log):
        seq = run_scripted(tmp_path_factory.mktemp("seq"), ScriptedBackend(REPLAY, rules))
        got = run_scripted(tmp_path_factory.mktemp("live"), ScriptedBackend(LIVE, rules))
    assert KgError not in log.causes
    assert got.rows == seq.rows
    assert got.records == seq.records
    assert (got.transcript, got.embeddings, got.scores) == (
        seq.transcript, seq.embeddings, seq.scores)
