"""Single chokepoint for model calls, with live, record, and replay backends.

Every call renders its task's template, hashes the canonical form of the
prompt, dispatches it to the backend, appends the exchange to the case
trace, and parses the response against the variables the prompt was
rendered from. The canonical key is stable under trailing-whitespace and
line-ending drift, which is what lets a transcript recorded on one machine
replay anywhere. In record mode the backend is a ``RecordingBackend``, which
writes each response to the transcript as it returns it.

A gateway answers a key from its runtime's answer table, ``{canonical_key:
response}``, before it asks the backend: a prompt an earlier case of the
run already had answered costs no request, whatever the backend. Such an
exchange is traced and parsed as any other, labelled ``"shared"`` in the
run's timing sidecar, not in the trace. ``runner.run_case`` fills the table,
from the exchanges of each case that returns its report.

``Gateway.branches`` is the one way a case runs independent work side by
side, and the stage modules say which of their steps are branches. Every
branch calls through its case's one gateway, and what it writes is
committed in branch order (see ``jsonl.holding``). ``Gateway.speculate``
runs a step that waits on a decision beside that decision, on a guess of
its outcome, and keeps it only when the guess was right. Both fork through
one core, ``_fork``: a task no pool thread has started is run on the caller
by ``branches`` (until a task fails) and dropped by ``speculate``. No task
outlives its fork, and an interrupted task's writes are committed as a
failed task's are.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import Future, ThreadPoolExecutor, wait
from functools import partial
from pathlib import Path
from typing import Callable, Protocol, TypeVar

from .backends import post_json
from .errors import EngineError, GatewayError, RecordConflictError, ReplayMissError
from .jsonl import JsonlSink, holding, read_jsonl, text_field, write_held
from .judgments import parse_judgment
from .templates import TaskKind, get_template
from .trace import Trace

__all__ = [
    "TaskKind",
    "Gateway",
    "HttpChatBackend",
    "ReplayChatBackend",
    "RecordingBackend",
    "ScriptedResponder",
    "TranscriptRecorder",
    "canonical_key",
    "normalize_prompt",
    "load_transcript",
]

LIVE = "live"
REPLAY = "replay"

# pool threads across every live gateway of the process, those blocked in
# ``_fork`` (under ``Gateway.branches`` or ``Gateway.speculate``) on their own
# tasks included; each fork also runs a task on its caller, so requests in
# flight can reach FANOUT plus the calling threads. The pool's threads start
# with the first live fork, so importing this module or replaying starts none
FANOUT = 32
_POOL = ThreadPoolExecutor(max_workers=FANOUT, thread_name_prefix="dxcouncil-branch")

T = TypeVar("T")
D = TypeVar("D")


def normalize_prompt(text: str) -> str:
    """Canonical prompt form: LF line endings, no trailing whitespace on any
    line, no trailing newlines."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return "\n".join(map(str.rstrip, text.split("\n"))).rstrip()


def canonical_key(kind: TaskKind, rendered_prompt: str) -> str:
    # "v1" names the only template set there has been; it stays in the hashed
    # payload so that every transcript recorded with it keeps its keys
    payload = "\n".join([kind.value, "v1", normalize_prompt(rendered_prompt)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ChatBackend(Protocol):
    label: str

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        ...


class HttpChatBackend:
    """OpenAI-compatible chat endpoint, temperature pinned to 0.

    One retry on transport failure, then a hard error; the deliberation loop
    must not stall silently. A reply whose content is not a string, or holds
    a lone surrogate, is a malformed-response ``TransportError``, so no
    recorder is handed text it cannot write. Branches send requests from the
    gateway's pool threads and from the threads that start them (see
    ``FANOUT``), so several may be in flight at once; each request is a
    POST on a connection of its own, so concurrent calls share no state.
    """

    label = LIVE

    def __init__(self, endpoint: str, model: str):
        self.endpoint = endpoint
        self.model = model

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": 0,
        }
        return post_json(self.endpoint, body,
                         lambda reply: text_field(reply["choices"][0]["message"], "content"),
                         attempts=2)


class ReplayChatBackend:
    """Serves responses from a recorded transcript; never touches the network.
    It keeps the table it is given and only reads it."""

    label = REPLAY

    def __init__(self, table: dict[str, str]):
        self._table = table

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayChatBackend":
        return cls(load_transcript(path))

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        try:
            return self._table[key]
        except KeyError:
            raise ReplayMissError(key, kind.value) from None


class TranscriptRecorder:
    """Append-only transcript sink, one JSON object per line. The file is
    written when the recorder closes, and left as it was until then (see
    ``JsonlSink``).

    Repeated identical (key, response) pairs are written once; the same key
    with a different response means the upstream model was nondeterministic
    and is rejected outright.
    """

    def __init__(self, path: str | Path):
        self._sink = JsonlSink(path, _duplicate_key)

    def record(self, key: str, task: str, response: str) -> None:
        self._sink.write([(key, {"key": key, "task": task, "response": response})])

    def close(self) -> None:
        self._sink.close()


class RecordingBackend:
    """Wraps a backend and writes every (canonical_key, response) pair it
    receives through its ``TranscriptRecorder`` before returning it.

    The gateway checks a response only after ``respond`` returns, so empty
    and malformed responses are recorded too. A call made inside a branch
    has its row held (see ``jsonl.holding``) and written when its case
    commits the branch, so the transcript holds the rows of a sequential
    run in that run's order, and no row for a call made after the first
    failing branch. ``close`` closes the recorder, which writes the
    transcript.
    """

    def __init__(self, inner: ChatBackend, recorder: TranscriptRecorder):
        self._inner = inner
        self._recorder = recorder

    @property
    def label(self) -> str:
        return self._inner.label

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        response = self._inner.respond(kind, system, user, key)
        self._recorder.record(key, kind.value, response)
        return response

    def close(self) -> None:
        self._recorder.close()


ScriptRule = tuple[TaskKind, "str | Callable[[str, str], bool]",
                   "str | Callable[[str, str], str]"]


class ScriptedResponder:
    """Rule-driven offline stand-in for a live model.

    Rules are (kind, matcher, response) triples tried in order; the first
    whose kind matches and whose matcher accepts the prompt wins. A string
    matcher is a substring test over system and user text together; a
    callable matcher is a predicate over (system, user). A callable response
    receives (system, user). Used to author replay transcripts and to force
    specific branches in tests.
    """

    label = LIVE

    def __init__(self, rules: list[ScriptRule]):
        self._rules = list(rules)

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        combined = system + "\n" + user
        for rule_kind, matcher, response in self._rules:
            if rule_kind is not kind:
                continue
            hit = matcher(system, user) if callable(matcher) else matcher in combined
            if hit:
                return response(system, user) if callable(response) else response
        raise GatewayError(
            f"no scripted rule matches task {kind.value!r} "
            f"(prompt starts {user[:80]!r})")


def load_transcript(path: str | Path) -> dict[str, str]:
    """Build the exact-match replay table from a transcript file."""
    table: dict[str, str] = {}
    for name, line_no, (key, response) in read_jsonl(path, _transcript_row, "transcript"):
        if table.setdefault(key, response) != response:
            raise _duplicate_key(key, f"{name}:{line_no}: ")
    return table


def _transcript_row(row: dict) -> tuple[str, str]:
    return text_field(row, "key"), text_field(row, "response")


def _duplicate_key(key: str, where: str = "") -> RecordConflictError:
    return RecordConflictError(
        key, f"{where}transcript key {key} appears twice with different responses")


class Gateway:
    """Renders, hashes, dispatches, traces and parses every model call.

    ``answers`` is the answer table of the runtime the gateway works for;
    the gateway reads it and never writes it.
    """

    def __init__(self, backend: ChatBackend, trace: Trace, answers: dict[str, str]):
        self.backend = backend
        self.trace = trace
        self.answers = answers
        self._label = backend.label

    def complete(self, kind: TaskKind, variables: dict[str, str]) -> object:
        """Run one model call and return ``parse_judgment``'s payload.

        A key in the answer table is answered from it, with no backend call
        (so nothing is recorded), and traced with the sidecar backend label
        ``"shared"``. Any other response is checked for emptiness, traced
        and parsed only after the backend returns it (a recording backend
        has recorded it by then), so a response that breaks its task's
        grammar is still recorded and traced. A bounded task's bound is read
        from ``variables``, the values its prompt states.
        """
        system, user = get_template(kind).render(variables)
        rendered = system + "\n\n" + user
        key = canonical_key(kind, rendered)
        label = "shared"
        response = self.answers.get(key)
        if response is None:
            label = self._label
            try:
                response = self.backend.respond(kind, system, user, key)
            except EngineError:
                raise
            except Exception as exc:
                raise GatewayError(f"backend failure on task {kind.value!r}: {exc}") from exc
        if not response.strip():
            raise GatewayError(f"empty response for task {kind.value!r}")
        self.trace.exchange(task=kind.value, canonical_key=key, prompt=rendered,
                            response=response, backend=label)
        return parse_judgment(kind, response, variables)

    def branches(self, tasks: list[Callable[[], T]]) -> list[T]:
        """Run independent pieces of this case's work and return each one's
        result, in the order of ``tasks``; each task takes no arguments and
        calls through this gateway.

        A replay gateway runs the tasks one after another on this thread.
        Any other gateway forks them (see ``_fork``), running here each
        task no pool thread has started, until one task has failed; a task
        may start branches of its own. Then each task's held writes are
        committed in task order; the first task that raised, an interrupt
        included, stops the commits after its own, and its error is raised.
        The trace and the tables then hold what the tasks run one after
        another would have left, except that a conflicting row raises when
        it is written.
        """
        if self._label == REPLAY:
            return [task() for task in tasks]
        held, futures = _fork(tasks, run_unstarted=True)
        results = []
        for writes, future in zip(held, futures):
            write_held(writes)
            results.append(future.result())
        return results

    def speculate(self, decide: Callable[[], D], guess: D, then: Callable[[D], T]) -> T:
        """``then(decide())``, with ``then(guess)`` started beside ``decide``.

        A replay gateway runs ``decide`` and then ``then`` on this thread.
        Any other gateway forks ``[decide, then(guess)]`` (see ``_fork``),
        dropping the speculative task if no pool thread has started it by
        the time ``decide`` has returned or raised. ``decide``'s held writes
        are committed, and its error, if any, is raised. When its outcome
        equals ``guess`` and the speculative task ran, the speculative
        writes are committed after ``decide``'s, and the speculative result
        is returned or its error raised, as if it had run after ``decide``.
        Otherwise the speculative writes and error are dropped and
        ``then(outcome)`` runs here. A miss costs the speculative calls and
        the wait for them; the trace and the tables hold what the
        sequential run leaves either way.
        """
        if self._label == REPLAY:
            return then(decide())
        (decided_writes, guessed_writes), (decided, speculative) = _fork(
            [decide, partial(then, guess)], run_unstarted=False)
        write_held(decided_writes)
        outcome = decided.result()
        if not speculative.cancelled() and outcome == guess:
            write_held(guessed_writes)
            return speculative.result()
        return then(outcome)


def _fork(tasks: list[Callable[[], T]], run_unstarted: bool) -> tuple[list[list], list[Future]]:
    """Run ``tasks`` side by side and return, in task order, the list each
    one's writes are held in (see ``jsonl.holding``) and its settled future.

    ``tasks[0]`` runs on this thread and the rest are submitted to the pool.
    Then, in a ``finally``, this thread takes back, in task order, every
    task no pool thread has started, and runs it here if ``run_unstarted``
    and no earlier task has failed (its writes could never be committed),
    or else drops it, leaving its future cancelled. Only then does it wait
    on the started tasks, so no thread waits on queued work, a busy pool
    cannot deadlock, and no task outlives this call unless an interrupt
    ends that wait. A task's error, an interrupt included, is settled into
    its future, as the pool settles it.
    """
    held: list[list] = [[] for _ in tasks]
    rest = [_POOL.submit(_run_holding, task, writes) for task, writes in zip(tasks[1:], held[1:])]
    futures: list[Future] = []
    try:
        futures += [_run_here(task, writes) for task, writes in zip(tasks[:1], held[:1])]
    finally:
        for task, writes, future in zip(tasks[1:], held[1:], rest):
            if future.cancel() and run_unstarted and not any(map(_failed, futures)):
                future = _run_here(task, writes)
            futures.append(future)
        # a cancelled future counts as not done until a pool thread dequeues it
        wait([future for future in rest if not future.cancelled()])
    return held, futures


def _failed(future: Future) -> bool:
    return future.done() and not future.cancelled() and future.exception() is not None


def _run_holding(task: Callable[[], T], held: list) -> T:
    with holding(held):
        return task()


def _run_here(task: Callable[[], T], held: list) -> Future:
    """``_run_holding`` on this thread, settled into a future as the pool
    would settle it."""
    future: Future = Future()
    try:
        future.set_result(_run_holding(task, held))
    except BaseException as exc:
        future.set_exception(exc)
    return future
