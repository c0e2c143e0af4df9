"""Single chokepoint for model calls, with live, record, and replay backends.

Every call renders its task's template, hashes the canonical form of the
prompt, dispatches it to the backend, appends the exchange to the case
trace, and parses the response. The canonical key is stable under
trailing-whitespace and line-ending drift, which is what lets a transcript
recorded on one machine replay anywhere.

A call site with independent calls of one task kind makes them in one
``Gateway.complete_all``: a case's finding aligns, one package's path
verbalizations, its prune batches, the dispatches over the differential and
one panel round's opinions. A live or recording backend gets such calls at
once, on one pool of ``FANOUT`` threads shared by every gateway of the
process; a replay backend answers each call inline, on the caller's thread.
Either way an exchange is committed (recorded, checked, traced, parsed) only
when the caller takes it, in submission order, so the trace and the
recorded transcript hold exactly what the calls made one after another
would have written.

``Gateway.branches`` runs larger independent pieces of a case (each
hypothesis's evidence beside the complexity route, then each hypothesis's
panel) side by side, each against a child gateway on a second pool of
``BRANCHES`` threads, and splices their trace records and held table rows
back in branch order; a replay gateway runs them inline, one after another.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable, Iterator, Protocol, TypeVar, runtime_checkable

from .backends import post_json
from .errors import (
    DuplicateTranscriptKeyError,
    EmptyResponseError,
    EngineError,
    GatewayError,
    ReplayMissError,
    TranscriptError,
)
from .jsonl import JsonlSink, holding, read_jsonl, write_held
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

# concurrent backend calls across every live gateway of the process; the
# pool's threads start with the first live fan-out, so importing this module
# or replaying starts none
FANOUT = 8
_POOL = ThreadPoolExecutor(max_workers=FANOUT, thread_name_prefix="dxcouncil-chat")
# branches running at once across every live gateway of the process; kept
# apart from _POOL, whose threads a branch blocks on
BRANCHES = 8
_BRANCHES = ThreadPoolExecutor(max_workers=BRANCHES, thread_name_prefix="dxcouncil-branch")

T = TypeVar("T")


def normalize_prompt(text: str) -> str:
    """Canonical prompt form: LF line endings, no trailing whitespace on any
    line, no trailing newlines."""
    unified = text.replace("\r\n", "\n").replace("\r", "\n")
    return "\n".join(line.rstrip() for line in unified.split("\n")).rstrip()


def canonical_key(kind: TaskKind, rendered_prompt: str) -> str:
    # "v1" names the only template set there has been; it stays in the hashed
    # payload so that every transcript recorded with it keeps its keys
    payload = "\n".join([kind.value, "v1", normalize_prompt(rendered_prompt)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@runtime_checkable
class ChatBackend(Protocol):
    label: str

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        ...


class HttpChatBackend:
    """OpenAI-compatible chat endpoint, temperature pinned to 0.

    One retry on transport failure, then a hard error; the deliberation loop
    must not stall silently. The gateway sends a fan-out's requests from its
    pool threads, up to ``FANOUT`` at once; each request is a POST of its own
    with no shared session, so concurrent calls share no state.
    """

    label = LIVE

    def __init__(self, endpoint: str, model: str, timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": 0,
        }
        return post_json(self.endpoint, body, self.timeout,
                         lambda reply: str(reply["choices"][0]["message"]["content"]),
                         attempts=2)


class ReplayChatBackend:
    """Serves responses from a recorded transcript; never touches the network."""

    label = REPLAY

    def __init__(self, table: dict[str, str]):
        self._table = dict(table)

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayChatBackend":
        return cls(load_transcript(path))

    def __len__(self) -> int:
        return len(self._table)

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        try:
            return self._table[key]
        except KeyError:
            raise ReplayMissError(key, kind.value) from None


class TranscriptRecorder:
    """Append-only transcript sink, one JSON object per line.

    Repeated identical (key, response) pairs are written once; the same key
    with a different response means the upstream model was nondeterministic
    and is rejected outright.
    """

    def __init__(self, path: str | Path):
        self._sink = JsonlSink(path, DuplicateTranscriptKeyError)

    def record(self, key: str, task: str, response: str) -> None:
        self._sink.write([(key, {"key": key, "task": task, "response": response})])

    def close(self) -> None:
        self._sink.close()


class RecordingBackend:
    """Wraps a backend; the gateway writes every (canonical_key, response)
    pair it commits through ``record``.

    ``respond`` only asks the inner backend, since a fan-out's responses
    arrive in any order. The gateway records each one at its commit point,
    in submission order, before checking it, so the transcript holds the
    rows of a sequential run in that run's order, empty and malformed
    responses included, and no row for a response the case never took.
    """

    def __init__(self, inner: ChatBackend, recorder: TranscriptRecorder):
        self._inner = inner
        self._recorder = recorder

    @property
    def label(self) -> str:
        return self._inner.label

    def respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        return self._inner.respond(kind, system, user, key)

    def record(self, kind: TaskKind, key: str, response: str) -> None:
        self._recorder.record(key, kind.value, response)

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
    for _, (key, response) in read_jsonl(path, _transcript_row, TranscriptError,
                                         "transcript"):
        if table.setdefault(key, response) != response:
            raise DuplicateTranscriptKeyError(key)
    return table


def _transcript_row(row: dict) -> tuple[str, str]:
    return str(row["key"]), str(row["response"])


class Gateway:
    """Renders, hashes, dispatches, traces and parses every model call."""

    def __init__(self, backend: ChatBackend, trace: Trace):
        self.backend = backend
        self.trace = trace
        self._label = backend.label
        # found by attribute so that no no-op hook is called through a
        # wrapper that counts every method call as a backend request
        self._record = getattr(backend, "record", None)
        self._in_branch = False

    def complete(self, kind: TaskKind, variables: dict[str, str], *,
                 max_items: int | None = None,
                 expected_bits: int | None = None) -> object:
        """Run one model call and return ``parse_judgment``'s payload."""
        [payload] = self.complete_all(
            kind, [variables], max_items=max_items,
            expected_bits=None if expected_bits is None else [expected_bits])
        return payload

    def complete_all(self, kind: TaskKind, variables: list[dict[str, str]], *,
                     max_items: int | None = None,
                     expected_bits: list[int] | None = None) -> Iterator[object]:
        """Run independent model calls of one task kind and yield each one's
        ``parse_judgment`` payload, in the order of ``variables``.

        Every request is rendered and hashed here. A replay backend answers
        each one inline when its item is taken; any other backend gets them
        all now, on the shared pool. An exchange is committed when the
        caller takes its item: its response is recorded (by a backend that
        has ``record``), checked for emptiness, appended to the trace and
        parsed, so a response that breaks its task's grammar is still
        recorded and traced, and trace records the caller appends between
        items keep their places. ``expected_bits`` gives each item's bit
        count. When the caller stops early and the iterator is closed or
        collected, the later responses are dropped unrecorded and untraced,
        and their calls are cancelled unless already started.
        """
        bits = [None] * len(variables) if expected_bits is None else expected_bits
        if len(bits) != len(variables):
            raise ValueError(f"{len(bits)} bit counts for {len(variables)} requests")
        requests = []
        for values in variables:
            system, user = get_template(kind).render(values)
            rendered = system + "\n\n" + user
            requests.append((system, user, rendered, canonical_key(kind, rendered)))
        futures = None
        if self._label != REPLAY:
            futures = [_POOL.submit(self._respond, kind, system, user, key)
                       for system, user, _, key in requests]
        return self._commit(kind, requests, futures, max_items, bits)

    def branches(self, tasks: list[Callable[["Gateway"], T]]) -> list[T]:
        """Run independent pieces of this case's work and return each one's
        result, in the order of ``tasks``; each task takes the gateway it
        must call through.

        A replay gateway, or one that is itself a branch's, runs the tasks
        one after another on this thread. Any other gateway runs each on the
        branch pool against a child gateway whose trace is its own, holding
        the task's record table writes (see ``jsonl.holding``). When every
        task has returned or raised, each one's trace records are spliced
        into this trace and its held rows written, in task order; the first
        task that raised stops the splicing, and its error is raised. The
        trace and the tables then hold what the tasks run one after another
        would have left, except that a row conflicting with an earlier one
        raises when it is written, after its task has finished.
        """
        if self._label == REPLAY or self._in_branch:
            return [task(self) for task in tasks]
        children = [Gateway(self.backend, Trace(self.trace.case_id)) for _ in tasks]
        for child in children:
            child._in_branch = True
        held: list[list] = [[] for _ in tasks]
        futures = [_BRANCHES.submit(_run_holding, task, child, rows)
                   for task, child, rows in zip(tasks, children, held)]
        wait(futures)
        results = []
        for child, rows, future in zip(children, held, futures):
            self.trace.splice(child.trace)
            write_held(rows)
            results.append(future.result())
        return results

    def _respond(self, kind: TaskKind, system: str, user: str, key: str) -> str:
        try:
            return self.backend.respond(kind, system, user, key)
        except EngineError:
            raise
        except Exception as exc:
            raise GatewayError(f"backend failure on task {kind.value!r}: {exc}") from exc

    def _commit(self, kind: TaskKind, requests: list[tuple[str, str, str, str]],
                futures: list[Future] | None, max_items: int | None,
                bits: list[int | None]) -> Iterator[object]:
        try:
            for i, (system, user, rendered, key) in enumerate(requests):
                response = (self._respond(kind, system, user, key) if futures is None
                            else futures[i].result())
                if self._record is not None:
                    self._record(kind, key, response)
                if not response.strip():
                    raise EmptyResponseError(f"empty response for task {kind.value!r}")
                self.trace.exchange(task=kind.value, canonical_key=key, prompt=rendered,
                                    response=response, backend=self._label)
                yield parse_judgment(kind, response, max_items=max_items,
                                     expected_bits=bits[i])
        finally:
            for future in futures or ():
                future.cancel()


def _run_holding(task: Callable[[Gateway], T], gateway: Gateway, held: list) -> T:
    with holding(held):
        return task(gateway)
