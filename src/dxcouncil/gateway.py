"""Single chokepoint for model calls, with live, record, and replay backends.

Every call renders its task's template, hashes the canonical form of the
prompt, dispatches it to the backend, appends the exchange to the case
trace, and parses the response. The canonical key is stable under
trailing-whitespace and line-ending drift, which is what lets a transcript
recorded on one machine replay anywhere.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

from .backends import post_json
from .errors import (
    DuplicateTranscriptKeyError,
    EmptyResponseError,
    EngineError,
    GatewayError,
    ReplayMissError,
    TranscriptError,
)
from .jsonl import JsonlSink, read_jsonl
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
    must not stall silently.
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
    """Wraps a backend and captures every (canonical_key, response) pair."""

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

    def complete(self, kind: TaskKind, variables: dict[str, str], *,
                 max_items: int | None = None,
                 expected_bits: int | None = None) -> object:
        """Run one model call and return ``parse_judgment``'s payload.

        The exchange is traced before its response is parsed, so a response
        that breaks its task's grammar is still in the trace.
        """
        system, user = get_template(kind).render(variables)
        rendered = system + "\n\n" + user
        key = canonical_key(kind, rendered)
        try:
            response = self.backend.respond(kind, system, user, key)
        except EngineError:
            raise
        except Exception as exc:
            raise GatewayError(f"backend failure on task {kind.value!r}: {exc}") from exc
        if not response.strip():
            raise EmptyResponseError(f"empty response for task {kind.value!r}")
        self.trace.exchange(task=kind.value, canonical_key=key, prompt=rendered,
                            response=response, backend=self.backend.label)
        return parse_judgment(kind, response, max_items=max_items,
                              expected_bits=expected_bits)
