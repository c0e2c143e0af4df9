"""Strict parsers from free-text model responses to typed payloads.

Each task kind declares one grammar. Anything outside it is a parse error
that quotes the offending span; nothing falls back to a silent default, so
model drift shows up as a visible failure instead of a wrong diagnosis.
"""

from __future__ import annotations

import json
import re

from .errors import DeliberationError, JudgmentParseError
from .templates import TaskKind

STANCES = ("S", "N", "O")
SUFFICIENCY = ("Suf", "Ins")

_INDEX = re.compile(r"^\d+$")


def _json_load(text: str, expect: type) -> object:
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise JudgmentParseError(f"response is not valid JSON: {getattr(exc, 'msg', exc)}",
                                 span=text) from exc
    if not isinstance(value, expect):
        raise JudgmentParseError(
            f"expected JSON {expect.__name__}, got {type(value).__name__}", span=text)
    return value


def _string_array(text: str) -> list[str]:
    items = _json_load(text, list)
    out: list[str] = []
    for item in items:
        if not isinstance(item, str):
            raise JudgmentParseError("array items must be strings", span=repr(item))
        if not item.strip():
            raise JudgmentParseError("array items must be non-empty", span=text)
        out.append(item)
    return out


def _parse_opinion(text: str) -> dict:
    obj = _json_load(text, dict)
    required = {"stance", "confidence", "sufficiency", "justification"}
    if set(obj) != required:
        raise JudgmentParseError(
            f"opinion object must have exactly keys {sorted(required)}, "
            f"got {sorted(obj)}", span=text)
    if obj["stance"] not in STANCES:
        raise JudgmentParseError(f"stance must be one of {STANCES}",
                                 span=repr(obj["stance"]))
    if obj["sufficiency"] not in SUFFICIENCY:
        raise JudgmentParseError(f"sufficiency must be one of {SUFFICIENCY}",
                                 span=repr(obj["sufficiency"]))
    conf = obj["confidence"]
    if isinstance(conf, bool) or not isinstance(conf, (int, float)):
        raise JudgmentParseError("confidence must be a number", span=repr(conf))
    if not 0 <= conf <= 1:  # before float(), which overflows on a huge int
        raise JudgmentParseError(f"confidence {conf} outside [0, 1]", span=repr(conf))
    just = obj["justification"]
    if not isinstance(just, str) or not just.strip():
        raise JudgmentParseError("justification must be a non-empty string",
                                 span=repr(just))
    return {"stance": obj["stance"], "confidence": float(conf),
            "sufficiency": obj["sufficiency"], "justification": just}


def _parse_report(text: str, with_diagnosis: bool) -> dict:
    obj = _json_load(text, dict)
    required = {"diagnosis", "report"} if with_diagnosis else {"report"}
    if set(obj) != required:
        raise JudgmentParseError(
            f"expected exactly keys {sorted(required)}, got {sorted(obj)}", span=text)
    for field in required:
        if not isinstance(obj[field], str) or not obj[field].strip():
            raise JudgmentParseError(f"{field!r} must be a non-empty string", span=text)
    return {k: obj[k] for k in sorted(required)}


def parse_judgment(kind: TaskKind, response_text: str,
                   variables: dict[str, str]) -> object:
    """Parse a response against its task's grammar and return its payload.

    ``variables`` are the values the prompt was rendered from; a bounded
    task reads its bound there, as the prompt states it: the differential
    size from ``k_max`` and the pruning bit count from ``path_count``.
    """
    text = response_text.strip()

    if kind is TaskKind.NER:
        return _string_array(text)

    if kind is TaskKind.ALIGN:
        if text == "NONE":
            return None
        if not _INDEX.match(text):
            raise JudgmentParseError("expected a candidate number or NONE", span=text)
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() converts
            raise JudgmentParseError(f"candidate number is not readable: {exc}",
                                     span=text) from exc

    if kind is TaskKind.HYPOTHESIZE:
        items = _string_array(text)
        k_max = int(variables["k_max"])
        if len(items) > k_max:
            raise JudgmentParseError(
                f"{len(items)} diagnoses exceed the maximum of {k_max}", span=text)
        return items

    if kind is TaskKind.VERBALIZE:
        if not text:
            raise JudgmentParseError("verbalization is empty", span=response_text)
        return text

    if kind is TaskKind.PRUNE:
        tokens = [t.strip() for t in text.split(",")]
        if any(t not in ("0", "1") for t in tokens):
            raise JudgmentParseError("expected comma-separated 0/1 digits", span=text)
        bits = tuple(int(t) for t in tokens)
        path_count = int(variables["path_count"])
        if len(bits) != path_count:
            raise JudgmentParseError(
                f"got {len(bits)} judgments for a batch of {path_count}", span=text)
        return bits

    if kind is TaskKind.ASSESS_COMPLEXITY:
        if text not in ("SIMPLE", "COMPLEX"):
            raise JudgmentParseError("expected SIMPLE or COMPLEX", span=text)
        return text

    if kind is TaskKind.DISPATCH:
        return _string_array(text)

    if kind is TaskKind.SPECIALIST_OPINION:
        return _parse_opinion(text)

    if kind is TaskKind.REFINE_QUERY:
        items = _string_array(text)
        if not items:
            raise DeliberationError("refinement produced no queries")
        if len(items) > 3:
            raise JudgmentParseError(
                f"{len(items)} refinement queries exceed the maximum of 3", span=text)
        return items

    if kind is TaskKind.INTERIM_CONSENSUS:
        return _parse_report(text, with_diagnosis=False)

    if kind in (TaskKind.FINAL_ADJUDICATE, TaskKind.GENERALIST_DIRECT):
        return _parse_report(text, with_diagnosis=True)

    raise JudgmentParseError(f"no grammar registered for task {kind!r}")

