"""Per-case diagnostic trace: an append-only, digest-stamped audit record.

Every model exchange, retrieval, path enumeration, prune batch, and
controller decision lands here with a gapless sequence number, given when
the record is committed (inside a gateway branch a record is held, like a
table row; see ``jsonl.holding``). A record holds only what the digest
covers, so a record-mode run and its replay write identical files; times
and backend labels go to the run's timing sidecar (``Trace.timings``).

A record's canonical line is what the stdlib encoder ``_CANONICAL`` writes
(sorted keys, no spaces, UTF-8). ``encode_line`` writes it, through orjson
wherever orjson writes the same bytes, so no digest depends on orjson.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

import orjson

from .jsonl import decode, hold, open_lines, write_whole

SUFFIX = ".trace.jsonl"  # ends a trace file's name, after its case id
# built once: json.dumps with a non-default option builds an encoder per call
_CANONICAL = json.JSONEncoder(ensure_ascii=False, sort_keys=True,
                              separators=(",", ":"))
# the leaf types orjson writes as _CANONICAL does; it raises, and then
# _CANONICAL writes, on an int past 64 bits, a str holding a lone surrogate
# and a dict key that is not an exact str
_ATOMS = frozenset({str, int, bool, type(None)})


def encode_line(value: Any) -> bytes:
    """``_CANONICAL.encode(value)`` as UTF-8 bytes: the same bytes, or the
    same error type.

    orjson writes the value when every part of it is an exact ``str``,
    ``int``, ``bool``, ``None``, a ``float`` that is zero or finite with
    magnitude in [1e-4, 1e16), a ``list``, a ``tuple``, or a ``dict`` with
    exact-``str`` keys. Outside that the two differ (orjson writes ``1e-05``
    as ``0.00001``, ``1e+16`` as ``1e16`` and NaN as ``null``), so the
    stdlib encoder writes the value, as it does when orjson raises. The
    range was measured on orjson 3.8, the series ``pyproject.toml`` allows.
    """
    try:
        if _agrees((value,)):
            return orjson.dumps(value, option=orjson.OPT_SORT_KEYS)
    except (orjson.JSONEncodeError, RecursionError):  # RecursionError: a circular value
        pass
    return _CANONICAL.encode(value).encode("utf-8")


def _agrees(items: Iterable[Any]) -> bool:
    """Whether each of ``items`` lies where orjson writes what ``_CANONICAL``
    writes (see ``encode_line``)."""
    for item in items:
        kind = type(item)
        if kind in _ATOMS:
            continue
        if kind is float:
            if not (item == 0.0 or 1e-4 <= abs(item) < 1e16):  # NaN fails both
                return False
        elif kind is dict:
            if not _agrees(item.values()):
                return False
        elif kind is list or kind is tuple:
            if not _agrees(item):
                return False
        else:
            return False
    return True


class Trace:
    """Ordered record store for one case run."""

    def __init__(self, case_id: str):
        self.case_id = case_id
        self._records: list[dict[str, Any]] = []
        # each record's time and backend label, by seq
        self._ts: list[float] = []
        self._backends: list[str | None] = []
        self._lock = threading.Lock()
        self._digest: str | None = None  # valid until the next commit

    def _append(self, record: dict[str, Any], backend: str | None = None) -> None:
        self._commit((record, time.time(), backend))

    def _commit(self, made: tuple[dict[str, Any], float, str | None]) -> None:
        if hold(self._commit, made):
            return
        record, ts, backend = made
        with self._lock:
            self._digest = None
            record["seq"] = len(self._records)
            self._records.append(record)
            self._ts.append(ts)
            self._backends.append(backend)

    # -- typed appenders -----------------------------------------------------

    def exchange(self, task: str, canonical_key: str, prompt: str, response: str,
                 backend: str) -> None:
        self._append({
            "type": "exchange", "task": task, "key": canonical_key,
            "prompt": prompt, "response": response,
        }, backend)

    def retrieval(self, query: str, dense: list[dict[str, Any]],
                  reranked: list[dict[str, Any]], k: int, n: int) -> None:
        self._append({
            "type": "retrieval", "query": query, "k": k, "n": n,
            "dense": dense, "reranked": reranked,
        })

    def paths(self, start: str, end: str, h_max: int,
              enumerated: list[list[list[str]]]) -> None:
        self._append({
            "type": "paths", "start": start, "end": end, "h_max": h_max,
            "count": len(enumerated), "paths": enumerated,
        })

    def prune_batch(self, batch_index: int, size: int, bits: list[int],
                    guideline_ids: list[str]) -> None:
        self._append({
            "type": "prune_batch", "batch_index": batch_index, "size": size,
            "bits": bits, "guideline_ids": guideline_ids,
        })

    def decision(self, decision: str, payload: dict[str, Any]) -> None:
        self._append({"type": "decision", "decision": decision, "payload": payload})

    # -- reading -------------------------------------------------------------

    @property
    def records(self) -> list[dict[str, Any]]:
        return list(self._records)

    def exchanges(self, task: str | None = None) -> list[dict[str, Any]]:
        return [r for r in self._records
                if r["type"] == "exchange" and (task is None or r["task"] == task)]

    def decisions(self, decision: str | None = None) -> list[dict[str, Any]]:
        return [r for r in self._records
                if r["type"] == "decision" and (decision is None or r["decision"] == decision)]

    def rendered_prompts(self) -> Iterator[str]:
        for record in self._records:
            if record["type"] == "exchange":
                yield record["prompt"]

    def timings(self) -> dict[str, Any]:
        """The trace's timing-sidecar line: by ``seq``, each record's time
        when made and backend label (null but for an exchange)."""
        with self._lock:
            return {"case_id": self.case_id, "ts": list(self._ts),
                    "backend": list(self._backends)}

    # -- digest and persistence ---------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the case id and the records' canonical lines,
        computed once and reused until the next record is committed."""
        with self._lock:
            if self._digest is None:
                self._digest = _digest_of(self.case_id, _body(self._records))
            return self._digest

    def write(self, path: str | Path) -> Path:
        """Write the trace to ``path`` as JSONL: header line, records, digest
        line.

        Each record is encoded once (``encode_line``), into one byte string
        of record lines that the digest hashes and the file holds. The whole
        file is built first and written with one call (``jsonl.write_whole``),
        which replaces what an earlier run left at ``path`` and makes the
        parent directory if missing.
        """
        with self._lock:
            body = _body(self._records)
            if self._digest is None:
                self._digest = _digest_of(self.case_id, body)
            digest = self._digest
        return write_whole(path, b"".join([
            json.dumps({"type": "header", "case_id": self.case_id}).encode(), b"\n",
            body,
            json.dumps({"type": "digest", "digest": digest}).encode(), b"\n"]))

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Rebuild a trace from file; tolerates a missing digest line
        (a crashed case leaves header + records only). A malformed line is
        a ``ValueError`` naming its ``file:line``, and so is a record whose
        ``seq`` is not its place among the records (a repeat or a gap), or
        that holds a ``ts`` or ``backend`` key, as records did in files
        written before the timing sidecar."""
        trace: Trace | None = None
        stored_digest: str | None = None
        records: list[dict[str, Any]] = []
        name, lines = open_lines(path)
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = decode(line)
                if not isinstance(row, dict):
                    raise ValueError("not a JSON object")
                if row.get("type") == "header":
                    trace = cls(row["case_id"])
                elif row.get("type") == "digest":
                    stored_digest = row["digest"]
                elif type(row.get("seq")) is int:
                    if row["seq"] != len(records):
                        raise ValueError(f"seq {row['seq']} where {len(records)} is due")
                    if "ts" in row or "backend" in row:
                        raise ValueError("a record holds no ts or backend key "
                                         "(they belong in timings.jsonl)")
                    records.append(row)
                else:
                    raise ValueError("a record needs an integer seq")
            except (ValueError, KeyError, RecursionError) as exc:
                raise ValueError(f"{name}:{line_no}: bad trace line: {exc}") from exc
        if trace is None:
            raise ValueError(f"{path} has no trace header line")
        trace._records = records
        if stored_digest is not None and trace.digest() != stored_digest:
            raise ValueError(f"{path}: stored digest does not match recomputed digest")
        return trace


def _body(records: list[dict[str, Any]]) -> bytes:
    """The records' canonical lines, each ended by a newline."""
    return b"\n".join([*map(encode_line, records), b""])


def _digest_of(case_id: str, body: bytes) -> str:
    digest = hashlib.sha256(case_id.encode("utf-8") + b"\n")
    digest.update(body)
    return digest.hexdigest()


def scan_for_leakage(trace: Trace, labels: list[str]) -> list[tuple[int, str]]:
    """Find rendered prompts containing any of the given ground-truth labels.

    Case-sensitive substring scan; returns (seq, label) pairs, empty when the
    trace is clean.
    """
    hits: list[tuple[int, str]] = []
    for record in trace.records:
        if record["type"] != "exchange":
            continue
        for label in labels:
            if label and label in record["prompt"]:
                hits.append((record["seq"], label))
    return hits
