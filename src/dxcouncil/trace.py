"""Per-case diagnostic trace: an append-only, digest-stamped audit record.

Every model exchange, retrieval, path enumeration, prune batch, and
controller decision lands here with a gapless sequence number. The digest
covers a canonical serialization that excludes timestamps and the backend
label, so a record-mode run and its replay produce identical digests.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from .jsonl import write_whole

# Keys excluded from the canonical serialization the digest is computed over.
_VOLATILE_KEYS = ("ts", "backend")
# built once: json.dumps with any non-default option builds a new encoder
# per call
_CANONICAL = json.JSONEncoder(ensure_ascii=False, sort_keys=True,
                              separators=(",", ":"))
_VOLATILE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class Trace:
    """Ordered record store for one case run."""

    def __init__(self, case_id: str):
        self.case_id = case_id
        self._records: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._digest: str | None = None  # valid until the next append

    def _append(self, record: dict[str, Any]) -> dict[str, Any]:
        with self._lock:
            self._digest = None
            record["seq"] = len(self._records)
            record["ts"] = time.time()
            self._records.append(record)
            return record

    def splice(self, child: "Trace") -> None:
        """Append ``child``'s records after this trace's own, numbered on
        from this trace's last ``seq``; each keeps its ``ts``."""
        with self._lock:
            self._digest = None
            for record in child.records:
                self._records.append(dict(record, seq=len(self._records)))

    # -- typed appenders -----------------------------------------------------

    def exchange(self, task: str, canonical_key: str, prompt: str, response: str,
                 backend: str) -> dict[str, Any]:
        return self._append({
            "type": "exchange", "task": task, "key": canonical_key,
            "prompt": prompt, "response": response, "backend": backend,
        })

    def retrieval(self, query: str, dense: list[dict[str, Any]],
                  reranked: list[dict[str, Any]], k: int, n: int) -> dict[str, Any]:
        return self._append({
            "type": "retrieval", "query": query, "k": k, "n": n,
            "dense": dense, "reranked": reranked,
        })

    def paths(self, start: str, end: str, h_max: int,
              enumerated: list[list[list[str]]]) -> dict[str, Any]:
        return self._append({
            "type": "paths", "start": start, "end": end, "h_max": h_max,
            "count": len(enumerated), "paths": enumerated,
        })

    def prune_batch(self, batch_index: int, size: int, bits: list[int],
                    guideline_ids: list[str]) -> dict[str, Any]:
        return self._append({
            "type": "prune_batch", "batch_index": batch_index, "size": size,
            "bits": bits, "guideline_ids": guideline_ids,
        })

    def decision(self, decision: str, payload: dict[str, Any]) -> dict[str, Any]:
        return self._append({"type": "decision", "decision": decision, "payload": payload})

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

    # -- digest and persistence ---------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the canonical serialization, volatile keys excluded.

        Computed once and reused until the next record is appended.
        """
        with self._lock:
            if self._digest is None:
                self._digest = _digest_of(self.case_id,
                                          [_canonical_line(r) for r in self._records])
            return self._digest

    def write(self, path: str | Path) -> Path:
        """Write the trace to ``path`` as JSONL: header line, records, digest
        line.

        Each record is serialized once: its file line is the canonical line
        the digest hashes, with the volatile keys appended. The whole file
        is built first and written with one call (``jsonl.write_whole``),
        which replaces what an earlier run left at ``path`` and makes the
        parent directory if missing.
        """
        with self._lock:
            records = list(self._records)
            lines = [_canonical_line(r) for r in records]
            if self._digest is None:
                self._digest = _digest_of(self.case_id, lines)
            digest = self._digest
        return write_whole(path, "\n".join([
            json.dumps({"type": "header", "case_id": self.case_id}),
            *map(_with_volatile_keys, lines, records),
            json.dumps({"type": "digest", "digest": digest}),
            ""]))

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Rebuild a trace from file; tolerates a missing digest line
        (a crashed case leaves header + records only)."""
        trace: Trace | None = None
        stored_digest: str | None = None
        records: list[dict[str, Any]] = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("type") == "header":
                trace = cls(row["case_id"])
            elif row.get("type") == "digest":
                stored_digest = row["digest"]
            else:
                records.append(row)
        if trace is None:
            raise ValueError(f"{path} has no trace header line")
        records.sort(key=lambda r: r["seq"])
        trace._records = records
        if stored_digest is not None and trace.digest() != stored_digest:
            raise ValueError(f"{path}: stored digest does not match recomputed digest")
        return trace


def _canonical_line(record: dict[str, Any]) -> str:
    return _CANONICAL.encode(
        {k: v for k, v in record.items() if k not in _VOLATILE_KEYS})


def _digest_of(case_id: str, lines: list[str]) -> str:
    text = "\n".join([case_id, *lines]) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _with_volatile_keys(line: str, record: dict[str, Any]) -> str:
    """``line`` (a canonical JSON object) with the record's volatile keys
    added after its last key."""
    volatile = {k: record[k] for k in _VOLATILE_KEYS if k in record}
    if not volatile:
        return line
    return line[:-1] + "," + _VOLATILE.encode(volatile)[1:]


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
