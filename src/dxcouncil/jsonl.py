"""JSONL resource files: the one reader every loader uses (cases, corpus,
transcript, embedding and score tables) and the one sink every recorder
writes through, so row format and error reporting are decided here once."""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, TextIO


def open_lines(source: str | Path | TextIO) -> tuple[str, list[str]]:
    """The lines of a path or a text stream, with a name for error messages."""
    if hasattr(source, "read"):
        return str(getattr(source, "name", "<stream>")), source.read().splitlines()
    path = Path(source)
    return str(path), path.read_text(encoding="utf-8").splitlines()


def read_jsonl(source: str | Path | TextIO, parse: Callable[[dict], Any],
               error: Callable[[str], Exception], what: str) -> Iterator[tuple[str, Any]]:
    """Yield ``(location, parse(row))`` for each non-blank line.

    ``location`` is ``file:line``. Invalid JSON and any ``ValueError``,
    ``KeyError`` or ``TypeError`` from ``parse`` (which a row that is not an
    object raises at its first key lookup) raise ``error(location: ...)``.
    """
    name, lines = open_lines(source)
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        location = f"{name}:{line_no}"
        try:
            item = parse(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise error(f"{location}: bad {what} row: {exc}") from exc
        yield location, item


class JsonlSink:
    """Append-only JSONL table holding one line per distinct key.

    A repeated key with an identical row is skipped; with a different row it
    raises ``conflict(key)``, because a table holding two answers for one key
    could not replay the run that wrote it. Thread-safe; flushed per write.
    """

    def __init__(self, path: str | Path, conflict: Callable[[Any], Exception]):
        self._fh = open(path, "w", encoding="utf-8")
        self._conflict = conflict
        self._lines: dict[Hashable, str] = {}
        self._lock = threading.Lock()

    def write(self, rows: Iterable[tuple[Hashable, dict]]) -> None:
        with self._lock:
            for key, row in rows:
                line = json.dumps(row, ensure_ascii=False) + "\n"
                seen = self._lines.get(key)
                if seen is None:
                    self._lines[key] = line
                    self._fh.write(line)
                elif seen != line:
                    raise self._conflict(key)
            self._fh.flush()

    def close(self) -> None:
        self._fh.close()
