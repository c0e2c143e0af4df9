"""JSONL resource files: the one reader every loader uses (cases, corpus,
transcript, embedding and score tables), the one sink every recorder
writes through, and the one writer of each whole output file (traces,
``results.jsonl``, ``summary.json``), so row format, error reporting and
how a file is replaced are decided here once.

Code that runs beside other work of the same case (a gateway branch) holds
its sink writes in a list instead of writing them, and the case writes the
held rows afterwards, in the order the work would have run one piece after
another.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, TextIO

from .errors import ResourceError

# (sink, rows) of every write held in the current context, or None when
# writes go straight to their files
_HELD: ContextVar[list | None] = ContextVar("dxcouncil_held_rows", default=None)


def open_lines(source: str | Path | TextIO) -> tuple[str, list[str]]:
    """The lines of a path or a text stream, with a name for error messages.
    Text that is not UTF-8 is a ``ResourceError`` naming the file."""
    stream = hasattr(source, "read")
    name = str(getattr(source, "name", "<stream>")) if stream else str(source)
    try:
        text = source.read() if stream else Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ResourceError(f"{name}: {exc}") from exc
    return name, text.splitlines()


def read_jsonl(source: str | Path | TextIO, parse: Callable[[dict], Any],
               what: str) -> Iterator[tuple[str, Any]]:
    """Yield ``(location, parse(row))`` for each non-blank line.

    ``location`` is ``file:line``. Invalid JSON and any ``ValueError``,
    ``KeyError`` or ``TypeError`` from ``parse`` (which a row that is not an
    object raises at its first key lookup) raise ``ResourceError(location:
    ...)``.
    """
    name, lines = open_lines(source)
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        location = f"{name}:{line_no}"
        try:
            item = parse(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ResourceError(f"{location}: bad {what} row: {exc}") from exc
        yield location, item


def text_field(row: dict, key: str) -> str:
    """``row[key]``, once it is a string that encodes as UTF-8: JSON can
    carry a lone surrogate, which no file, prompt hash or trace can then
    encode. Otherwise ``ValueError`` (``UnicodeEncodeError`` is one)."""
    value = row[key]
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string, got {type(value).__name__}")
    value.encode("utf-8")
    return value


def write_whole(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` with one write, replacing what the file
    held. The parent directory is made if missing. Text that does not
    encode as UTF-8 raises before the file is opened, so the old file is
    left as it was."""
    path = Path(path)
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


class JsonlSink:
    """Append-only JSONL table holding one line per distinct key.

    A repeated key with an identical row is skipped; with a different row it
    raises ``conflict(key)``, because a table holding two answers for one key
    could not replay the run that wrote it. Thread-safe; flushed per write.
    A write made inside ``holding`` is only held; ``write_held`` writes it
    later, and makes its repeat check then.
    """

    def __init__(self, path: str | Path, conflict: Callable[[Any], Exception]):
        self._fh = open(path, "w", encoding="utf-8")
        self._conflict = conflict
        self._lines: dict[Hashable, str] = {}
        self._lock = threading.Lock()

    def write(self, rows: Iterable[tuple[Hashable, dict]]) -> None:
        held = _HELD.get()
        if held is not None:
            held.append((self, list(rows)))
            return
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


@contextmanager
def holding(held: list) -> Iterator[None]:
    """Append every ``JsonlSink.write`` made in this context on this thread
    to ``held`` instead of writing it."""
    token = _HELD.set(held)
    try:
        yield
    finally:
        _HELD.reset(token)


def write_held(held: list) -> None:
    """Write rows held by ``holding``, in the order they were held."""
    for sink, rows in held:
        sink.write(rows)
