"""JSONL resource files: the one reader every loader uses (cases, corpus,
transcript, embedding and score tables), the one decoder of a file line
(``decode``, which trace files read through too, reading through orjson
wherever orjson reads the value ``json.loads`` reads), the one sink every
recorder writes through, and the one writer of every output file (traces,
``results.jsonl``, ``summary.json`` and ``timings.jsonl``, each whole, from
text or from bytes already encoded, as a trace's canonical lines are), so
row format, error reporting and how a file is replaced are decided here once.

Code that runs beside other work of the same case (a gateway branch) holds
what it writes, table rows and trace records alike, in a list, and the case
commits the held writes afterwards, in the order the work would have run
one piece after another.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, TextIO

import orjson

from .errors import ResourceError

# (write, item) of every write held in the current context, or None when
# writes are committed at once
_HELD: ContextVar[list | None] = ContextVar("dxcouncil_held_writes", default=None)

# built once: json.dumps with a non-default option builds a new encoder per
# call
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)

# orjson reads an integer literal outside [-2**63, 2**64) as a float, so a
# value holding a float of this magnitude or more is read by json.loads
# instead
_BIG = 2 ** 63
# and so is a row nested deeper than this: orjson reads any depth, while
# json.loads raises RecursionError at a depth its caller's stack decides
_DEPTH = 16
_NUMBERS = frozenset({int, float})


def open_lines(source: str | Path | TextIO) -> tuple[str, list[str]]:
    """The lines of a path or a text stream, with a name for error messages.
    Text that is not UTF-8 is a ``ResourceError`` naming the file."""
    stream = hasattr(source, "read")
    name = str(getattr(source, "name", "<stream>")) if stream else str(source)
    try:
        text = source.read() if stream else Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ResourceError(f"{name}: {exc}") from exc
    # not splitlines, which also splits at the U+2028, U+2029 and U+0085 JSON holds raw
    return name, text.split("\n")


def decode(line: str) -> Any:
    """``json.loads(line)``: the same value, or the same error at the same
    position.

    orjson reads the line first, and its value is kept when ``_plain``
    finds in it no float of magnitude ``_BIG`` or more and no nesting past
    ``_DEPTH`` levels. Whatever else orjson would read differently it
    refuses (checked on orjson 3.8, the series ``pyproject.toml`` allows):
    ``NaN``, ``Infinity``, numbers that overflow to infinity, escapes of
    lone surrogates, a leading BOM. A line orjson refuses, or whose value
    ``_plain`` refuses, is read by ``json.loads`` itself. Only near the
    recursion limit can the result differ from the caller's own
    ``json.loads``: that call runs a few calls deeper here, and orjson reads
    a row within ``_DEPTH`` levels whatever the stack."""
    try:
        value = orjson.loads(line)
        if _plain(value, _DEPTH):
            return value
    except (orjson.JSONDecodeError, RecursionError):
        pass
    return json.loads(line)


def _plain(value: Any, depth: int) -> bool:
    """Whether ``value`` holds no float of magnitude ``_BIG`` or more and no
    list or dict nested past ``depth`` levels. A list that starts with a
    number is checked whole by ``min`` and ``max`` (an int that large in it
    refuses it too): both succeed only when every item is a number, as a
    number compares with no other JSON value."""
    kind = type(value)
    if kind is float:
        return -_BIG < value < _BIG
    if kind is not dict and kind is not list:
        return True
    if depth == 0:
        return False
    if kind is list:
        if value and type(value[0]) in _NUMBERS:
            try:
                return -_BIG < min(value) and max(value) < _BIG
            except TypeError:  # not every item is a number
                pass
    else:
        value = value.values()
    for item in value:
        kind = type(item)
        if kind is float:
            if not -_BIG < item < _BIG:
                return False
        elif (kind is dict or kind is list) and not _plain(item, depth - 1):
            return False
    return True


def read_jsonl(source: str | Path | TextIO, parse: Callable[[dict], Any],
               what: str) -> Iterator[tuple[str, int, Any]]:
    """Yield ``(file name, line number, parse(row))`` for each non-blank
    line, each row read by ``decode``; a caller's own error about the row
    names it as ``file:line``, as this reader's errors do.

    Invalid JSON, JSON nested too deep for the parser, and any
    ``ValueError``, ``KeyError``, ``TypeError`` or ``OverflowError`` from
    ``parse`` (a row that is not an object raises ``TypeError`` at its first
    key lookup; ``float`` of a huge integer overflows) raise
    ``ResourceError(file:line: ...)``.
    """
    name, lines = open_lines(source)
    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():  # the lines str.strip empties
            continue
        try:
            item = parse(decode(line))
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ResourceError(f"{name}:{line_no}: bad {what} row: {exc}") from exc
        yield name, line_no, item


def text_field(row: dict, key: str) -> str:
    """``row[key]``, once it is a string that encodes as UTF-8: JSON can
    carry a lone surrogate, which no file, prompt hash or trace can then
    encode. Otherwise ``ValueError`` (``UnicodeEncodeError`` is one)."""
    value = row[key]
    if not isinstance(value, str):
        raise ValueError(f"{key!r} must be a string, got {type(value).__name__}")
    if not value.isascii():  # ASCII holds no surrogate, and costs no encode
        value.encode("utf-8")
    return value


def write_whole(path: str | Path, data: str | bytes) -> Path:
    """Write ``data``, bytes or text written as UTF-8, to ``path`` with one
    write, replacing what the file held. The parent directory is made only
    when it is missing, so a run's later files cost no directory check. Text
    that does not encode as UTF-8 raises before the file is opened, so the
    old file is left as it was."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        fh = open(path, "wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "wb")
    with fh:
        fh.write(data)
    return path


class JsonlSink:
    """Append-only JSONL table holding one line per distinct key.

    A repeated key with an identical row is skipped; with a different row it
    raises ``conflict(key)``, because a table holding two answers for one key
    could not replay the run that wrote it. Thread-safe. Each row is encoded
    when it is written; a write made inside ``holding`` is only held, as its
    encoded lines, and ``write_held`` writes them later, making the repeat
    check then.

    Rows go to a new sibling temp file, which ``close`` moves onto the table
    and ``discard`` deletes, so until then the table holds what it held
    before, and nothing reads the temp file: it is not flushed per write.
    Either call closes the sink; a later call does nothing.
    """

    def __init__(self, path: str | Path, conflict: Callable[[Any], Exception]):
        self._path = Path(path)
        self._tmp: Path | None = self._path.with_name(
            f".{self._path.name}.{os.urandom(16).hex()}.tmp")
        self._fh = open(self._tmp, "x", encoding="utf-8")
        self._conflict = conflict
        self._lines: dict[Hashable, str] = {}
        self._lock = threading.Lock()

    def write(self, rows: Iterable[tuple[Hashable, dict]]) -> None:
        self._write_lines([(key, _ROW_ENCODER.encode(row) + "\n") for key, row in rows])

    def _write_lines(self, lines: list[tuple[Hashable, str]]) -> None:
        if hold(self._write_lines, lines):
            return
        with self._lock:
            for key, line in lines:
                seen = self._lines.get(key)
                if seen is None:
                    self._lines[key] = line
                    self._fh.write(line)
                elif seen != line:
                    raise self._conflict(key)

    def close(self) -> None:
        self._end(lambda tmp: os.replace(tmp, self._path))

    def discard(self) -> None:
        self._end(os.unlink)

    def _end(self, settle: Callable[[Path], None]) -> None:
        with self._lock:
            tmp, self._tmp = self._tmp, None
            if tmp is not None:
                self._fh.close()
                settle(tmp)


@contextmanager
def holding(held: list) -> Iterator[None]:
    """Append every write made in this context on this thread to ``held``
    instead of committing it: sink rows and trace records alike."""
    token = _HELD.set(held)
    try:
        yield
    finally:
        _HELD.reset(token)


def hold(write: Callable[[Any], None], item: Any) -> bool:
    """Hold ``write(item)`` in the current ``holding`` list and return True,
    or return False when nothing holds writes here."""
    held = _HELD.get()
    if held is not None:
        held.append((write, item))
    return held is not None


def write_held(held: list) -> None:
    """Commit the writes held by ``holding``, in the order they were held;
    each goes back through ``hold``, so an outer ``holding`` holds it again."""
    for write, item in held:
        write(item)
