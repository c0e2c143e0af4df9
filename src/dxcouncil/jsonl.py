"""JSONL resource files: the one reader every loader uses (cases, corpus,
transcript, embedding and score tables), the one decoder of a file line
(``decode``, which trace files read through too), the one encoder of a
trace's canonical line (``encode_line``) and of any other row
(``encode_row``), the one sink every recorder writes through, and the one
writer of every output file (traces, ``results.jsonl``, ``summary.json`` and
``timings.jsonl``, each whole, from text or from bytes already encoded), so
the file dialect (strict JSON, RFC 8259: no NaN or infinity either way), row
format, error reporting and how a file is replaced are decided here once.

Code that runs beside other work of the same case (a gateway branch) holds
what it writes, table rows and trace records alike, in a list, and the case
commits the held writes afterwards, in the order the work would have run
one piece after another.
"""

from __future__ import annotations

import json
import os
import re
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, TextIO

import orjson

from .errors import ResourceError

# (write, item) of every write held in the current context, or None when
# writes are committed at once
_HELD: ContextVar[list | None] = ContextVar("dxcouncil_held_writes", default=None)

# built once: json.dumps with a non-default option builds a new encoder per
# call
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)
# a trace record's canonical line: sorted keys, no spaces, UTF-8
_CANONICAL = json.JSONEncoder(ensure_ascii=False, allow_nan=False, sort_keys=True,
                              separators=(",", ":"))
# the leaf types orjson writes as _CANONICAL does; it raises, and then
# _CANONICAL writes, on an int past 64 bits, a str holding a lone surrogate
# and a dict key that is not an exact str
_ATOMS = frozenset({str, int, bool, type(None)})

# orjson reads a nested value on the C stack, and the process dies when that
# overflows: a row 20,000 levels deep did on a 1 MiB thread stack, and one
# 150,000 deep on 8 MiB; 10,000 read on 1 MiB
_MAX_DEPTH = 10_000
# a JSON string, escapes included: a bracket inside one nests nothing
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')


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
    """The value of one strict JSON line (RFC 8259), as orjson reads it.

    orjson refuses what RFC 8259 leaves out and ``json.loads`` reads:
    ``NaN``, ``Infinity``, numbers that overflow to infinity, escapes of
    lone surrogates, a leading BOM. It reads an integer outside
    [-2**63, 2**64) as the float equal to it. Both checked on orjson 3.8,
    the series ``pyproject.toml`` allows. A line nested past ``_MAX_DEPTH``
    levels is refused before orjson reads it. Every refusal is a
    ``ValueError``."""
    # a line of n characters holds at most n brackets
    if len(line) > _MAX_DEPTH and _too_deep(line):
        raise ValueError(f"nested deeper than {_MAX_DEPTH} levels")
    return orjson.loads(line)


def _too_deep(line: str) -> bool:
    """Whether the brackets of ``line`` nest past ``_MAX_DEPTH`` levels
    outside its strings; counted only when it holds that many opening
    brackets."""
    if line.count("[") + line.count("{") <= _MAX_DEPTH:
        return False
    brackets = re.findall(r"[\[\]{}]", _STRING.sub("", line))
    return max(accumulate(1 if bracket in "[{" else -1 for bracket in brackets),
               default=0) > _MAX_DEPTH


def encode_row(row: Any, indent: int | None = None) -> str:
    """``row`` as ``json.dumps(row, ensure_ascii=False, indent=indent)``
    writes it, plus a newline: a table or results line, or with ``indent`` a
    document. A NaN or an infinity is a ``ValueError``."""
    if indent is None:
        return _ROW_ENCODER.encode(row) + "\n"
    return json.dumps(row, ensure_ascii=False, allow_nan=False, indent=indent) + "\n"


def encode_line(value: Any) -> bytes:
    """``_CANONICAL.encode(value)`` as UTF-8 bytes: the same bytes, or the
    same error type (a NaN or an infinity is a ``ValueError``).

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


def read_jsonl(source: str | Path | TextIO, parse: Callable[[dict], Any],
               what: str) -> Iterator[tuple[str, int, Any]]:
    """Yield ``(file name, line number, parse(row))`` for each non-blank
    line, each row read by ``decode``; a caller's own error about the row
    names it as ``file:line``, as this reader's errors do.

    A line ``decode`` refuses, and any ``ValueError``, ``KeyError`` or
    ``TypeError`` from ``parse`` (a row that is not an object raises
    ``TypeError`` at its first key lookup) raise
    ``ResourceError(file:line: ...)``.
    """
    name, lines = open_lines(source)
    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():  # the lines str.strip empties
            continue
        try:
            item = parse(decode(line))
        except (ValueError, KeyError, TypeError) as exc:
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

    The sink holds its lines, and ``close`` writes them once, through a new
    sibling temp file that it moves onto the table, so a sink that is never
    closed, or a process killed before it closes, leaves the table as it
    was. A table that cannot be created fails when the sink is made, with
    the ``OSError`` that creating the temp file raises. A write after
    ``close`` raises ``ValueError``; a second ``close`` does nothing.
    """

    def __init__(self, path: str | Path, conflict: Callable[[Any], Exception]):
        self._path = Path(path)
        self._tmp = self._path.with_name(f".{self._path.name}.{os.urandom(16).hex()}.tmp")
        open(self._tmp, "xb").close()
        os.unlink(self._tmp)
        self._conflict = conflict
        self._lines: dict[Hashable, str] | None = {}
        self._lock = threading.Lock()

    def write(self, rows: Iterable[tuple[Hashable, dict]]) -> None:
        self._write_lines([(key, encode_row(row)) for key, row in rows])

    def _write_lines(self, lines: list[tuple[Hashable, str]]) -> None:
        if hold(self._write_lines, lines):
            return
        with self._lock:
            if self._lines is None:
                raise ValueError(f"{self._path}: write after close")
            for key, line in lines:
                if self._lines.setdefault(key, line) != line:
                    raise self._conflict(key)

    def close(self) -> None:
        with self._lock:
            lines, self._lines = self._lines, None
            if lines is None:
                return
            try:
                with open(self._tmp, "x", encoding="utf-8") as fh:
                    fh.writelines(lines.values())
                os.replace(self._tmp, self._path)
            except BaseException:
                self._tmp.unlink(missing_ok=True)
                raise


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
