"""Run configuration: YAML parsing, defaults, and field-level validation.

``RunConfig`` declares each run setting once: its field carries the YAML
``section.key``, the reader that checks and converts the value, and the one
default any module gives the setting.

Relative paths resolve against the config file's own directory, so a config
can travel with its fixtures. Validation stops at the config's internal
consistency; whether the named files exist and parse is the loader's problem
at run time.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable

import yaml

from .errors import ConfigError


class BackendMode(Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


def _check_text(value: object, field: str) -> None:
    """Raise ``ConfigError(field)`` unless every string in ``value``, mapping
    keys included, encodes as UTF-8: a double-quoted YAML ``"\\ud800"``
    escape yields a lone surrogate, which no prompt hash, file or trace can
    encode later."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigError(field,
                              f"must be text that encodes as UTF-8: {exc}") from exc
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_text(key, field)
            _check_text(item, str(key) if field == "config" else f"{field}.{key}")
    elif isinstance(value, list):
        for item in value:
            _check_text(item, field)


def _text(value: object, base: Path) -> str | None:
    if value is not None and (not isinstance(value, str) or not value.strip()):
        raise ValueError(f"must be a non-empty string, got {value!r}")
    return value


def _opt_path(value: object, base: Path) -> Path | None:
    return None if value is None else base / _text(value, base)


def _path(value: object, base: Path) -> Path:
    if value is None:
        raise ValueError("required non-empty string")
    return _opt_path(value, base)


def _model(value: object, base: Path) -> str:
    if value is None:
        raise ValueError("must be a non-empty string, got None")
    return _text(value, base)


def _mode(value: object, base: Path) -> BackendMode:
    try:
        return BackendMode(str.lower(value))
    except (TypeError, ValueError):
        raise ValueError(f"must be one of live, record, replay; got {value!r}") from None


def _count(value: object, base: Path) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"must be an integer >= 1, got {value!r}")
    return value


def _fraction(value: object, base: Path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ValueError(f"must be a number in [0, 1], got {value!r}")
    return float(value)


def _roster(value: object, base: Path) -> tuple[str, ...]:
    if (not isinstance(value, (list, tuple)) or not value
            or not all(isinstance(name, str) and name.strip() for name in value)
            or len(set(value)) != len(value)):
        raise ValueError(f"must be a non-empty list of distinct names, got {value!r}")
    return tuple(value)


def _setting(key: str, read: Callable[[object, Path], object], default: object = MISSING,
             *, absent: object = None):
    """A ``RunConfig`` field set by the YAML ``section.key`` ``key``. ``read``
    takes the YAML value and the config's directory and returns the field's
    value, or raises ValueError with the message of the key's ConfigError. An
    absent key reads as ``default``, or as ``absent`` when the field has no
    default."""
    return field(default=default, metadata={
        "key": key, "read": read, "absent": absent if default is MISSING else default})


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """One run's settings, each declared once with its YAML key. Field order
    is check order: the first fault found is the one named."""

    concepts_path: Path = _setting("kg.concepts", _path)
    triples_path: Path = _setting("kg.triples", _path)
    corpus_path: Path = _setting("corpus.path", _path)
    cases_path: Path = _setting("cases.path", _path)
    mode: BackendMode = _setting("backend.mode", _mode, absent="replay")
    endpoint: str | None = _setting("backend.endpoint", _text, None)
    transcript_path: Path | None = _setting("backend.transcript", _opt_path, None)
    embeddings_path: Path | None = _setting("backend.embeddings", _opt_path, None)
    scores_path: Path | None = _setting("backend.scores", _opt_path, None)
    chat_model: str = _setting("backend.chat_model", _model, "default")
    embed_model: str = _setting("backend.embed_model", _model, "default")
    rerank_model: str = _setting("backend.rerank_model", _model, "default")
    k: int = _setting("params.k", _count, 8)
    n: int = _setting("params.n", _count, 4)
    h_max: int = _setting("params.h_max", _count, 3)
    k_max: int = _setting("params.k_max", _count, 4)
    prune_batch: int = _setting("params.prune_batch", _count, 8)
    t_max: int = _setting("params.t_max", _count, 3)
    max_specialists: int = _setting("params.max_specialists", _count, 4)
    tau_suff: float = _setting("params.tau_suff", _fraction, 0.5)
    tau_high: float = _setting("params.tau_high", _fraction, 0.9)
    roster: tuple[str, ...] = _setting("params.roster", _roster, (
        "Hepatology", "Oncology", "Immunology", "Infectious Disease", "Gastroenterology",
        "Nephrology", "Dermatology", "Hematology"))
    output_dir: Path = _setting("output.directory", _path, absent="runs")
    workers: int = _setting("output.workers", _count, 1)


_KEYS = {setting.name: setting.metadata["key"] for setting in fields(RunConfig)}
_SECTIONS = dict.fromkeys(key.split(".")[0] for key in _KEYS.values())

# The fields each mode needs set, in the order they are checked.
_TABLES = ("transcript_path", "embeddings_path", "scores_path")
_NEEDS = {BackendMode.LIVE: ("endpoint",),
          BackendMode.RECORD: ("endpoint", *_TABLES), BackendMode.REPLAY: _TABLES}


def _check_needs(values: dict) -> None:
    for name in _NEEDS[values["mode"]]:
        if values[name] is None:
            raise ConfigError(_KEYS[name], f"required in {values['mode'].value} mode")


def as_record(config: RunConfig) -> RunConfig:
    """``config`` with the backend in record mode, once it sets what record
    mode needs; otherwise ``ConfigError`` naming the first key missing."""
    config = replace(config, mode=BackendMode.RECORD)
    _check_needs(vars(config))
    return config


def validate_config(source: str | Path | dict, base_dir: Path | None = None) -> RunConfig:
    """Parse and validate a config document.

    source may be a path to a YAML file or an already-parsed mapping; in the
    latter case base_dir anchors relative paths (default: cwd).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        base = path.parent.resolve()
        try:
            doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError("config", f"invalid YAML: {exc}") from exc
    else:
        doc = source
        base = (base_dir or Path.cwd()).resolve()
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be a mapping")
    _check_text(doc, "config")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError("config", f"unknown sections {sorted(unknown, key=str)}")
    sections = {}
    for name in _SECTIONS:
        section = sections[name] = {} if doc.get(name) is None else doc[name]
        if not isinstance(section, dict):
            raise ConfigError(name, "must be a mapping")
        unknown = {key for key in section if f"{name}.{key}" not in _KEYS.values()}
        if unknown:
            raise ConfigError(name, f"unknown keys {sorted(unknown, key=str)}")

    values: dict = {}
    for setting in fields(RunConfig):
        if setting.name == "k":  # the mode's needs rank after the backend keys, before params
            _check_needs(values)
        name, read, absent = (setting.metadata[item] for item in ("key", "read", "absent"))
        section, key = name.split(".")
        try:
            values[setting.name] = read(sections[section].get(key, absent), base)
        except ValueError as exc:
            raise ConfigError(name, str(exc)) from None
    return RunConfig(**values)
