"""Run configuration: YAML parsing, defaults, and field-level validation.

Relative paths resolve against the config file's own directory, so a config
can travel with its fixtures. Validation stops at the config's internal
consistency; whether the named files exist and parse is the loader's problem
at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import yaml

from .deliberation import DEFAULT_ROSTER, MAX_SPECIALISTS, T_MAX, TAU_HIGH, TAU_SUFF
from .errors import ConfigError


class BackendMode(Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


@dataclass(frozen=True)
class RunConfig:
    concepts_path: Path
    triples_path: Path
    corpus_path: Path
    cases_path: Path
    mode: BackendMode
    output_dir: Path
    endpoint: str | None = None
    chat_model: str | None = None
    embed_model: str | None = None
    rerank_model: str | None = None
    transcript_path: Path | None = None
    embeddings_path: Path | None = None
    scores_path: Path | None = None
    k: int = 8
    n: int = 4
    h_max: int = 3
    k_max: int = 4
    prune_batch: int = 8
    tau_suff: float = TAU_SUFF
    tau_high: float = TAU_HIGH
    t_max: int = T_MAX
    roster: tuple[str, ...] = DEFAULT_ROSTER
    max_specialists: int = MAX_SPECIALISTS
    workers: int = 1


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


def _model(value: object, base: Path) -> str | None:
    if value is not None and not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


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
    if (not isinstance(value, list) or not value
            or not all(isinstance(name, str) and name.strip() for name in value)
            or len(set(value)) != len(value)):
        raise ValueError(f"must be a non-empty list of distinct names, got {value!r}")
    return tuple(value)


# section.key -> (RunConfig field, reader[, YAML value when absent]). A reader
# takes the YAML value and the config's directory and returns the field's
# value, or raises ValueError with the message of the key's ConfigError.
# Without a third item an absent key reads as the field's default, or None
# when the field has none. Table order is check order: the first fault found
# is the one named.
_SCHEMA = {
    "kg.concepts": ("concepts_path", _path),
    "kg.triples": ("triples_path", _path),
    "corpus.path": ("corpus_path", _path),
    "cases.path": ("cases_path", _path),
    "backend.mode": ("mode", _mode, "replay"),
    "backend.endpoint": ("endpoint", _text),
    "backend.transcript": ("transcript_path", _opt_path),
    "backend.embeddings": ("embeddings_path", _opt_path),
    "backend.scores": ("scores_path", _opt_path),
    "backend.chat_model": ("chat_model", _model),
    "backend.embed_model": ("embed_model", _model),
    "backend.rerank_model": ("rerank_model", _model),
    "params.k": ("k", _count),
    "params.n": ("n", _count),
    "params.h_max": ("h_max", _count),
    "params.k_max": ("k_max", _count),
    "params.prune_batch": ("prune_batch", _count),
    "params.t_max": ("t_max", _count),
    "params.max_specialists": ("max_specialists", _count),
    "params.tau_suff": ("tau_suff", _fraction),
    "params.tau_high": ("tau_high", _fraction),
    "params.roster": ("roster", _roster, list(DEFAULT_ROSTER)),
    "output.directory": ("output_dir", _path, "runs"),
    "output.workers": ("workers", _count),
}
_SECTIONS = dict.fromkeys(name.split(".")[0] for name in _SCHEMA)

# The keys each mode needs set, in the order they are checked.
_TABLES = ("backend.transcript", "backend.embeddings", "backend.scores")
_NEEDS = {BackendMode.LIVE: ("backend.endpoint",),
          BackendMode.RECORD: ("backend.endpoint", *_TABLES), BackendMode.REPLAY: _TABLES}


def _check_needs(fields: dict) -> None:
    for name in _NEEDS[fields["mode"]]:
        if fields[_SCHEMA[name][0]] is None:
            raise ConfigError(name, f"required in {fields['mode'].value} mode")


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
        unknown = {key for key in section if f"{name}.{key}" not in _SCHEMA}
        if unknown:
            raise ConfigError(name, f"unknown keys {sorted(unknown, key=str)}")

    fields: dict = {}
    for name, (field, read, *absent) in _SCHEMA.items():
        if name == "params.k":  # the mode's needs rank after the backend keys, before params
            _check_needs(fields)
        section, key = name.split(".")
        value = sections[section].get(key, absent[0] if absent
                                      else getattr(RunConfig, field, None))
        try:
            fields[field] = read(value, base)
        except ValueError as exc:
            raise ConfigError(name, str(exc)) from None
    return RunConfig(**fields)
