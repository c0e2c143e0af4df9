"""Run configuration: YAML parsing, defaults, and field-level validation.

Relative paths resolve against the config file's own directory, so a config
can travel with its fixtures. Validation stops at the config's internal
consistency; whether the named files exist and parse is the loader's problem
at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
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


_SECTIONS = {"kg", "corpus", "cases", "backend", "params", "output"}
_KG_KEYS = {"concepts", "triples"}
_BACKEND_KEYS = {"mode", "endpoint", "chat_model", "embed_model", "rerank_model",
                 "transcript", "embeddings", "scores"}
_PARAM_KEYS = {"k", "n", "h_max", "k_max", "prune_batch", "tau_suff", "tau_high",
               "t_max", "roster", "max_specialists"}
_OUTPUT_KEYS = {"directory", "workers"}

_COUNT_FIELDS = ("k", "n", "h_max", "k_max", "prune_batch", "t_max",
                 "max_specialists", "workers")
_THRESHOLD_FIELDS = ("tau_suff", "tau_high")


def _section(doc: dict, name: str, allowed: set[str]) -> dict:
    value = doc.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, "must be a mapping")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(name, f"unknown keys {sorted(unknown)}")
    return value


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


def _require_str(section: dict, section_name: str, key: str) -> str:
    value = section.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ConfigError(f"{section_name}.{key}", "required non-empty string")
    return value


def _opt_path(section: dict, key: str, base: Path) -> Path | None:
    value = section.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value.strip():
        raise ConfigError(f"backend.{key}", "must be a non-empty string path")
    return _resolve(value, base)


def _resolve(value: str, base: Path) -> Path:
    path = Path(value)
    return path if path.is_absolute() else (base / path)


def _int_field(params: dict, key: str, default: int) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"params.{key}", f"must be an integer, got {value!r}")
    return value


def _float_field(params: dict, key: str, default: float) -> float:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"params.{key}", f"must be a number, got {value!r}")
    return float(value)


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
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise ConfigError("config", f"unknown sections {sorted(unknown)}")

    kg = _section(doc, "kg", _KG_KEYS)
    corpus = _section(doc, "corpus", {"path"})
    cases = _section(doc, "cases", {"path"})
    backend = _section(doc, "backend", _BACKEND_KEYS)
    params = _section(doc, "params", _PARAM_KEYS)
    output = _section(doc, "output", _OUTPUT_KEYS)

    concepts = _resolve(_require_str(kg, "kg", "concepts"), base)
    triples = _resolve(_require_str(kg, "kg", "triples"), base)
    corpus_path = _resolve(_require_str(corpus, "corpus", "path"), base)
    cases_path = _resolve(_require_str(cases, "cases", "path"), base)

    mode_raw = backend.get("mode", "replay")
    if not isinstance(mode_raw, str):
        raise ConfigError("backend.mode", "must be a string")
    try:
        mode = BackendMode(mode_raw.lower())
    except ValueError:
        raise ConfigError("backend.mode",
                          f"must be one of live, record, replay; got {mode_raw!r}")

    endpoint = backend.get("endpoint")
    if endpoint is not None and (not isinstance(endpoint, str) or not endpoint.strip()):
        raise ConfigError("backend.endpoint", "must be a non-empty string")
    transcript = _opt_path(backend, "transcript", base)
    embeddings = _opt_path(backend, "embeddings", base)
    scores = _opt_path(backend, "scores", base)

    for key in ("chat_model", "embed_model", "rerank_model"):
        value = backend.get(key)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"backend.{key}", "must be a string")

    if mode is BackendMode.REPLAY:
        for key, value in (("transcript", transcript), ("embeddings", embeddings),
                           ("scores", scores)):
            if value is None:
                raise ConfigError(f"backend.{key}", "required in replay mode")
    else:
        if endpoint is None:
            raise ConfigError("backend.endpoint",
                              f"required in {mode.value} mode")
        if mode is BackendMode.RECORD:
            for key, value in (("transcript", transcript),
                               ("embeddings", embeddings), ("scores", scores)):
                if value is None:
                    raise ConfigError(f"backend.{key}",
                                      "required in record mode (output path)")

    counts = {key: _int_field(params, key, getattr(RunConfig, key))
              for key in _COUNT_FIELDS if key != "workers"}
    for key, value in counts.items():
        if value < 1:
            raise ConfigError(f"params.{key}", f"must be >= 1, got {value}")

    thresholds = {key: _float_field(params, key, getattr(RunConfig, key))
                  for key in _THRESHOLD_FIELDS}
    for key, value in thresholds.items():
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"params.{key}", f"must be in [0, 1], got {value}")

    roster_raw = params.get("roster", list(DEFAULT_ROSTER))
    if (not isinstance(roster_raw, list) or not roster_raw
            or not all(isinstance(r, str) and r.strip() for r in roster_raw)):
        raise ConfigError("params.roster", "must be a non-empty list of names")
    if len(set(roster_raw)) != len(roster_raw):
        raise ConfigError("params.roster", "names must be distinct")

    directory = output.get("directory", "runs")
    if not isinstance(directory, str) or not directory.strip():
        raise ConfigError("output.directory", "must be a non-empty string")
    workers = output.get("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError("output.workers", f"must be an integer >= 1, got {workers!r}")

    return RunConfig(
        concepts_path=concepts,
        triples_path=triples,
        corpus_path=corpus_path,
        cases_path=cases_path,
        mode=mode,
        output_dir=_resolve(directory, base),
        endpoint=endpoint,
        chat_model=backend.get("chat_model"),
        embed_model=backend.get("embed_model"),
        rerank_model=backend.get("rerank_model"),
        transcript_path=transcript,
        embeddings_path=embeddings,
        scores_path=scores,
        tau_suff=thresholds["tau_suff"],
        tau_high=thresholds["tau_high"],
        roster=tuple(roster_raw),
        workers=workers,
        **counts,
    )
