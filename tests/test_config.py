"""Run-configuration parsing, defaults, and validation."""

from __future__ import annotations

import re
from dataclasses import fields

import pytest
import yaml

from dxcouncil.config import BackendMode, RunConfig, validate_config
from dxcouncil.errors import ConfigError

from conftest import FIXTURES

MINIMAL_REPLAY = {
    "kg": {"concepts": "concepts.tsv", "triples": "triples.tsv"},
    "corpus": {"path": "guidelines.jsonl"},
    "cases": {"path": "cases.jsonl"},
    "backend": {"mode": "replay", "transcript": "t.jsonl",
                "embeddings": "e.jsonl", "scores": "s.jsonl"},
}


def write_config(tmp_path, doc):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_minimal_replay_config_gets_all_defaults(tmp_path):
    config = validate_config(write_config(tmp_path, MINIMAL_REPLAY))
    assert config.mode is BackendMode.REPLAY
    assert (config.k, config.n, config.h_max, config.k_max) == (8, 4, 3, 4)
    assert config.prune_batch == 8
    assert (config.tau_suff, config.tau_high) == (0.5, 0.9)
    assert config.t_max == 3
    assert config.max_specialists == 4
    assert config.roster == RunConfig.roster
    assert config.workers == 1
    assert config.endpoint is None


def test_relative_paths_resolve_against_the_config_directory(tmp_path):
    config = validate_config(write_config(tmp_path, MINIMAL_REPLAY))
    assert config.concepts_path == tmp_path / "concepts.tsv"
    assert config.transcript_path == tmp_path / "t.jsonl"
    assert config.output_dir == tmp_path / "runs"


def test_absolute_paths_kept_as_given(tmp_path):
    doc = dict(MINIMAL_REPLAY,
               kg={"concepts": "/abs/concepts.tsv", "triples": "triples.tsv"})
    config = validate_config(write_config(tmp_path, doc))
    assert str(config.concepts_path) == "/abs/concepts.tsv"


def test_mapping_source_with_explicit_base(tmp_path):
    config = validate_config(MINIMAL_REPLAY, base_dir=tmp_path)
    assert config.cases_path == tmp_path / "cases.jsonl"


def test_threshold_out_of_range_rejected(tmp_path):
    doc = dict(MINIMAL_REPLAY, params={"tau_high": 1.5})
    with pytest.raises(ConfigError) as exc:
        validate_config(write_config(tmp_path, doc))
    assert exc.value.field == "params.tau_high"
    doc = dict(MINIMAL_REPLAY, params={"tau_suff": -0.2})
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))


def test_count_fields_must_be_positive_integers(tmp_path):
    for bad in ({"k": 0}, {"t_max": -1}, {"h_max": "three"}, {"n": True}):
        doc = dict(MINIMAL_REPLAY, params=bad)
        with pytest.raises(ConfigError):
            validate_config(write_config(tmp_path, doc))


def test_live_mode_requires_an_endpoint(tmp_path):
    doc = dict(MINIMAL_REPLAY, backend={"mode": "live"})
    with pytest.raises(ConfigError) as exc:
        validate_config(write_config(tmp_path, doc))
    assert exc.value.field == "backend.endpoint"


def test_replay_mode_requires_all_three_tables(tmp_path):
    for missing in ("transcript", "embeddings", "scores"):
        backend = dict(MINIMAL_REPLAY["backend"])
        del backend[missing]
        doc = dict(MINIMAL_REPLAY, backend=backend)
        with pytest.raises(ConfigError) as exc:
            validate_config(write_config(tmp_path, doc))
        assert exc.value.field == f"backend.{missing}"


def test_record_mode_requires_endpoint_and_sinks(tmp_path):
    doc = dict(MINIMAL_REPLAY, backend={"mode": "record",
                                        "endpoint": "http://localhost:9"})
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))
    doc["backend"].update({"transcript": "t.jsonl", "embeddings": "e.jsonl",
                           "scores": "s.jsonl"})
    config = validate_config(write_config(tmp_path, doc))
    assert config.mode is BackendMode.RECORD


def test_unknown_sections_and_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, dict(MINIMAL_REPLAY, extra={})))
    doc = dict(MINIMAL_REPLAY, params={"mystery_knob": 3})
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))
    doc = dict(MINIMAL_REPLAY, kg={"concepts": "c", "triples": "t", "bonus": "x"})
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))


def test_unknown_keys_that_are_not_all_strings_are_named(tmp_path):
    # YAML reads `1:` as an integer key, which does not sort beside a string
    doc = dict(MINIMAL_REPLAY, params={1: 2, "bonus": 3})
    with pytest.raises(ConfigError, match=r"^params: unknown keys \[1, 'bonus'\]$"):
        validate_config(write_config(tmp_path, doc))
    doc = dict(MINIMAL_REPLAY, extra={})
    doc[2] = {}
    with pytest.raises(ConfigError, match=r"^config: unknown sections \[2, 'extra'\]$"):
        validate_config(doc, base_dir=tmp_path)


def test_bad_mode_and_bad_top_level(tmp_path):
    doc = dict(MINIMAL_REPLAY, backend=dict(MINIMAL_REPLAY["backend"],
                                            mode="offline"))
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))
    path = tmp_path / "list.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError):
        validate_config(path)
    with pytest.raises(ConfigError):
        validate_config(tmp_path / "missing.yaml")


def test_roster_validation(tmp_path):
    doc = dict(MINIMAL_REPLAY, params={"roster": []})
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))
    doc = dict(MINIMAL_REPLAY, params={"roster": ["Hepatology", "Hepatology"]})
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))
    doc = dict(MINIMAL_REPLAY, params={"roster": ["Hepatology", "Oncology"]})
    config = validate_config(write_config(tmp_path, doc))
    assert config.roster == ("Hepatology", "Oncology")


def test_workers_validation(tmp_path):
    doc = dict(MINIMAL_REPLAY, output={"workers": 0})
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, doc))
    doc = dict(MINIMAL_REPLAY, output={"workers": 4, "directory": "out"})
    config = validate_config(write_config(tmp_path, doc))
    assert config.workers == 4
    assert config.output_dir == tmp_path / "out"


def test_missing_required_resource_paths(tmp_path):
    doc = {"kg": {"concepts": "c.tsv"}, "corpus": {"path": "g.jsonl"},
           "cases": {"path": "c.jsonl"},
           "backend": MINIMAL_REPLAY["backend"]}
    with pytest.raises(ConfigError) as exc:
        validate_config(write_config(tmp_path, doc))
    assert exc.value.field == "kg.triples"


def test_shipped_replay_config_validates():
    config = validate_config(FIXTURES / "replay_config.yaml")
    assert config.mode is BackendMode.REPLAY
    assert config.concepts_path.exists()
    assert config.transcript_path.exists()
    assert config.cases_path.exists()


@pytest.mark.parametrize("section,key,value,field", [
    ("params", "roster", ["Hepatology\ud800", "Oncology"], "params.roster"),
    ("backend", "chat_model", "m\ud800", "backend.chat_model"),
    ("backend", "transcript", "t\udfff.jsonl", "backend.transcript"),
    ("kg", "concepts", "c\ud800.tsv", "kg.concepts"),
    ("output", "directory", "out\ud800", "output.directory"),
    ("output", "bonus\ud800", "x", "output"),
], ids=["roster", "model", "table-path", "kg-path", "output-dir", "key"])
def test_a_string_that_is_not_encodable_text_names_its_field(tmp_path, section, key,
                                                             value, field):
    doc = {name: dict(part) for name, part in MINIMAL_REPLAY.items()}
    doc.setdefault(section, {})[key] = value
    path = write_config(tmp_path, doc)
    assert "\\uD" in path.read_text()  # YAML's double-quoted escape
    for source in (path, doc):
        with pytest.raises(ConfigError, match=(
                f"^{re.escape(field)}: must be text that encodes as UTF-8: 'utf-8' "
                r"codec can't encode character '\\ud[89a-f][0-9a-f]{2}' in position "
                r"\d+: surrogates not allowed$")) as exc:
            validate_config(source)
        assert exc.value.field == field


REJECTED = object()  # the outcome "ConfigError naming this key"
DEFAULT = object()  # the outcome "RunConfig's own default for the field"
ABSENT = object()  # the input "key left out"


class Rel(str):
    """A path outcome: this name resolved against the config's directory."""


# Each kind of key: the wrong-typed, out-of-range and valid input it is tried
# with, then its outcome for: absent, null, "", " ", wrong type, True, 0, -1,
# out of range, valid.
R = REJECTED
KINDS = {
    "required-path": ((["x"], "x\ud800", "x.tsv"),
                      (R, R, R, R, R, R, R, R, R, Rel("x.tsv"))),
    "replay-table": ((["x"], "x\ud800", "x.jsonl"),
                     (R, R, R, R, R, R, R, R, R, Rel("x.jsonl"))),
    "endpoint": ((["x"], "x\ud800", "http://localhost:9"),
                 (None, None, R, R, R, R, R, R, R, "http://localhost:9")),
    "model": ((["x"], "m\ud800", "m"),
              (DEFAULT, R, R, R, R, R, R, R, R, "m")),
    "mode": ((["replay"], "offline", "REPLAY"),
             (BackendMode.REPLAY, R, R, R, R, R, R, R, R, BackendMode.REPLAY)),
    "count": (("3", 1.5, 5),
              (DEFAULT, R, R, R, R, R, R, R, R, 5)),
    "fraction": (("0.5", 1.5, 0.25),
                 (DEFAULT, R, R, R, R, R, 0.0, R, R, 0.25)),
    "roster": (("Hepatology", ["Oncology", "Oncology"], ["Oncology", "Hepatology"]),
               (DEFAULT, R, R, R, R, R, R, R, R, ("Oncology", "Hepatology"))),
    "directory": ((["x"], "x\ud800", "out"),
                  (Rel("runs"), R, R, R, R, R, R, R, R, Rel("out"))),
}
KEYS = {  # section.key -> (RunConfig field, kind), with MINIMAL_REPLAY as the base
    "kg.concepts": ("concepts_path", "required-path"),
    "kg.triples": ("triples_path", "required-path"),
    "corpus.path": ("corpus_path", "required-path"),
    "cases.path": ("cases_path", "required-path"),
    "backend.mode": ("mode", "mode"),
    "backend.endpoint": ("endpoint", "endpoint"),
    "backend.chat_model": ("chat_model", "model"),
    "backend.embed_model": ("embed_model", "model"),
    "backend.rerank_model": ("rerank_model", "model"),
    "backend.transcript": ("transcript_path", "replay-table"),
    "backend.embeddings": ("embeddings_path", "replay-table"),
    "backend.scores": ("scores_path", "replay-table"),
    "params.k": ("k", "count"),
    "params.n": ("n", "count"),
    "params.h_max": ("h_max", "count"),
    "params.k_max": ("k_max", "count"),
    "params.prune_batch": ("prune_batch", "count"),
    "params.tau_suff": ("tau_suff", "fraction"),
    "params.tau_high": ("tau_high", "fraction"),
    "params.t_max": ("t_max", "count"),
    "params.roster": ("roster", "roster"),
    "params.max_specialists": ("max_specialists", "count"),
    "output.directory": ("output_dir", "directory"),
    "output.workers": ("workers", "count"),
}
INPUTS = ("absent", "null", "empty", "blank", "wrong-type", "true", "zero", "minus-one",
          "out-of-range", "valid")


def key_cases():
    for name, (field, kind) in KEYS.items():
        (wrong, out_of_range, valid), outcomes = KINDS[kind]
        values = (ABSENT, None, "", " ", wrong, True, 0, -1, out_of_range, valid)
        for label, value, outcome in zip(INPUTS, values, outcomes):
            yield pytest.param(name, field, value, outcome, id=f"{name}-{label}")


@pytest.mark.parametrize("name,field,value,outcome", key_cases())
def test_every_key_keeps_its_outcome(tmp_path, name, field, value, outcome):
    section, key = name.split(".")
    doc = {part: dict(keys) for part, keys in MINIMAL_REPLAY.items()}
    doc.setdefault(section, {}).pop(key, None)
    if value is not ABSENT:
        doc[section][key] = value
    if outcome is REJECTED:
        with pytest.raises(ConfigError) as exc:
            validate_config(doc, base_dir=tmp_path)
        assert exc.value.field == name
        return
    got = getattr(validate_config(doc, base_dir=tmp_path), field)
    if outcome is DEFAULT:
        outcome = getattr(RunConfig, field)
    elif isinstance(outcome, Rel):
        outcome = tmp_path / outcome
    assert (got, type(got)) == (outcome, type(outcome))


@pytest.mark.parametrize("section,value,field", [
    ("kg", ABSENT, "kg.concepts"), ("kg", None, "kg.concepts"), ("kg", [], "kg"),
    ("corpus", ABSENT, "corpus.path"), ("corpus", None, "corpus.path"),
    ("cases", None, "cases.path"), ("cases", "cases.jsonl", "cases"),
    ("backend", ABSENT, "backend.transcript"), ("backend", None, "backend.transcript"),
    ("backend", {"mode": "live"}, "backend.endpoint"),
    ("backend", {"mode": "record", "endpoint": "http://localhost:9"},
     "backend.transcript"),
    ("params", ABSENT, None), ("params", None, None), ("params", [], "params"),
    ("params", {"bonus": 1}, "params"),
    ("output", ABSENT, None), ("output", None, None), ("output", 1, "output"),
    ("extra", {}, "config"),
])
def test_every_section_keeps_its_outcome(tmp_path, section, value, field):
    doc = {part: dict(keys) for part, keys in MINIMAL_REPLAY.items()}
    doc.pop(section, None)
    if value is not ABSENT:
        doc[section] = value
    if field is None:
        assert validate_config(doc, base_dir=tmp_path).mode is BackendMode.REPLAY
        return
    with pytest.raises(ConfigError) as exc:
        validate_config(doc, base_dir=tmp_path)
    assert exc.value.field == field


@pytest.mark.parametrize("patch,field", [
    ({"backend": {"mode": "live"}, "params": {"k": 0}}, "backend.endpoint"),
    ({"backend": {"mode": "live", "chat_model": 5}}, "backend.chat_model"),
    ({"backend": {"mode": "record", "endpoint": "http://localhost:9"},
      "output": {"workers": 0}}, "backend.transcript"),
    ({"backend": {"mode": "record", "scores": ""}}, "backend.scores"),
    ({"kg": {"concepts": ""}, "params": {"bonus": 1}}, "params"),
    ({"kg": {"concepts": ""}, "corpus": {"path": 0}}, "kg.concepts"),
    ({"params": {"tau_high": 2, "k": 0}}, "params.k"),
    ({"params": {"roster": [], "tau_suff": -1}}, "params.tau_suff"),
    ({"params": {"roster": []}, "output": {"directory": ""}}, "params.roster"),
], ids=["needs-before-params", "model-before-needs", "needs-before-output",
        "value-before-needs", "sections-first", "kg-before-corpus",
        "counts-before-fractions", "fractions-before-roster", "params-before-output"])
def test_the_first_of_two_faults_is_the_one_named(tmp_path, patch, field):
    doc = {part: dict(keys) for part, keys in MINIMAL_REPLAY.items()}
    for section, keys in patch.items():
        doc[section] = keys if section == "backend" else {**doc.get(section, {}), **keys}
    with pytest.raises(ConfigError) as exc:
        validate_config(doc, base_dir=tmp_path)
    assert exc.value.field == field


def test_the_readme_and_the_pinned_table_name_exactly_the_schema_keys():
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Configuration\n", 1)[1].split("```yaml\n", 1)[1]
    documented = yaml.safe_load(block.split("```", 1)[0])
    settings = {setting.metadata["key"]: setting for setting in fields(RunConfig)}
    assert {f"{section}.{key}" for section, keys in documented.items()
            for key in keys} == set(settings)
    assert set(KEYS) == set(settings)
    # the README shows the params defaults, the roster's elided
    shown = {key: value for key, value in documented["params"].items() if key != "roster"}
    assert shown == {key: settings[f"params.{key}"].default for key in shown}
