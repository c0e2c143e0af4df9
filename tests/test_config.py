"""Run-configuration parsing, defaults, and validation."""

from __future__ import annotations

import re

import pytest
import yaml

from dxcouncil.config import BackendMode, validate_config
from dxcouncil.deliberation import DEFAULT_ROSTER
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
    assert config.roster == DEFAULT_ROSTER
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
