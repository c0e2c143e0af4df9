"""The bundled fixture tables are what scripts/make_fixtures.py records today.

A change to a template, a canonical key or a recorded row format shows up
here as a byte difference, before it reaches a replay run.
"""

from __future__ import annotations

import dataclasses
import json

from make_fixtures import build_rules, fixture_config

from dxcouncil.backends import (
    HashEmbedder,
    LexicalOverlapScorer,
    RecordingEmbedder,
    RecordingScorer,
)
from dxcouncil.config import BackendMode
from dxcouncil.gateway import RecordingBackend, ScriptedResponder, TranscriptRecorder
from dxcouncil.runner import Runtime, run_batch

from conftest import FIXTURES

TABLES = ("transcript_path", "embeddings_path", "scores_path")


def run(runtime: Runtime) -> dict[str, tuple[str, str, str]]:
    try:
        result = run_batch(runtime)
    finally:
        runtime.close()
    return {row.case_id: (row.status, row.final_diagnosis, row.trace_digest)
            for row in result.rows}


def test_re_recording_reproduces_the_fixture_tables_and_their_replay(tmp_path):
    config = fixture_config(BackendMode.RECORD, "record")
    config = dataclasses.replace(
        config, output_dir=tmp_path / "record",
        **{field: tmp_path / getattr(config, field).name for field in TABLES})
    recorded = run(Runtime(
        config,
        chat_backend=RecordingBackend(ScriptedResponder(build_rules()),
                                      TranscriptRecorder(config.transcript_path)),
        embedder=RecordingEmbedder(HashEmbedder(), config.embeddings_path),
        scorer=RecordingScorer(LexicalOverlapScorer(), config.scores_path)))

    for field in TABLES:
        path = getattr(config, field)
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes(), path.name
    expected = json.loads((FIXTURES / "expected_diagnoses.json").read_text())
    assert {case_id: row[:2] for case_id, row in recorded.items()} == {
        case_id: ("ok", diagnosis) for case_id, diagnosis in expected.items()}

    replayed = run(Runtime(dataclasses.replace(config, mode=BackendMode.REPLAY,
                                               output_dir=tmp_path / "replay")))
    assert replayed == recorded
