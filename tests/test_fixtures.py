"""The bundled fixture tables are what scripts/make_fixtures.py records today.

A change to a template, a canonical key or a recorded row format shows up
here as a byte difference, before it reaches a replay run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from make_fixtures import build_rules, fixture_config

from dxcouncil.backends import (
    HashEmbedder,
    LexicalOverlapScorer,
    RecordingEmbedder,
    RecordingScorer,
)
import dxcouncil
from dxcouncil.config import BackendMode, validate_config
from dxcouncil.gateway import RecordingBackend, ScriptedResponder, TranscriptRecorder
from dxcouncil.runner import Runtime, run_batch

from conftest import FIXTURES

TABLES = ("transcript_path", "embeddings_path", "scores_path")

# each fixture case's replayed (status, diagnosis, trace digest); a change
# that moves a digest must say why, and then update this table
PINNED = {
    "case-01": ("ok", "Liver cyst",
                "d358ba8d4566db2fbb1b88fc14faf658332c98c356978c4e0788859e0fe0af0a"),
    "case-02": ("ok", "Drug-induced liver injury",
                "e4edac0ee2a42bd2e39817b307f4fcd79165ee0a79dd43d1a3f89f328f1540c6"),
    "case-03": ("ok", "Hepatic hemangioma",
                "7f159066c527e2be5dc6d5bcce9fea38b1a236669ecd6332e3b41503e716bb22"),
    "case-04": ("ok", "Primary biliary cholangitis",
                "8fda2938947c7de6968c7d5f60df4865eee7b3a82a9574468dac81730e2a71a8"),
    "case-05": ("ok", "Chronic hepatitis B",
                "b17b31f9d2a1ec14488437c08ebdc631d2be3269234e2747c55546a50655b157"),
    "case-06": ("ok", "Hepatocellular carcinoma",
                "c75381993143e4ae5c1f5135fb0a1ff729a5e86bffb536aab95035c84226558c"),
    "case-07": ("ok", "Nonalcoholic steatohepatitis",
                "eec86e04d6b6831c21b556804c14181144c3676506af6d605ab69dc6d148a8e0"),
    "case-08": ("ok", "Liver cirrhosis",
                "0cf7e9a2de9a2f7da1c4b210088121edcb0463e102081a8935b407bfeb8c1139"),
    "case-09": ("ok", "Esophagogastric variceal bleeding",
                "11dde6f3f868cb91bf93a32f321b2f3a39f44156aee80810135560a1b03d2ff5"),
    "case-10": ("ok", "Autoimmune hepatitis",
                "541561b19f2bf050b2cf9eab80e094cd3e517814239a2d4c994b75afb09750cd"),
}

# replays the fixture bundle into argv[1] and prints each case's row as JSON
_REPLAY_SCRIPT = """
import json, sys
from test_fixtures import replay_fixtures
print(json.dumps(replay_fixtures(sys.argv[1])))
"""

# records the fixture batch into the tables in argv[1], and kills itself
# with SIGKILL as it makes chat call number argv[2]
_KILLED_RECORD_SCRIPT = """
import itertools, os, signal, sys
from pathlib import Path
from make_fixtures import build_rules
from dxcouncil.gateway import ScriptedResponder
from dxcouncil.runner import run_batch
from test_fixtures import record_config, record_runtime

calls = itertools.count(1)

class KilledAt(ScriptedResponder):
    def respond(self, *args):
        if next(calls) == int(sys.argv[2]):
            os.kill(os.getpid(), signal.SIGKILL)
        return super().respond(*args)

tables = Path(sys.argv[1])
runtime = record_runtime(record_config(tables, tables.parent / "record"),
                         KilledAt(build_rules()))
try:
    run_batch(runtime)
finally:
    runtime.close()
"""


def subprocess_env() -> dict[str, str]:
    """The environment of a child Python that imports these tests, the
    package and the fixture scripts."""
    path = [Path(__file__).parent, Path(dxcouncil.__file__).parents[1],
            Path(__file__).parents[1] / "scripts"]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))


def record_config(tables: Path, output_dir: Path):
    """The fixture record config, writing its tables into ``tables``."""
    config = fixture_config(BackendMode.RECORD, "record")
    return dataclasses.replace(
        config, output_dir=output_dir,
        **{field: tables / getattr(config, field).name for field in TABLES})


def record_runtime(config, responder) -> Runtime:
    """A runtime recording ``responder``'s answers and the offline
    embedder's and scorer's, as scripts/make_fixtures.py wires it."""
    return Runtime(
        config,
        chat_backend=RecordingBackend(responder, TranscriptRecorder(config.transcript_path)),
        embedder=RecordingEmbedder(HashEmbedder(), config.embeddings_path),
        scorer=RecordingScorer(LexicalOverlapScorer(), config.scores_path))


def run(runtime: Runtime) -> dict[str, tuple[str, str, str]]:
    try:
        result = run_batch(runtime)
    finally:
        runtime.close()
    return {row.case_id: (row.status, row.final_diagnosis, row.trace_digest)
            for row in result.rows}


def replay_fixtures(output_dir: str | Path) -> dict[str, tuple[str, str, str]]:
    config = validate_config(FIXTURES / "replay_config.yaml")
    return run(Runtime(dataclasses.replace(config, output_dir=Path(output_dir))))


def test_replay_reproduces_the_pinned_diagnoses_and_digests(tmp_path):
    assert replay_fixtures(tmp_path) == PINNED


def test_replay_under_python_optimize_reproduces_the_pinned_digests(tmp_path):
    """``python -O`` strips asserts; no invariant or output may depend on one."""
    done = subprocess.run([sys.executable, "-O", "-c", _REPLAY_SCRIPT, str(tmp_path)],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {case_id: tuple(row) for case_id, row in json.loads(done.stdout).items()} == PINNED


def test_re_recording_reproduces_the_fixture_tables_and_their_replay(tmp_path):
    config = record_config(tmp_path, tmp_path / "record")
    recorded = run(record_runtime(config, ScriptedResponder(build_rules())))

    for field in TABLES:
        path = getattr(config, field)
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes(), path.name
    expected = json.loads((FIXTURES / "expected_diagnoses.json").read_text())
    assert {case_id: row[:2] for case_id, row in recorded.items()} == {
        case_id: ("ok", diagnosis) for case_id, diagnosis in expected.items()}

    replayed = run(Runtime(dataclasses.replace(config, mode=BackendMode.REPLAY,
                                               output_dir=tmp_path / "replay")))
    assert replayed == recorded


@pytest.mark.parametrize("kill_at", [1, 150])
def test_a_record_run_killed_part_way_leaves_the_old_tables_and_no_temp_file(tmp_path,
                                                                             kill_at):
    tables = tmp_path / "tables"
    tables.mkdir()
    old = {}
    for field in TABLES:
        name = getattr(fixture_config(BackendMode.RECORD, "record"), field).name
        # a shorter table than the run would write
        old[name] = b"".join((FIXTURES / name).read_bytes().splitlines(keepends=True)[:2])
        (tables / name).write_bytes(old[name])
    done = subprocess.run([sys.executable, "-c", _KILLED_RECORD_SCRIPT, str(tables),
                           str(kill_at)], env=subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == -signal.SIGKILL, done.stderr
    assert {path.name: path.read_bytes() for path in tables.iterdir()} == old
