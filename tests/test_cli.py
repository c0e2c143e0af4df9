"""Exit codes and console output of the command-line front end."""

from __future__ import annotations

import json

import pytest
import yaml

from dxcouncil import cli

from conftest import FIXTURES


def write_cli_config(tmp_path, **overrides):
    doc = {
        "kg": {"concepts": str(FIXTURES / "concepts.tsv"),
               "triples": str(FIXTURES / "triples.tsv")},
        "corpus": {"path": str(FIXTURES / "guidelines.jsonl")},
        "cases": {"path": str(FIXTURES / "cases.jsonl")},
        "backend": {"mode": "replay",
                    "transcript": str(FIXTURES / "transcript.jsonl"),
                    "embeddings": str(FIXTURES / "embeddings.jsonl"),
                    "scores": str(FIXTURES / "scores.jsonl")},
        "output": {"directory": str(tmp_path / "out")},
    }
    for section, patch in overrides.items():
        doc.setdefault(section, {}).update(patch)
    path = tmp_path / "cli.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def single_case_file(tmp_path):
    first = (FIXTURES / "cases.jsonl").read_text().splitlines()[0]
    path = tmp_path / "one.jsonl"
    path.write_text(first + "\n")
    return path


def test_validate_reports_ok(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    assert cli.main(["validate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "mode=replay" in out


def test_validate_rejects_bad_config(tmp_path, capsys):
    config = write_cli_config(tmp_path, params={"tau_high": 1.5})
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_prints_the_final_report(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    code = cli.main(["run", "--config", str(config), "--case-id", "case-01"])
    out = capsys.readouterr().out
    assert code == 0
    assert "final diagnosis: Liver cyst" in out
    assert "trace:" in out
    assert (tmp_path / "out" / "case-01.trace.jsonl").exists()


def test_run_on_a_single_case_file_needs_no_case_id(tmp_path, capsys):
    config = write_cli_config(tmp_path,
                              cases={"path": str(single_case_file(tmp_path))})
    assert cli.main(["run", "--config", str(config)]) == 0
    assert "case: case-01" in capsys.readouterr().out


def test_run_on_a_multi_case_file_requires_case_id(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    assert cli.main(["run", "--config", str(config)]) == 1
    assert "--case-id" in capsys.readouterr().err


def test_run_with_unknown_case_id(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    code = cli.main(["run", "--config", str(config), "--case-id", "case-99"])
    assert code == 3
    assert "case-99" in capsys.readouterr().err


def test_batch_prints_per_case_lines_and_metrics(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    assert cli.main(["batch", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "case-01: Liver cyst (correct)" in out
    assert "cases: 10  failed: 0" in out
    assert "weighted precision: 100.00" in out
    assert "f1: 100.00" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_batch_with_an_unreplayable_case_exits_two(tmp_path, capsys):
    mixed = tmp_path / "mixed.jsonl"
    first = (FIXTURES / "cases.jsonl").read_text().splitlines()[0]
    with open(mixed, "w") as fh:
        fh.write(first + "\n")
        fh.write(json.dumps({"case_id": "case-xx",
                             "narrative": "A narrative nobody recorded.",
                             "ground_truth": "DILI"}) + "\n")
    config = write_cli_config(tmp_path, cases={"path": str(mixed)})
    assert cli.main(["batch", "--config", str(config)]) == 2
    out = capsys.readouterr().out
    assert "case-xx: FAILED at extract" in out
    assert "failed: 1" in out


def test_missing_resource_file_exits_three(tmp_path, capsys):
    config = write_cli_config(
        tmp_path, backend={"transcript": str(tmp_path / "missing.jsonl")})
    code = cli.main(["run", "--config", str(config), "--case-id", "case-01"])
    assert code == 3
    assert "resource error" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = cli.main(["validate", "--config", str(tmp_path / "nope.yaml")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def not_utf8_copy(tmp_path, name):
    """A fixture file with one byte that is not UTF-8 on its first line."""
    path = tmp_path / name
    path.write_bytes(b"\xff" + (FIXTURES / name).read_bytes())
    return path


@pytest.mark.parametrize("section,key,name", [("cases", "path", "cases.jsonl"),
                                              ("kg", "concepts", "concepts.tsv")],
                         ids=["cases", "concepts"])
def test_an_input_file_that_is_not_utf8_exits_three(tmp_path, capsys, section, key, name):
    path = not_utf8_copy(tmp_path, name)
    config = write_cli_config(tmp_path, **{section: {key: str(path)}})
    assert cli.main(["batch", "--config", str(config)]) == 3
    assert f"resource error: {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    config = not_utf8_copy(tmp_path, "replay_config.yaml")
    assert cli.main(["validate", "--config", str(config)]) == 1
    assert (f"config error: config: cannot read {config}: 'utf-8' codec can't decode"
            in capsys.readouterr().err)


def test_a_roster_name_that_is_not_encodable_text_exits_one(tmp_path, capsys):
    config = write_cli_config(tmp_path, params={"roster": ["Hepatology\ud800",
                                                           "Oncology"]})
    assert cli.main(["batch", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: params.roster: must be text that encodes as UTF-8")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
