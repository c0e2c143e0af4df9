"""Exit codes and console output of the command-line front end."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
import yaml

from dxcouncil import cli
from dxcouncil.config import RunConfig

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


def test_validate_prints_every_run_setting(tmp_path, capsys):
    config = write_cli_config(tmp_path, params={"k": 5, "roster": ["Oncology", "Hepatology"]},
                              output={"workers": 3})
    assert cli.main(["validate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    printed = [setting.name for setting in fields(RunConfig)
               if setting.metadata["key"].startswith("params.") or setting.name == "workers"]
    assert len(printed) == 11
    assert [name for name in printed if f" {name}=" not in out] == []
    assert " k=5," in out
    assert " roster=[Oncology, Hepatology]," in out
    assert out.rstrip().endswith(" workers=3")


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


@pytest.mark.parametrize("command", [["run"], ["run", "--case-id", "case-01"], ["batch"]],
                         ids=["run", "run-with-case-id", "batch"])
def test_an_empty_case_file_is_a_resource_error(tmp_path, capsys, command):
    empty = tmp_path / "cases.jsonl"
    empty.write_text("", encoding="utf-8")
    config = write_cli_config(tmp_path, cases={"path": str(empty)})
    assert cli.main([*command, "--config", str(config)]) == 3
    assert capsys.readouterr().err == f"resource error: no cases in {empty}\n"


def test_batch_prints_per_case_lines_and_metrics(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    assert cli.main(["batch", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "case-01: Liver cyst (correct)" in out
    assert "cases: 10  failed: 0" in out
    assert "weighted precision: 100.00" in out
    assert "f1: 100.00" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_a_ground_truth_that_normalizes_to_nothing_is_scored_not_fatal(tmp_path, capsys):
    rows = [json.loads(line) for line in (FIXTURES / "cases.jsonl").read_text().splitlines()]
    rows[0]["ground_truth"] = "???"
    cases = tmp_path / "cases.jsonl"
    cases.write_text("".join(json.dumps(row) + "\n" for row in rows))
    config = write_cli_config(tmp_path, cases={"path": str(cases)})
    assert cli.main(["batch", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "case-01: Liver cyst (wrong)" in out
    assert "cases: 10  failed: 0" in out
    assert (tmp_path / "out" / "results.jsonl").exists()
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


def test_a_case_row_nested_too_deep_exits_three(tmp_path, capsys):
    path = tmp_path / "cases.jsonl"
    path.write_text((FIXTURES / "cases.jsonl").read_text(encoding="utf-8")
                    + "[" * 100_000 + "\n", encoding="utf-8")
    config = write_cli_config(tmp_path, cases={"path": str(path)})
    assert cli.main(["batch", "--config", str(config)]) == 3
    lines = len((FIXTURES / "cases.jsonl").read_text(encoding="utf-8").splitlines())
    assert (f"resource error: {path}:{lines + 1}: bad case row: maximum recursion depth"
            in capsys.readouterr().err)


@pytest.mark.parametrize("case_id", ["../../escaped-01", "nested/dir/case-02", "case\x00-03"],
                         ids=["parent_path", "nested_path", "nul"])
def test_a_case_id_that_is_not_a_plain_file_name_exits_three_and_writes_nothing(
        tmp_path, capsys, case_id):
    path = tmp_path / "cases.jsonl"
    path.write_text((FIXTURES / "cases.jsonl").read_text(encoding="utf-8")
                    + json.dumps({"case_id": case_id, "narrative": "Story."}) + "\n",
                    encoding="utf-8")
    config = write_cli_config(tmp_path, cases={"path": str(path)},
                              output={"directory": str(tmp_path / "a" / "b" / "out")})
    assert cli.main(["batch", "--config", str(config)]) == 3
    lines = len((FIXTURES / "cases.jsonl").read_text(encoding="utf-8").splitlines())
    assert (f"resource error: {path}:{lines + 1}: bad case row: case_id {case_id!r} "
            "is not a plain file name") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cases.jsonl", "cli.yaml"]


def test_a_case_id_too_long_for_a_file_name_exits_three_and_writes_nothing(tmp_path, capsys):
    case_id = "c" * 300
    path = tmp_path / "cases.jsonl"
    path.write_text((FIXTURES / "cases.jsonl").read_text(encoding="utf-8")
                    + json.dumps({"case_id": case_id, "narrative": "Story."}) + "\n",
                    encoding="utf-8")
    config = write_cli_config(tmp_path, cases={"path": str(path)},
                              output={"directory": str(tmp_path / "out")})
    assert cli.main(["batch", "--config", str(config)]) == 3
    lines = len((FIXTURES / "cases.jsonl").read_text(encoding="utf-8").splitlines())
    assert (f"resource error: {path}:{lines + 1}: bad case row: case_id {case_id!r} makes "
            "a trace file name of 312 UTF-8 bytes, over 255") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cases.jsonl", "cli.yaml"]


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


@pytest.mark.parametrize("backend,field", [
    ({"mode": "live", "endpoint": "http://localhost:9"}, "backend.transcript"),
    ({"mode": "replay", "transcript": "t.jsonl", "embeddings": "e.jsonl",
      "scores": "s.jsonl"}, "backend.endpoint"),
], ids=["live-without-tables", "replay-without-endpoint"])
def test_record_names_the_config_key_record_mode_needs(tmp_path, capsys, backend, field):
    path = write_cli_config(tmp_path)
    doc = yaml.safe_load(path.read_text())
    doc["backend"] = backend
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["record", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {field}: required in record mode\n"
    assert not (tmp_path / "out").exists()


def test_a_record_run_that_fails_at_set_up_leaves_the_record_tables_as_they_were(
        tmp_path, capsys):
    tables = {}
    for key, name in (("transcript", "transcript.jsonl"), ("embeddings", "embeddings.jsonl"),
                      ("scores", "scores.jsonl")):
        tables[key] = tmp_path / "tables" / name
        tables[key].parent.mkdir(exist_ok=True)
        tables[key].write_bytes((FIXTURES / name).read_bytes())
    empty = tmp_path / "cases.jsonl"
    empty.write_text("", encoding="utf-8")
    # nothing listens on the discard port, so embedding the corpus fails
    config = write_cli_config(tmp_path, cases={"path": str(empty)},
                              backend={"mode": "record", "endpoint": "http://127.0.0.1:9",
                                       **{key: str(path) for key, path in tables.items()}})
    assert cli.main(["batch", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith(
        "resource error: request to http://127.0.0.1:9/embeddings failed")
    for path in tables.values():
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes()
    assert sorted(p.name for p in tables["transcript"].parent.iterdir()) == sorted(
        path.name for path in tables.values())
