"""Audit trace: sequencing, digests, persistence, and the leakage scan."""

from __future__ import annotations

import json

import pytest

from dxcouncil.trace import Trace, scan_for_leakage


def sample_trace():
    t = Trace("case-x")
    t.exchange(task="ner", canonical_key="k1", prompt="Patient record: itching",
               response='["itching"]', backend="live")
    t.retrieval(query="q", dense=[{"segment_id": "s1", "dense_score": 0.5}],
                reranked=[], k=8, n=4)
    t.paths(start="f", end="d", h_max=3, enumerated=[])
    t.prune_batch(batch_index=0, size=2, bits=[1, 0], guideline_ids=["s1"])
    t.decision("complexity", {"flag": "SIMPLE"})
    return t


def test_sequence_numbers_are_gapless_and_ordered():
    t = sample_trace()
    assert [r["seq"] for r in t.records] == [0, 1, 2, 3, 4]
    assert [r["type"] for r in t.records] == [
        "exchange", "retrieval", "paths", "prune_batch", "decision"]


def test_splice_numbers_a_childs_records_on_and_resets_the_digest():
    t = Trace("case-x")
    t.decision("complexity", {"flag": "SIMPLE"})
    before = t.digest()
    child = sample_trace()
    t.splice(child)
    assert [r["seq"] for r in t.records] == list(range(6))
    assert [r["type"] for r in t.records[1:]] == [r["type"] for r in child.records]
    assert [r["ts"] for r in t.records[1:]] == [r["ts"] for r in child.records]
    assert [r["seq"] for r in child.records] == list(range(5))
    assert t.digest() != before
    whole = Trace("case-x")
    whole.decision("complexity", {"flag": "SIMPLE"})
    for record in sample_trace().records:
        whole._append({k: v for k, v in record.items() if k not in ("seq", "ts")})
    assert t.digest() == whole.digest()


def test_filters_select_by_task_and_decision():
    t = sample_trace()
    assert len(t.exchanges()) == 1
    assert t.exchanges(task="align") == []
    assert len(t.decisions("complexity")) == 1
    assert t.decisions("roster") == []
    assert list(t.rendered_prompts()) == ["Patient record: itching"]


def test_digest_ignores_timestamps_and_backend_label():
    a, b = Trace("case"), Trace("case")
    a.exchange(task="ner", canonical_key="k", prompt="p", response="r",
               backend="live")
    b.exchange(task="ner", canonical_key="k", prompt="p", response="r",
               backend="replay")
    for rec in b._records:
        rec["ts"] = 0.0
    assert a.digest() == b.digest()

    c = Trace("case")
    c.exchange(task="ner", canonical_key="k", prompt="different", response="r",
               backend="live")
    assert a.digest() != c.digest()


def test_digest_covers_the_case_id():
    a, b = Trace("case-1"), Trace("case-2")
    assert a.digest() != b.digest()


def test_digest_covers_records_appended_after_an_earlier_digest():
    t = sample_trace()
    t.digest()
    t.decision("final_report", {"diagnosis": "X"})
    fresh = sample_trace()
    fresh.decision("final_report", {"diagnosis": "X"})
    assert t.digest() == fresh.digest()


def test_write_then_load_preserves_digest(tmp_path):
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"type": "header", "case_id": "case-x"}
    assert lines[-1]["type"] == "digest"
    loaded = Trace.load(path)
    assert loaded.case_id == "case-x"
    assert loaded.digest() == t.digest()
    assert len(loaded.records) == len(t.records)
    assert loaded.records == t.records


def test_a_line_with_its_volatile_keys_moved_still_verifies(tmp_path):
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    moved = {"backend": record.pop("backend"), "ts": record.pop("ts"), **record}
    lines[1] = json.dumps(moved)
    path.write_text("\n".join(lines) + "\n")
    loaded = Trace.load(path)
    assert loaded.records == t.records
    assert loaded.digest() == t.digest()


def test_load_detects_tampering(tmp_path):
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("itching", "scratching")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        Trace.load(path)


def test_load_tolerates_a_missing_digest_line(tmp_path):
    t = sample_trace()
    path = t.write(tmp_path / "case-x.trace.jsonl")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    loaded = Trace.load(path)
    assert len(loaded.records) == 5


def test_load_requires_a_header(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text(json.dumps({"type": "digest", "digest": "x"}) + "\n")
    with pytest.raises(ValueError):
        Trace.load(path)


def test_leakage_scan_hits_prompts_only():
    t = Trace("case")
    t.exchange(task="ner", canonical_key="k1", prompt="The label PBC appears here",
               response="clean", backend="live")
    t.exchange(task="ner", canonical_key="k2", prompt="clean prompt",
               response="PBC mentioned in the response only", backend="live")
    t.decision("final_report", {"final_diagnosis": "PBC"})
    hits = scan_for_leakage(t, ["PBC", "AIH"])
    assert hits == [(0, "PBC")]


def test_leakage_scan_is_case_sensitive_and_skips_empty_labels():
    t = Trace("case")
    t.exchange(task="ner", canonical_key="k", prompt="pbc in lowercase",
               response="r", backend="live")
    assert scan_for_leakage(t, ["PBC", ""]) == []
    assert scan_for_leakage(t, ["pbc"]) == [(0, "pbc")]
