"""Finding extraction, concept standardization, and the initial differential."""

from __future__ import annotations

import io
import json
import re

import pytest
from hypothesis import given, strategies as st

from dxcouncil.differential import (
    CaseDescription,
    HypothesisSet,
    extract_abnormal_entities,
    generate_hypotheses,
    read_cases,
    render_findings,
)
from dxcouncil.errors import DeliberationError, JudgmentParseError, ResourceError
from dxcouncil.gateway import TaskKind
from dxcouncil.trace import Trace

from conftest import make_graph, scripted_gateway


def clinical_graph():
    return make_graph(
        ["f_jaund", "f_prur", "f_alp"],
        [],
        names={"f_jaund": "Jaundice", "f_prur": "Pruritus",
               "f_alp": "Elevated alkaline phosphatase"},
        synonyms={"f_jaund": frozenset({"icterus"}),
                  "f_prur": frozenset({"itching"})},
    )


CASE = CaseDescription("c1", "Yellowing of the eyes with severe itching.")


def keep(findings):
    """``extract_abnormal_entities``'s ``then`` that returns the findings."""
    return findings


def test_extraction_keeps_narrative_order():
    gw = scripted_gateway([
        (TaskKind.NER, "", '["jaundice", "itching"]'),
        (TaskKind.ALIGN, "Mention: jaundice", "1"),
        (TaskKind.ALIGN, "Mention: itching", "1"),
    ])
    out = extract_abnormal_entities(CASE, gw, clinical_graph(), keep)
    assert [e.concept.id for e in out] == ["f_jaund", "f_prur"]
    assert [e.raw_mention for e in out] == ["jaundice", "itching"]


def test_same_concept_mentions_collapse_to_one():
    gw = scripted_gateway([
        (TaskKind.NER, "", '["jaundice", "icterus"]'),
        (TaskKind.ALIGN, "", "1"),
    ])
    out = extract_abnormal_entities(CASE, gw, clinical_graph(), keep)
    assert [e.concept.id for e in out] == ["f_jaund"]


def test_none_verdict_drops_the_mention():
    gw = scripted_gateway([
        (TaskKind.NER, "", '["jaundice", "itching"]'),
        (TaskKind.ALIGN, "Mention: jaundice", "NONE"),
        (TaskKind.ALIGN, "Mention: itching", "1"),
    ])
    out = extract_abnormal_entities(CASE, gw, clinical_graph(), keep)
    assert [e.concept.id for e in out] == ["f_prur"]


def test_unmatched_mention_skipped_without_alignment_call():
    trace = Trace("c1")
    gw = scripted_gateway([
        (TaskKind.NER, "", '["splenomegaly", "jaundice"]'),
        (TaskKind.ALIGN, "", "1"),
    ], trace)
    out = extract_abnormal_entities(CASE, gw, clinical_graph(), keep)
    assert [e.concept.id for e in out] == ["f_jaund"]
    assert len(trace.exchanges(task="align")) == 1


def test_a_mention_that_normalizes_to_nothing_aligns_to_nothing_without_a_call():
    trace = Trace("c1")
    gw = scripted_gateway([
        (TaskKind.NER, "", '["???", "jaundice"]'),
        (TaskKind.ALIGN, "Mention: jaundice", "1"),
    ], trace)
    out = extract_abnormal_entities(CASE, gw, clinical_graph(), keep)
    assert [e.concept.id for e in out] == ["f_jaund"]
    [align] = trace.exchanges(task="align")
    assert "Mention: jaundice" in align["prompt"]


def test_candidate_lists_show_preferred_names_only():
    trace = Trace("c1")
    gw = scripted_gateway([
        (TaskKind.NER, "", '["jaundice"]'),
        (TaskKind.ALIGN, "", "1"),
    ], trace)
    extract_abnormal_entities(CASE, gw, clinical_graph(), keep)
    [align] = trace.exchanges(task="align")
    assert "Jaundice" in align["prompt"]
    assert "icterus" not in align["prompt"]


def test_out_of_range_candidate_number_is_an_error():
    gw = scripted_gateway([
        (TaskKind.NER, "", '["jaundice"]'),
        (TaskKind.ALIGN, "", "9"),
    ])
    with pytest.raises(JudgmentParseError):
        extract_abnormal_entities(CASE, gw, clinical_graph(), keep)


def test_candidate_limit_respected():
    g = make_graph([f"c{i}" for i in range(8)], [],
                   names={f"c{i}": f"liver sign {i}" for i in range(8)})
    trace = Trace("c1")
    gw = scripted_gateway([
        (TaskKind.NER, "", '["liver sign"]'),
        (TaskKind.ALIGN, "", "1"),
    ], trace)
    extract_abnormal_entities(CASE, gw, g, keep)
    [align] = trace.exchanges(task="align")
    assert re.findall(r"^\d+\. liver sign \d$", align["prompt"], flags=re.MULTILINE) == [
        f"{i}. liver sign {i - 1}" for i in range(1, 6)]


def test_hypotheses_casefold_dedup():
    gw = scripted_gateway([
        (TaskKind.HYPOTHESIZE, "", '["PBC", "pbc", "AIH"]'),
    ])
    out = generate_hypotheses(CASE, [], gw, k_max=4)
    assert tuple(out) == ("PBC", "AIH")


def test_empty_differential_stops_the_pipeline():
    gw = scripted_gateway([(TaskKind.HYPOTHESIZE, "", "[]")])
    with pytest.raises(DeliberationError,
                       match="^case 'c1': model produced no diagnoses$"):
        generate_hypotheses(CASE, [], gw, k_max=4)


def test_oversized_differential_is_a_cardinality_error():
    gw = scripted_gateway([
        (TaskKind.HYPOTHESIZE, "", json.dumps(["A", "B", "C", "D", "E"])),
    ])
    with pytest.raises(JudgmentParseError):
        generate_hypotheses(CASE, [], gw, k_max=4)


def test_hypothesis_set_invariants():
    with pytest.raises(ValueError):
        HypothesisSet(())
    with pytest.raises(ValueError):
        HypothesisSet(("A", "a"))
    hs = HypothesisSet(("PBC", "AIH"))
    assert hs.hypotheses == ("PBC", "AIH") == tuple(hs)


def test_render_findings_order_and_empty():
    gw = scripted_gateway([
        (TaskKind.NER, "", '["itching", "jaundice"]'),
        (TaskKind.ALIGN, "", "1"),
    ])
    out = extract_abnormal_entities(CASE, gw, clinical_graph(), keep)
    assert render_findings(out) == "Pruritus; Jaundice"
    assert render_findings([]) == "none recorded"


def test_read_cases_parses_and_validates(tmp_path):
    rows = [
        {"case_id": "a", "narrative": "Story A.", "ground_truth": "PBC"},
        {"case_id": "b", "narrative": "Story B."},
    ]
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    cases = read_cases(path)
    assert [c.case_id for c in cases] == ["a", "b"]
    assert cases[0].ground_truth == "PBC"
    assert cases[1].ground_truth is None

    with pytest.raises(ResourceError):
        read_cases(io.StringIO(json.dumps(rows[0]) + "\n" + json.dumps(rows[0]) + "\n"))
    with pytest.raises(ResourceError):
        read_cases(io.StringIO('{"case_id": "x"}\n'))
    with pytest.raises(ResourceError):
        read_cases(io.StringIO('{"case_id": "x", "narrative": "  "}\n'))
    with pytest.raises(ValueError):
        CaseDescription("x", "   ")


@pytest.mark.parametrize("case_id", ["", ".", "..", "../../escaped-01", "nested/dir/case-02",
                                     "/abs", "case\x00-03"],
                         ids=["empty", "dot", "dot_dot", "parent_path", "nested_path",
                              "absolute_path", "nul"])
def test_a_case_id_that_is_not_one_plain_file_name_is_rejected_at_its_line(tmp_path, case_id):
    # the id names the case's trace file in the output directory
    path = tmp_path / "cases.jsonl"
    path.write_text(json.dumps({"case_id": "a", "narrative": "Story A."}) + "\n"
                    + json.dumps({"case_id": case_id, "narrative": "Story B."}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ResourceError) as exc:
        read_cases(path)
    assert str(exc.value) == (f"{path}:2: bad case row: case_id {case_id!r} "
                              "is not a plain file name")


@pytest.mark.parametrize("case_id,ok", [
    ("c" * 243, True), ("c" * 244, False), ("c" * 300, False),
    ("\u00e9" * 121 + "c", True), ("\u00e9" * 122, False), ("\U0001f600" * 61, False),
], ids=["243_bytes", "244_bytes", "300_bytes", "243_bytes_two_byte_chars",
        "244_bytes_two_byte_chars", "244_bytes_four_byte_chars"])
def test_a_case_id_too_long_for_its_trace_file_name_is_rejected_at_its_line(tmp_path,
                                                                          case_id, ok):
    # the id and ".trace.jsonl" make the file name, at most 255 UTF-8 bytes
    path = tmp_path / "cases.jsonl"
    path.write_text(json.dumps({"case_id": "a", "narrative": "Story A."}) + "\n"
                    + json.dumps({"case_id": case_id, "narrative": "Story B."}) + "\n",
                    encoding="utf-8")
    size = len(case_id.encode("utf-8")) + len(".trace.jsonl")
    if ok:
        assert read_cases(path)[1].case_id == case_id
        (tmp_path / f"{case_id}.trace.jsonl").write_text("")  # the name can be made
        return
    with pytest.raises(ResourceError) as exc:
        read_cases(path)
    assert str(exc.value) == (f"{path}:2: bad case row: case_id {case_id!r} makes a "
                              f"trace file name of {size} UTF-8 bytes, over 255")


# a case-file field: any text, or very long text, with lone surrogates drawn
# as often as all other characters together; or a value that is not text
CHARACTER = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
FIELD = st.one_of(
    st.text(CHARACTER, max_size=20),
    st.builds(str.__mul__, CHARACTER, st.integers(10_000, 100_000)),
    st.none(), st.integers(), st.floats(allow_nan=False))
CASE_ROW = st.fixed_dictionaries({"case_id": FIELD, "narrative": FIELD},
                                 optional={"ground_truth": FIELD})


@given(st.lists(CASE_ROW, min_size=1, max_size=4))
def test_a_case_file_is_rejected_at_a_line_or_holds_only_encodable_text(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("cases") / "cases.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    try:
        cases = read_cases(path)
    except ResourceError as exc:
        assert re.match(rf"{re.escape(str(path))}:[1-4]: ", str(exc))
        return
    for case in cases:
        for text in (case.case_id, case.narrative, case.ground_truth or ""):
            assert isinstance(text, str)
            text.encode("utf-8")
