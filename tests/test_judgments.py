"""Response grammars: one strict parser per task kind."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, strategies as st

from dxcouncil.errors import DeliberationError, JudgmentParseError
from dxcouncil.judgments import parse_judgment
from dxcouncil.templates import TaskKind


def payload(kind, text, **variables):
    return parse_judgment(kind, text, variables)


# -- list grammars -----------------------------------------------------------

def test_ner_array_parses_in_order():
    assert payload(TaskKind.NER, ' ["jaundice", "pruritus"] ') == ["jaundice", "pruritus"]
    assert payload(TaskKind.NER, "[]") == []


def test_ner_rejects_non_arrays_and_non_strings():
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.NER, '{"a": 1}')
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.NER, '["ok", 3]')
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.NER, '["ok", "  "]')
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.NER, "not json at all")


def test_differential_of_three_within_limit_four():
    assert payload(TaskKind.HYPOTHESIZE, '["PBC", "AIH", "DILI"]',
                   k_max="4") == ["PBC", "AIH", "DILI"]


def test_differential_of_five_over_limit_four():
    five = json.dumps(["A", "B", "C", "D", "E"])
    with pytest.raises(JudgmentParseError,
                       match=r"^5 diagnoses exceed the maximum of 4 \(offending span: "):
        payload(TaskKind.HYPOTHESIZE, five, k_max="4")


def test_dispatch_list_and_cap():
    assert payload(TaskKind.DISPATCH, '["Hepatology", "Immunology"]') \
        == ["Hepatology", "Immunology"]


def test_refinement_queries_bounded_one_to_three():
    assert payload(TaskKind.REFINE_QUERY, '["q1", "q2"]') == ["q1", "q2"]
    with pytest.raises(DeliberationError, match="^refinement produced no queries$"):
        payload(TaskKind.REFINE_QUERY, "[]")
    with pytest.raises(JudgmentParseError, match=r"^4 refinement queries exceed the "
                                                 r"maximum of 3 \(offending span: "):
        payload(TaskKind.REFINE_QUERY, json.dumps(["a", "b", "c", "d"]))


# -- scalar grammars ---------------------------------------------------------

def test_align_number_none_and_garbage():
    assert payload(TaskKind.ALIGN, "3") == 3
    assert payload(TaskKind.ALIGN, " NONE ") is None
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.ALIGN, "three")
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.ALIGN, "-1")


def test_verbalization_passes_text_through():
    assert payload(TaskKind.VERBALIZE, " A causes B. ") == "A causes B."
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.VERBALIZE, "   ")


def test_complexity_two_words_only():
    assert payload(TaskKind.ASSESS_COMPLEXITY, "SIMPLE") == "SIMPLE"
    assert payload(TaskKind.ASSESS_COMPLEXITY, "COMPLEX") == "COMPLEX"
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.ASSESS_COMPLEXITY, "MAYBE")
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.ASSESS_COMPLEXITY, "simple")


def test_prune_bits_parse_and_length_check():
    assert payload(TaskKind.PRUNE, "1,0,1,1,0,0,1,0",
                   path_count="8") == (1, 0, 1, 1, 0, 0, 1, 0)
    assert payload(TaskKind.PRUNE, "1, 0 , 1", path_count="3") == (1, 0, 1)
    with pytest.raises(JudgmentParseError, match=r"^got 2 judgments for a batch of 3 "
                                                 r"\(offending span: '1,0'\)$"):
        payload(TaskKind.PRUNE, "1,0", path_count="3")
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.PRUNE, "1,2,0", path_count="3")
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.PRUNE, "10", path_count="2")


# -- object grammars ---------------------------------------------------------

def opinion(**over):
    base = {"stance": "S", "confidence": 0.8, "sufficiency": "Suf",
            "justification": "markers fit"}
    base.update(over)
    return json.dumps(base)


def test_opinion_parses_exact_keys():
    out = payload(TaskKind.SPECIALIST_OPINION, opinion())
    assert out == {"stance": "S", "confidence": 0.8, "sufficiency": "Suf",
                   "justification": "markers fit"}


def test_opinion_confidence_bounds():
    with pytest.raises(JudgmentParseError, match=r"^confidence 1\.3 outside \[0, 1\] "
                                                 r"\(offending span: '1\.3'\)$"):
        payload(TaskKind.SPECIALIST_OPINION, opinion(confidence=1.3))
    with pytest.raises(JudgmentParseError, match=r"^confidence -0\.1 outside \[0, 1\] "
                                                 r"\(offending span: '-0\.1'\)$"):
        payload(TaskKind.SPECIALIST_OPINION, opinion(confidence=-0.1))
    assert payload(TaskKind.SPECIALIST_OPINION, opinion(confidence=0))["confidence"] == 0.0
    assert payload(TaskKind.SPECIALIST_OPINION, opinion(confidence=1))["confidence"] == 1.0


@pytest.mark.parametrize("kind,text,message,span", [
    (TaskKind.NER, "[" * 100_000, "response is not valid JSON: maximum recursion depth",
     "[" * 200),
    (TaskKind.DISPATCH, "[" + "9" * 5000 + "]",
     "response is not valid JSON: Exceeds the limit", "[" + "9" * 199),
    (TaskKind.INTERIM_CONSENSUS, '{"report": ' + "[" * 100_000,
     "response is not valid JSON: maximum recursion depth", '{"report": ' + "[" * 189),
    (TaskKind.ALIGN, "9" * 5000, "candidate number is not readable: ", "9" * 200),
    (TaskKind.SPECIALIST_OPINION, opinion(confidence=10 ** 400),
     "confidence 1" + "0" * 400 + r" outside \[0, 1\]", "1" + "0" * 199),
], ids=["nested-100000-deep", "5000-digit-int", "nested-report", "5000-digit-align",
        "400-digit-confidence"])
def test_a_response_too_deep_or_too_large_is_a_parse_error_quoting_its_span(kind, text,
                                                                            message, span):
    with pytest.raises(JudgmentParseError, match=f"^{message}") as exc:
        payload(kind, text)
    assert exc.value.span == span


def test_opinion_key_set_is_exact():
    missing = {"stance": "S", "confidence": 0.5, "sufficiency": "Suf"}
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.SPECIALIST_OPINION, json.dumps(missing))
    extra = json.loads(opinion())
    extra["note"] = "surplus"
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.SPECIALIST_OPINION, json.dumps(extra))


def test_opinion_enum_fields_validated():
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.SPECIALIST_OPINION, opinion(stance="Support"))
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.SPECIALIST_OPINION, opinion(sufficiency="maybe"))
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.SPECIALIST_OPINION, opinion(justification="  "))
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.SPECIALIST_OPINION, opinion(confidence=True))


def test_closing_reports_have_exact_key_sets():
    good = {"diagnosis": "PBC", "report": "Cholestatic picture. Next steps: AMA."}
    for kind in (TaskKind.FINAL_ADJUDICATE, TaskKind.GENERALIST_DIRECT):
        assert payload(kind, json.dumps(good)) == {
            "diagnosis": "PBC", "report": good["report"]}
        with pytest.raises(JudgmentParseError):
            payload(kind, json.dumps({"report": "only"}))
        with pytest.raises(JudgmentParseError):
            payload(kind, json.dumps(dict(good, extra="x")))
        with pytest.raises(JudgmentParseError):
            payload(kind, json.dumps(dict(good, diagnosis="")))


def test_interim_report_is_report_only():
    assert payload(TaskKind.INTERIM_CONSENSUS, '{"report": "summary"}') \
        == {"report": "summary"}
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.INTERIM_CONSENSUS,
                '{"report": "summary", "diagnosis": "PBC"}')
    with pytest.raises(JudgmentParseError):
        payload(TaskKind.INTERIM_CONSENSUS, '{"report": ""}')


# -- properties --------------------------------------------------------------

@given(st.lists(st.text(min_size=1).filter(str.strip), min_size=1, max_size=4))
def test_any_bounded_string_array_round_trips(items):
    assert payload(TaskKind.HYPOTHESIZE, json.dumps(items), k_max="4") == items


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=24))
def test_any_bit_vector_round_trips(bits):
    text = ",".join(str(b) for b in bits)
    assert payload(TaskKind.PRUNE, text, path_count=str(len(bits))) == tuple(bits)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_in_range_confidence_accepted(conf):
    assert payload(TaskKind.SPECIALIST_OPINION,
                   opinion(confidence=conf))["confidence"] == pytest.approx(conf)


@given(st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: x < 0.0 or x > 1.0))
def test_out_of_range_confidence_rejected(conf):
    with pytest.raises(JudgmentParseError,
                       match="^" + re.escape(f"confidence {conf} outside [0, 1] ")):
        payload(TaskKind.SPECIALIST_OPINION, opinion(confidence=conf))
