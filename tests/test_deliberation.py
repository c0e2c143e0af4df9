"""Complexity routing, panels, consensus arithmetic, and the iteration loop."""

from __future__ import annotations

import itertools
import json
import re

import pytest

from dxcouncil.deliberation import (
    ComplexityFlag,
    SpecialistOpinion,
    SpecialistRoster,
    Stance,
    Sufficiency,
    assess_complexity,
    consensus_score,
    dispatch_specialists,
    elicit_opinion,
    final_adjudication,
    formulate_refinement_queries,
    generalist_direct_diagnosis,
    insufficiency_ratio,
    run_deliberation_loop,
)
from dxcouncil.config import RunConfig
from dxcouncil.differential import CaseDescription, HypothesisSet
from dxcouncil.errors import ConfigError, DeliberationError
from dxcouncil.evidence import EvidencePackage
from dxcouncil.gateway import TaskKind
from dxcouncil.templates import EVIDENCE_CLOSE, EVIDENCE_OPEN
from dxcouncil.trace import Trace

from conftest import run_panel, scripted_gateway

CASE = CaseDescription("dl-case", "Fatigue and yellowing over six weeks.")


def op(stance, suff, confidence=0.6, specialty="Hepatology"):
    return SpecialistOpinion(
        specialty=specialty, stance=Stance(stance), confidence=confidence,
        sufficiency=Sufficiency(suff), justification="scripted")


# -- consensus arithmetic ----------------------------------------------------

def test_insufficiency_ratio_examples():
    assert insufficiency_ratio([op("S", "Ins"), op("N", "Ins"), op("S", "Suf")]) \
        == pytest.approx(2 / 3)
    assert insufficiency_ratio([op("S", "Suf"), op("S", "Suf")]) == 0.0
    assert insufficiency_ratio([op("O", "Ins")]) == 1.0


def test_support_score_examples():
    assert consensus_score([op("S", "Suf"), op("S", "Suf"),
                            op("S", "Suf"), op("N", "Suf")]) == 0.75
    assert consensus_score([op("O", "Suf"), op("N", "Suf")]) == 0.0
    assert consensus_score([op("S", "Ins")]) == 1.0


def test_confidence_does_not_enter_the_support_score():
    low = [op("S", "Suf", confidence=0.01), op("O", "Suf", confidence=0.99)]
    assert consensus_score(low) == 0.5


def test_empty_opinion_lists_rejected():
    with pytest.raises(DeliberationError, match="^cannot score an empty opinion list$"):
        consensus_score([])
    with pytest.raises(DeliberationError, match="^cannot compute a ratio over no opinions$"):
        insufficiency_ratio([])


def test_stance_fractions_match_counting_up_to_length_four():
    for length in range(1, 5):
        for stances in itertools.product("SNO", repeat=length):
            for suffs in itertools.product(("Suf", "Ins"), repeat=length):
                ops = [op(s, f) for s, f in zip(stances, suffs)]
                assert consensus_score(ops) == stances.count("S") / length
                assert insufficiency_ratio(ops) == suffs.count("Ins") / length


# -- routing and dispatch ----------------------------------------------------

def test_complexity_verdict_parsed_and_traced():
    for word, flag in (("SIMPLE", ComplexityFlag.SIMPLE),
                       ("COMPLEX", ComplexityFlag.COMPLEX)):
        trace = Trace("t")
        gw = scripted_gateway([(TaskKind.ASSESS_COMPLEXITY, "", word)], trace)
        assert assess_complexity(CASE, [], HypothesisSet(("A", "B")), gw) is flag
        [decision] = trace.decisions("complexity")
        assert decision["payload"] == {"flag": flag.name}


def test_dispatch_returns_the_scripted_roster():
    gw = scripted_gateway([(TaskKind.DISPATCH, "", '["Hepatology", "Immunology"]')])
    [roster] = dispatch_specialists(CASE, [], ["AIH"], gw, RunConfig.roster,
                                    RunConfig.max_specialists)
    assert roster.specialties == ("Hepatology", "Immunology")
    assert roster.hypothesis == "AIH"


def test_dispatch_rejects_names_outside_the_roster():
    gw = scripted_gateway([(TaskKind.DISPATCH, "", '["Astrology"]')])
    with pytest.raises(DeliberationError,
                       match="^specialty 'Astrology' is not in the configured roster$"):
        dispatch_specialists(CASE, [], ["AIH"], gw, RunConfig.roster, RunConfig.max_specialists)


def test_dispatch_collapses_duplicates_and_truncates():
    gw = scripted_gateway([(TaskKind.DISPATCH, "",
                            json.dumps(["Hepatology", "Hepatology", "Oncology",
                                        "Immunology"]))])
    [roster] = dispatch_specialists(CASE, [], ["HCC"], gw, RunConfig.roster, 2)
    assert roster.specialties == ("Hepatology", "Oncology")


def test_dispatch_of_nothing_is_an_error():
    gw = scripted_gateway([(TaskKind.DISPATCH, "", "[]")])
    with pytest.raises(DeliberationError, match="^dispatch chose no specialists for 'AIH'$"):
        dispatch_specialists(CASE, [], ["AIH"], gw, RunConfig.roster, RunConfig.max_specialists)


def test_roster_dataclass_invariants():
    with pytest.raises(DeliberationError, match="^no specialists for 'H'$"):
        SpecialistRoster(hypothesis="H", specialties=())
    with pytest.raises(ValueError):
        SpecialistRoster(hypothesis="H", specialties=("A", "A"))


def test_opinion_elicited_for_the_package_iteration():
    pkg = EvidencePackage(hypothesis="AIH", iteration=2, guideline_excerpts=(),
                          pruned_paths=())
    trace = Trace("t")
    gw = scripted_gateway([
        (TaskKind.SPECIALIST_OPINION, "",
         '{"stance": "N", "confidence": 0.4, "sufficiency": "Ins", '
         '"justification": "needs serology"}')], trace)
    [opinion] = elicit_opinion(("Hepatology",), CASE, [], "AIH", pkg, gw)
    assert opinion.stance is Stance.NEUTRAL
    [row] = trace.exchanges(task="specialist_opinion")
    assert "Deliberation round: 2\n" in row["prompt"]
    assert "consulting Hepatology specialist" in row["prompt"]


def test_refinement_uses_only_insufficient_opinions():
    trace = Trace("t")
    gw = scripted_gateway([(TaskKind.REFINE_QUERY, "", '["query one"]')], trace)
    ops = [op("S", "Suf", specialty="Hepatology"),
           op("N", "Ins", specialty="Oncology")]
    queries = formulate_refinement_queries(ops, "H", CASE, [], gw)
    assert queries == ["query one"]
    [row] = trace.exchanges(task="refine_query")
    assert "- (Oncology) scripted" in row["prompt"]
    assert "(Hepatology)" not in row["prompt"]
    with pytest.raises(DeliberationError,
                       match="^refinement requires at least one Ins opinion$"):
        formulate_refinement_queries([op("S", "Suf")], "H", CASE, [], gw)


# -- closing calls -----------------------------------------------------------

def direct_rules(diagnosis):
    return [(TaskKind.GENERALIST_DIRECT, "", json.dumps(
        {"diagnosis": diagnosis,
         "report": "Classic picture. Next steps: confirmatory serology."}))]


def test_direct_close_picks_from_the_differential():
    hs = HypothesisSet(("PBC", "AIH"))
    packages = [EvidencePackage(hypothesis=h, iteration=0, guideline_excerpts=(),
                                pruned_paths=())
                for h in hs]
    trace = Trace("t")
    gw = scripted_gateway(direct_rules("pbc"), trace)
    report = generalist_direct_diagnosis(CASE, [], hs, packages, gw)
    assert report.final_diagnosis == "PBC"  # casefold match, canonical casing kept
    assert report.consensus_narrative == "Classic picture."
    assert report.recommended_next_steps == "confirmatory serology."
    assert report.per_hypothesis_snapshots == ()
    [decision] = trace.decisions("final_report")
    assert decision["payload"] == {"final_diagnosis": "PBC", "route": "direct"}


def test_direct_close_outside_differential_is_an_error():
    hs = HypothesisSet(("PBC", "AIH"))
    packages = [EvidencePackage(hypothesis=h, iteration=0, guideline_excerpts=(),
                                pruned_paths=())
                for h in hs]
    gw = scripted_gateway(direct_rules("Wilson disease"))
    with pytest.raises(DeliberationError,
                       match=r"^adjudicated diagnosis 'Wilson disease' is not among the "
                             r"hypotheses \['PBC', 'AIH'\]$"):
        generalist_direct_diagnosis(CASE, [], hs, packages, gw)


def test_report_without_next_steps_marker_keeps_whole_narrative():
    hs = HypothesisSet(("PBC",))
    packages = [EvidencePackage(hypothesis="PBC", iteration=0,
                                guideline_excerpts=(),
                                pruned_paths=())]
    gw = scripted_gateway([(TaskKind.GENERALIST_DIRECT, "", json.dumps(
        {"diagnosis": "PBC", "report": "Single block of text."}))])
    report = generalist_direct_diagnosis(CASE, [], hs, packages, gw)
    assert report.consensus_narrative == "Single block of text."
    assert report.recommended_next_steps == ""


# -- the loop ----------------------------------------------------------------

def test_sufficient_first_round_stops_after_one_iteration():
    finals, trace = run_panel([[("S", "Suf"), ("N", "Suf")]])
    [snap] = finals
    assert snap.iteration == 0
    assert snap.insufficiency_ratio == 0.0
    assert len(trace.decisions("snapshot")) == 1
    assert trace.exchanges(task="refine_query") == []


def test_persistent_insufficiency_exhausts_the_round_budget():
    rounds = [[("N", "Ins"), ("N", "Ins")]] * 3
    finals, trace = run_panel(rounds)
    [snap] = finals
    assert snap.iteration == 2
    snapshots = trace.decisions("snapshot")
    assert [s["payload"]["iteration"] for s in snapshots] == [0, 1, 2]
    # two refinement-and-merge passes, then the budget stops the third round
    assert len(trace.exchanges(task="refine_query")) == 2
    assert len(trace.exchanges(task="specialist_opinion")) == 6


def test_strong_support_wins_over_insufficiency():
    finals, trace = run_panel([[("S", "Ins"), ("S", "Ins")]])
    [snap] = finals
    assert snap.support_score == 1.0
    assert snap.insufficiency_ratio == 1.0
    assert snap.iteration == 0  # early stop despite every opinion being Ins
    assert trace.exchanges(task="refine_query") == []


def test_two_round_stream_stops_when_evidence_becomes_sufficient():
    rounds = [
        [("N", "Ins"), ("S", "Ins"), ("N", "Ins")],
        [("S", "Suf"), ("S", "Suf"), ("N", "Suf")],
    ]
    finals, trace = run_panel(rounds)
    [snap] = finals
    assert snap.iteration == 1
    assert len(trace.decisions("snapshot")) == 2
    assert len(trace.exchanges(task="refine_query")) == 1


@pytest.mark.parametrize("rounds,expected_iterations", [
    ([[("N", "Suf")]], 1),
    ([[("N", "Ins")], [("N", "Suf")]], 2),
    ([[("N", "Ins")], [("N", "Ins")], [("N", "Ins")]], 3),
])
def test_iterations_bounded_and_merges_track_iterations(rounds, expected_iterations):
    finals, trace = run_panel(rounds)
    n_snapshots = len(trace.decisions("snapshot"))
    assert n_snapshots == expected_iterations
    assert 1 <= n_snapshots <= 3
    assert len(trace.exchanges(task="refine_query")) == n_snapshots - 1
    assert finals[0].iteration == expected_iterations - 1


def test_same_round_specialists_see_identical_evidence_blocks():
    rounds = [[("N", "Ins"), ("N", "Ins"), ("N", "Ins")],
              [("N", "Suf"), ("N", "Suf"), ("N", "Suf")]]
    _, trace = run_panel(rounds)
    blocks = {}
    for row in trace.exchanges(task="specialist_opinion"):
        t = int(re.search(r"Deliberation round: (\d+)\n", row["prompt"]).group(1))
        body = row["prompt"].split(EVIDENCE_OPEN)[1].split(EVIDENCE_CLOSE)[0]
        blocks.setdefault(t, set()).add(body)
    assert set(blocks) == {0, 1}
    for t, bodies in blocks.items():
        assert len(bodies) == 1, f"round {t} showed differing evidence"


def test_snapshot_decisions_carry_exact_fractions():
    rounds = [[("S", "Ins"), ("N", "Ins"), ("N", "Suf"), ("N", "Ins")],
              [("S", "Suf"), ("S", "Suf"), ("N", "Suf"), ("N", "Suf")]]
    _, trace = run_panel(rounds)
    payloads = [d["payload"] for d in trace.decisions("snapshot")]
    assert payloads[0]["support_score"] == 0.25
    assert payloads[0]["insufficiency_ratio"] == 0.75
    assert payloads[0]["stances"] == ["S", "N", "N", "N"]
    assert payloads[1]["support_score"] == 0.5
    assert payloads[1]["insufficiency_ratio"] == 0.0


def test_a_mismatched_roster_is_rejected_before_any_panel_runs():
    hs = HypothesisSet(("PBC", "AIH"))
    packages = [EvidencePackage(hypothesis=h, iteration=0, guideline_excerpts=(),
                                pruned_paths=())
                for h in hs]
    rosters = [SpecialistRoster("PBC", ("Hepatology",)),
               SpecialistRoster("HCC", ("Oncology",))]
    trace = Trace("t")
    gw = scripted_gateway([], trace)

    def no_supplement(base, queries):
        raise AssertionError("no panel may run")

    with pytest.raises(DeliberationError, match="^roster for 'HCC' paired with 'AIH'$"):
        run_deliberation_loop(CASE, [], hs, packages, rosters, no_supplement, gw,
                              tau_suff=RunConfig.tau_suff, tau_high=RunConfig.tau_high,
                              t_max=RunConfig.t_max)
    assert trace.records == []


def test_a_round_budget_below_one_names_its_key_before_any_panel_runs():
    hs = HypothesisSet(("PBC",))
    packages = [EvidencePackage(hypothesis="PBC", iteration=0, guideline_excerpts=(),
                                pruned_paths=())]
    trace = Trace("t")

    def no_supplement(base, queries):
        raise AssertionError("no panel may run")

    with pytest.raises(ConfigError,
                       match=r"^params\.t_max: must be an integer >= 1, got 0$") as exc:
        run_deliberation_loop(CASE, [], hs, packages,
                              [SpecialistRoster("PBC", ("Hepatology",))], no_supplement,
                              scripted_gateway([], trace), tau_suff=RunConfig.tau_suff,
                              tau_high=RunConfig.tau_high, t_max=0)
    assert exc.value.field == "params.t_max"
    assert trace.records == []


# -- final adjudication ------------------------------------------------------

def snapshot_for(hypothesis, support):
    from dxcouncil.deliberation import ConsensusSnapshot
    return ConsensusSnapshot(
        hypothesis=hypothesis, iteration=0,
        opinions=(op("S", "Ins", specialty="Hepatology"),),
        support_score=support, insufficiency_ratio=1.0,
        interim_report=f"panel view of {hypothesis}")


def test_adjudication_prompt_carries_rounded_support_scores():
    hs = HypothesisSet(("PBC", "AIH"))
    snaps = [snapshot_for("PBC", 2 / 3), snapshot_for("AIH", 0.25)]
    trace = Trace("t")
    gw = scripted_gateway([(TaskKind.FINAL_ADJUDICATE, "", json.dumps(
        {"diagnosis": "PBC", "report": "Panel agrees. Next steps: biopsy."}))],
        trace)
    report = final_adjudication(snaps, CASE, [], hs, gw)
    assert report.final_diagnosis == "PBC"
    assert report.per_hypothesis_snapshots == tuple(snaps)
    [row] = trace.exchanges(task="final_adjudicate")
    assert "support score: 0.67" in row["prompt"]
    assert "support score: 0.25" in row["prompt"]
    assert "panel view of PBC" in row["prompt"]
    assert "unresolved gaps: scripted" in row["prompt"]
    [decision] = trace.decisions("final_report")
    assert decision["payload"] == {"final_diagnosis": "PBC",
                                   "route": "deliberated"}


def test_adjudication_outside_hypotheses_is_an_error():
    hs = HypothesisSet(("PBC", "AIH"))
    gw = scripted_gateway([(TaskKind.FINAL_ADJUDICATE, "", json.dumps(
        {"diagnosis": "HCC", "report": "Wrong pick."}))])
    with pytest.raises(DeliberationError,
                       match=r"^adjudicated diagnosis 'HCC' is not among the "
                             r"hypotheses \['PBC', 'AIH'\]$"):
        final_adjudication([snapshot_for("PBC", 0.5)], CASE, [], hs, gw)


def test_default_roster_names_are_distinct():
    assert len(set(RunConfig.roster)) == len(RunConfig.roster)
