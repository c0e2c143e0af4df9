"""Evidence packages: retrieval, path pruning, supplements, and merging."""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from dxcouncil.backends import HashEmbedder, LexicalOverlapScorer
from dxcouncil.config import RunConfig
from dxcouncil.differential import AbnormalEntity, CaseDescription
from dxcouncil.errors import DeliberationError, JudgmentParseError
from dxcouncil.evidence import (
    EvidencePackage,
    build_initial_package,
    build_supplement_package,
    merge_packages,
    prune_paths,
    render_package,
    render_packages,
)
from dxcouncil.gateway import TaskKind
from dxcouncil.guidelines import GuidelineSegment, RankedSegment, ingest_corpus
from dxcouncil.trace import Trace

from conftest import make_graph, scripted_gateway

CASE = CaseDescription("ev-case", "Yellow sclerae and intense itching for a month.")
# what the evidence builders take past their gateway
SETTINGS = (RunConfig.k, RunConfig.n, RunConfig.h_max, RunConfig.prune_batch)

CORPUS = [
    GuidelineSegment("s1", "doc-a", "Cholestatic disease workup begins with imaging."),
    GuidelineSegment("s2", "doc-a", "Antimitochondrial antibody confirms the diagnosis."),
    GuidelineSegment("s3", "doc-b", "Itching responds to bile acid sequestrants."),
    GuidelineSegment("s4", "doc-b", "Alkaline phosphatase tracks biliary injury."),
    GuidelineSegment("s5", "doc-c", "Ascites requires evaluation of portal pressure."),
]


def clinical_world():
    graph = make_graph(
        ["f1", "f2", "m", "d"],
        [("f1", "indicates", "m"), ("m", "leads_to", "d"),
         ("f1", "associated_with", "d"), ("f2", "indicates", "m")],
        names={"f1": "Jaundice", "f2": "Pruritus", "m": "Cholestasis",
               "d": "Primary biliary cholangitis"},
    )
    index = ingest_corpus(CORPUS, HashEmbedder(dim=16))
    return graph, index


def finding(graph, concept_id, mention=None):
    concept = graph.concept(concept_id)
    return AbnormalEntity(mention or concept.preferred_name.lower(), concept)


def verbalizer(system: str, user: str) -> str:
    chain = user.split("Relation chain:\n", 1)[1].split("\n\n", 1)[0]
    return f"Mechanism: {chain}"


def batch_pruner(bit_rows: list[str]):
    queue = deque(bit_rows)

    def respond(system: str, user: str) -> str:
        return queue.popleft()

    return respond


def path_pruner(bits: list[int]):
    """Answers each prune call with the bits of the paths its prompt lists,
    found by their ``explanation {i}`` lines (see ``parallel_paths``), so
    batches judged side by side may arrive in any order."""

    def respond(system: str, user: str) -> str:
        listed = re.findall(r"^\d+\. explanation (\d+)$", user, flags=re.MULTILINE)
        return ",".join(str(bits[int(i)]) for i in listed)

    return respond


def parallel_paths(n: int):
    """n distinct single-hop paths between one finding and one disease."""
    g = make_graph(["f", "d"], [("f", f"r{i:02d}", "d") for i in range(n)],
                   names={"f": "Sign", "d": "Disease"})
    paths = g.enumerate_paths("f", "d", h_max=1)
    assert len(paths) == n
    return [replace(p, verbalization=f"explanation {i}")
            for i, p in enumerate(paths)]


# -- initial package ---------------------------------------------------------

def test_initial_package_full_flow():
    graph, index = clinical_world()
    trace = Trace(CASE.case_id)
    gw = scripted_gateway([
        (TaskKind.ALIGN, "", "1"),
        (TaskKind.VERBALIZE, "", verbalizer),
        (TaskKind.PRUNE, "", batch_pruner(["1,1,1"])),
    ], trace)
    pkg = build_initial_package(
        CASE, [finding(graph, "f1"), finding(graph, "f2")],
        "Primary biliary cholangitis", graph, index, LexicalOverlapScorer(), gw, *SETTINGS)
    # f1 contributes a direct hop and a 2-hop chain, f2 one 2-hop chain
    assert pkg.disease_concept_id == "d"
    assert not pkg.degraded
    assert len(pkg.valid_paths) == 3
    assert len(pkg.pruned_paths) == 3
    [prune_row] = [r for r in trace.records if r["type"] == "prune_batch"]
    assert prune_row["bits"] == [1, 1, 1]
    assert 1 <= len(pkg.guideline_excerpts) <= 4
    assert pkg.iteration == 0
    for p in pkg.valid_paths:
        assert p.verbalization.startswith("Mechanism: ")
    # prune context is capped at the top two excerpts
    assert len(prune_row["guideline_ids"]) == 2
    assert prune_row["guideline_ids"] == [
        seg.segment.segment_id for seg in pkg.guideline_excerpts[:2]]


def test_out_of_range_candidate_number_for_a_hypothesis_is_an_error():
    graph, index = clinical_world()
    trace = Trace(CASE.case_id)
    gw = scripted_gateway([(TaskKind.ALIGN, "", "9")], trace)
    with pytest.raises(JudgmentParseError):
        build_initial_package(
            CASE, [finding(graph, "f1")], "Primary biliary cholangitis", graph, index,
            LexicalOverlapScorer(), gw, *SETTINGS)
    [align] = trace.exchanges(task="align")
    assert "Mention: Primary biliary cholangitis" in align["prompt"]


def test_unmatchable_hypothesis_degrades_to_guidelines_only():
    graph, index = clinical_world()
    trace = Trace(CASE.case_id)
    gw = scripted_gateway([], trace)  # no rules: any model call would fail
    pkg = build_initial_package(
        CASE, [finding(graph, "f1")], "Zebra fever", graph, index,
        LexicalOverlapScorer(), gw, *SETTINGS)
    assert pkg.degraded
    assert pkg.disease_concept_id is None
    assert pkg.valid_paths == ()
    assert pkg.pruned_paths == ()
    assert len(pkg.guideline_excerpts) >= 1
    assert trace.exchanges(task="align") == []


def test_align_none_also_degrades():
    graph, index = clinical_world()
    gw = scripted_gateway([(TaskKind.ALIGN, "", "NONE")])
    pkg = build_initial_package(
        CASE, [finding(graph, "f1")], "Primary cholangitis", graph, index,
        LexicalOverlapScorer(), gw, *SETTINGS)
    assert pkg.degraded
    assert pkg.valid_paths == ()


def test_rejected_paths_leave_the_valid_set_but_stay_in_the_audit():
    graph, index = clinical_world()
    gw = scripted_gateway([
        (TaskKind.ALIGN, "", "1"),
        (TaskKind.VERBALIZE, "", verbalizer),
        (TaskKind.PRUNE, "", batch_pruner(["1,0,1"])),
    ])
    pkg = build_initial_package(
        CASE, [finding(graph, "f1"), finding(graph, "f2")],
        "Primary biliary cholangitis", graph, index, LexicalOverlapScorer(), gw, *SETTINGS)
    assert len(pkg.valid_paths) == 2
    flags = [rejected for _, rejected in pkg.pruned_paths]
    assert flags == [False, True, False]


# -- pruning mechanics -------------------------------------------------------

@pytest.mark.parametrize("n_paths,expected_sizes", [
    (9, [8, 1]),
    (16, [8, 8]),
    (17, [8, 8, 1]),
])
def test_batch_split_sizes(n_paths, expected_sizes):
    trace = Trace("batching")
    gw = scripted_gateway([(TaskKind.PRUNE, "", path_pruner([1] * n_paths))], trace)
    valid, rejected = prune_paths(parallel_paths(n_paths), CASE, [], gw, RunConfig.prune_batch)
    assert len(trace.exchanges(task="prune")) == len(expected_sizes)
    records = [r for r in trace.records if r["type"] == "prune_batch"]
    assert [r["size"] for r in records] == expected_sizes
    assert [r["batch_index"] for r in records] == list(range(len(expected_sizes)))
    assert len(valid) == n_paths and rejected == []


def test_a_batch_wider_than_eight_is_one_prune_call():
    trace = Trace("wide")
    gw = scripted_gateway([(TaskKind.PRUNE, "", ",".join(["1"] * 9))], trace)
    valid, rejected = prune_paths(parallel_paths(9), CASE, [], gw, prune_batch=9)
    assert len(trace.exchanges(task="prune")) == 1
    assert len(valid) == 9 and rejected == []


def test_prune_filter_matches_hand_oracle():
    paths = parallel_paths(11)
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1]
    gw = scripted_gateway([(TaskKind.PRUNE, "", path_pruner(bits))])
    valid, rejected = prune_paths(paths, CASE, [], gw, RunConfig.prune_batch)
    want_valid = [p for p, b in zip(paths, bits) if b == 1]
    want_rejected = [p for p, b in zip(paths, bits) if b == 0]
    assert [p.edge_key() for p in valid] == [p.edge_key() for p in want_valid]
    assert [p.edge_key() for p in rejected] == [p.edge_key() for p in want_rejected]


def test_all_rejected_batch():
    paths = parallel_paths(8)
    gw = scripted_gateway([(TaskKind.PRUNE, "", "0,0,0,0,0,0,0,0")])
    valid, rejected = prune_paths(paths, CASE, [], gw, RunConfig.prune_batch)
    assert valid == []
    assert len(rejected) == 8


def test_wrong_bit_count_is_a_length_error():
    gw = scripted_gateway([(TaskKind.PRUNE, "", "1,0")])
    with pytest.raises(JudgmentParseError, match=r"^got 2 judgments for a batch of 3 "
                                                 r"\(offending span: '1,0'\)$"):
        prune_paths(parallel_paths(3), CASE, [], gw, RunConfig.prune_batch)


def test_unverbalized_path_rejected_up_front():
    g = make_graph(["f", "d"], [("f", "r", "d")])
    bare = g.enumerate_paths("f", "d", h_max=1)
    gw = scripted_gateway([(TaskKind.PRUNE, "", "1")])
    with pytest.raises(ValueError):
        prune_paths(bare, CASE, [], gw, RunConfig.prune_batch)


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=20))
def test_pruning_partitions_the_enumerated_paths(bits):
    paths = parallel_paths(len(bits))
    trace = Trace("partition")
    gw = scripted_gateway([(TaskKind.PRUNE, "", path_pruner(bits))], trace)
    valid, rejected = prune_paths(paths, CASE, [], gw, RunConfig.prune_batch)
    assert len(valid) + len(rejected) == len(paths)
    assert {p.edge_key() for p in valid}.isdisjoint(
        p.edge_key() for p in rejected)
    assert {p.edge_key() for p in valid} | {p.edge_key() for p in rejected} \
        == {p.edge_key() for p in paths}
    records = [r for r in trace.records if r["type"] == "prune_batch"]
    assert len(records) == math.ceil(len(bits) / 8)
    assert [b for rec in records for b in rec["bits"]] == bits


# -- supplements and merging -------------------------------------------------

def make_package(hypothesis, paths, excerpt_ids, iteration=0, concept="d"):
    excerpts = tuple(
        RankedSegment(segment=GuidelineSegment(sid, "doc", f"text for {sid}"),
                      dense_score=0.5)
        for sid in excerpt_ids)
    return EvidencePackage(
        hypothesis=hypothesis, iteration=iteration, guideline_excerpts=excerpts,
        pruned_paths=tuple((p, False) for p in paths),
        disease_concept_id=concept)


def test_merge_with_identical_content_only_steps_the_iteration():
    paths = parallel_paths(2)
    base = make_package("D", paths, ["s1", "s2"])
    supplement = make_package("D", paths, ["s1", "s2"])
    merged = merge_packages(base, supplement)
    assert merged.iteration == 1
    assert [p.edge_key() for p in merged.valid_paths] \
        == [p.edge_key() for p in base.valid_paths]
    assert [s.segment.segment_id for s in merged.guideline_excerpts] == ["s1", "s2"]
    assert len(merged.pruned_paths) == 4  # the audit keeps both passes


def test_merge_disjoint_paths_appends_after_base():
    paths = parallel_paths(5)
    base = make_package("D", paths[:2], ["s1"])
    supplement = make_package("D", paths[2:], ["s2"])
    merged = merge_packages(base, supplement)
    assert [p.edge_key() for p in merged.valid_paths] \
        == [p.edge_key() for p in paths]
    assert [s.segment.segment_id for s in merged.guideline_excerpts] == ["s1", "s2"]


def test_merge_overlapping_paths_dedupes():
    p1, p2, p3 = parallel_paths(3)
    merged = merge_packages(make_package("D", [p1, p2], ["s1"]),
                            make_package("D", [p2, p3], ["s1", "s3"]))
    assert [p.edge_key() for p in merged.valid_paths] \
        == [p.edge_key() for p in (p1, p2, p3)]
    assert [s.segment.segment_id for s in merged.guideline_excerpts] == ["s1", "s3"]


def test_merge_requires_matching_hypotheses():
    p1, p2 = parallel_paths(2)
    with pytest.raises(DeliberationError, match="^cannot merge packages for 'D' and 'E'$"):
        merge_packages(make_package("D", [p1], ["s1"]),
                       make_package("E", [p2], ["s2"]))


def test_merge_iteration_steps_from_the_base():
    paths = parallel_paths(1)
    base = make_package("D", paths, ["s1"], iteration=1)
    merged = merge_packages(base, make_package("D", [], ["s2"]))
    assert merged.iteration == 2


def test_a_path_rejected_in_one_pass_and_accepted_in_the_other_is_valid_once():
    graph, index = clinical_world()
    findings = [finding(graph, "f1")]

    def pruned_by(bits: str):
        return scripted_gateway([(TaskKind.ALIGN, "", "1"),
                                 (TaskKind.VERBALIZE, "", verbalizer),
                                 (TaskKind.PRUNE, "", bits)])

    base = build_initial_package(
        CASE, findings, "Primary biliary cholangitis", graph, index,
        LexicalOverlapScorer(), pruned_by("1,0"), *SETTINGS)
    supplement = build_supplement_package(
        CASE, findings, base, ["mechanistic chain linking jaundice to disease"],
        graph, index, LexicalOverlapScorer(), pruned_by("0,1"), *SETTINGS)
    merged = merge_packages(base, supplement)
    direct, chain = graph.enumerate_paths("f1", "d", RunConfig.h_max)
    assert [p.edge_key() for p in merged.valid_paths] == [direct.edge_key(),
                                                          chain.edge_key()]
    assert [rejected for _, rejected in merged.pruned_paths] == [False, True, True, False]


def test_supplement_reenumerates_only_named_findings():
    graph, index = clinical_world()
    base = EvidencePackage(
        hypothesis="Primary biliary cholangitis", iteration=0,
        guideline_excerpts=(), pruned_paths=(), disease_concept_id="d")
    findings = [finding(graph, "f1"), finding(graph, "f2")]
    gw = scripted_gateway([
        (TaskKind.VERBALIZE, "", verbalizer),
        (TaskKind.PRUNE, "", batch_pruner(["1,1"])),
    ])
    supp = build_supplement_package(
        CASE, findings, base, ["mechanistic chain linking jaundice to disease"],
        graph, index, LexicalOverlapScorer(), gw, *SETTINGS)
    # only f1 (Jaundice) is named, so only its two routes return
    assert len(supp.valid_paths) == 2
    assert {p.start for p in supp.valid_paths} == {"f1"}
    assert supp.iteration == 0


def test_supplement_without_named_findings_is_guideline_only():
    graph, index = clinical_world()
    base = EvidencePackage(
        hypothesis="Primary biliary cholangitis", iteration=0,
        guideline_excerpts=(), pruned_paths=(), disease_concept_id="d")
    trace = Trace(CASE.case_id)
    gw = scripted_gateway([], trace)
    supp = build_supplement_package(
        CASE, [finding(graph, "f1")], base,
        ["staging criteria for decompensating events"],
        graph, index, LexicalOverlapScorer(), gw, *SETTINGS)
    assert supp.valid_paths == ()
    assert supp.pruned_paths == ()
    assert len(supp.guideline_excerpts) >= 1
    assert trace.exchanges(task="verbalize") == []


def test_supplement_dedupes_segments_across_queries():
    graph, index = clinical_world()
    base = EvidencePackage(
        hypothesis="Primary biliary cholangitis", iteration=0,
        guideline_excerpts=(), pruned_paths=(), disease_concept_id="d")
    gw = scripted_gateway([])
    supp = build_supplement_package(
        CASE, [], base,
        ["bile acid management", "management of bile acids"],
        graph, index, LexicalOverlapScorer(), gw, *SETTINGS)
    ids = [s.segment.segment_id for s in supp.guideline_excerpts]
    assert len(ids) == len(set(ids))


# -- rendering ---------------------------------------------------------------

def test_render_package_sections():
    paths = parallel_paths(1)
    pkg = make_package("D", paths, ["s1"])
    text = render_package(pkg)
    assert "Guideline excerpts:" in text
    assert "[s1] text for s1" in text
    assert f"- {paths[0].verbalization}" in text

    empty = EvidencePackage(hypothesis="D", iteration=0, guideline_excerpts=(),
                            pruned_paths=())
    text = render_package(empty)
    assert "Guideline excerpts: none retrieved" in text
    assert "unavailable for this diagnosis name" in text

    pruned_out = EvidencePackage(hypothesis="D", iteration=0,
                                 guideline_excerpts=(),
                                 pruned_paths=tuple((p, True) for p in paths),
                                 disease_concept_id="d")
    assert "no surviving explanation chains" in render_package(pruned_out)


def test_render_packages_has_one_section_per_candidate():
    paths = parallel_paths(2)
    text = render_packages([make_package("D1", [paths[0]], ["s1"]),
                            make_package("D2", [paths[1]], ["s2"])])
    assert "--- Candidate: D1 ---" in text
    assert "--- Candidate: D2 ---" in text


def test_audit_consistency_enforced():
    with pytest.raises(ValueError):
        EvidencePackage(hypothesis="D", iteration=-1, guideline_excerpts=(),
                        pruned_paths=())


# -- pinned package traces ---------------------------------------------------

def _record_kinds(trace):
    return [(r["type"], r.get("task")) for r in trace.records]


def _described(package):
    return (package.degraded, package.disease_concept_id,
            [p.describe() for p in package.valid_paths],
            [(p.describe(), rejected) for p, rejected in package.pruned_paths])


def test_an_unmatchable_hypothesis_writes_one_retrieval_record():
    graph, index = clinical_world()
    trace = Trace(CASE.case_id)
    pkg = build_initial_package(
        CASE, [finding(graph, "f1")], "Zebra fever", graph, index,
        LexicalOverlapScorer(), scripted_gateway([], trace), *SETTINGS)
    assert _record_kinds(trace) == [("retrieval", None)]
    assert _described(pkg) == (True, None, [], [])


def test_an_align_none_hypothesis_writes_retrieval_then_the_align_exchange():
    graph, index = clinical_world()
    trace = Trace(CASE.case_id)
    pkg = build_initial_package(
        CASE, [finding(graph, "f1")], "Primary cholangitis", graph, index,
        LexicalOverlapScorer(), scripted_gateway([(TaskKind.ALIGN, "", "NONE")], trace),
        *SETTINGS)
    assert _record_kinds(trace) == [("retrieval", None), ("exchange", "align")]
    assert _described(pkg) == (True, None, [], [])


def test_a_finding_on_the_hypothesis_concept_contributes_no_path_and_no_paths_record():
    graph, index = clinical_world()

    def package(findings, trace):
        return build_initial_package(
            CASE, [finding(graph, concept_id) for concept_id in findings],
            "Primary biliary cholangitis", graph, index, LexicalOverlapScorer(),
            scripted_gateway([(TaskKind.ALIGN, "", "1"), (TaskKind.VERBALIZE, "", verbalizer),
                              (TaskKind.PRUNE, "", batch_pruner(["1,1"]))], trace), *SETTINGS)

    # one of the case's findings is the disease itself: the package and its
    # record kinds are those of the package built without that finding
    with_self, without = Trace(CASE.case_id), Trace(CASE.case_id)
    assert _described(package(["d", "f1"], with_self)) == _described(package(["f1"], without))
    assert _record_kinds(with_self) == _record_kinds(without)
    assert [r["start"] for r in with_self.records if r["type"] == "paths"] == ["f1"]


def test_a_two_query_supplement_merged_into_a_base_holding_one_of_its_paths():
    graph, index = clinical_world()
    [direct] = graph.enumerate_paths("f1", "d", h_max=1)
    direct = replace(direct, verbalization="Mechanism: known")
    base = make_package("Primary biliary cholangitis", [direct], ["s3"])
    trace = Trace(CASE.case_id)
    gw = scripted_gateway([
        (TaskKind.VERBALIZE, "", verbalizer),
        (TaskKind.PRUNE, "", batch_pruner(["1,1"])),
    ], trace)
    queries = ["jaundice and bile acid management", "jaundice and itching from bile acids"]
    supp = build_supplement_package(
        CASE, [finding(graph, "f1"), finding(graph, "f2")], base, queries,
        graph, index, LexicalOverlapScorer(), gw, *SETTINGS)
    retrieved = [[row["segment_id"] for row in r["reranked"]]
                 for r in trace.records if r["type"] == "retrieval"]
    assert set(retrieved[0]) & set(retrieved[1])
    assert [s.segment.segment_id for s in supp.guideline_excerpts] == list(
        dict.fromkeys(retrieved[0] + retrieved[1]))
    assert _record_kinds(trace) == [
        ("retrieval", None), ("retrieval", None), ("paths", None),
        ("exchange", "verbalize"), ("exchange", "verbalize"),
        ("exchange", "prune"), ("prune_batch", None)]
    chains = ["Jaundice --[associated_with]--> Primary biliary cholangitis",
              "Jaundice --[indicates]--> Cholestasis --[leads_to]--> "
              "Primary biliary cholangitis"]
    assert _described(supp) == (False, "d", chains, [(c, False) for c in chains])
    merged = merge_packages(base, supp)
    assert _described(merged) == (
        False, "d", chains,
        [(chains[0], False), (chains[0], False), (chains[1], False)])
    assert merged.valid_paths[0] is direct
    assert [s.segment.segment_id for s in merged.guideline_excerpts] == list(
        dict.fromkeys(["s3"] + retrieved[0] + retrieved[1]))
