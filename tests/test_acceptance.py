"""Release gate: one verdict line per check, printed as it concludes.

Each check recomputes its expectation with an independent method (exhaustive
search, brute-force ranking, hand counting, or a standalone scorer script)
and compares the package against it.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import math
import random
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from dxcouncil.backends import HashEmbedder, LexicalOverlapScorer
from dxcouncil.config import validate_config
from dxcouncil.deliberation import (Stance, Sufficiency, SpecialistOpinion,
                                    consensus_score, insufficiency_ratio)
from dxcouncil.differential import AbnormalEntity, CaseDescription, read_cases
from dxcouncil.evidence import build_initial_package
from dxcouncil.guidelines import (GuidelineSegment, composite_query,
                                  dense_retrieve, ingest_corpus, rerank)
from dxcouncil.judgments import TaskKind
from dxcouncil.metrics import weighted_metrics
from dxcouncil.runner import Runtime, run_batch
from dxcouncil.trace import Trace, scan_for_leakage

from conftest import (FIXTURES, approve_all_pruner, blocked_network,
                      make_graph, run_panel, scripted_gateway)

ORACLE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "confusion_oracle.py"


def _load_oracle_script():
    spec = importlib.util.spec_from_file_location("confusion_oracle",
                                                  ORACLE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def conclude(label: str, problems: list[str]) -> None:
    print(f"{'PASS' if not problems else 'FAIL'}: {label}")
    for problem in problems:
        print(f"  - {problem}")
    assert not problems, f"{label}: {problems[0]}"


# shared replay runs: the same recorded batch executed twice, offline


@pytest.fixture(scope="module")
def replay_runs(tmp_path_factory):
    base = validate_config(FIXTURES / "replay_config.yaml")
    runs = []
    started = time.perf_counter()
    with blocked_network():
        for tag in ("a", "b"):
            out = tmp_path_factory.mktemp(f"replay_{tag}")
            runtime = Runtime(dataclasses.replace(base, output_dir=out))
            try:
                runs.append((out, run_batch(runtime)))
            finally:
                runtime.close()
    elapsed = time.perf_counter() - started
    return runs[0], runs[1], elapsed


def test_path_enumeration_matches_exhaustive_search():
    """Random graphs, bounded size: the path walker agrees with a plain
    depth-first enumeration of simple paths."""
    problems = []
    rng = random.Random(20260822)
    relations = ["causes", "indicates", "stage_of", "risk_for"]
    started = time.perf_counter()
    for trial in range(25):
        n_nodes = rng.randint(2, 12)
        ids = [f"c{i:02d}" for i in range(n_nodes)]
        triples = set()
        for _ in range(rng.randint(1, 30)):
            head, tail = rng.sample(ids, 2)
            triples.add((head, rng.choice(relations), tail))
        triples = sorted(triples)
        graph = make_graph(ids, triples)
        src, dst = rng.sample(ids, 2)
        h_max = rng.choice([1, 2, 3])

        adjacency = defaultdict(list)
        for head, relation, tail in triples:
            adjacency[head].append((relation, tail))
        expected = set()

        def walk(node, visited, acc):
            if len(acc) == h_max:
                return
            for relation, tail in adjacency[node]:
                if tail in visited:
                    continue
                step = acc + ((relation, tail),)
                if tail == dst:
                    expected.add(step)
                else:
                    walk(tail, visited | {tail}, step)

        walk(src, {src}, ())
        got = [tuple((edge.relation, edge.target) for edge in path.hops)
               for path in graph.enumerate_paths(src, dst, h_max=h_max)]
        if len(got) != len(set(got)):
            problems.append(f"trial {trial}: duplicate paths returned")
        if set(got) != expected:
            problems.append(
                f"trial {trial}: {len(got)} paths returned, "
                f"{len(expected)} expected (src={src} dst={dst} h={h_max})")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")
    conclude("path enumeration matches exhaustive search", problems)


def test_two_stage_retrieval_matches_brute_force_ranking():
    """Dense top-8 equals a full cosine sort; reranked top-4 equals a plain
    sort over scripted cross-scores. 100 segments, 50 queries."""
    problems = []
    started = time.perf_counter()
    rng = random.Random(41)
    segments = [
        GuidelineSegment(segment_id=f"seg-{i:03d}", source_doc="doc-ranking",
                         text=(f"seg-{i:03d} guidance passage {i} covering "
                               f"marker {i % 7} and pathway {i % 5}."))
        for i in range(100)
    ]
    embedder = HashEmbedder(dim=16)
    index = ingest_corpus(segments, embedder)

    # independent unit vectors for the oracle's cosine computation
    unit = {}
    for segment, vec in zip(segments, embedder.embed([s.text for s in segments])):
        vec = np.asarray(vec, dtype=float)
        unit[segment.segment_id] = vec / np.linalg.norm(vec)

    score_table = {}
    for j in range(50):
        values = rng.sample(range(10 ** 6), 100)
        for i in range(100):
            score_table[(f"Q{j}", f"seg-{i:03d}")] = values[i] / 10 ** 6

    class TableScorer:
        def score(self, query_text, segment_texts):
            return [score_table[(query_text.split(" |", 1)[0], text.split(" ", 1)[0])]
                    for text in segment_texts]

    scorer = TableScorer()
    for j in range(50):
        query = composite_query(
            f"Q{j}", [f"marker {j % 7}", f"pathway {j % 5}"])
        qvec = np.asarray(embedder.embed([query])[0], dtype=float)
        qvec = qvec / np.linalg.norm(qvec)
        oracle_dense = sorted(
            ((round(float(np.dot(unit[s.segment_id], qvec)), 12), s.segment_id)
             for s in segments),
            key=lambda pair: (-pair[0], pair[1]))
        want_dense = [seg_id for _, seg_id in oracle_dense[:8]]
        dense = dense_retrieve(index, query, k=8)
        got_dense = [r.segment.segment_id for r in dense]
        if got_dense != want_dense:
            problems.append(f"query {j}: dense order {got_dense} != {want_dense}")
            continue
        want_rerank = sorted(
            got_dense, key=lambda seg_id: -score_table[(f"Q{j}", seg_id)])[:4]
        got_rerank = [r.segment.segment_id
                      for r in rerank(dense, query, scorer, n=4)]
        if got_rerank != want_rerank:
            problems.append(f"query {j}: rerank {got_rerank} != {want_rerank}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, budget 5s")
    conclude("two-stage retrieval matches brute-force ranking", problems)


def test_consensus_fractions_match_exhaustive_counting():
    """Every stance/sufficiency assignment of a six-member panel, compared
    against direct counting. Equality is exact, not approximate."""
    problems = []
    checked = 0
    for stances in itertools.product(list(Stance), repeat=6):
        for sufficiencies in itertools.product(list(Sufficiency), repeat=6):
            opinions = [
                SpecialistOpinion(specialty=f"s{i}", stance=stances[i],
                                  confidence=0.5, sufficiency=sufficiencies[i],
                                  justification="x")
                for i in range(6)
            ]
            want_support = sum(1 for s in stances if s is Stance.SUPPORT) / 6
            want_unmet = sum(1 for s in sufficiencies
                             if s is Sufficiency.INSUFFICIENT) / 6
            got_support = consensus_score(opinions)
            got_unmet = insufficiency_ratio(opinions)
            if got_support != want_support or got_unmet != want_unmet:
                problems.append(
                    f"{[s.value for s in stances]}/"
                    f"{[s.value for s in sufficiencies]}: "
                    f"({got_support}, {got_unmet}) != "
                    f"({want_support}, {want_unmet})")
            checked += 1
    if checked != 3 ** 6 * 2 ** 6:
        problems.append(f"enumerated {checked} panels, "
                        f"expected {3 ** 6 * 2 ** 6}")
    conclude("consensus fractions match exhaustive counting", problems[:5])


def test_deliberation_stop_rules_fire_in_order():
    """Stop decisions read back from traces: sufficiency ends round one,
    exhaustion caps at three rounds with two evidence merges, and strong
    support ends round one even when every specialist wants more."""
    problems = []

    # half the panel satisfied at round zero: one round, no refinement
    _, trace = run_panel([[("S", "Suf"), ("O", "Suf"),
                           ("N", "Ins"), ("O", "Ins")]])
    snapshots = trace.decisions(decision="snapshot")
    if [s["payload"]["iteration"] for s in snapshots] != [0]:
        problems.append(f"sufficiency stop ran {len(snapshots)} rounds")
    elif (snapshots[0]["payload"]["support_score"] != 0.25
          or snapshots[0]["payload"]["insufficiency_ratio"] != 0.5):
        problems.append("sufficiency stop recorded wrong fractions")
    if trace.exchanges(task="refine_query"):
        problems.append("sufficiency stop still refined evidence")

    # everyone unsatisfied forever: full budget, one merge per extra round
    _, trace = run_panel([[("N", "Ins")] * 4] * 3)
    snapshots = trace.decisions(decision="snapshot")
    if [s["payload"]["iteration"] for s in snapshots] != [0, 1, 2]:
        problems.append(
            f"budget stop iterations "
            f"{[s['payload']['iteration'] for s in snapshots]} != [0, 1, 2]")
    merges = len(trace.exchanges(task="refine_query"))
    if merges != 2:
        problems.append(f"budget stop made {merges} merges, expected 2")

    # unanimous support beats unanimous insufficiency
    _, trace = run_panel([[("S", "Ins")] * 6])
    snapshots = trace.decisions(decision="snapshot")
    if [s["payload"]["iteration"] for s in snapshots] != [0]:
        problems.append(f"early stop ran {len(snapshots)} rounds")
    elif (snapshots[0]["payload"]["support_score"] != 1.0
          or snapshots[0]["payload"]["insufficiency_ratio"] != 1.0):
        problems.append("early stop recorded wrong fractions")
    if trace.exchanges(task="refine_query"):
        problems.append("early stop still refined evidence")
    conclude("deliberation stop rules fire in order", problems)


@pytest.mark.parametrize("n_paths,expected_batches", [(9, 2), (16, 2), (17, 3)])
def test_pruning_exchange_count_follows_batch_size(n_paths, expected_batches):
    """Path screening goes to the judge in batches of eight; the exchange
    count in the trace is the ceiling of paths over batch size."""
    problems = []
    ids = ["f", "d"]
    triples = [("f", f"rel{i:02d}", "d") for i in range(n_paths)]
    graph = make_graph(ids, triples,
                       names={"f": "Test finding", "d": "Condition d"})
    segments = [
        GuidelineSegment(segment_id=f"g-{i}", source_doc="doc-prune",
                         text=f"Management advice {i} for condition d.")
        for i in range(3)
    ]
    index = ingest_corpus(segments, HashEmbedder(dim=16))
    trace = Trace("prune-case")
    gateway = scripted_gateway(
        [(TaskKind.ALIGN, "", "1"),
         (TaskKind.VERBALIZE, "", "The finding links to the condition."),
         (TaskKind.PRUNE, "", approve_all_pruner)],
        trace)
    case = CaseDescription("prune-case", "A patient with one test finding.")
    findings = [AbnormalEntity(raw_mention="test finding", concept=graph.concept("f"))]
    package = build_initial_package(case, findings, "Condition d", graph,
                                    index, LexicalOverlapScorer(), gateway,
                                    k=8, n=4, h_max=1, prune_batch=8)
    if len(package.valid_paths) != n_paths:
        problems.append(
            f"{len(package.valid_paths)} paths survived, expected {n_paths}")
    batches = len(trace.exchanges(task="prune"))
    if batches != expected_batches:
        problems.append(f"{n_paths} paths took {batches} prune exchanges, "
                        f"expected {expected_batches}")
    conclude(f"pruning batch count for {n_paths} paths", problems)


def test_recorded_replay_is_deterministic_and_offline(replay_runs):
    """The bundled ten-case corpus, run twice with sockets disabled: both
    runs finish, agree digest-for-digest, and reproduce the recorded
    diagnoses inside the time budget."""
    problems = []
    (_, first), (_, second), elapsed = replay_runs
    expected = json.loads((FIXTURES / "expected_diagnoses.json").read_text())
    for result, tag in ((first, "first"), (second, "second")):
        bad = [row.case_id for row in result.rows if row.status != "ok"]
        if bad:
            problems.append(f"{tag} run failed cases: {bad}")
    if not problems:
        digests_a = {row.case_id: row.trace_digest for row in first.rows}
        digests_b = {row.case_id: row.trace_digest for row in second.rows}
        if digests_a != digests_b:
            diff = [c for c in digests_a if digests_a[c] != digests_b.get(c)]
            problems.append(f"digests differ between runs for {diff}")
        diagnoses = {row.case_id: row.final_diagnosis for row in first.rows}
        if diagnoses != expected:
            diff = {c: (diagnoses.get(c), expected.get(c))
                    for c in expected if diagnoses.get(c) != expected.get(c)}
            problems.append(f"diagnoses diverge from the recording: {diff}")
        wrong = [row.case_id for row in first.rows if not row.correct]
        if wrong:
            problems.append(f"cases scored incorrect: {wrong}")
    if elapsed >= 30.0:
        problems.append(f"two runs took {elapsed:.1f}s, budget 30s")
    conclude("recorded replay is deterministic and offline", problems)


def test_routing_is_exclusive_and_follows_organ_systems(replay_runs):
    """Every case goes down exactly one arm: direct cases never consult
    specialists, deliberated cases never use the direct close. The
    liver-kidney-skin presentation must convene hepatology, nephrology,
    and dermatology."""
    problems = []
    (out_a, first), _, _ = replay_runs
    flags = {}
    for row in first.rows:
        trace = Trace.load(out_a / f"{row.case_id}.trace.jsonl")
        flag = trace.decisions(decision="complexity")[0]["payload"]["flag"]
        flags[row.case_id] = flag
        rosters = trace.decisions(decision="roster")
        dispatches = trace.exchanges(task="dispatch")
        opinions = trace.exchanges(task="specialist_opinion")
        direct = trace.exchanges(task="generalist_direct")
        closing = trace.exchanges(task="final_adjudicate")
        route = trace.decisions(decision="final_report")[0]["payload"]["route"]
        if flag == "SIMPLE":
            if dispatches or opinions or rosters or closing:
                problems.append(f"{row.case_id}: direct case consulted the panel")
            if len(direct) != 1 or route != "direct":
                problems.append(f"{row.case_id}: direct close missing")
        elif flag == "COMPLEX":
            if direct:
                problems.append(f"{row.case_id}: deliberated case closed directly")
            if not dispatches or len(dispatches) != len(rosters):
                problems.append(
                    f"{row.case_id}: {len(dispatches)} dispatches for "
                    f"{len(rosters)} rosters")
            if not opinions or len(closing) != 1 or route != "deliberated":
                problems.append(f"{row.case_id}: deliberated close missing")
        else:
            problems.append(f"{row.case_id}: unknown flag {flag!r}")
    if sorted(set(flags.values())) != ["COMPLEX", "SIMPLE"]:
        problems.append(f"both routes should occur, saw {set(flags.values())}")

    trace = Trace.load(out_a / "case-02.trace.jsonl")
    rosters = {r["payload"]["hypothesis"]: r["payload"]["specialties"]
               for r in trace.decisions(decision="roster")}
    want = ["Hepatology", "Nephrology", "Dermatology"]
    if rosters.get("Drug-induced liver injury") != want:
        problems.append(
            f"jaundice+creatinine+rash convened "
            f"{rosters.get('Drug-induced liver injury')}, expected {want}")
    conclude("routing is exclusive and follows organ systems", problems)


def test_reported_metrics_match_an_independent_scorer(replay_runs):
    """The package's weighted metrics against the standalone
    confusion-matrix script, on a mixed hand fixture, a perfect fixture,
    and the replay batch itself."""
    problems = []
    oracle = _load_oracle_script()

    mixed = ([("PBC", "PBC")] * 5 + [("PBC", "DILI")] * 2
             + [("DILI", "DILI")] * 4 + [("DILI", "HBV")]
             + [("HBV", "HBV")] * 3 + [("HBV", "PBC")] * 2
             + [("HCC", "HCC")] * 2 + [("HCC", "AIH")])
    assert len(mixed) == 20
    ours = weighted_metrics(mixed)
    theirs = oracle.score_pairs(mixed)
    for key, mine in (("weighted_precision", ours.weighted_precision),
                      ("weighted_recall", ours.weighted_recall),
                      ("weighted_f1", ours.weighted_f1),
                      ("weighted_f05", ours.weighted_f05)):
        if not math.isclose(mine, theirs[key], abs_tol=1e-9):
            problems.append(f"mixed fixture {key}: {mine} != {theirs[key]}")
    if (ours.cases, ours.correct) != (theirs["cases"], theirs["correct"]):
        problems.append("mixed fixture case counts disagree")

    perfect = ([("PBC", "PBC")] * 8 + [("DILI", "DILI")] * 6
               + [("HBV", "HBV")] * 4 + [("HCC", "HCC")] * 2)
    report = weighted_metrics(perfect)
    for key, value in (("weighted_precision", report.weighted_precision),
                       ("weighted_recall", report.weighted_recall),
                       ("weighted_f1", report.weighted_f1),
                       ("weighted_f05", report.weighted_f05)):
        if not math.isclose(value, 100.0, abs_tol=1e-9):
            problems.append(f"perfect fixture {key}: {value} != 100")
        if f"{value:.2f}" != "100.00":
            problems.append(f"perfect fixture {key} prints {value:.2f}")

    (out_a, _), _, _ = replay_runs
    batch_pairs = oracle.read_pairs(str(out_a / "results.jsonl"))
    summary = json.loads((out_a / "summary.json").read_text())
    theirs = oracle.score_pairs(batch_pairs)
    for key in ("weighted_precision", "weighted_recall",
                "weighted_f1", "weighted_f05"):
        if not math.isclose(summary[key], theirs[key], abs_tol=1e-9):
            problems.append(f"batch {key}: {summary[key]} != {theirs[key]}")
    conclude("reported metrics match an independent scorer", problems)


def test_prompts_never_contain_evaluation_labels(replay_runs):
    """No prompt in any replay trace carries a ground-truth label; the
    labels exist only in the case file and the scoring output."""
    problems = []
    labels = [case.ground_truth for case in read_cases(FIXTURES / "cases.jsonl")]
    if len(labels) != 10 or any(not label for label in labels):
        problems.append("expected ten labeled cases in the fixture corpus")
    (out_a, first), (out_b, _), _ = replay_runs
    scanned = 0
    for out in (out_a, out_b):
        for row in first.rows:
            trace = Trace.load(out / f"{row.case_id}.trace.jsonl")
            hits = scan_for_leakage(trace, labels)
            scanned += len(trace.exchanges())
            if hits:
                problems.append(f"{out.name}/{row.case_id}: labels in "
                                f"prompts at {hits}")
    if scanned == 0:
        problems.append("no exchanges were scanned")
    conclude("prompts never contain evaluation labels", problems)
