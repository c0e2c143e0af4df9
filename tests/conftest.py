"""Shared fixtures and harnesses for the test suite."""

from __future__ import annotations

import json
import re
import socket
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

from dxcouncil.backends import HashEmbedder, LexicalOverlapScorer
from dxcouncil.deliberation import DEFAULT_ROSTER, run_deliberation_loop
from dxcouncil.differential import CaseDescription, HypothesisSet
from dxcouncil.evidence import EvidencePackage
from dxcouncil.gateway import Gateway, ScriptedResponder, TaskKind
from dxcouncil.guidelines import GuidelineSegment, ingest_corpus
from dxcouncil.kg import Concept, Edge, KnowledgeGraph, load_kg
from dxcouncil.trace import Trace

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_graph() -> KnowledgeGraph:
    return load_kg(FIXTURES / "triples.tsv", FIXTURES / "concepts.tsv")


@pytest.fixture(scope="session")
def fixture_cases() -> list[dict]:
    rows = []
    for line in (FIXTURES / "cases.jsonl").read_text().splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


def make_graph(concept_ids: list[str], triples: list[tuple[str, str, str]],
               names: dict[str, str] | None = None,
               synonyms: dict[str, frozenset[str]] | None = None) -> KnowledgeGraph:
    """Inline graph builder: ids double as preferred names unless overridden."""
    names = names or {}
    synonyms = synonyms or {}
    concepts = [Concept(id=c, preferred_name=names.get(c, c),
                        synonyms=synonyms.get(c, frozenset()))
                for c in concept_ids]
    return KnowledgeGraph(concepts, [Edge(*t) for t in triples])


def scripted_gateway(rules, trace: Trace | None = None) -> Gateway:
    return Gateway(ScriptedResponder(rules), trace or Trace("scripted"), {})


@contextmanager
def blocked_network():
    """Fail the test if anything tries to open a socket."""

    def deny(*args, **kwargs):
        raise AssertionError("network access attempted during an offline test")

    with mock.patch.object(socket.socket, "connect", deny), \
            mock.patch.object(socket, "create_connection", deny):
        yield


@pytest.fixture
def no_network():
    with blocked_network():
        yield


# -- panel harness -----------------------------------------------------------

_OPINION_ROUND = re.compile(r"Deliberation round: (\d+)\n")
_SPECIALIST = re.compile(r"consulting (.+?) specialist")
_PATH_COUNT = re.compile(r"Candidate explanations \((\d+) total\):")

PANEL_CORPUS = [
    GuidelineSegment("s1", "doc", "General guidance on liver disease evaluation."),
    GuidelineSegment("s2", "doc", "Criteria for staging chronic hepatic conditions."),
]


def run_panel(rounds: list[list[tuple[str, str]]], *, tau_suff: float = 0.5,
              tau_high: float = 0.9, t_max: int = 3):
    """Drive one hypothesis's deliberation with scripted opinion streams.

    rounds[t] lists (stance, sufficiency) per specialist for round t; the
    roster size is len(rounds[0]). Returns (final snapshots, trace).
    """
    specialists = DEFAULT_ROSTER[:len(rounds[0])]
    case = CaseDescription("panel-case", "A patient under panel review.")
    hypothesis = "Condition X"

    def opinion(system: str, user: str) -> str:
        t = int(_OPINION_ROUND.search(user).group(1))
        name = _SPECIALIST.search(system).group(1)
        stance, suff = rounds[t][specialists.index(name)]
        return json.dumps({"stance": stance, "confidence": 0.6,
                           "sufficiency": suff,
                           "justification": "scripted panel stream"})

    rules = [
        (TaskKind.SPECIALIST_OPINION, "", opinion),
        (TaskKind.INTERIM_CONSENSUS, "", '{"report": "panel interim summary"}'),
        (TaskKind.REFINE_QUERY, "", '["staging criteria for this condition"]'),
    ]
    trace = Trace(case.case_id)
    gateway = scripted_gateway(rules, trace)
    graph = make_graph(["a", "b"], [("a", "causes", "b")])
    index = ingest_corpus(PANEL_CORPUS, HashEmbedder(dim=16))
    package = EvidencePackage(hypothesis=hypothesis, iteration=0,
                              guideline_excerpts=(), pruned_paths=())
    from dxcouncil.deliberation import SpecialistRoster
    roster = SpecialistRoster(hypothesis=hypothesis, specialties=tuple(specialists))
    finals = run_deliberation_loop(
        case, [], HypothesisSet((hypothesis,)), [package], [roster],
        graph, index, LexicalOverlapScorer(), gateway,
        tau_suff=tau_suff, tau_high=tau_high, t_max=t_max)
    return finals, trace


def approve_all_pruner(system: str, user: str) -> str:
    """PRUNE response accepting every path in the batch."""
    count = int(_PATH_COUNT.search(user).group(1))
    return ",".join(["1"] * count)
