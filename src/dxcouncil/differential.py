"""Finding extraction, concept standardization, and the initial differential.

The first pipeline stage: pull abnormal finding mentions out of the case
narrative, pin each one to a graph concept (or drop it when the aligner says
no candidate fits), then ask for a bounded list of candidate diagnoses. The
aligner calls for a case's mentions run as gateway branches, one per
mention. What follows an alignment may start on its guessed outcome beside
those calls (``align_mentions``): the differential beside a case's finding
aligns, and a hypothesis's path work beside its own align (see
``evidence``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, TextIO, TypeVar

from .errors import DeliberationError, JudgmentParseError, ResourceError
from .gateway import Gateway, TaskKind
from .jsonl import read_jsonl, text_field
from .kg import Concept, KnowledgeGraph
from .trace import SUFFIX

# vocabulary entries offered to the aligner per mention
ALIGN_CANDIDATES = 5

T = TypeVar("T")


def first_by(items: Iterable, key: Callable[[Any], Hashable]) -> list:
    """``items`` in order, keeping only the first of each ``key``."""
    firsts: dict = {}
    for item in items:
        firsts.setdefault(key(item), item)
    return list(firsts.values())


@dataclass(frozen=True)
class CaseDescription:
    """One patient case. ground_truth exists for evaluation only and must
    never reach a rendered prompt."""

    case_id: str
    narrative: str
    ground_truth: str | None = None

    def __post_init__(self):
        if not self.narrative.strip():
            raise ValueError(f"case {self.case_id!r} has an empty narrative")


@dataclass(frozen=True)
class AbnormalEntity:
    raw_mention: str
    concept: Concept


@dataclass(frozen=True)
class HypothesisSet:
    hypotheses: tuple[str, ...]

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("differential is empty")
        folded = [h.casefold() for h in self.hypotheses]
        if len(set(folded)) != len(folded):
            raise ValueError("differential entries must be pairwise distinct")

    def __iter__(self):
        return iter(self.hypotheses)


def read_cases(source: str | Path | TextIO) -> list[CaseDescription]:
    """Parse a JSONL case file: case_id, narrative, optional ground_truth."""
    cases: list[CaseDescription] = []
    seen: set[str] = set()
    for name, line_no, case in read_jsonl(source, _case_row, "case"):
        if case.case_id in seen:
            raise ResourceError(f"{name}:{line_no}: duplicate case id {case.case_id!r}")
        seen.add(case.case_id)
        cases.append(case)
    return cases


def _case_row(row: dict) -> CaseDescription:
    # the id names the case's trace file, so it must be one plain file name
    case_id = text_field(row, "case_id")
    if case_id in ("", ".", "..") or "/" in case_id or "\0" in case_id:
        raise ValueError(f"case_id {case_id!r} is not a plain file name")
    size = len(case_id.encode("utf-8")) + len(SUFFIX)
    if size > 255:  # NAME_MAX, the longest file name in bytes on Linux file systems
        raise ValueError(f"case_id {case_id!r} makes a trace file name of {size} "
                         "UTF-8 bytes, over 255")
    return CaseDescription(
        case_id=case_id,
        narrative=text_field(row, "narrative"),
        ground_truth=(text_field(row, "ground_truth")
                      if row.get("ground_truth") is not None else None),
    )


def render_findings(findings: list[AbnormalEntity]) -> str:
    """The one rendering of the finding list used by every downstream prompt,
    in narrative extraction order."""
    if not findings:
        return "none recorded"
    return "; ".join(f.concept.preferred_name for f in findings)


def align_mentions(mentions: list[str], graph: KnowledgeGraph, gateway: Gateway,
                   then: Callable[[list[Concept | None]], T]) -> T:
    """``then`` of each mention pinned to a graph concept: the aligner's
    pick among the top matches, or None when nothing matches or the aligner
    answers NONE. The aligner calls for all the mentions run as gateway
    branches.

    Each mention is matched once, and its matches give both the candidates
    the aligner is shown and the guess of its answer: the top match when
    that is an exact name or synonym match, None when nothing matches. When
    every mention has a guess and some aligner call is to be made, ``then``
    starts on the guessed alignment beside the calls (``Gateway.speculate``).
    """
    matches = [graph.match_entity(mention, limit=ALIGN_CANDIDATES) for mention in mentions]

    def align(mention: str, candidates: tuple[Concept, ...]) -> Concept | None:
        if not candidates:
            return None
        choice = gateway.complete(TaskKind.ALIGN, {
            "mention": mention,
            "candidates": "\n".join(f"{i}. {c.preferred_name}"
                                     for i, c in enumerate(candidates, start=1))})
        if choice is None:
            return None
        if not 1 <= choice <= len(candidates):
            raise JudgmentParseError(
                f"candidate number {choice} outside 1..{len(candidates)} "
                f"for mention {mention!r}", span=str(choice))
        return candidates[choice - 1]

    def decide() -> list[Concept | None]:
        return gateway.branches([partial(align, mention, tuple(m.concept for m in found))
                                 for mention, found in zip(mentions, matches)])

    if not any(matches) or not all(found[0].exact for found in matches if found):
        return then(decide())
    return gateway.speculate(decide, [found[0].concept if found else None
                                      for found in matches], then)


def extract_abnormal_entities(case: CaseDescription, gateway: Gateway,
                              graph: KnowledgeGraph,
                              then: Callable[[list[AbnormalEntity]], T]) -> T:
    """Extract raw mentions, standardize each against the graph, keep the
    survivors in narrative order with same-concept duplicates collapsed,
    and return ``then`` of those findings, which may start on the guessed
    findings beside the aligner calls (see ``align_mentions``)."""
    mentions = gateway.complete(TaskKind.NER, {"narrative": case.narrative})

    def findings(aligned: list[Concept | None]) -> T:
        return then(first_by([AbnormalEntity(mention, concept)
                              for mention, concept in zip(mentions, aligned)
                              if concept is not None],
                             lambda finding: finding.concept.id))

    return align_mentions(mentions, graph, gateway, findings)


def generate_hypotheses(case: CaseDescription, findings: list[AbnormalEntity],
                        gateway: Gateway, k_max: int) -> HypothesisSet:
    """Ask for the bounded initial differential.

    Raw lists longer than k_max are a cardinality error before dedup; an
    empty differential stops the pipeline.
    """
    items = gateway.complete(TaskKind.HYPOTHESIZE, {
        "narrative": case.narrative,
        "findings": render_findings(findings),
        "k_max": str(k_max),
    })
    deduped = first_by(items, str.casefold)
    if not deduped:
        raise DeliberationError(
            f"case {case.case_id!r}: model produced no diagnoses")
    return HypothesisSet(tuple(deduped))
