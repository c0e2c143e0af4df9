"""Per-hypothesis evidence packages: guideline excerpts plus pruned graph paths.

A package is built once per hypothesis before deliberation and grows through
merges when specialists demand more evidence. Path pruning is a batched
binary judgment made with the top guideline excerpts in context, so a path
survives only when the model deems it coherent for this patient and
consistent with the guidance shown.

Initial packages and supplements come from one builder: each retrieval
query runs as a gateway branch beside the path work (aligning the hypothesis
for an initial package, then enumerating and verbalizing paths), and only
pruning needs both. An initial package's path work speculates past its
align: the paths to the hypothesis's exact top match are enumerated and
verbalized beside the align call, and dropped if the aligner picks another
concept or none (``Gateway.speculate``). A hypothesis the aligner cannot
pin takes the same path with no paths to prune, so its package is
degraded. Within the path work, each finding's paths, each path's
verbalization and each prune batch run as branches too. Branches commit in
the order the steps were written, and speculative work after the align it
waited on, so each ``retrieval``, ``paths`` and ``prune_batch`` trace
record lands where a run made one call after another puts it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .backends import CrossScorer
from .differential import AbnormalEntity, CaseDescription, align_mentions, first_by
from .errors import DeliberationError
from .gateway import Gateway, TaskKind
from .guidelines import GuidelineIndex, RankedSegment, composite_query, g_ret
from .kg import Concept, KnowledgeGraph, KnowledgePath, normalize_term, verbalize_path

# excerpts shown to the pruning judge; bounds prompt size
PRUNE_CONTEXT_EXCERPTS = 2


@dataclass(frozen=True)
class EvidencePackage:
    """Evidence for one hypothesis at one deliberation iteration.

    pruned_paths is the full audit: every enumerated-and-verbalized path with
    its rejection flag. valid_paths is derived from it: the accepted paths,
    keeping the first of each edge key. degraded is derived too: a hypothesis
    with no graph concept carries guideline excerpts only.
    """

    hypothesis: str
    iteration: int
    guideline_excerpts: tuple[RankedSegment, ...]
    pruned_paths: tuple[tuple[KnowledgePath, bool], ...]
    disease_concept_id: str | None = None

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")

    @property
    def valid_paths(self) -> tuple[KnowledgePath, ...]:
        return tuple(first_by((p for p, rejected in self.pruned_paths if not rejected),
                              KnowledgePath.edge_key))

    @property
    def degraded(self) -> bool:
        return self.disease_concept_id is None


def _check_partition(valid: list[KnowledgePath], rejected: list[KnowledgePath],
                     enumerated: list[KnowledgePath]) -> None:
    v = {p.edge_key() for p in valid}
    r = {p.edge_key() for p in rejected}
    if v & r or v | r != {p.edge_key() for p in enumerated}:
        raise DeliberationError("pruning must split the paths into valid and rejected")


def prune_paths(paths: list[KnowledgePath], case: CaseDescription,
                guideline_top: list[RankedSegment], gateway: Gateway, prune_batch: int,
                ) -> tuple[list[KnowledgePath], list[KnowledgePath]]:
    """Judge verbalized paths in contiguous batches, preserving order.

    Returns (valid, rejected); len(valid) + len(rejected) equals len(paths)
    and the number of model calls is ceil(len/prune_batch). Each batch's bits
    and guideline context are recorded in the trace as a prune_batch record.
    """
    for path in paths:
        if not path.verbalization:
            raise ValueError(f"path {path.describe()} is not verbalized")
    guideline_text = "\n".join(
        f"[{seg.segment.segment_id}] {seg.segment.text}" for seg in guideline_top
    ) or "none available"
    context_ids = tuple(seg.segment.segment_id for seg in guideline_top)
    batches = [paths[start:start + prune_batch]
               for start in range(0, len(paths), prune_batch)]

    def judge(batch_index: int, batch: list[KnowledgePath]) -> tuple[int, ...]:
        bits = gateway.complete(TaskKind.PRUNE, {
            "narrative": case.narrative,
            "guidelines": guideline_text,
            "paths": "\n".join(f"{i}. {p.verbalization}" for i, p in enumerate(batch, start=1)),
            "path_count": str(len(batch)),
        })
        gateway.trace.prune_batch(batch_index=batch_index, size=len(batch),
                                  bits=list(bits), guideline_ids=list(context_ids))
        return bits

    judged = gateway.branches([partial(judge, i, batch) for i, batch in enumerate(batches)])
    valid: list[KnowledgePath] = []
    rejected: list[KnowledgePath] = []
    for batch, bits in zip(batches, judged):
        for path, bit in zip(batch, bits):
            (valid if bit == 1 else rejected).append(path)
    _check_partition(valid, rejected, paths)
    return valid, rejected


def _enumerate_and_verbalize(finding_ids: list[str], disease_id: str,
                             graph: KnowledgeGraph, gateway: Gateway,
                             h_max: int) -> list[KnowledgePath]:
    def finding(finding_id: str, paths: list[KnowledgePath]) -> list[KnowledgePath]:
        gateway.trace.paths(start=finding_id, end=disease_id, h_max=h_max,
                            enumerated=[p.describe() for p in paths])
        return verbalize_path(paths, gateway)

    verbalized = gateway.branches([
        partial(finding, finding_id, graph.enumerate_paths(finding_id, disease_id, h_max))
        for finding_id in finding_ids if finding_id != disease_id])
    return [path for paths in verbalized for path in paths]


def _package(case: CaseDescription, hypothesis: str, queries: list[str],
             paths: Callable[[], tuple[str | None, list[KnowledgePath]]],
             index: GuidelineIndex, scorer: CrossScorer, gateway: Gateway,
             k: int, n: int, prune_batch: int) -> EvidencePackage:
    """The one package builder. Each query's retrieval runs as a branch
    beside ``paths``, which returns the disease concept id (None for a
    hypothesis the aligner cannot pin) and the verbalized paths; the first
    excerpt of each segment id is kept, and pruning needs them all."""
    *retrieved, (disease_id, verbalized) = gateway.branches(
        [partial(g_ret, index, query, scorer, gateway.trace, k, n) for query in queries]
        + [paths])
    excerpts = first_by([seg for ranked in retrieved for seg in ranked], _segment_id)
    _, rejected = prune_paths(
        verbalized, case, excerpts[:PRUNE_CONTEXT_EXCERPTS], gateway, prune_batch)
    rejected_keys = {p.edge_key() for p in rejected}
    return EvidencePackage(
        hypothesis=hypothesis, iteration=0, guideline_excerpts=tuple(excerpts),
        pruned_paths=tuple((p, p.edge_key() in rejected_keys) for p in verbalized),
        disease_concept_id=disease_id)


def _segment_id(seg: RankedSegment) -> str:
    return seg.segment.segment_id


def build_initial_package(case: CaseDescription, findings: list[AbnormalEntity],
                          hypothesis: str, graph: KnowledgeGraph,
                          index: GuidelineIndex, scorer: CrossScorer,
                          gateway: Gateway, k: int, n: int, h_max: int,
                          prune_batch: int) -> EvidencePackage:
    """Assemble the iteration-0 package for one hypothesis, retrieving with
    the composite query of hypothesis and findings. The path work aligns the
    hypothesis, then enumerates and verbalizes paths; when the hypothesis's
    top match is exact, the paths to that concept are enumerated and
    verbalized beside its align, and kept if the aligner picks it (see
    ``align_mentions``). A hypothesis the aligner cannot pin gets guideline
    excerpts only."""

    def paths_to(aligned: list[Concept | None]) -> tuple[str | None, list[KnowledgePath]]:
        [disease] = aligned
        if disease is None:
            return None, []
        return disease.id, _enumerate_and_verbalize(
            [f.concept.id for f in findings], disease.id, graph, gateway, h_max)

    def paths() -> tuple[str | None, list[KnowledgePath]]:
        return align_mentions([hypothesis], graph, gateway, paths_to)

    query = composite_query(hypothesis, [f.concept.preferred_name for f in findings])
    return _package(case, hypothesis, [query], paths, index, scorer, gateway,
                    k, n, prune_batch)


def build_supplement_package(case: CaseDescription, findings: list[AbnormalEntity],
                             base: EvidencePackage, queries: list[str],
                             graph: KnowledgeGraph, index: GuidelineIndex,
                             scorer: CrossScorer, gateway: Gateway, k: int, n: int,
                             h_max: int, prune_batch: int) -> EvidencePackage:
    """Run refinement queries and package what they bring back.

    Each query's own text is a retrieval query. Path enumeration re-runs
    only for findings a query names (normalized name or synonym substring);
    the disease side is the hypothesis's own concept.
    """
    def paths() -> tuple[str | None, list[KnowledgePath]]:
        disease_id = base.disease_concept_id
        named = _findings_named_in_queries(findings, queries)
        if disease_id is None or not named:
            return disease_id, []
        return disease_id, _enumerate_and_verbalize(
            [f.concept.id for f in named], disease_id, graph, gateway, h_max)

    return _package(case, base.hypothesis, queries, paths, index, scorer, gateway,
                    k, n, prune_batch)


def _findings_named_in_queries(findings: list[AbnormalEntity],
                               queries: list[str]) -> list[AbnormalEntity]:
    normalized_queries = [normalize_term(q) for q in queries]
    named: list[AbnormalEntity] = []
    for finding in findings:
        names = [normalize_term(name)
                 for name in (finding.concept.preferred_name, *finding.concept.synonyms)]
        if any(name in nq for name in names for nq in normalized_queries):
            named.append(finding)
    return named


def merge_packages(base: EvidencePackage, supplement: EvidencePackage) -> EvidencePackage:
    """Fold a supplement into the base package: excerpts keep the first of
    each segment id, base first; audits concatenate, so the valid paths are
    the union in base order; and the iteration steps forward by one."""
    if base.hypothesis != supplement.hypothesis:
        raise DeliberationError(
            f"cannot merge packages for {base.hypothesis!r} and "
            f"{supplement.hypothesis!r}")
    return replace(
        base,
        iteration=base.iteration + 1,
        guideline_excerpts=tuple(first_by(
            base.guideline_excerpts + supplement.guideline_excerpts, _segment_id)),
        pruned_paths=base.pruned_paths + supplement.pruned_paths,
    )


def render_package(package: EvidencePackage) -> str:
    """The evidence block shown to every specialist judging this hypothesis.

    One rendering for all consumers, so prompts across a panel iteration
    carry byte-identical evidence sections.
    """
    lines: list[str] = []
    if package.guideline_excerpts:
        lines.append("Guideline excerpts:")
        lines.extend(f"[{seg.segment.segment_id}] {seg.segment.text}"
                     for seg in package.guideline_excerpts)
    else:
        lines.append("Guideline excerpts: none retrieved")
    if valid := package.valid_paths:
        lines.append("Mechanistic explanations from the knowledge graph:")
        lines.extend(f"- {p.verbalization}" for p in valid)
    elif package.degraded:
        lines.append("Knowledge-graph evidence: unavailable for this diagnosis name")
    else:
        lines.append("Knowledge-graph evidence: no surviving explanation chains")
    return "\n".join(lines)


def render_packages(packages: list[EvidencePackage]) -> str:
    """Per-candidate evidence sections for the single-physician close."""
    sections = []
    for package in packages:
        sections.append(f"--- Candidate: {package.hypothesis} ---\n"
                        + render_package(package))
    return "\n\n".join(sections)
