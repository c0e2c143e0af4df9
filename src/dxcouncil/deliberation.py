"""Complexity routing, specialist panels, and the consensus loop.

A case judged SIMPLE goes straight to a single-physician close over the
prebuilt evidence. A COMPLEX case convenes a panel per candidate diagnosis:
each round the panel opines over identical evidence, the controller computes
the support score and the insufficiency ratio as exact stance fractions, and
either stops (strong support, sufficient evidence, or round budget) or sends
targeted queries to the caller's supplement builder and merges what returns.

The controller itself is pure arithmetic, not a model call; its only job is
counting stances against thresholds.

Each dispatch over the differential, each specialist's opinion in a panel
round, and each hypothesis's whole panel run as gateway branches. The stop
test reads only the round's opinions, so it is decided before the round
closes; a continuing round then closes (interim report, ``snapshot``
decision) in one branch while a second formulates its refinement queries
and builds the supplement. Records are committed to the case trace in
branch order, so each ``roster`` decision still follows its own dispatch
exchange, each ``snapshot`` precedes its round's refinement, and the panels
appear in differential order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

from .differential import (
    AbnormalEntity,
    CaseDescription,
    HypothesisSet,
    first_by,
    render_findings,
)
from .errors import ConfigError, DeliberationError
from .evidence import EvidencePackage, merge_packages, render_package, render_packages
from .gateway import Gateway, TaskKind

NEXT_STEPS_MARKER = "Next steps:"


class ComplexityFlag(Enum):
    SIMPLE = 0
    COMPLEX = 1


class Stance(Enum):
    SUPPORT = "S"
    NEUTRAL = "N"
    OPPOSE = "O"


class Sufficiency(Enum):
    SUFFICIENT = "Suf"
    INSUFFICIENT = "Ins"


@dataclass(frozen=True)
class SpecialistRoster:
    hypothesis: str
    specialties: tuple[str, ...]

    def __post_init__(self):
        if not self.specialties:
            raise DeliberationError(f"no specialists for {self.hypothesis!r}")
        if len(set(self.specialties)) != len(self.specialties):
            raise ValueError("roster entries must be pairwise distinct")


@dataclass(frozen=True)
class SpecialistOpinion:
    """One specialty's verdict; the enclosing ``ConsensusSnapshot`` names
    its hypothesis and round."""

    specialty: str
    stance: Stance
    confidence: float
    sufficiency: Sufficiency
    justification: str

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if not self.justification.strip():
            raise ValueError("justification must be non-empty")


@dataclass(frozen=True)
class ConsensusSnapshot:
    hypothesis: str
    iteration: int
    opinions: tuple[SpecialistOpinion, ...]
    support_score: float
    insufficiency_ratio: float
    interim_report: str


@dataclass(frozen=True)
class FinalReport:
    final_diagnosis: str
    per_hypothesis_snapshots: tuple[ConsensusSnapshot, ...]
    consensus_narrative: str
    recommended_next_steps: str


def consensus_score(opinions: list[SpecialistOpinion]) -> float:
    """Fraction of the panel whose stance is support. Confidence values do
    not enter this score; they are carried into reports only."""
    if not opinions:
        raise DeliberationError("cannot score an empty opinion list")
    return sum(1 for o in opinions if o.stance is Stance.SUPPORT) / len(opinions)


def insufficiency_ratio(opinions: list[SpecialistOpinion]) -> float:
    """Fraction of the panel judging the current evidence insufficient."""
    if not opinions:
        raise DeliberationError("cannot compute a ratio over no opinions")
    return (sum(1 for o in opinions if o.sufficiency is Sufficiency.INSUFFICIENT)
            / len(opinions))


def assess_complexity(case: CaseDescription, findings: list[AbnormalEntity],
                      hypotheses: HypothesisSet, gateway: Gateway) -> ComplexityFlag:
    word = gateway.complete(TaskKind.ASSESS_COMPLEXITY, {
        "narrative": case.narrative,
        "findings": render_findings(findings),
        "hypotheses": "; ".join(hypotheses),
    })
    flag = ComplexityFlag.SIMPLE if word == "SIMPLE" else ComplexityFlag.COMPLEX
    gateway.trace.decision("complexity", {"flag": flag.name})
    return flag


def _close(parsed: dict, hypotheses: HypothesisSet, route: str,
           snapshots: tuple[ConsensusSnapshot, ...], gateway: Gateway) -> FinalReport:
    """The Generalist Agent's close of a case, from its parsed answer: the
    diagnosis must name a hypothesis, ignoring case."""
    diagnosis = next((name for name in hypotheses
                      if name.casefold() == parsed["diagnosis"].casefold()), None)
    if diagnosis is None:
        raise DeliberationError(f"adjudicated diagnosis {parsed['diagnosis']!r} is not "
                                f"among the hypotheses {list(hypotheses)}")
    # the closing templates ask for a "Next steps:" line; absent one, the
    # whole report is the narrative
    narrative, _, next_steps = parsed["report"].partition(NEXT_STEPS_MARKER)
    gateway.trace.decision("final_report", {"final_diagnosis": diagnosis, "route": route})
    return FinalReport(final_diagnosis=diagnosis, per_hypothesis_snapshots=snapshots,
                       consensus_narrative=narrative.strip(),
                       recommended_next_steps=next_steps.strip())


def generalist_direct_diagnosis(case: CaseDescription,
                                findings: list[AbnormalEntity],
                                hypotheses: HypothesisSet,
                                packages: list[EvidencePackage],
                                gateway: Gateway) -> FinalReport:
    """Single-physician close for a SIMPLE case: one call over every
    candidate's prebuilt evidence, no panel convened."""
    parsed = gateway.complete(TaskKind.GENERALIST_DIRECT, {
        "narrative": case.narrative,
        "findings": render_findings(findings),
        "hypotheses": "; ".join(hypotheses),
        "packages": render_packages(packages),
    })
    return _close(parsed, hypotheses, "direct", (), gateway)


def dispatch_specialists(case: CaseDescription, findings: list[AbnormalEntity],
                         hypotheses: HypothesisSet | list[str], gateway: Gateway,
                         roster: tuple[str, ...], max_specialists: int,
                         ) -> list[SpecialistRoster]:
    """Choose which specialties review each candidate diagnosis, with one
    dispatch call per hypothesis, each a gateway branch.

    Names outside the configured roster are an error; duplicates collapse;
    anything past the cap is dropped in order. Each roster is traced right
    after its own call's exchange.
    """
    findings_text = render_findings(findings)

    def dispatch(hypothesis: str) -> SpecialistRoster:
        names = gateway.complete(TaskKind.DISPATCH, {
            "narrative": case.narrative,
            "findings": findings_text,
            "hypothesis": hypothesis,
            "roster": "; ".join(roster),
            "max_specialists": str(max_specialists),
        })
        for name in names:
            if name not in roster:
                raise DeliberationError(f"specialty {name!r} is not in the configured roster")
        if not names:
            raise DeliberationError(f"dispatch chose no specialists for {hypothesis!r}")
        chosen = first_by(names, str)[:max_specialists]
        gateway.trace.decision("roster", {"hypothesis": hypothesis, "specialties": chosen})
        return SpecialistRoster(hypothesis=hypothesis, specialties=tuple(chosen))

    return gateway.branches([partial(dispatch, hypothesis) for hypothesis in hypotheses])


def elicit_opinion(specialties: tuple[str, ...], case: CaseDescription,
                   findings: list[AbnormalEntity], hypothesis: str,
                   package: EvidencePackage, gateway: Gateway) -> list[SpecialistOpinion]:
    """One round's verdicts, one per specialty in order, over the shared
    evidence block; each specialty's call is a gateway branch."""
    findings_text, evidence = render_findings(findings), render_package(package)

    def opine(specialty: str) -> SpecialistOpinion:
        parsed = gateway.complete(TaskKind.SPECIALIST_OPINION, {
            "specialty": specialty,
            "narrative": case.narrative,
            "findings": findings_text,
            "hypothesis": hypothesis,
            "iteration": str(package.iteration),
            "evidence": evidence,
        })
        return SpecialistOpinion(specialty, Stance(parsed["stance"]), parsed["confidence"],
                                 Sufficiency(parsed["sufficiency"]), parsed["justification"])

    return gateway.branches([partial(opine, specialty) for specialty in specialties])


def formulate_refinement_queries(opinions: list[SpecialistOpinion],
                                 hypothesis: str, case: CaseDescription,
                                 findings: list[AbnormalEntity],
                                 gateway: Gateway) -> list[str]:
    """Turn the panel's insufficiency complaints into 1-3 retrieval queries."""
    gaps = [o for o in opinions if o.sufficiency is Sufficiency.INSUFFICIENT]
    if not gaps:
        raise DeliberationError("refinement requires at least one Ins opinion")
    rendered_gaps = "\n".join(f"- ({o.specialty}) {o.justification}" for o in gaps)
    return gateway.complete(TaskKind.REFINE_QUERY, {
        "hypothesis": hypothesis,
        "narrative": case.narrative,
        "findings": render_findings(findings),
        "gaps": rendered_gaps,
    })


def _render_opinions(opinions: list[SpecialistOpinion]) -> str:
    return "\n".join(
        f"- {o.specialty}: stance={o.stance.value}, confidence={o.confidence:.2f}, "
        f"evidence={o.sufficiency.value}, note: {o.justification}"
        for o in opinions)


def _close_round(hypothesis: str, iteration: int,
                 opinions: list[SpecialistOpinion], support: float,
                 insufficiency: float, gateway: Gateway) -> ConsensusSnapshot:
    """A round's interim report, then its ``snapshot`` decision."""
    report = gateway.complete(TaskKind.INTERIM_CONSENSUS, {
        "hypothesis": hypothesis,
        "iteration": str(iteration),
        "support_score": f"{support:.2f}",
        "insufficiency_ratio": f"{insufficiency:.2f}",
        "opinions": _render_opinions(opinions),
    })["report"]
    gateway.trace.decision("snapshot", {
        "hypothesis": hypothesis, "iteration": iteration,
        "support_score": support, "insufficiency_ratio": insufficiency,
        "stances": [o.stance.value for o in opinions],
        "sufficiency": [o.sufficiency.value for o in opinions],
    })
    return ConsensusSnapshot(
        hypothesis=hypothesis, iteration=iteration, opinions=tuple(opinions),
        support_score=support, insufficiency_ratio=insufficiency,
        interim_report=report)


def run_deliberation_loop(case: CaseDescription, findings: list[AbnormalEntity],
                          hypotheses: HypothesisSet,
                          packages: list[EvidencePackage],
                          rosters: list[SpecialistRoster],
                          supplement: Callable[[EvidencePackage, list[str]], EvidencePackage],
                          gateway: Gateway, *, tau_suff: float, tau_high: float,
                          t_max: int) -> list[ConsensusSnapshot]:
    """Run every hypothesis's panel to its stopping point.

    Every roster is checked against its hypothesis before any panel runs;
    the panels then run as gateway branches, and within a panel a continuing
    round's close runs beside its refinement, which asks
    ``supplement(base, queries)`` for the package its queries bring back.
    Stop order within a round: strong support first (s > tau_high), then
    evidence sufficiency (rho <= tau_suff), then the round budget. Returns
    one final snapshot per hypothesis, in differential order.
    """
    if t_max < 1:
        raise ConfigError("params.t_max", f"must be an integer >= 1, got {t_max!r}")
    panels = list(zip(hypotheses, packages, rosters))
    for hypothesis, _, roster in panels:
        if roster.hypothesis != hypothesis:
            raise DeliberationError(
                f"roster for {roster.hypothesis!r} paired with {hypothesis!r}")

    def refine(hypothesis: str, package: EvidencePackage,
               opinions: list[SpecialistOpinion]) -> EvidencePackage:
        return supplement(package, formulate_refinement_queries(
            opinions, hypothesis, case, findings, gateway))

    def panel(hypothesis: str, package: EvidencePackage,
              roster: SpecialistRoster) -> ConsensusSnapshot:
        for t in range(t_max):
            if package.iteration != t:
                raise DeliberationError(f"package iteration {package.iteration} != round {t}")
            opinions = elicit_opinion(roster.specialties, case, findings, hypothesis,
                                      package, gateway)
            support = consensus_score(opinions)
            insufficiency = insufficiency_ratio(opinions)
            close = partial(_close_round, hypothesis, t, opinions, support, insufficiency, gateway)
            if support > tau_high or insufficiency <= tau_suff or t + 1 == t_max:
                break
            # a continuing round's refinement reads only its opinions, so it
            # runs beside the round's close
            _, supplement = gateway.branches(
                [close, partial(refine, hypothesis, package, opinions)])
            package = merge_packages(package, supplement)
        return close()

    return gateway.branches([partial(panel, *args) for args in panels])


def final_adjudication(snapshots: list[ConsensusSnapshot], case: CaseDescription,
                       findings: list[AbnormalEntity], hypotheses: HypothesisSet,
                       gateway: Gateway) -> FinalReport:
    """Close a COMPLEX case: one holistic call over every panel's outcome."""
    sections = []
    for snap in snapshots:
        unresolved = [o.justification for o in snap.opinions
                      if o.sufficiency is Sufficiency.INSUFFICIENT]
        sections.append(
            f"Candidate: {snap.hypothesis}\n"
            f"  support score: {snap.support_score:.2f}\n"
            f"  panel report: {snap.interim_report}\n"
            f"  unresolved gaps: {'; '.join(unresolved) if unresolved else 'none'}")
    parsed = gateway.complete(TaskKind.FINAL_ADJUDICATE, {
        "narrative": case.narrative,
        "findings": render_findings(findings),
        "summaries": "\n".join(sections),
    })
    return _close(parsed, hypotheses, "deliberated", tuple(snapshots), gateway)
