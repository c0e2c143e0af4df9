"""Prompt templates, one per task kind.

Placeholders are ``{lower_snake}`` names. Each template text is split into
literal and placeholder parts once, when the template is registered; a
render joins the literals with the values, so substitution is still a single
pass and a brace sequence inside a substituted value is never re-expanded.
Literal JSON shown in instruction text is safe because a placeholder match
requires the name alone between the braces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import GatewayError


class TaskKind(Enum):
    NER = "ner"
    ALIGN = "align"
    HYPOTHESIZE = "hypothesize"
    VERBALIZE = "verbalize"
    PRUNE = "prune"
    ASSESS_COMPLEXITY = "assess_complexity"
    DISPATCH = "dispatch"
    SPECIALIST_OPINION = "specialist_opinion"
    REFINE_QUERY = "refine_query"
    INTERIM_CONSENSUS = "interim_consensus"
    FINAL_ADJUDICATE = "final_adjudicate"
    GENERALIST_DIRECT = "generalist_direct"


_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    kind: TaskKind
    system: str
    user: str
    # each text split by _PLACEHOLDER: literals at even positions, names at odd
    _parts: tuple[list[str], list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_parts", (_PLACEHOLDER.split(self.system),
                                            _PLACEHOLDER.split(self.user)))

    def render(self, variables: dict[str, str]) -> tuple[str, str]:
        """Fill both message bodies; unknown placeholder names are an error,
        unused variables are ignored."""
        system, user = self._parts
        return self._fill(system, variables), self._fill(user, variables)

    def _fill(self, parts: list[str], variables: dict[str, str]) -> str:
        filled = parts.copy()
        for i in range(1, len(filled), 2):
            name = filled[i]
            if name not in variables:
                raise GatewayError(
                    f"placeholder {{{name}}} unbound for task {self.kind.value!r}")
            filled[i] = str(variables[name])
        return "".join(filled)


_REGISTRY: dict[TaskKind, PromptTemplate] = {}


def get_template(kind: TaskKind) -> PromptTemplate:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(f"no template registered for kind={kind.value!r}")


def _reg(kind: TaskKind, system: str, user: str) -> None:
    if kind in _REGISTRY:
        raise ValueError(f"template already registered for {kind}")
    _REGISTRY[kind] = PromptTemplate(kind, system, user)


# kept identical across specialists of one iteration; a trace diff over this
# block must come up empty
EVIDENCE_OPEN = "=== EVIDENCE ==="
EVIDENCE_CLOSE = "=== END EVIDENCE ==="


_reg(
    TaskKind.NER,
    system=(
        "You are a clinical information extractor. You identify abnormal findings "
        "(symptoms, signs, abnormal labs, abnormal imaging) in patient records. "
        "You never invent findings that are not stated."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "List every abnormal clinical finding mentioned above, in order of appearance. "
        "Use the shortest span that names the abnormality.\n"
        "Respond with a JSON array of strings and nothing else. "
        "If there are no abnormal findings, respond with []."
    ),
)

_reg(
    TaskKind.ALIGN,
    system=(
        "You are a medical terminology normalizer. Given a clinical mention and a "
        "numbered list of standardized vocabulary entries, you pick the entry that "
        "means the same thing as the mention."
    ),
    user=(
        "Mention: {mention}\n\n"
        "Candidate standardized entries:\n"
        "{candidates}\n\n"
        "Respond with the number of the best-matching entry, and nothing else. "
        "If no entry is a correct match, respond with NONE."
    ),
)

_reg(
    TaskKind.HYPOTHESIZE,
    system=(
        "You are an experienced physician forming an initial differential diagnosis. "
        "You propose only diagnoses consistent with the presented findings, most "
        "likely first."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "Standardized abnormal findings: {findings}\n\n"
        "Propose the differential diagnosis as a JSON array of at most {k_max} "
        "disease names, ordered from most to least likely. Respond with the JSON "
        "array and nothing else."
    ),
)

_reg(
    TaskKind.VERBALIZE,
    system=(
        "You turn structured medical relation chains into fluent clinical prose. "
        "You state exactly the relations given, without adding qualifiers."
    ),
    user=(
        "Relation chain:\n"
        "{path}\n\n"
        "Rewrite this chain as a single plain-language sentence describing the "
        "mechanism linking the first entity to the last. Respond with the sentence only."
    ),
)

_reg(
    TaskKind.PRUNE,
    system=(
        "You are a clinical evidence auditor. For each proposed mechanistic "
        "explanation you judge whether it is clinically coherent for this patient "
        "and consistent with the guideline excerpts provided."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "Guideline excerpts:\n"
        "{guidelines}\n\n"
        "Candidate explanations ({path_count} total):\n"
        "{paths}\n\n"
        "For each explanation in order, output 1 if it is a clinically coherent, "
        "guideline-supported explanation for this patient, else 0. Respond with "
        "exactly {path_count} comma-separated digits and nothing else."
    ),
)

_reg(
    TaskKind.ASSESS_COMPLEXITY,
    system=(
        "You are a triage physician judging how hard a diagnostic case is. A case "
        "is SIMPLE when the findings point clearly to one leading diagnosis; it is "
        "COMPLEX when findings span multiple organ systems, conflict, or leave "
        "several plausible diagnoses in genuine competition."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "Abnormal findings: {findings}\n"
        "Current differential: {hypotheses}\n\n"
        "Respond with exactly one word: SIMPLE or COMPLEX."
    ),
)

_reg(
    TaskKind.DISPATCH,
    system=(
        "You are the coordinating physician of a multidisciplinary case conference. "
        "You invite only the specialties whose expertise bears on evaluating the "
        "stated candidate diagnosis for this patient."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "Abnormal findings: {findings}\n"
        "Candidate diagnosis under review: {hypothesis}\n\n"
        "Available specialties: {roster}\n\n"
        "Choose at most {max_specialists} specialties from the available list. "
        "Respond with a JSON array of specialty names exactly as written above, "
        "and nothing else."
    ),
)

_reg(
    TaskKind.SPECIALIST_OPINION,
    system=(
        "You are a consulting {specialty} specialist in a diagnostic case "
        "conference. You judge one candidate diagnosis strictly from the patient "
        "record and the shared evidence, from the perspective of your specialty."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "Abnormal findings: {findings}\n"
        "Candidate diagnosis: {hypothesis}\n"
        "Deliberation round: {iteration}\n\n"
        + EVIDENCE_OPEN + "\n"
        "{evidence}\n"
        + EVIDENCE_CLOSE + "\n\n"
        "Give your opinion as a JSON object with keys:\n"
        '  "stance": "S" (support), "N" (neutral), or "O" (oppose)\n'
        '  "confidence": a number between 0 and 1\n'
        '  "sufficiency": "Suf" if the evidence above suffices to judge this '
        'diagnosis, else "Ins"\n'
        '  "justification": one or two sentences for your stance, naming any '
        "missing evidence\n"
        "Respond with the JSON object and nothing else."
    ),
)

_reg(
    TaskKind.REFINE_QUERY,
    system=(
        "You formulate targeted literature and knowledge-base queries to close "
        "specific evidence gaps raised during a diagnostic case conference."
    ),
    user=(
        "Candidate diagnosis: {hypothesis}\n"
        "Patient record:\n"
        "{narrative}\n\n"
        "Abnormal findings: {findings}\n\n"
        "Identified knowledge gaps:\n"
        "{gaps}\n\n"
        "Write 1 to 3 short retrieval queries that would close these gaps for this "
        "diagnosis. Respond with a JSON array of query strings and nothing else."
    ),
)

_reg(
    TaskKind.INTERIM_CONSENSUS,
    system=(
        "You are the moderator of a diagnostic case conference. You summarize the "
        "panel's current position on one candidate diagnosis faithfully, without "
        "adding your own judgment."
    ),
    user=(
        "Candidate diagnosis: {hypothesis}\n"
        "Deliberation round: {iteration}\n"
        "Support score: {support_score}\n"
        "Insufficiency ratio: {insufficiency_ratio}\n\n"
        "Panel opinions:\n"
        "{opinions}\n\n"
        "Summarize the panel's position in 2 to 4 sentences. Respond with a JSON "
        'object {"report": "<summary>"} and nothing else.'
    ),
)

_reg(
    TaskKind.FINAL_ADJUDICATE,
    system=(
        "You are the senior attending physician closing a multidisciplinary case "
        "conference. You weigh every panel's position and commit to exactly one "
        "final diagnosis from the candidates reviewed."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "Abnormal findings: {findings}\n\n"
        "Panel outcomes per candidate diagnosis:\n"
        "{summaries}\n\n"
        "Select the single best-supported diagnosis from the candidates above. "
        "Respond with a JSON object "
        '{"diagnosis": "<candidate name>", "report": "<consensus narrative, then '
        "a line starting with 'Next steps:' listing recommended follow-up>\"} "
        "and nothing else."
    ),
)

_reg(
    TaskKind.GENERALIST_DIRECT,
    system=(
        "You are an experienced general physician closing a straightforward case. "
        "You commit to one diagnosis from the current differential using the "
        "evidence compiled for each candidate."
    ),
    user=(
        "Patient record:\n"
        "{narrative}\n\n"
        "Abnormal findings: {findings}\n"
        "Differential: {hypotheses}\n\n"
        "Evidence per candidate:\n"
        "{packages}\n\n"
        "Select the single best-supported diagnosis from the differential. "
        "Respond with a JSON object "
        '{"diagnosis": "<candidate name>", "report": "<brief rationale, then a '
        "line starting with 'Next steps:' listing recommended follow-up>\"} "
        "and nothing else."
    ),
)
