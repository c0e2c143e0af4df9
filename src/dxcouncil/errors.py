"""Exception hierarchy for the diagnostic engine.

Every failure mode the pipeline can surface has a dedicated class so callers
(and the CLI exit-code mapping) can distinguish bad configuration, bad
resources, model-output violations, and per-case failures.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


# -- knowledge graph ---------------------------------------------------------

class KgLoadError(EngineError):
    """A concept or triple file line could not be loaded."""

    def __init__(self, source: str, line_no: int, message: str):
        self.source = source
        self.line_no = line_no
        super().__init__(f"{source}:{line_no}: {message}")


class DanglingReferenceError(EngineError):
    """A triple references a concept id that was never defined."""

    def __init__(self, concept_id: str, line_no: int):
        self.concept_id = concept_id
        self.line_no = line_no
        super().__init__(f"triple line {line_no} references unknown concept id {concept_id!r}")


class UnknownConceptError(EngineError):
    """An operation was asked about a concept id not in the graph."""


class EmptyMentionError(EngineError):
    """An entity mention is empty after normalization."""


class PathEndpointsError(EngineError):
    """Path enumeration was asked for a path from a node to itself."""


class VerbalizationError(EngineError):
    """A path could not be verbalized; carries the path identity."""


# -- guideline index ---------------------------------------------------------

class CorpusError(EngineError):
    """A guideline corpus file is malformed."""


class EmptyCorpusError(EngineError):
    """The corpus contains no segments."""


class DimensionMismatchError(EngineError):
    """An embedding backend returned vectors of inconsistent dimension."""


class EmbeddingCountError(EngineError):
    """An embedding backend returned a different number of vectors than
    texts it was given."""


class EmptyIndexError(EngineError):
    """Retrieval was attempted against an index with no segments."""


class EmptyCandidatesError(EngineError):
    """Reranking was attempted with no candidates."""


class RerankError(EngineError):
    """The cross-scoring backend failed on a retrieval's candidates."""


class ScoreCountError(EngineError):
    """A cross-scoring backend returned a different number of scores than
    segment texts it was given."""


# -- gateway -----------------------------------------------------------------

class GatewayError(EngineError):
    """Base for model-gateway failures."""


class UnboundPlaceholderError(GatewayError):
    """A template placeholder was left unbound at render time."""


class TransportError(GatewayError):
    """A live HTTP call failed (after any retries); carries status and body excerpt."""

    def __init__(self, message: str, status: int | None = None, body: str = ""):
        self.status = status
        self.body = body[:500]
        super().__init__(message)


class ReplayMissError(GatewayError):
    """The replay transcript has no entry for a canonical key."""

    def __init__(self, canonical_key: str, task: str):
        self.canonical_key = canonical_key
        self.task = task
        super().__init__(f"replay transcript has no entry for {task} key {canonical_key}")


class TranscriptError(GatewayError):
    """A transcript file is malformed."""


class DuplicateTranscriptKeyError(TranscriptError):
    """Two transcript rows share a key but disagree on the response."""

    def __init__(self, canonical_key: str):
        self.canonical_key = canonical_key
        super().__init__(f"transcript key {canonical_key} appears twice with different responses")


class EmptyResponseError(GatewayError):
    """The backend returned an empty response where text was required."""


# -- response parsing --------------------------------------------------------

class JudgmentParseError(EngineError):
    """A model response violated its task's response grammar."""

    def __init__(self, message: str, span: str = ""):
        self.span = span[:200]
        detail = f"{message} (offending span: {self.span!r})" if span else message
        super().__init__(detail)


class CardinalityError(JudgmentParseError):
    """A response list exceeded its declared maximum length."""


class JudgmentLengthError(JudgmentParseError):
    """A pruning response had the wrong number of bits for its batch."""


class ConfidenceRangeError(JudgmentParseError):
    """A specialist confidence fell outside [0, 1]."""


# -- hypothesis / evidence / deliberation ------------------------------------

class EmptyHypothesesError(EngineError):
    """The model produced zero hypotheses; the pipeline cannot continue."""


class HypothesisMismatchError(EngineError):
    """Evidence or a roster was paired with the wrong hypothesis."""


class InvariantError(EngineError):
    """A pipeline invariant failed; the case cannot continue."""


class UnknownSpecialtyError(EngineError):
    """A dispatched specialty is not in the configured roster."""

    def __init__(self, specialty: str):
        self.specialty = specialty
        super().__init__(f"specialty {specialty!r} is not in the configured roster")


class EmptyRosterError(EngineError):
    """Dispatch produced no usable specialists."""


class EmptyOpinionsError(EngineError):
    """A consensus statistic was requested over zero opinions."""


class EmptyQueryListError(EngineError):
    """Refinement produced no retrieval queries."""


class AdjudicationMismatchError(EngineError):
    """An adjudicated diagnosis is not a member of the hypothesis set."""

    def __init__(self, diagnosis: str, hypotheses: list[str]):
        self.diagnosis = diagnosis
        super().__init__(
            f"adjudicated diagnosis {diagnosis!r} is not among the hypotheses {hypotheses}"
        )


# -- configuration / runner --------------------------------------------------

class ConfigError(EngineError):
    """A run configuration violated an invariant; carries the field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ResourceError(EngineError):
    """A required resource (KG, corpus, cases, transcript) failed to load."""


class RecordConflictError(EngineError):
    """A recorded replay table was given a second, different row for a key."""

    def __init__(self, key: object):
        self.key = key
        super().__init__(f"recorded table already holds a different row for key {key!r}")


class CaseFailure(EngineError):
    """A case run failed at a named pipeline stage."""

    def __init__(self, case_id: str, stage: str, cause: BaseException):
        self.case_id = case_id
        self.stage = stage
        self.cause = cause
        super().__init__(f"case {case_id} failed at stage {stage}: {cause}")
