"""Exception hierarchy for the diagnostic engine: one class per stage.

A failed row records the stage a case failed at and the error's message,
never its class, and the CLI's exit code depends only on whether the error
is a ``ConfigError`` (1), a ``CaseFailure`` (2) or any other ``EngineError``
(3). So the stages below are the only distinctions the classes draw; the
message says what went wrong.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class ConfigError(EngineError):
    """A run configuration violated an invariant; carries the field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ResourceError(EngineError):
    """A resource (graph, corpus, cases, transcript or replay table) failed
    to load, named by ``file:line`` where there is one, or a replay table has
    no entry for what it was asked."""


class KgError(EngineError):
    """A knowledge-graph operation failed: an edge or lookup naming an
    unknown concept, or a path from a node to itself."""


class RetrievalError(EngineError):
    """Guideline retrieval failed: an embedding or score count, dimension or
    non-finite value that does not fit, an empty index or candidate list, or a
    failed rerank."""


class GatewayError(EngineError):
    """A model call failed: an unbound template placeholder, an empty
    response, or a backend failure."""


class TransportError(GatewayError):
    """A live HTTP call failed (after any retries); a non-2xx status is in
    the message."""


class ReplayMissError(GatewayError):
    """The replay transcript has no entry for a canonical key."""

    def __init__(self, canonical_key: str, task: str):
        self.canonical_key = canonical_key
        self.task = task
        super().__init__(f"replay transcript has no entry for {task} key {canonical_key}")


class JudgmentParseError(EngineError):
    """A model response violated its task's response grammar or bounds."""

    def __init__(self, message: str, span: str = ""):
        self.span = span[:200]
        detail = f"{message} (offending span: {self.span!r})" if span else message
        super().__init__(detail)


class DeliberationError(EngineError):
    """The differential, an evidence package, routing, a panel or the
    adjudication broke a workflow invariant."""


class RecordConflictError(EngineError):
    """A record table or transcript was given a second, different row for a
    key; ``message`` replaces the default text."""

    def __init__(self, key: object, message: str = ""):
        self.key = key
        super().__init__(
            message or f"recorded table already holds a different row for key {key!r}")


class CaseFailure(EngineError):
    """A case run failed at a named pipeline stage."""

    def __init__(self, case_id: str, stage: str, cause: BaseException):
        self.case_id = case_id
        self.stage = stage
        self.cause = cause
        super().__init__(f"case {case_id} failed at stage {stage}: {cause}")
