"""Diagnostic reasoning engine grounded in a clinical knowledge graph and a
guideline corpus, with multi-specialist deliberation over retrieved evidence
and fully replayable model interactions."""

from .config import BackendMode, RunConfig, validate_config
from .deliberation import (
    ComplexityFlag,
    ConsensusSnapshot,
    FinalReport,
    SpecialistOpinion,
    SpecialistRoster,
    Stance,
    Sufficiency,
    consensus_score,
    insufficiency_ratio,
)
from .differential import AbnormalEntity, CaseDescription, HypothesisSet, read_cases
from .errors import CaseFailure, ConfigError, EngineError
from .evidence import EvidencePackage
from .gateway import Gateway, TaskKind, canonical_key
from .guidelines import GuidelineIndex, RankedSegment
from .kg import Concept, Edge, KnowledgeGraph, KnowledgePath, load_kg
from .metrics import MetricsReport, weighted_metrics
from .runner import Runtime, run_batch, run_case
from .trace import Trace

__version__ = "0.1.0"

__all__ = [
    "AbnormalEntity",
    "BackendMode",
    "CaseDescription",
    "CaseFailure",
    "ComplexityFlag",
    "Concept",
    "ConfigError",
    "ConsensusSnapshot",
    "Edge",
    "EngineError",
    "EvidencePackage",
    "FinalReport",
    "Gateway",
    "GuidelineIndex",
    "HypothesisSet",
    "KnowledgeGraph",
    "KnowledgePath",
    "MetricsReport",
    "RankedSegment",
    "RunConfig",
    "Runtime",
    "SpecialistOpinion",
    "SpecialistRoster",
    "Stance",
    "Sufficiency",
    "TaskKind",
    "Trace",
    "canonical_key",
    "consensus_score",
    "insufficiency_ratio",
    "load_kg",
    "read_cases",
    "run_batch",
    "run_case",
    "validate_config",
    "weighted_metrics",
]
