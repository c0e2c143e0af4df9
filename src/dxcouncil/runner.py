"""End-to-end case execution and batch evaluation.

A Runtime loads the graph, the guideline index, and the backends once per
config; each case then runs the full workflow against those shared
resources, producing a final report plus an audit trace written as one file
per case. Batches fan cases out across a thread pool and always leave a
parseable partial trace behind a failed case.

Within a case, each hypothesis's evidence package is built beside the
others and beside the complexity route (assessment, then dispatch for a
COMPLEX case), and each hypothesis's panel deliberates beside the others;
both are ``Gateway.branches``, as are the fan-outs inside them, which leave
the trace and the record tables as the same work done one step after
another would.

A case's trace does not depend on ``workers``, apart from the volatile
``backend`` labels: which calls are answered from the runtime's answer
table depends on which cases have finished. The record tables do: a
transcript row is written when its call returns and an embedding or score
row when its retrieval returns (for work inside a branch, when the case
splices the branch in), so with ``workers > 1`` the rows of concurrent cases
interleave in the order the cases reach those points. With ``workers: 1``
the tables are byte-stable.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .backends import (
    CrossScorer,
    Embedder,
    HttpEmbedder,
    HttpScorer,
    RecordingEmbedder,
    RecordingScorer,
    TableEmbedder,
    TableScorer,
)
from .config import BackendMode, RunConfig
from .deliberation import (
    ComplexityFlag,
    FinalReport,
    SpecialistRoster,
    assess_complexity,
    dispatch_specialists,
    final_adjudication,
    generalist_direct_diagnosis,
    run_deliberation_loop,
)
from .differential import (
    CaseDescription,
    extract_abnormal_entities,
    generate_hypotheses,
    read_cases,
)
from .errors import CaseFailure, EngineError, ResourceError
from .evidence import EvidencePackage, build_initial_package
from .gateway import (
    ChatBackend,
    Gateway,
    HttpChatBackend,
    RecordingBackend,
    ReplayChatBackend,
    TranscriptRecorder,
)
from .guidelines import GuidelineIndex, ingest_corpus, read_corpus
from .jsonl import write_whole
from .kg import KnowledgeGraph, load_kg
from .metrics import MetricsReport, weighted_metrics
from .trace import Trace


class Runtime:
    """Shared per-config state: resources, index, and wired backends.

    Test and fixture code may inject all three backends or none. Injected
    backends replace the config's backend section: nothing is built from it,
    so no record table is opened (opening one would truncate it). ``close``
    closes all three backends, injected or wired, so a caller that injects
    recorders closes them by closing the runtime. If set-up fails, the
    backends wired here are closed before the error propagates; injected
    ones are left open, as no runtime was returned to close them.

    ``answers`` is the runtime's answer table, ``{canonical_key: response}``,
    which its gateways read before the backend (see ``gateway``). It lasts
    as long as the runtime: one batch, or one CLI run. ``run_case`` adds the
    exchanges of each case that returns its report, when every transcript
    row of that case is written, so a shared answer never stands in for a
    row still held in a branch. A failed case adds nothing, so a malformed
    answer is never shared; a transport error is never traced at all.
    """

    def __init__(self, config: RunConfig, *, chat_backend: ChatBackend | None = None,
                 embedder: Embedder | None = None, scorer: CrossScorer | None = None):
        backends = (chat_backend, embedder, scorer)
        if any(b is None for b in backends) and any(b is not None for b in backends):
            raise ValueError("inject chat_backend, embedder and scorer together, or none")
        self.config = config
        self.answers: dict[str, str] = {}
        self.graph: KnowledgeGraph = load_kg(config.triples_path, config.concepts_path)
        wired = chat_backend is None
        self.chat_backend, self.embedder, self.scorer = (
            _wire_backends(config) if wired else backends)
        try:
            segments = read_corpus(config.corpus_path)
            self.index: GuidelineIndex = ingest_corpus(segments, self.embedder)
        except BaseException:
            if wired:
                self.close()
            raise

    def close(self) -> None:
        for backend in (self.chat_backend, self.embedder, self.scorer):
            close = getattr(backend, "close", None)
            if close is not None:
                close()


def _wire_backends(config: RunConfig) -> tuple[ChatBackend, Embedder, CrossScorer]:
    """The config's backends: replay tables, or live HTTP clients that in
    record mode also write every answer to the replay tables."""
    if config.mode is BackendMode.REPLAY:
        return (ReplayChatBackend.from_file(config.transcript_path),
                TableEmbedder.load(config.embeddings_path),
                TableScorer.load(config.scores_path))
    chat = HttpChatBackend(f"{config.endpoint.rstrip('/')}/chat/completions",
                           config.chat_model or "default")
    embedder = HttpEmbedder(config.endpoint, config.embed_model or "default")
    scorer = HttpScorer(config.endpoint, config.rerank_model or "default")
    if config.mode is BackendMode.LIVE:
        return chat, embedder, scorer
    # a table that fails to open closes the tables opened before it
    with ExitStack() as opened:
        chat = opened.enter_context(closing(
            RecordingBackend(chat, TranscriptRecorder(config.transcript_path))))
        embedder = opened.enter_context(closing(
            RecordingEmbedder(embedder, config.embeddings_path)))
        scorer = RecordingScorer(scorer, config.scores_path)
        opened.pop_all()
    return chat, embedder, scorer


def trace_path_for(config: RunConfig, case_id: str) -> Path:
    return config.output_dir / f"{case_id}.trace.jsonl"


def run_case(runtime: Runtime, case: CaseDescription) -> tuple[FinalReport, Trace]:
    """Run one case through the whole workflow.

    On failure the partial trace is still flushed to disk before the error
    surfaces, wrapped with the failing stage's label. A case that returns
    its report adds its exchanges to the runtime's answer table, once its
    trace is written; a failed case adds nothing.
    """
    config = runtime.config
    trace = Trace(case.case_id)
    gateway = Gateway(runtime.chat_backend, trace, runtime.answers)
    stage = "extract"
    try:
        findings = extract_abnormal_entities(case, gateway, runtime.graph)
        stage = "hypothesize"
        hypotheses = generate_hypotheses(case, findings, gateway, k_max=config.k_max)
        stage = "evidence"

        def package(hypothesis: str, gw: Gateway) -> EvidencePackage:
            return build_initial_package(
                case, findings, hypothesis, runtime.graph, runtime.index,
                runtime.scorer, gw, k=config.k, n=config.n,
                h_max=config.h_max, batch_size=config.prune_batch)

        def route(gw: Gateway) -> list[SpecialistRoster] | None:
            # the rosters of a COMPLEX case, None for a SIMPLE one; a
            # failure here is the route's own, not the evidence stage's
            route_stage = "route"
            try:
                flag = assess_complexity(case, findings, hypotheses, gw)
                if flag is ComplexityFlag.SIMPLE:
                    return None
                route_stage = "dispatch"
                return dispatch_specialists(case, findings, hypotheses, gw,
                                            roster=config.roster,
                                            max_specialists=config.max_specialists)
            except EngineError as exc:
                raise CaseFailure(case.case_id, route_stage, exc) from exc

        *packages, rosters = gateway.branches(
            [partial(package, hypothesis) for hypothesis in hypotheses] + [route])
        if rosters is None:
            stage = "direct_diagnosis"
            report = generalist_direct_diagnosis(case, findings, hypotheses,
                                                 packages, gateway)
        else:
            stage = "deliberate"
            snapshots = run_deliberation_loop(
                case, findings, hypotheses, packages, rosters, runtime.graph,
                runtime.index, runtime.scorer, gateway,
                tau_suff=config.tau_suff, tau_high=config.tau_high,
                t_max=config.t_max, k=config.k, n=config.n,
                h_max=config.h_max, batch_size=config.prune_batch)
            stage = "adjudicate"
            report = final_adjudication(snapshots, case, findings, hypotheses,
                                        gateway)
    except CaseFailure:
        raise
    except EngineError as exc:
        raise CaseFailure(case.case_id, stage, exc) from exc
    finally:
        trace.write(trace_path_for(config, case.case_id))
    runtime.answers.update((r["key"], r["response"]) for r in trace.exchanges())
    return report, trace


def resolve_diagnosis_label(graph: KnowledgeGraph, text: str) -> str | None:
    """Canonical concept id for a diagnosis string, via the exact-match tiers
    only. Fuzzy token overlap is deliberately excluded: label equivalence must
    never ride on partial word matches between disease names."""
    if not text.strip():
        return None
    matches = graph.match_entity(text, limit=1)
    if matches and matches[0].kind in ("exact_name", "exact_synonym"):
        return matches[0].concept.id
    return None


def diagnoses_agree(graph: KnowledgeGraph, truth: str, predicted: str) -> bool:
    """A prediction counts as correct when both strings resolve to the same
    vocabulary concept; strings outside the vocabulary fall back to casefolded
    equality. Evaluation labels can therefore be stored as concept synonyms
    that never surface in any prompt."""
    truth_id = resolve_diagnosis_label(graph, truth)
    predicted_id = resolve_diagnosis_label(graph, predicted)
    if truth_id is not None and predicted_id is not None:
        return truth_id == predicted_id
    return truth.casefold() == predicted.casefold()


@dataclass(frozen=True)
class CaseRow:
    case_id: str
    status: str
    final_diagnosis: str | None = None
    ground_truth: str | None = None
    correct: bool | None = None
    failed_stage: str | None = None
    error: str | None = None
    trace_digest: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


@dataclass(frozen=True)
class BatchResult:
    rows: list[CaseRow]
    metrics: MetricsReport
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_batch(runtime: Runtime) -> BatchResult:
    """Run every case in the config's case file.

    Failures become rows, not batch aborts. Weighted metrics cover the
    successfully diagnosed cases that carry a ground-truth label.
    """
    config = runtime.config
    cases = read_cases(config.cases_path)
    if not cases:
        raise ResourceError(f"no cases in {config.cases_path}")

    def one(case: CaseDescription) -> CaseRow:
        try:
            report, trace = run_case(runtime, case)
        except CaseFailure as exc:
            return CaseRow(case_id=case.case_id, status="error",
                           ground_truth=case.ground_truth,
                           failed_stage=exc.stage, error=str(exc.cause))
        return CaseRow(
            case_id=case.case_id, status="ok",
            final_diagnosis=report.final_diagnosis,
            ground_truth=case.ground_truth,
            correct=(diagnoses_agree(runtime.graph, case.ground_truth,
                                     report.final_diagnosis)
                     if case.ground_truth is not None else None),
            trace_digest=trace.digest())

    if config.workers == 1:
        rows = [one(case) for case in cases]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(one, cases))

    # correct predictions collapse onto the truth label so the confusion
    # matrix stays in label vocabulary even when the engine answers with the
    # concept's full preferred name
    pairs = [(row.ground_truth,
              row.ground_truth if row.correct else row.final_diagnosis)
             for row in rows
             if row.status == "ok" and row.ground_truth is not None]
    metrics = weighted_metrics(pairs)
    failed = sum(1 for row in rows if row.status != "ok")

    write_whole(config.output_dir / "results.jsonl",
                "".join(json.dumps(row.to_dict(), ensure_ascii=False) + "\n"
                        for row in rows))
    # cases/correct cover the whole batch; the weighted metrics cover the
    # labeled cases that produced a diagnosis
    summary = metrics.to_dict()
    summary["cases"] = len(rows)
    summary["correct"] = sum(1 for row in rows if row.correct)
    write_whole(config.output_dir / "summary.json",
                json.dumps(summary, indent=2, ensure_ascii=False) + "\n")
    return BatchResult(rows=rows, metrics=metrics, failed=failed)
