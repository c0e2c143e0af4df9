"""End-to-end case execution and batch evaluation.

A Runtime loads the graph, the guideline index, and the backends once per
config; each case then runs the full workflow against those shared
resources, producing a final report plus an audit trace written as one file
per case. Batches fan cases out across a thread pool and always leave a
parseable partial trace behind a failed case.

Every trace is written whole on one thread, ``_WRITER``, shared by every
runtime whatever its backend, behind the case that made it: the write runs
beside the next case instead of on the case's own path. ``run_batch`` and
``Runtime.close`` wait for every such write before they return or raise, so
no write outlives them; then they write the timing sidecar.

Each case has one gateway and one trace. Within it, the differential is
generated on the guessed findings beside the finding aligns
(``Gateway.speculate``, kept when the aligner confirms the guess); each
hypothesis's evidence package is built beside the others and beside the
complexity route (assessment, then dispatch for a COMPLEX case), and each
hypothesis's panel deliberates beside the others; both are
``Gateway.branches``, as are the fan-outs inside them. Held writes leave
the trace and the record tables as the same work done one step after
another would.

``run_case`` names each step's stage once: a step's ``EngineError`` fails
the case at that stage, unless a step inside it already failed the case.
It names the evidence resources and run settings once too, for the package
builder and for the supplement builder it hands the panels, and passes every
stage its settings from the config: no stage function defaults one.

A case's trace does not depend on ``workers``. Its backend labels in the
sidecar do: which calls are answered from the runtime's answer table
depends on which cases have finished. The record tables do too: a
transcript row is written when its call returns and an embedding or score
row when its retrieval returns (for work inside a branch, when the case
commits the branch), so with ``workers > 1`` the rows of concurrent cases
interleave in the order the cases reach those points. With ``workers: 1``
the tables are byte-stable.
"""

from __future__ import annotations

import json
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

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
    AbnormalEntity,
    CaseDescription,
    HypothesisSet,
    extract_abnormal_entities,
    generate_hypotheses,
    read_cases,
)
from .errors import CaseFailure, EngineError, ResourceError
from .evidence import EvidencePackage, build_initial_package, build_supplement_package
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
from .trace import SUFFIX, Trace, encode_line

# the one thread every runtime's trace writes run on, one after another, in
# the order their cases handed them over; it starts with the first write
_WRITER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dxcouncil-trace")


class Runtime:
    """Shared per-config state: resources, index, and wired backends.

    Test and fixture code may inject all three backends or none. Injected
    backends replace the config's backend section: nothing is built from it,
    so no record table is opened. ``close`` closes all three backends,
    injected or wired, so a caller that injects recorders closes them by
    closing the runtime; closing a recorder is what writes its table. If
    set-up fails, the backends wired here are discarded before the error
    propagates, so each record table keeps what it held before; injected
    ones are left open, as no runtime was returned to close them.

    ``answers`` is the runtime's answer table, ``{canonical_key: response}``,
    which its gateways read before the backend (see ``gateway``). It lasts
    as long as the runtime: one batch, or one CLI run. ``run_case`` adds the
    exchanges of each case that returns its report, when every transcript
    row of that case is written, so a shared answer never stands in for a
    row still held in a branch. A failed case adds nothing, so a malformed
    answer is never shared; a transport error is never traced at all.
    Its cases' traces are written on ``_WRITER``; ``close`` waits for the
    writes still pending before it closes the backends.
    """

    def __init__(self, config: RunConfig, *, chat_backend: ChatBackend | None = None,
                 embedder: Embedder | None = None, scorer: CrossScorer | None = None):
        backends = (chat_backend, embedder, scorer)
        if any(b is None for b in backends) and any(b is not None for b in backends):
            raise ValueError("inject chat_backend, embedder and scorer together, or none")
        self.config = config
        self.answers: dict[str, str] = {}
        self._writes: list[Future] = []  # pending trace writes: (case id, digest, timing)
        self._timings: dict[str, bytes] = {}  # each written case's timing line
        self.graph: KnowledgeGraph = load_kg(config.triples_path, config.concepts_path)
        wired = chat_backend is None
        self.chat_backend, self.embedder, self.scorer = (
            _wire_backends(config) if wired else backends)
        try:
            segments = read_corpus(config.corpus_path)
            self.index: GuidelineIndex = ingest_corpus(segments, self.embedder)
        except BaseException:
            if wired:
                self._end("discard")
            raise

    def write_trace(self, trace: Trace, path: Path) -> None:
        """Hand ``trace.write(path)`` to ``_WRITER`` and return while it
        runs; ``wait_for_traces`` gives the trace's digest."""
        self._writes.append(_WRITER.submit(_write, trace, path))

    def wait_for_traces(self) -> dict[str, str]:
        """Wait for every trace write handed over so far, then raise the
        first failed write's error, in the order the writes were handed
        over, or write ``timings.jsonl`` whole, a line per case run so far
        (``Trace.timings``, encoded by ``trace.encode_line`` with the trace),
        and return each new trace's digest by case id. An interrupt during
        the wait leaves the writes for ``close`` to wait on."""
        wait(self._writes)
        writes, self._writes = self._writes, []
        written = [write.result() for write in writes]
        if written:
            self._timings.update((case_id, line) for case_id, _, line in written)
            write_whole(self.config.output_dir / "timings.jsonl",
                        b"\n".join([*self._timings.values(), b""]))
        return {case_id: digest for case_id, digest, _ in written}

    def close(self) -> None:
        try:
            self.wait_for_traces()
        finally:
            self._end("close")

    def _end(self, how: str) -> None:
        for backend in (self.chat_backend, self.embedder, self.scorer):
            end = getattr(backend, how, None)
            if end is not None:
                end()


def _write(trace: Trace, path: Path) -> tuple[str, str, bytes]:
    trace.write(path)
    # the write computed the digest
    return trace.case_id, trace.digest(), encode_line(trace.timings())


def _wire_backends(config: RunConfig) -> tuple[ChatBackend, Embedder, CrossScorer]:
    """The config's backends: replay tables, or live HTTP clients that in
    record mode also write every answer to the replay tables."""
    if config.mode is BackendMode.REPLAY:
        return (ReplayChatBackend.from_file(config.transcript_path),
                TableEmbedder.load(config.embeddings_path),
                TableScorer.load(config.scores_path))
    chat = HttpChatBackend(f"{config.endpoint.rstrip('/')}/chat/completions",
                           config.chat_model)
    embedder = HttpEmbedder(config.endpoint, config.embed_model)
    scorer = HttpScorer(config.endpoint, config.rerank_model)
    if config.mode is BackendMode.LIVE:
        return chat, embedder, scorer
    # a table that fails to open discards the tables opened before it
    with ExitStack() as opened:
        chat = RecordingBackend(chat, TranscriptRecorder(config.transcript_path))
        opened.callback(chat.discard)
        embedder = RecordingEmbedder(embedder, config.embeddings_path)
        opened.callback(embedder.discard)
        scorer = RecordingScorer(scorer, config.scores_path)
        opened.pop_all()
    return chat, embedder, scorer


def trace_path_for(config: RunConfig, case_id: str) -> Path:
    return config.output_dir / f"{case_id}{SUFFIX}"


def run_case(runtime: Runtime, case: CaseDescription) -> tuple[FinalReport, Trace]:
    """Run one case through the whole workflow.

    The trace, a failed case's partial trace included, is handed to
    ``Runtime.write_trace`` before the report returns or the error surfaces,
    wrapped with the failing stage's label. A case that returns its report
    adds its exchanges to the runtime's answer table, once its trace is
    complete; a failed case adds nothing.
    """
    config = runtime.config
    trace = Trace(case.case_id)
    gateway = Gateway(runtime.chat_backend, trace, runtime.answers)
    # what both evidence builders read past their case and hypothesis
    evidence = (runtime.graph, runtime.index, runtime.scorer, gateway,
                config.k, config.n, config.h_max, config.prune_batch)

    def stage(name: str, step: Callable, *args, **kwargs):
        try:
            return step(*args, **kwargs)
        except CaseFailure:
            raise
        except EngineError as exc:
            raise CaseFailure(case.case_id, name, exc) from exc

    def hypothesize(findings: list[AbnormalEntity]) -> tuple[list[AbnormalEntity], HypothesisSet]:
        # may start on the guessed findings beside the finding aligns
        return findings, stage("hypothesize", generate_hypotheses, case, findings, gateway,
                               config.k_max)

    def supplement(base: EvidencePackage, queries: list[str]) -> EvidencePackage:
        return build_supplement_package(case, findings, base, queries, *evidence)

    def route() -> list[SpecialistRoster] | None:
        # the rosters of a COMPLEX case, None for a SIMPLE one
        flag = stage("route", assess_complexity, case, findings, hypotheses, gateway)
        if flag is ComplexityFlag.SIMPLE:
            return None
        return stage("dispatch", dispatch_specialists, case, findings, hypotheses, gateway,
                     config.roster, config.max_specialists)

    try:
        findings, hypotheses = stage("extract", extract_abnormal_entities, case, gateway,
                                     runtime.graph, hypothesize)
        *packages, rosters = stage("evidence", gateway.branches, [
            partial(build_initial_package, case, findings, hypothesis, *evidence)
            for hypothesis in hypotheses] + [route])
        if rosters is None:
            report = stage("direct_diagnosis", generalist_direct_diagnosis, case, findings,
                           hypotheses, packages, gateway)
        else:
            snapshots = stage("deliberate", run_deliberation_loop, case, findings, hypotheses,
                              packages, rosters, supplement, gateway, tau_suff=config.tau_suff,
                              tau_high=config.tau_high, t_max=config.t_max)
            report = stage("adjudicate", final_adjudication, snapshots, case, findings,
                           hypotheses, gateway)
    finally:
        runtime.write_trace(trace, trace_path_for(config, case.case_id))
    runtime.answers.update((r["key"], r["response"]) for r in trace.exchanges())
    return report, trace


def resolve_diagnosis_label(graph: KnowledgeGraph, text: str) -> str | None:
    """Canonical concept id for a diagnosis string, via the exact-match tiers
    only. Fuzzy token overlap is deliberately excluded: label equivalence must
    never ride on partial word matches between disease names."""
    concept = graph.exact_match(text)
    return concept.id if concept is not None else None


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
    successfully diagnosed cases that carry a ground-truth label. Every
    trace write has ended when this returns or raises; a failed write
    raises its error, and then no results, summary or timings are written.
    """
    config = runtime.config
    cases = read_cases(config.cases_path)
    if not cases:
        raise ResourceError(f"no cases in {config.cases_path}")

    def one(case: CaseDescription) -> CaseRow:
        try:
            report, _ = run_case(runtime, case)
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
                     if case.ground_truth is not None else None))

    try:
        if config.workers == 1:
            rows = [one(case) for case in cases]
        else:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                rows = list(pool.map(one, cases))
    finally:
        digests = runtime.wait_for_traces()
    rows = [replace(row, trace_digest=digests[row.case_id])
            if row.status == "ok" else row for row in rows]

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
