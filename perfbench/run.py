#!/usr/bin/env python3
"""Benchmark for the dxcouncil engine.

    python3 perfbench/run.py --workload replay-small --seed 1 --seconds 35 --trace 0

Runs closed-loop batches (one client, ``workers: 1``) of the 10-case fixture
bundle through the public ``Runtime`` + ``run_batch`` API, building a fresh
``Runtime`` for every batch, as each CLI run does. Workloads:

  replay-small  the shipped fixture bundle in replay mode
  replay-large  the same cases and recordings over a vocabulary and corpus
                padded with inert concepts and segments (padding.py; the seed
                picks the padding); run by hand for its per-layer split, and
                not listed in BENCHMARK.json, because on a shared 2-core
                machine its timings spread wider than the regression bounds
  record-live   record mode wired as scripts/make_fixtures.py records, with a
                proxy that sleeps per backend request (chat 5 ms, embed 1 ms,
                rerank 1 ms)

Before any number is printed, every batch must give the expected diagnoses,
no failed rows, and trace digests equal to a reference record run of the
same checkout; record batches must also write tables byte-equal to the
fixture recordings. Any mismatch exits 1 without a result. The reference
run and the padding are made in a child process (``--prepare``) that is
waited for before timing starts, so their memory peak stays out of
``peak_rss_mb``.

Timings are built from the fastest samples of a run (fastest Runtime build,
each case's fastest run_case): other tenants of a shared machine only ever
slow a sample down, and the fastest samples are the ones they disturbed least.

``--trace 0`` reports end-to-end metrics. ``--trace 1`` alternates untraced
and traced batches and reports per-layer metrics from spans around the
public functions of the dxcouncil modules, plus the tracing overhead; the
spans are written to ``.perfbench-out/``. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
WORK_PARENT = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("replay-small", "replay-large", "record-live")
RECORD_DELAYS = {"chat": 0.005, "embed": 0.001, "rerank": 0.001}
NO_DELAYS = {"chat": 0.0, "embed": 0.0, "rerank": 0.0}
TABLE_FIELDS = ("transcript_path", "embeddings_path", "scores_path")
# Runtime builds per timed batch; setup_s is the fastest build of the run
SETUP_BUILDS = 3
# every timing is the fastest of at least this many samples
MIN_BATCHES = 10
MIN_TRACED_BATCHES = 3
# spans of the first few traced batches are kept for the spans file; the
# per-layer figures use every traced batch
SPAN_FILE_BATCHES = 5


class GateError(Exception):
    """An output differs from the fixtures or the reference record run."""


def bootstrap() -> None:
    needed = [ROOT / "src" / "dxcouncil", FIXTURES / "replay_config.yaml",
              FIXTURES / "expected_diagnoses.json", ROOT / "scripts" / "make_fixtures.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.exit(f"perfbench: not a dxcouncil checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]


bootstrap()

import numpy as np  # noqa: E402
from make_fixtures import build_rules, fixture_config  # noqa: E402

from dxcouncil.backends import (  # noqa: E402
    HashEmbedder,
    LexicalOverlapScorer,
    RecordingEmbedder,
    RecordingScorer,
)
from dxcouncil.config import BackendMode, validate_config  # noqa: E402
from dxcouncil.gateway import (  # noqa: E402
    RecordingBackend,
    ScriptedResponder,
    TranscriptRecorder,
)
from dxcouncil.runner import Runtime, run_batch  # noqa: E402
from padding import PaddingError, build_padded_bundle  # noqa: E402
from spans import BackendProxy, Meter, SpanRecorder  # noqa: E402


# -- workloads ---------------------------------------------------------------

class ReplayWorkload:
    """Runtime wired by the engine itself from a replay config; the wired
    backends are put behind zero-delay proxies after set-up for counting."""

    def __init__(self, config, meter: Meter):
        self.config = config
        self.meter = meter

    def build(self) -> Runtime:
        return Runtime(self.config)

    def close(self, runtime: Runtime) -> None:
        runtime.close()

    def instrument(self, runtime: Runtime) -> None:
        for attr, kind in (("chat_backend", "chat"), ("embedder", "embed"),
                           ("scorer", "rerank")):
            inner = getattr(runtime, attr)
            proxy = BackendProxy(inner, kind, 0.0, self.meter)
            setattr(runtime, attr, proxy)
            for key, value in vars(runtime.index).items():
                if value is inner:
                    setattr(runtime.index, key, proxy)

    def finish(self, runtime: Runtime) -> tuple[int, int]:
        self.close(runtime)
        return 0, 0


class RecordWorkload:
    """Record mode as scripts/make_fixtures.py wires it, each backend behind
    a proxy that sleeps its round-trip delay. ``finish`` checks the written
    tables against the fixture recordings and returns their (rows, bytes)."""

    def __init__(self, config, meter: Meter, delays: dict[str, float]):
        self.config = config
        self.meter = meter
        self.delays = delays
        self.responder = ScriptedResponder(build_rules())
        self.expected = {field: (FIXTURES / getattr(config, field).name).read_bytes()
                         for field in TABLE_FIELDS}

    def build(self) -> Runtime:
        config, meter, delays = self.config, self.meter, self.delays
        self.recorder = TranscriptRecorder(config.transcript_path)
        chat = RecordingBackend(
            BackendProxy(self.responder, "chat", delays["chat"], meter), self.recorder)
        embedder = RecordingEmbedder(
            BackendProxy(HashEmbedder(), "embed", delays["embed"], meter),
            config.embeddings_path)
        scorer = RecordingScorer(
            BackendProxy(LexicalOverlapScorer(), "rerank", delays["rerank"], meter),
            config.scores_path)
        return Runtime(config, chat_backend=chat, embedder=embedder, scorer=scorer)

    def instrument(self, runtime: Runtime) -> None:
        pass

    def close(self, runtime: Runtime) -> None:
        runtime.close()
        self.recorder.close()

    def finish(self, runtime: Runtime) -> tuple[int, int]:
        self.close(runtime)
        rows = size = 0
        for field, want in self.expected.items():
            got = getattr(self.config, field).read_bytes()
            if got != want:
                raise GateError(f"recorded {getattr(self.config, field).name} differs "
                                f"from the fixture recording")
            rows += got.count(b"\n")
            size += len(got)
        return rows, size


def record_config(work: Path, name: str):
    tables = work / f"{name}-tables"
    tables.mkdir()
    config = fixture_config(BackendMode.RECORD, name)
    return replace(config, output_dir=work / name, workers=1,
                   **{field: tables / getattr(config, field).name for field in TABLE_FIELDS})


def replay_config(work: Path, name: str):
    return replace(validate_config(FIXTURES / "replay_config.yaml"),
                   output_dir=work / name, workers=1)


def make_workload(name: str, work: Path, padded: dict[str, Path], meter: Meter):
    if name == "record-live":
        return RecordWorkload(record_config(work, "record-live"), meter, RECORD_DELAYS)
    return ReplayWorkload(replace(replay_config(work, name), **padded), meter)


# -- correctness gate --------------------------------------------------------

def check_rows(result, expected: dict[str, str], digests: dict[str, str] | None) -> None:
    got = {row.case_id: row for row in result.rows}
    if sorted(got) != sorted(expected):
        raise GateError(f"batch ran cases {sorted(got)}, expected {sorted(expected)}")
    for case_id, want in expected.items():
        row = got[case_id]
        if row.status != "ok":
            raise GateError(f"{case_id} failed at {row.failed_stage}: {row.error}")
        if row.final_diagnosis != want:
            raise GateError(f"{case_id}: diagnosis {row.final_diagnosis!r} != {want!r}")
        if digests is not None and row.trace_digest != digests[case_id]:
            raise GateError(f"{case_id}: trace digest differs from the record run")


def reference_digests(work: Path, expected: dict[str, str]) -> dict[str, str]:
    """Digests of an undelayed record run, after checking its diagnoses and
    that its tables reproduce the fixture recordings byte for byte."""
    workload = RecordWorkload(record_config(work, "reference"), Meter(), NO_DELAYS)
    runtime = workload.build()
    try:
        result = run_batch(runtime)
    finally:
        workload.finish(runtime)
    check_rows(result, expected, None)
    return {row.case_id: row.trace_digest for row in result.rows}


def prepare(name: str, seed: int, work: Path, expected: dict[str, str]) -> None:
    """Untimed preparation: the reference digests and, for replay-large, the
    padded bundle, written to ``work/prepared.json``. Runs in the child
    process that ``prepare_in_child`` starts."""
    digests = reference_digests(work, expected)
    padded = {}
    if name == "replay-large":
        padded = build_padded_bundle(replay_config(work, name), work / "padded", seed)
    (work / "prepared.json").write_text(json.dumps(
        {"digests": digests, "padded": {key: str(path) for key, path in padded.items()}}),
        encoding="utf-8")


def prepare_in_child(name: str, seed: int,
                     work: Path) -> tuple[dict[str, str], dict[str, Path]]:
    """Run ``prepare`` in a child process and wait for it to end. A failed
    gate there exits 1, which fails the run here too."""
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(seed), "--prepare", str(work)])
    if child.returncode != 0:
        raise GateError(f"preparation exited with code {child.returncode}")
    prepared = json.loads((work / "prepared.json").read_text(encoding="utf-8"))
    return prepared["digests"], {key: Path(path) for key, path in prepared["padded"].items()}


# -- measurement -------------------------------------------------------------

class Runner:
    """Runs gated batches of one workload and keeps their timings."""

    def __init__(self, workload, clock: SpanRecorder, expected, digests):
        self.workload = workload
        self.clock = clock
        self.expected = expected
        self.digests = digests

    def batch(self, tracer: SpanRecorder | None = None, builds: int = 1) -> dict:
        """One gated batch. The Runtime is built ``builds`` times and the
        last build runs the batch; only that build is traced."""
        meter = self.workload.meter
        setup_s = []
        for _ in range(builds - 1):
            gc.collect()
            start = perf_counter()
            runtime = self.workload.build()
            setup_s.append(perf_counter() - start)
            self.workload.close(runtime)
            del runtime  # so no two Runtimes are alive at once
        gc.collect()
        self.clock.clear()
        root = tracer.open("setup") if tracer else None
        start = perf_counter()
        runtime = self.workload.build()
        setup_s.append(perf_counter() - start)
        if tracer:
            tracer.close(root)
        self.workload.instrument(runtime)
        meter.reset()
        try:
            root = tracer.open("batch") if tracer else None
            start = perf_counter()
            result = run_batch(runtime)
            batch_s = perf_counter() - start
            if tracer:
                tracer.close(root)
            requests = meter.take()
        finally:
            rows, size = self.workload.finish(runtime)
        check_rows(result, self.expected, self.digests)
        return {"setup_s": setup_s, "batch_s": batch_s, "cases": len(result.rows),
                "failed": result.failed,
                "case_s": [(case_id, end - start)
                           for _, start, end, _, case_id in self.clock.spans],
                "requests": requests, "record_rows": rows, "record_bytes": size}


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.batch()  # warm-up, untimed
    batches = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(batches) < MIN_BATCHES:
        batch = runner.batch(builds=SETUP_BUILDS)
        batch["requests"] = batch["requests"].count()  # keep no request log alive
        batches.append(batch)
    attempted = sum(b["cases"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    per_case = defaultdict(list)
    for b in batches:
        for case_id, case_s in b["case_s"]:
            per_case[case_id].append(case_s * 1e3)
    if sum(map(len, per_case.values())) != attempted or \
            any(len(times) != len(batches) for times in per_case.values()):
        raise GateError("runner.run_case was not called once per case")
    # each case's fastest run; p50 and p90 are taken across the cases
    cases = [min(times) for times in per_case.values()]
    p90 = statistics.quantiles(cases, n=10, method="inclusive")[8]
    # a batch with every case at its fastest, plus the fastest time that
    # run_batch spent outside run_case
    outside_ms = min(b["batch_s"] * 1e3 - sum(s for _, s in b["case_s"]) * 1e3
                     for b in batches)
    metrics = {
        "setup_s": (min(s for b in batches for s in b["setup_s"]), "s"),
        "cases_per_s": (1e3 * len(cases) / (sum(cases) + outside_ms), "1/s"),
        "case_ms_p50": (statistics.median(cases), "ms"),
        "case_ms_p90": (p90, "ms"),
        "case_ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "backend_requests_per_case": (sum(b["requests"] for b in batches) / attempted,
                                      "req/case"),
    }
    info = {"batches": len(batches), "setup_builds": len(batches) * SETUP_BUILDS,
            "case_samples": attempted, "cases": len(cases)}
    return metrics, info | {"attempted": attempted, "failed": failed}


STAGE_TARGETS = [
    "differential:extract_abnormal_entities", "differential:generate_hypotheses",
    "evidence:build_initial_package", "evidence:build_supplement_package",
    "evidence:prune_paths", "evidence:merge_packages",
    "deliberation:assess_complexity", "deliberation:generalist_direct_diagnosis",
    "deliberation:dispatch_specialists", "deliberation:elicit_opinion",
    "deliberation:formulate_refinement_queries", "deliberation:run_deliberation_loop",
    "deliberation:final_adjudication",
]
LAYER_TARGETS = [
    "runner:run_case", "runner:diagnoses_agree", "differential:read_cases",
    "kg:load_kg", "kg:KnowledgeGraph.match_entity", "kg:KnowledgeGraph.enumerate_paths",
    "kg:verbalize_path", "guidelines:read_corpus", "guidelines:ingest_corpus",
    "guidelines:dense_retrieve", "guidelines:rerank", "guidelines:g_ret",
    "gateway:Gateway.complete", "judgments:parse_judgment",
    "trace:Trace.digest", "trace:Trace.write", "metrics:weighted_metrics",
]
TABLE_LOADERS = ["gateway:load_transcript", "backends:TableEmbedder.load",
                 "backends:TableScorer.load"]
TABLE_WRITERS = ["gateway:TranscriptRecorder.record", "backends:RecordingEmbedder.embed",
                 "backends:RecordingScorer.score"]


class LayerCounts:
    """Work counted at the wrapped boundaries of one traced batch."""

    def __init__(self):
        self.mentions: list[str] = []
        self.paths = self.records = self.trace_bytes = 0

    def mention(self, result, args, kwargs):
        self.mentions.append(args[1] if len(args) > 1 else kwargs["raw_mention"])

    def enumerated(self, result, args, kwargs):
        self.paths += len(result)

    def written(self, result, args, kwargs):
        self.records += len(args[0].records)
        self.trace_bytes += Path(result).stat().st_size


def install_spans(tracer: SpanRecorder, counts: LayerCounts) -> None:
    hooks = {"kg:KnowledgeGraph.match_entity": counts.mention,
             "kg:KnowledgeGraph.enumerate_paths": counts.enumerated,
             "trace:Trace.write": counts.written}
    for target in STAGE_TARGETS + LAYER_TARGETS:
        tracer.wrap(target, hook=hooks.get(target),
                    case_arg=1 if target == "runner:run_case" else None)
    for target in TABLE_LOADERS:
        tracer.wrap(target, name="backends.table_load")
    for target in TABLE_WRITERS:
        tracer.wrap(target, name="backends.record")


def layer_metrics(tracer: SpanRecorder, counts: LayerCounts, batch: dict) -> dict[str, float]:
    totals = tracer.totals()
    meter = batch["requests"]

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    calls = get("kg.match_entity", "calls")
    out = {
        "kg.match_entity.calls": calls,
        "kg.match_entity.ms": get("kg.match_entity", "ms"),
        "kg.match_entity.distinct_ratio": len(set(counts.mentions)) / calls if calls else 0.0,
        "kg.enumerate_paths.calls": get("kg.enumerate_paths", "calls"),
        "kg.enumerate_paths.ms": get("kg.enumerate_paths", "ms"),
        "kg.enumerate_paths.paths": counts.paths,
        "kg.load_kg.ms": get("kg.load_kg", "ms"),
        "guidelines.dense_retrieve.calls": get("guidelines.dense_retrieve", "calls"),
        "guidelines.dense_retrieve.ms": get("guidelines.dense_retrieve", "ms"),
        "guidelines.rerank.calls": get("guidelines.rerank", "calls"),
        "guidelines.rerank.ms": get("guidelines.rerank", "ms"),
        "guidelines.ingest_corpus.ms": get("guidelines.ingest_corpus", "ms"),
        "backends.table_load.ms": get("backends.table_load", "ms"),
        "gateway.complete.calls": get("gateway.complete", "calls"),
        "gateway.complete.self_ms": get("gateway.complete", "self_ms"),
        "judgments.parse_judgment.ms": get("judgments.parse_judgment", "ms"),
        "trace.digest.ms": get("trace.digest", "ms"),
        "trace.write.ms": get("trace.write", "ms"),
        "trace.records": counts.records,
        "trace.bytes": counts.trace_bytes,
        "runner.diagnoses_agree.ms": get("runner.diagnoses_agree", "ms"),
        "runner.run_case.self_ms": get("runner.run_case", "self_ms"),
        "batch.traced_ms": get("batch", "ms"),
        "batch.unattributed_ms": get("batch", "self_ms"),
        "backends.inflight_mean": meter.inflight_mean(),
        "backends.record.rows": batch["record_rows"],
        "backends.record.bytes": batch["record_bytes"],
        "backends.record.self_ms": get("backends.record", "self_ms"),
    }
    for target in STAGE_TARGETS:
        name = target.replace(":", ".")
        out[f"{name}.self_ms"] = get(name, "self_ms")
    for kind in ("chat", "embed", "rerank"):
        out[f"backends.{kind}.requests"] = meter.count(kind)
        out[f"backends.{kind}.wait_ms"] = meter.wait_ms(kind)
    out["backends.embed.texts"] = meter.items("embed")
    return out


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix == "ms" or suffix.endswith("_ms"):
        return "ms"
    return {"bytes": "bytes", "distinct_ratio": "ratio", "inflight_mean": "ratio",
            "overhead_pct": "%"}.get(suffix, "count")


def timing(batch: dict) -> dict:
    """The part of a batch record kept for the whole run."""
    return {key: batch[key] for key in ("batch_s", "cases", "failed")}


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced batches; per-layer figures are medians
    over the traced batches, and the overhead compares the two kinds."""
    meter = runner.workload.meter
    runner.batch()  # warm-up, untimed
    untraced, traced, rows, breakdowns, kept = [], [], [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < MIN_TRACED_BATCHES:
        untraced.append(timing(runner.batch()))
        tracer, counts = SpanRecorder(), LayerCounts()
        install_spans(tracer, counts)
        meter.recorder = tracer
        tracer.enabled = True
        try:
            batch = runner.batch(tracer)
        finally:
            tracer.enabled = False
            meter.recorder = None
            tracer.unpatch()
        traced.append(timing(batch))
        rows.append(layer_metrics(tracer, counts, batch))
        first = next(i for i, span in enumerate(tracer.spans) if span[0] == "batch")
        breakdowns.append({name: row["self_ms"]
                           for name, row in tracer.totals(first).items()})
        if len(kept) < SPAN_FILE_BATCHES:
            kept.append(tracer.spans)
        absent = tracer.absent
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    self_ms = {name: statistics.median(b.get(name, 0.0) for b in breakdowns)
               for name in breakdowns[0]}
    untraced_ms = statistics.median(b["batch_s"] for b in untraced) * 1e3
    # each traced batch runs right after an untraced one; the median of the
    # pair differences cancels the machine's slow drifts in speed
    overhead_ms = statistics.median(t["batch_s"] - u["batch_s"]
                                    for t, u in zip(traced, untraced)) * 1e3
    metrics["batch.untraced_ms"] = untraced_ms
    metrics["tracing.overhead_ms"] = overhead_ms
    metrics["tracing.overhead_pct"] = 100 * overhead_ms / untraced_ms
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(kept):
            for name, start, end, parent, case_id in spans:
                fh.write(json.dumps({"batch": number, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "case_id": case_id}) + "\n")
    done = untraced + traced
    info = {"traced_batches": len(traced), "untraced_batches": len(untraced),
            "absent_targets": absent,
            "spans_file": str(spans_path.relative_to(ROOT)),
            # median self time per span name inside run_batch; the medians
            # add up to about batch.traced_ms
            "batch_self_ms": dict(sorted(self_ms.items(), key=lambda kv: -kv[1])),
            "attempted": sum(b["cases"] for b in done),
            "failed": sum(b["failed"] for b in done)}
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}, info


# -- run metadata and entry point --------------------------------------------

def run_metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to ask
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_sha": sha, "src_lines": src_lines, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", type=Path, metavar="WORK_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    expected = json.loads((FIXTURES / "expected_diagnoses.json").read_text(encoding="utf-8"))
    if args.prepare:
        try:
            prepare(args.workload, args.seed, args.prepare, expected)
        except (GateError, PaddingError) as exc:
            print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
            return 1
        return 0
    # a terminated run still removes its work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        digests, padded = prepare_in_child(args.workload, args.seed, work)
        meter = Meter()
        workload = make_workload(args.workload, work, padded, meter)
        clock = SpanRecorder()
        clock.enabled = True
        clock.wrap("runner:run_case", case_arg=1)
        runner = Runner(workload, clock, expected, digests)
        try:
            if args.trace:
                spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
                metrics, info = per_layer(runner, args.seconds, spans_path)
            else:
                metrics, info = end_to_end(runner, args.seconds)
        finally:
            clock.unpatch()
    except (GateError, PaddingError) as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:  # another run still has its work dir there
            pass

    attempted, failed = info.pop("attempted"), info.pop("failed")
    print(json.dumps({"meta": run_metadata() | {"workload": args.workload, "seed": args.seed,
                                                "seconds": args.seconds} | info}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
