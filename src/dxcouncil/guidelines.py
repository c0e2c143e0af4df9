"""Guideline corpus index and the two-stage retrieval pipeline.

Retrieval takes the query as plain text: the composite query of a
hypothesis and its findings for an initial package, a refinement query's own
text for a supplement. Stage one embeds the query and takes the top-k
segments by cosine similarity; stage two rescores those candidates with one
cross-scorer call and keeps the top-n; a segment has a ``rerank_score``
exactly when it was rescored. Ties at both stages break by ascending
segment id, which keeps ranked lists byte-stable for replay.

The index holds the corpus as one C-contiguous (S, d) matrix of unit
vectors, so cosine is a plain dot product. Stage one takes every score in
one mat-vec, ``units @ q``, and shortlists each row within
``_SHORTLIST_MARGIN`` of the k-th best. The mat-vec rounds differently
from a single row's product in the last bits, so each shortlisted row is
scored again with the bits of its own ``units[i] @ q``, all in one stacked
``np.matmul`` (``row_scores``), and those scores are the ones ranked and
recorded. For unit vectors the gap between the two is at most about
d * 2**-52 (7e-15 at d = 32), far inside the margin, so the shortlist holds
every row of the exact top-k, ties included. Each norm at ingest is a
1-d ``@``: it gives the bits ``np.dot`` gives, but keeps the GIL, where
``np.dot`` and ``np.linalg.norm`` release and re-take it on every call and
so wait behind any busy Python thread.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .backends import CrossScorer, Embedder, checked_scores, checked_vectors
from .errors import EngineError, ResourceError, RetrievalError
from .jsonl import read_jsonl, text_field
from .trace import Trace


@dataclass(frozen=True)
class GuidelineSegment:
    segment_id: str
    source_doc: str
    text: str


@dataclass(frozen=True)
class RankedSegment:
    segment: GuidelineSegment
    dense_score: float
    rerank_score: float | None = None


def composite_query(hypothesis: str, finding_names: list[str]) -> str:
    """The retrieval query for one hypothesis:
    ``"<hypothesis> | findings: <n1>; <n2>; ..."``, findings in extraction
    order."""
    return f"{hypothesis} | findings: " + "; ".join(finding_names)


def read_corpus(source: str | Path | TextIO) -> list[GuidelineSegment]:
    """Parse a JSONL corpus: one object per line with segment_id,
    source_doc, and text."""
    segments: list[GuidelineSegment] = []
    seen: set[str] = set()
    for name, line_no, segment in read_jsonl(source, _segment_row, "corpus"):
        if not segment.text.strip():
            raise ResourceError(
                f"{name}:{line_no}: segment {segment.segment_id!r} has empty text")
        if segment.segment_id in seen:
            raise ResourceError(
                f"{name}:{line_no}: duplicate segment id {segment.segment_id!r}")
        seen.add(segment.segment_id)
        segments.append(segment)
    return segments


def _segment_row(row: dict) -> GuidelineSegment:
    return GuidelineSegment(text_field(row, "segment_id"), text_field(row, "source_doc"),
                            text_field(row, "text"))


class GuidelineIndex:
    """The corpus segments and their unit vectors, row i of ``units``
    belonging to segment i. ``units`` is one read-only, C-contiguous
    (S, d) matrix, so stage one scores the whole corpus in one mat-vec
    (see the module docstring for the shortlist and why it is exact).

    Immutable after ingest; retrieval calls are thread-safe.
    """

    def __init__(self, segments: list[GuidelineSegment], units: np.ndarray,
                 embedder: Embedder):
        self._segments = tuple(segments)
        self.units = units
        self._embedder = embedder
        self.dim = units.shape[1]

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def embed_query(self, text: str) -> np.ndarray:
        [vec] = _embed(self._embedder, [text])
        if vec.shape[0] != self.dim:
            raise RetrievalError(
                f"query embedding dim {vec.shape[0]} != index dim {self.dim}")
        return _unit(vec)


def _embed(embedder: Embedder, texts: list[str]) -> list[np.ndarray]:
    """One checked float vector per text. An exception that is not an
    ``EngineError`` becomes a ``RetrievalError``, as ``Gateway.complete``
    wraps a chat backend's, so it fails the case or the set-up instead of
    aborting the batch."""
    try:
        return [np.asarray(vec, dtype=float)
                for vec in checked_vectors(embedder.embed(texts), texts)]
    except EngineError:
        raise
    except Exception as exc:
        raise RetrievalError(f"embedding {len(texts)} texts failed: {exc}") from exc


def _embed_corpus(embedder: Embedder, segments: list[GuidelineSegment]) -> np.ndarray:
    """``_embed`` for every segment, as one (S, d) matrix stacked and checked
    at once. Vectors that do not stack as S finite float64 rows take the
    row-by-row checks, which name the first fault."""
    texts = [s.text for s in segments]
    try:
        vectors = embedder.embed(texts)
        try:
            matrix = np.array(vectors)
        except Exception:  # ragged, or not numbers: named below
            matrix = None
        if (matrix is not None and matrix.dtype == np.float64 and matrix.ndim == 2
                and len(matrix) == len(texts) and np.isfinite(matrix).all()):
            return matrix
        vectors = [np.asarray(vec, dtype=float) for vec in checked_vectors(vectors, texts)]
    except EngineError:
        raise
    except Exception as exc:
        raise RetrievalError(f"embedding {len(texts)} texts failed: {exc}") from exc
    dim = vectors[0].shape[0]
    for segment, vec in zip(segments, vectors):
        if vec.shape[0] != dim:
            raise RetrievalError(
                f"segment {segment.segment_id!r} embedding dim {vec.shape[0]} != {dim}")
    return np.array(vectors)


def _unit(vec: np.ndarray) -> np.ndarray:
    """``vec / sqrt(vec @ vec)``: the bits ``vec / np.linalg.norm(vec)``
    gives a 1-d float vector. Where ``vec @ vec`` overflows, or falls below
    the smallest normal float and so loses its bits, ``vec`` is first
    divided by its largest absolute entry."""
    with np.errstate(over="ignore"):
        square = vec @ vec
    if not _ordinary(square):
        scale = np.abs(vec).max()
        if scale == 0.0:
            raise RetrievalError("cannot normalize a zero embedding vector")
        vec = vec / scale
        square = vec @ vec
    return vec / math.sqrt(square)


def _ordinary(square):
    # a squared norm that keeps its bits: finite and not below the smallest
    # normal float; elementwise on an array
    return (square >= sys.float_info.min) & (square != math.inf)


def ingest_corpus(segments: list[GuidelineSegment], embedder: Embedder) -> GuidelineIndex:
    """Embed every segment and build the index.

    Stored vectors are unit-normalized; embedding results commit in source
    order regardless of how the backend batches. Each norm is a 1-d ``@``
    on its own row, so every unit vector has the bits ``_unit`` gives it.
    """
    if not segments:
        raise ResourceError("corpus contains no segments")
    vectors = _embed_corpus(embedder, segments)
    with np.errstate(over="ignore"):
        squares = np.array([vec @ vec for vec in vectors])
    if _ordinary(squares).all():
        units = vectors / np.sqrt(squares)[:, None]
    else:
        units = np.array([_unit(vec) for vec in vectors])
    units.flags.writeable = False
    return GuidelineIndex(segments, units, embedder)


# Rows whose mat-vec score is this close to the k-th best are re-scored. It
# is far above the mat-vec's rounding gap, about d * 2**-52 for unit vectors.
_SHORTLIST_MARGIN = 1e-9


def dense_retrieve(index: GuidelineIndex, query: str, k: int) -> list[RankedSegment]:
    """Top-k segments by cosine similarity, ties by ascending segment id.

    One mat-vec shortlists the rows that can be in the top-k; those rows are
    scored again, each on its own (``row_scores``), and the ranking uses
    those scores."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.segment_count == 0:
        raise RetrievalError("cannot retrieve from an empty index")
    q = index.embed_query(query)
    units = index.units
    if index.segment_count > k:
        scores = units @ q
        kth = np.partition(scores, -k)[-k]
        rows = np.flatnonzero(scores >= kth - _SHORTLIST_MARGIN)
    else:
        rows = np.arange(index.segment_count)
    segments = index._segments
    ranked = sorted(zip(row_scores(units, rows, q).tolist(), rows.tolist()),
                    key=lambda scored: (-scored[0], segments[scored[1]].segment_id))
    return [RankedSegment(segments[row], score) for score, row in ranked[:k]]


def row_scores(units: np.ndarray, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``units[i] @ q`` for each ``i`` in ``rows``, with those bits, in one
    call: stacked, each row is a (1, d) by (d,) product, which numpy takes
    as the 1-d dot ``units[i] @ q`` is."""
    return np.matmul(units[rows][:, None, :], q)[:, 0]


def rerank(candidates: list[RankedSegment], query: str,
           scorer: CrossScorer, n: int) -> list[RankedSegment]:
    """Cross-score every candidate in one scorer call and keep the top-n.

    Dense scores are preserved on the output; ties break by ascending
    segment id.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not candidates:
        raise RetrievalError("no candidates to rerank")
    texts = [cand.segment.text for cand in candidates]
    try:
        scores = [float(score) for score in scorer.score(query, texts)]
    except Exception as exc:
        raise RetrievalError(f"cross-scoring {len(texts)} candidates failed: {exc}") from exc
    rescored = [RankedSegment(cand.segment, cand.dense_score, score)
                for cand, score in zip(candidates, checked_scores(scores, texts))]
    rescored.sort(key=lambda r: (-r.rerank_score, r.segment.segment_id))
    return rescored[:n]


def g_ret(index: GuidelineIndex, query: str, scorer: CrossScorer,
          trace: Trace, k: int, n: int) -> list[RankedSegment]:
    """The full two-stage retrieval: dense top-k, then reranked top-n.

    Records the query and both ranked stages in the trace.
    """
    dense = dense_retrieve(index, query, k)
    ranked = rerank(dense, query, scorer, n)
    trace.retrieval(
        query=query,
        dense=[{"segment_id": r.segment.segment_id, "dense_score": r.dense_score}
               for r in dense],
        reranked=[{"segment_id": r.segment.segment_id, "dense_score": r.dense_score,
                   "rerank_score": r.rerank_score} for r in ranked],
        k=k, n=n,
    )
    return ranked
