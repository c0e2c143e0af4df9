"""Embedding and cross-scoring backends for guideline retrieval.

Three embedder flavors: a live OpenAI-compatible HTTP client, a replay table
keyed by exact text, and a deterministic hash-seeded pseudo-random embedder
for offline runs and tests. Cross-scorers mirror that split: HTTP reranker,
scripted score table, and a deterministic lexical-overlap scorer.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import urllib.error
import urllib.request
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Protocol

import numpy as np

from .errors import RecordConflictError, ResourceError, RetrievalError, TransportError
from .jsonl import JsonlSink, read_jsonl, text_field
from .kg import term_tokens


class Embedder(Protocol):
    def embed(self, texts: list[str]) -> list[np.ndarray]: ...


class CrossScorer(Protocol):
    def score(self, query_text: str, segment_texts: list[str]) -> list[float]: ...


def checked_scores(scores: list[float], segment_texts: list[str]) -> list[float]:
    """``scores``, once they hold one finite score per segment text: zipped
    against the texts, a short or long list would drop segments or pair
    scores with the wrong ones, and a NaN would leave the ranking arbitrary.
    Otherwise ``RetrievalError``."""
    if len(scores) != len(segment_texts):
        raise RetrievalError(
            f"cross-scorer returned {len(scores)} scores for {len(segment_texts)} segments")
    for position, score in enumerate(scores):
        if not math.isfinite(score):
            raise RetrievalError(f"cross-scorer returned {score} at position {position}")
    return scores


def checked_vectors(vectors: list[np.ndarray], texts: list[str]) -> list[np.ndarray]:
    """``vectors``, once they hold one vector per text and each is 1-d (a
    bare number or a nested list would fail later, outside the engine's
    errors) and finite; otherwise ``RetrievalError``."""
    if len(vectors) != len(texts):
        raise RetrievalError(
            f"embedder returned {len(vectors)} vectors for {len(texts)} texts")
    for position, vec in enumerate(vectors):
        if np.ndim(vec) != 1:
            raise RetrievalError(
                f"embedder returned a {np.ndim(vec)}-d vector at position {position}")
        if not np.isfinite(vec).all():
            raise RetrievalError(
                f"embedder returned a non-finite vector at position {position}")
    return vectors


# seconds each live request may take
POST_TIMEOUT_S = 60.0


def post_json(url: str, body: dict, read: Callable[[Any], Any], attempts: int = 1) -> Any:
    """POST ``body`` as JSON and return ``read`` of the decoded reply.

    The request goes through urllib's default opener: the proxy variables
    apply, and TLS certificates are verified. Every failure becomes a
    ``TransportError``:

    - a body that JSON cannot encode;
    - tried up to ``attempts`` times in all: a connection, DNS, timeout or
      reset failure (``OSError``), a protocol failure
      (``http.client.HTTPException``), a URL urllib rejects
      (``ValueError``), and a non-2xx status, which the message names;
    - never retried: a 2xx body that is not JSON (UTF-8, -16 or -32), or
      that ``read`` cannot take apart, however deep or large its values.
    """
    try:
        data = json.dumps(body, allow_nan=False).encode("utf-8")
    except (ValueError, TypeError) as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    for _ in range(attempts):
        try:
            request = urllib.request.Request(
                url, data=data, headers={"Content-Type": "application/json"}, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=POST_TIMEOUT_S) as resp:
                    status, raw = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # before OSError: it is one
                with exc:
                    status, raw = exc.code, exc.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            error = TransportError(f"request to {url} failed: {exc}")
            continue
        if not 200 <= status < 300:
            error = TransportError(f"{url} returned {status}")
            continue
        try:
            return read(json.loads(raw))
        except (ValueError, KeyError, IndexError, TypeError, RecursionError,
                OverflowError) as exc:
            raise TransportError(f"malformed response from {url}: {exc}") from exc
    raise error


# -- embedders ---------------------------------------------------------------

class HashEmbedder:
    """Deterministic pseudo-random embeddings seeded from the text digest.

    Same text always maps to the same vector, across processes and runs, so
    offline pipelines stay byte-reproducible with no stored table.
    """

    def __init__(self, dim: int = 32):
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
            rng = np.random.default_rng(seed)
            out.append(rng.standard_normal(self.dim))
        return out


class TableEmbedder:
    """Replay embeddings from a JSONL table keyed by exact text.

    Row format: ``{"text": ..., "embedding": [...]}``, every entry a finite
    JSON number (not a numeric string or a boolean) and every vector of one
    length. A lookup miss is an error: replay must be closed over
    everything the pipeline will ask for. A text repeated with a different
    vector is a ``RecordConflictError``.

    ``load`` converts and checks all vectors with one ``np.array``, one
    ``isfinite`` and one pass over the entries' types, and keeps them as
    read-only rows of that (N, d) matrix; a table whose texts are distinct
    is then one ``dict`` of them. A table that fails any check is read again
    row by row, which names the first fault in file order.
    """

    def __init__(self, table: dict[str, np.ndarray]):
        self.table = table

    @classmethod
    def load(cls, path: str | Path) -> "TableEmbedder":
        try:
            rows = list(read_jsonl(path, _embedding_fields, "embedding"))
            vectors = [vec for _, _, (_, vec) in rows]
            matrix = np.array(vectors, dtype=float)
            if (matrix.ndim != 2 or not np.isfinite(matrix).all()
                    or not set(map(type, chain.from_iterable(vectors))) <= {int, float}):
                raise ValueError("not one matrix of finite numbers")
        except (ResourceError, ValueError, TypeError, OverflowError):
            located = read_jsonl(path, _embedding_row, "embedding")
        else:
            matrix.flags.writeable = False
            table = dict(zip([text for _, _, (text, _) in rows], matrix))
            if len(table) == len(rows):
                return cls(table)
            located = ((name, line_no, (text, vec))
                       for (name, line_no, (text, _)), vec in zip(rows, matrix))
        table = {}
        dim: int | None = None
        for name, line_no, (text, vec) in located:
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ResourceError(
                    f"{name}:{line_no}: embedding dim {vec.shape[0]} != {dim}")
            if (seen := table.setdefault(text, vec)) is not vec and not np.array_equal(seen, vec):
                raise RecordConflictError(
                    text, f"{name}:{line_no}: text {text!r} appears twice "
                    "with different embeddings")
        if dim is None:
            raise ResourceError(f"{path}: embedding table is empty")
        return cls(table)

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            if text not in self.table:
                raise ResourceError(f"embedding table has no entry for text {text!r}")
            out.append(self.table[text])
        return out


def _embedding_fields(row: dict) -> tuple[str, Any]:
    return text_field(row, "text"), row["embedding"]


def _embedding_row(row: dict) -> tuple[str, np.ndarray]:
    vec = np.asarray(row["embedding"], dtype=float)
    # Python's JSON reads NaN, and numpy converts "1.5" and true
    if (vec.ndim != 1 or not np.isfinite(vec).all()
            or not set(map(type, row["embedding"])) <= {int, float}):
        raise ValueError("embedding must be a flat list of finite numbers")
    return text_field(row, "text"), vec


class HttpEmbedder:
    """OpenAI-compatible embeddings endpoint.

    POST ``{"input": [texts], "model": ...}`` ->
    ``{"data": [{"index": i, "embedding": [...]}]}``. Each vector is placed
    by its ``index``, under the rule ``HttpScorer`` follows.
    """

    def __init__(self, endpoint: str, model: str):
        self.endpoint = endpoint.rstrip("/")
        self.model = model

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        return checked_vectors(post_json(
            f"{self.endpoint}/embeddings", {"input": texts, "model": self.model},
            lambda reply: _by_index(reply["data"],
                                    lambda row: np.asarray(row["embedding"], dtype=float))),
            texts)


# -- cross scorers -----------------------------------------------------------

class LexicalOverlapScorer:
    """Deterministic offline cross-scorer: token Jaccard overlap."""

    def score(self, query_text: str, segment_texts: list[str]) -> list[float]:
        q = term_tokens(query_text)
        scores = []
        for text in segment_texts:
            s = term_tokens(text)
            scores.append(len(q & s) / len(q | s) if q and s else 0.0)
        return scores


class TableScorer:
    """Scripted pairwise scores, keyed by (query text, segment text).

    File rows: ``{"query": ..., "text": ..., "score": x}``. A miss raises so
    a scripted test that forgot a pair fails loudly instead of silently. A
    pair repeated with a different score is a ``RecordConflictError``.
    """

    def __init__(self, table: dict[tuple[str, str], float]):
        self.table = table

    @classmethod
    def load(cls, path: str | Path) -> "TableScorer":
        table: dict[tuple[str, str], float] = {}
        for name, line_no, (key, score) in read_jsonl(path, _score_row, "score"):
            if table.setdefault(key, score) != score:
                raise RecordConflictError(
                    key, f"{name}:{line_no}: pair {key!r} appears twice with different scores")
        return cls(table)

    def score(self, query_text: str, segment_texts: list[str]) -> list[float]:
        scores = []
        for text in segment_texts:
            key = (query_text, text)
            if key not in self.table:
                raise ResourceError(f"score table has no entry for query {query_text!r}")
            scores.append(self.table[key])
        return scores


def _score_row(row: dict) -> tuple[tuple[str, str], float]:
    score = row["score"]
    kind = type(score)
    if kind is not float:
        if kind is not int:  # not a JSON number; bool is an int
            raise ValueError(f"score must be a number, got {kind.__name__}")
        score = float(score)
    if not math.isfinite(score):  # Python's JSON reads NaN
        raise ValueError(f"score {score} is not finite")
    return (text_field(row, "query"), text_field(row, "text")), score


class HttpScorer:
    """Reranker service client: one request scores every segment text.

    POST ``{"model": ..., "query": ..., "documents": [texts]}`` ->
    ``{"results": [{"index": i, "relevance_score": x}, ...]}`` with one
    result per document. Services sort ``results`` by relevance, so each
    score is placed by its ``index``; a missing, repeated or out-of-range
    index, or a result count that differs from the documents, is a
    ``TransportError``.
    """

    def __init__(self, endpoint: str, model: str):
        self.endpoint = endpoint.rstrip("/")
        self.model = model

    def score(self, query_text: str, segment_texts: list[str]) -> list[float]:
        def read(reply: dict) -> list[float]:
            count, results = len(segment_texts), reply["results"]
            if len(results) != count:
                raise ValueError(f"{len(results)} results for {count} documents")
            return _by_index(results, lambda row: float(row["relevance_score"]))

        return post_json(
            f"{self.endpoint}/rerank",
            {"model": self.model, "query": query_text, "documents": segment_texts},
            read)


def _by_index(rows: list[dict], value: Callable[[dict], Any]) -> list:
    """``value`` of each row, placed at the row's ``index``: each index must
    be an int, name a position among the rows, and appear once; otherwise
    ``ValueError``."""
    placed: list = [None] * len(rows)
    for row in rows:
        index = row["index"]
        if type(index) is not int or not 0 <= index < len(rows):
            raise ValueError(f"result index {index!r} is not a document position")
        if placed[index] is not None:
            raise ValueError(f"result index {index} appears twice")
        placed[index] = value(row)
    return placed


# -- recording wrappers ------------------------------------------------------

class RecordingEmbedder:
    """Wraps an embedder and writes every (text, vector) pair as a replay
    table row. Floats survive the JSON round trip exactly, so a replay run
    reproduces the recorded run bit for bit. A text seen again with a
    different vector raises ``RecordConflictError``; a vector count that
    differs from the texts raises ``RetrievalError`` before any row is
    written."""

    def __init__(self, inner: Embedder, sink_path: str | Path):
        self._inner = inner
        self._sink = JsonlSink(sink_path, RecordConflictError)

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        vectors = checked_vectors(self._inner.embed(texts), texts)
        self._sink.write((text, {"text": text, "embedding": [float(x) for x in vec]})
                         for text, vec in zip(texts, vectors))
        return vectors

    def close(self) -> None:
        self._sink.close()

    def discard(self) -> None:
        self._sink.discard()


class RecordingScorer:
    """Wraps a cross-scorer and captures every scored pair, one row per pair
    in input order; a pair scored again with a different value raises
    ``RecordConflictError``."""

    def __init__(self, inner: CrossScorer, sink_path: str | Path):
        self._inner = inner
        self._sink = JsonlSink(sink_path, RecordConflictError)

    def score(self, query_text: str, segment_texts: list[str]) -> list[float]:
        scores = checked_scores([float(value) for value in
                                 self._inner.score(query_text, segment_texts)],
                                segment_texts)
        self._sink.write(((query_text, text),
                          {"query": query_text, "text": text, "score": value})
                         for text, value in zip(segment_texts, scores))
        return scores

    def close(self) -> None:
        self._sink.close()

    def discard(self) -> None:
        self._sink.discard()
