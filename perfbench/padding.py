"""Padded fixture bundle for the ``replay-large`` workload.

Adds inert bulk to the 10-case fixture bundle so the scan-based layers
(entity matching, dense retrieval, ingest) work on a large vocabulary and
corpus while every diagnosis, model exchange and trace digest stays the same:

* padding concepts use tokens that occur nowhere in the fixture files, so no
  mention ever matches them;
* padding edges start and end inside the padding, so no path search from a
  fixture concept reaches them;
* padding segment vectors lie in the orthogonal complement of every
  recorded query vector, so their dense score is zero to rounding and never
  displaces a fixture segment from a query's top-k.

``build_padded_bundle`` checks all three before it returns (the edge check
reads the written files back) and raises ``PaddingError`` otherwise. The
same seed always writes the same files.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import numpy as np

from dxcouncil.kg import read_concepts, read_triples, term_tokens

CONCEPTS = 2000
SEGMENTS = 4000
OUT_EDGES = 3
CONSONANTS = "bcdfghjklmnpqrstvwxz"
VOWELS = "aeiouy"


class PaddingError(RuntimeError):
    pass


def _fixture_tokens(fixtures: Path) -> frozenset[str]:
    tokens: set[str] = set()
    for path in sorted(fixtures.iterdir()):
        if path.is_file():
            for line in path.read_text(encoding="utf-8").splitlines():
                tokens |= term_tokens(line)
    return frozenset(tokens)


def _words(rng: random.Random, count: int, banned: frozenset[str]) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                       for _ in range(rng.randint(2, 3)))
        if word not in banned:
            words.add(word)
    return sorted(words)


def _complement_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (d, m) of the space orthogonal to every row."""
    _, sv, vt = np.linalg.svd(vectors)
    rank = int((sv > sv[0] * 1e-10).sum())
    return vt[rank:].T


def _padding_edges(rng: random.Random, concept_ids: list[str]) -> list[tuple[str, str, str]]:
    """OUT_EDGES edges from each padding concept to other padding concepts."""
    rows = []
    for cid in concept_ids:
        targets = [t for t in rng.sample(concept_ids, OUT_EDGES + 1) if t != cid]
        rows += [(cid, "padding_link", t) for t in targets[:OUT_EDGES]]
    return rows


def _check_edges(base, paths: dict[str, Path]) -> None:
    """Fail if a written edge links a padding concept and a fixture concept."""
    fixture_ids = {c.id for c in read_concepts(base.concepts_path)}
    pad_ids = {c.id for c in read_concepts(paths["concepts_path"])} - fixture_ids
    crossing = [(e.source, e.target) for _, e in read_triples(paths["triples_path"])
                if (e.source in pad_ids) != (e.target in pad_ids)]
    if crossing:
        raise PaddingError(f"padding edges cross into the fixture graph: {crossing[:3]}")


def _top_ids(units: np.ndarray, ids: list[str], q: np.ndarray, k: int) -> list[str]:
    scores = units @ q
    return [ids[i] for i in sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]]


def build_padded_bundle(base, dest: Path, seed: int) -> dict[str, Path]:
    """Pad the concepts, triples, corpus and embeddings that the replay
    config ``base`` names, writing the padded copies into ``dest``.

    Returns the new paths keyed by their RunConfig field name.
    """
    rng = random.Random(seed)
    banned = _fixture_tokens(base.corpus_path.parent)
    vocab = _words(rng, 3000, banned)

    def phrase(lo: int, hi: int) -> str:
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))

    concept_ids = [f"zz_pad_{i:05d}" for i in range(CONCEPTS)]
    concept_rows, padding_text = [], []
    for cid in concept_ids:
        name = phrase(1, 3)
        synonyms = [phrase(1, 2)] if rng.random() < 0.25 else []
        concept_rows.append(f"{cid}\t{name}\t{'|'.join(synonyms)}\tpadding")
        padding_text += [name, *synonyms]
    triple_rows = _padding_edges(rng, concept_ids)
    segment_rows = [{"segment_id": f"zz-pad-{i:05d}", "source_doc": "padding",
                     "text": phrase(12, 20)} for i in range(SEGMENTS)]
    padding_text += [row["text"] for row in segment_rows]

    # check 1: no padding token occurs in any fixture text
    leaked = set().union(*(term_tokens(t) for t in padding_text)) & banned
    if leaked:
        raise PaddingError(f"padding tokens occur in fixture text: {sorted(leaked)[:5]}")
    fixture_segments = [json.loads(line) for line in
                        base.corpus_path.read_text(encoding="utf-8").splitlines()
                        if line.strip()]
    segment_texts = {row["text"] for row in fixture_segments}
    embedding_lines = [line for line in
                       base.embeddings_path.read_text(encoding="utf-8").splitlines()
                       if line.strip()]
    table = {row["text"]: np.asarray(row["embedding"], dtype=float)
             for row in map(json.loads, embedding_lines)}
    queries = np.array([vec for text, vec in table.items() if text not in segment_texts])
    basis = _complement_basis(queries)
    if basis.shape[1] == 0:
        raise PaddingError("recorded query vectors span the whole embedding space")
    np_rng = np.random.default_rng(seed)
    pad_vectors = np_rng.standard_normal((SEGMENTS, basis.shape[1])) @ basis.T

    # check 2: every recorded query keeps its top-k segments
    def units(rows: np.ndarray) -> np.ndarray:
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    fixture_ids = [row["segment_id"] for row in fixture_segments]
    fixture_units = units(np.array([table[row["text"]] for row in fixture_segments]))
    all_ids = fixture_ids + [row["segment_id"] for row in segment_rows]
    all_units = np.vstack([fixture_units, units(pad_vectors)])
    for q in units(queries):
        before = _top_ids(fixture_units, fixture_ids, q, base.k)
        if _top_ids(all_units, all_ids, q, base.k) != before:
            raise PaddingError("padding segments displace a recorded query's top-k")

    dest.mkdir(parents=True, exist_ok=True)
    paths = {"concepts_path": dest / "concepts.tsv", "triples_path": dest / "triples.tsv",
             "corpus_path": dest / "guidelines.jsonl",
             "embeddings_path": dest / "embeddings.jsonl"}
    for field, path in paths.items():
        shutil.copyfile(getattr(base, field), path)
    with open(paths["concepts_path"], "a", encoding="utf-8") as fh:
        fh.writelines(row + "\n" for row in concept_rows)
    with open(paths["triples_path"], "a", encoding="utf-8") as fh:
        fh.writelines("\t".join(t) + "\n" for t in triple_rows)
    with open(paths["corpus_path"], "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in segment_rows)
    with open(paths["embeddings_path"], "a", encoding="utf-8") as fh:
        for row, vec in zip(segment_rows, pad_vectors):
            fh.write(json.dumps({"text": row["text"],
                                 "embedding": [float(x) for x in vec]}) + "\n")
    # check 3: no written edge links the padding and the fixture graph
    _check_edges(base, paths)
    return paths
