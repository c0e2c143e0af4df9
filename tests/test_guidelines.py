"""Guideline corpus ingest and the two-stage retrieval pipeline."""

from __future__ import annotations

import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dxcouncil.backends import HashEmbedder, LexicalOverlapScorer
from dxcouncil.errors import ResourceError, RetrievalError
from dxcouncil.guidelines import (
    GuidelineIndex,
    GuidelineSegment,
    composite_query,
    dense_retrieve,
    g_ret,
    ingest_corpus,
    read_corpus,
    rerank,
    row_scores,
)
from dxcouncil.trace import Trace


def segs(n: int, prefix: str = "g") -> list[GuidelineSegment]:
    return [GuidelineSegment(f"{prefix}{i:03d}", "doc",
                             f"Guidance segment number {i} about condition {i % 7}.")
            for i in range(n)]


class VectorTableEmbedder:
    """Maps exact texts to fixed vectors; unknown texts get a fallback."""

    def __init__(self, table: dict[str, list[float]], dim: int):
        self.table = table
        self.dim = dim

    def embed(self, texts):
        return [np.asarray(self.table[t], dtype=float) for t in texts]


def test_read_corpus_parses_and_validates():
    payload = (json.dumps({"segment_id": "a", "source_doc": "d", "text": "alpha"}) + "\n"
               + json.dumps({"segment_id": "b", "source_doc": "d", "text": "beta"}) + "\n")
    out = read_corpus(io.StringIO(payload))
    assert [s.segment_id for s in out] == ["a", "b"]

    with pytest.raises(ResourceError, match="^<stream>:1: bad corpus row: 'source_doc'$"):
        read_corpus(io.StringIO('{"segment_id": "a"}\n'))
    with pytest.raises(ResourceError, match="^<stream>:3: duplicate segment id 'a'$"):
        read_corpus(io.StringIO(payload + payload.splitlines()[0] + "\n"))
    with pytest.raises(ResourceError, match="^<stream>:1: segment 'x' has empty text$"):
        read_corpus(io.StringIO(
            json.dumps({"segment_id": "x", "source_doc": "d", "text": "  "}) + "\n"))


def test_ingest_counts_and_dimension():
    index = ingest_corpus(segs(10), HashEmbedder(dim=8))
    assert index.segment_count == 10
    assert index.dim == 8
    assert index.units.shape == (10, 8)
    assert index.units.flags.c_contiguous and not index.units.flags.writeable
    for row in index.units:
        assert abs(float(np.linalg.norm(row)) - 1.0) < 1e-9


def test_ingest_rejects_inconsistent_dimensions():
    class RaggedEmbedder:
        dim = 4

        def embed(self, texts):
            return [np.ones(4) if i == 0 else np.ones(5)
                    for i, _ in enumerate(texts)]

    with pytest.raises(RetrievalError, match="^segment 'g001' embedding dim 5 != 4$"):
        ingest_corpus(segs(2), RaggedEmbedder())


def test_ingest_rejects_a_short_vector_list():
    class ShortEmbedder:
        dim = 4

        def embed(self, texts):
            return [np.ones(4) for _ in texts[1:]]

    with pytest.raises(RetrievalError, match="^embedder returned 4 vectors for 5 texts$"):
        ingest_corpus(segs(5), ShortEmbedder())


def test_ingest_rejects_a_non_finite_embedding():
    class NanEmbedder:
        def embed(self, texts):
            return [np.array([1.0, np.nan, 0.0]) if i == 2 else np.ones(3)
                    for i, _ in enumerate(texts)]

    with pytest.raises(RetrievalError,
                       match="^embedder returned a non-finite vector at position 2$"):
        ingest_corpus(segs(4), NanEmbedder())


def test_a_non_finite_query_embedding_is_a_retrieval_error():
    class QueryNanEmbedder:
        def embed(self, texts):
            return [np.full(3, np.inf) if text == "q" else np.ones(3) for text in texts]

    index = ingest_corpus(segs(3), QueryNanEmbedder())
    with pytest.raises(RetrievalError,
                       match="^embedder returned a non-finite vector at position 0$"):
        dense_retrieve(index, "q", k=2)


class ListEmbedder:
    """Returns the vectors it holds, in order, one per text."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts):
        return self.vectors[:len(texts)]


def test_ingest_rejects_a_zero_vector():
    embedder = ListEmbedder([np.ones(3), np.zeros(3), np.ones(3)])
    with pytest.raises(RetrievalError, match="^cannot normalize a zero embedding vector$"):
        ingest_corpus(segs(3), embedder)


def test_ingest_converts_vectors_that_are_not_float_rows_one_by_one():
    rows = [[3, 4], np.array([1, 0], dtype=np.int32), [True, False]]
    units = ingest_corpus(segs(3), ListEmbedder(rows)).units
    assert units.dtype == np.float64 and units.flags.c_contiguous
    assert [row.tobytes() for row in units] == [
        (vec / math.sqrt(vec @ vec)).tobytes()
        for vec in (np.asarray(row, dtype=float) for row in rows)]


# signed values from 1e-300 to 1e300, and zero
magnitudes = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e, negative: (-m if negative else m) * 10.0 ** e,
              st.floats(1, 10, exclude_max=True), st.integers(-300, 299), st.booleans()))


@given(st.integers(1, 40).flatmap(
    lambda d: st.lists(st.lists(magnitudes, min_size=d, max_size=d), min_size=1, max_size=6)),
    st.booleans())
@example([[1e300, 1e300], [3.0, 4.0]], False)  # a square that overflows beside one that does not
@example([[1e-300, -1e-300]], False)  # a square that underflows to zero
@np.errstate(over="ignore")
def test_ingest_unit_vectors_equal_per_row_division_bit_for_bit(rows, as_lists):
    """Bit for bit where ``vec @ vec`` is finite and a normal float; a unit
    vector, pointing the same way, otherwise."""
    vectors = [np.array(row) for row in rows]
    squares = [vec @ vec for vec in vectors]
    embedder = ListEmbedder(rows if as_lists else vectors)
    if not all(vec.any() for vec in vectors):
        with pytest.raises(RetrievalError, match="^cannot normalize a zero embedding vector$"):
            ingest_corpus(segs(len(rows)), embedder)
        return
    units = ingest_corpus(segs(len(rows)), embedder).units
    for vec, square, unit in zip(vectors, squares, units):
        if sys.float_info.min <= square < math.inf:
            assert unit.tobytes() == (vec / math.sqrt(square)).tobytes()
        else:
            assert math.isclose(unit @ unit, 1.0, rel_tol=1e-12)
            assert (np.sign(unit) == np.sign(vec))[unit != 0].all()


@pytest.mark.parametrize("entry", [1e300, 1.7e308])
def test_a_vector_whose_square_overflows_normalizes_to_a_unit_vector(entry):
    embedder = ListEmbedder([[entry, entry], [-entry, 0.0]])
    units = ingest_corpus(segs(2), embedder).units
    half = 1 / math.sqrt(2)
    assert units.tolist() == [[half, half], [-1.0, 0.0]]
    index = GuidelineIndex(segs(1), units[:1], ListEmbedder([[entry, -entry]]))
    assert index.embed_query("q").tolist() == [half, -half]


def test_a_vector_whose_square_underflows_normalizes_to_a_unit_vector():
    embedder = ListEmbedder([[1e-300, -1e-300], [5e-324, 0.0]])
    units = ingest_corpus(segs(2), embedder).units
    half = 1 / math.sqrt(2)
    assert units.tolist() == [[half, -half], [1.0, 0.0]]
    index = GuidelineIndex(segs(1), units[:1], ListEmbedder([[-1e-300, -1e-300]]))
    assert index.embed_query("q").tolist() == [-half, -half]


def test_ingest_empty_corpus_rejected():
    with pytest.raises(ResourceError, match="^corpus contains no segments$"):
        ingest_corpus([], HashEmbedder(dim=8))


def test_reingest_produces_identical_vectors():
    a = ingest_corpus(segs(6), HashEmbedder(dim=16))
    b = ingest_corpus(segs(6), HashEmbedder(dim=16))
    assert np.array_equal(a.units, b.units)

    def hits(index):
        return [(r.segment.segment_id, r.dense_score.hex())
                for r in dense_retrieve(index, "q", k=6)]

    assert hits(a) == hits(b)


def test_self_similarity_is_one_and_negation_minus_one():
    table = {
        "the exact segment": [1.0, 2.0, 3.0],
        "other text": [3.0, 0.0, -1.0],
    }
    corpus = [GuidelineSegment("a", "d", "the exact segment"),
              GuidelineSegment("b", "d", "other text")]
    index = ingest_corpus(corpus, VectorTableEmbedder(
        dict(table, **{"q": table["the exact segment"]}), 3))
    hit = dense_retrieve(index, "q", k=1)[0]
    assert hit.segment.segment_id == "a"
    assert abs(hit.dense_score - 1.0) < 1e-9

    neg = ingest_corpus(corpus, VectorTableEmbedder(
        dict(table, **{"q": [-1.0, -2.0, -3.0]}), 3))
    scores = {r.segment.segment_id: r.dense_score
              for r in dense_retrieve(neg, "q", k=2)}
    assert abs(scores["a"] - (-1.0)) < 1e-9


def test_query_dimension_checked():
    index = ingest_corpus(segs(3), HashEmbedder(dim=8))
    index._embedder = HashEmbedder(dim=4)  # swap in a mismatched backend
    with pytest.raises(RetrievalError, match="^query embedding dim 4 != index dim 8$"):
        index.embed_query("anything")


def test_k_larger_than_corpus_returns_everything():
    index = ingest_corpus(segs(3), HashEmbedder(dim=8))
    out = dense_retrieve(index, composite_query("h", ["f"]), k=8)
    assert len(out) == 3
    assert all(r.rerank_score is None for r in out)


def test_dense_ranking_matches_cosine_sort_oracle():
    corpus = segs(30)
    index = ingest_corpus(corpus, HashEmbedder(dim=24))
    embedder = HashEmbedder(dim=24)
    for qi in range(10):
        query = f"query text {qi}"
        got = dense_retrieve(index, query, k=8)
        q = embedder.embed([query])[0]
        q = q / np.linalg.norm(q)
        oracle = []
        for seg in corpus:
            v = embedder.embed([seg.text])[0]
            v = v / np.linalg.norm(v)
            oracle.append((-float(np.dot(v, q)), seg.segment_id))
        oracle.sort()
        assert [(r.segment.segment_id, round(r.dense_score, 12)) for r in got] \
            == [(sid, round(-neg, 12)) for neg, sid in oracle[:8]]


def test_dense_tie_break_is_ascending_segment_id():
    class ConstantEmbedder:
        dim = 4

        def embed(self, texts):
            return [np.array([1.0, 0.0, 0.0, 0.0]) for _ in texts]

    index = ingest_corpus([GuidelineSegment(s, "d", f"text {s}")
                           for s in ["z9", "a1", "m5"]], ConstantEmbedder())
    out = dense_retrieve(index, "q", k=3)
    assert [r.segment.segment_id for r in out] == ["a1", "m5", "z9"]


def _brute_force_top_k(vectors, segment_ids, query, k):
    """The ranking as it was first written: each vector normalized on its
    own by ``np.linalg.norm``, and each score one ``np.dot``."""
    q = np.asarray(query, dtype=float)
    q = q / np.linalg.norm(q)
    scored = []
    for segment_id, vec in zip(segment_ids, vectors):
        vec = np.asarray(vec, dtype=float)
        scored.append((float(np.dot(vec / np.linalg.norm(vec), q)), segment_id))
    scored.sort(key=lambda row: (-row[0], row[1]))
    return [(segment_id, score.hex()) for score, segment_id in scored[:k]]


_COMPONENTS = st.one_of(st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
                        st.floats(min_value=-1, max_value=1, allow_subnormal=False))


@st.composite
def near_tie_corpora(draw):
    """A corpus built for near ties: each row is a new vector, a copy of an
    earlier row, an earlier row doubled (the same unit vector), or an
    earlier row with one component moved by one ulp. Segment ids are a
    shuffle, so ties do not follow row order. k runs up to S + 1."""
    dim = draw(st.sampled_from([1, 2, 3, 8, 33]))
    fresh = st.lists(_COMPONENTS, min_size=dim, max_size=dim).filter(
        lambda v: sum(x * x for x in v) > 1e-12)
    vectors = [draw(fresh)]
    for _ in range(draw(st.integers(min_value=0, max_value=39))):
        kind = draw(st.sampled_from(["fresh", "copy", "double", "ulp"]))
        if kind == "fresh":
            vectors.append(draw(fresh))
            continue
        vec = list(draw(st.sampled_from(vectors)))
        if kind == "double":
            vec = [2.0 * x for x in vec]
        elif kind == "ulp":
            j = draw(st.integers(min_value=0, max_value=dim - 1))
            vec[j] = float(np.nextafter(vec[j], draw(st.sampled_from([-np.inf, np.inf]))))
        vectors.append(vec)
    query = draw(st.one_of(st.sampled_from(vectors), fresh))
    order = draw(st.permutations(range(len(vectors))))
    k = draw(st.integers(min_value=1, max_value=len(vectors) + 1))
    return vectors, [f"s{i:02d}" for i in order], query, k


@given(near_tie_corpora())
@example(([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ["s02", "s00", "s01"], [1.0, 0.0], 2))
@example(([[0.6, 0.8], [float(np.nextafter(0.6, 1.0)), 0.8], [0.8, 0.6], [0.6, 0.8]],
          ["s03", "s01", "s02", "s00"], [0.6, 0.8], 1))
@example(([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]], ["s01", "s00"], [1.0, 1.0, 1.0], 3))
def test_dense_retrieval_matches_per_row_products_bit_for_bit(corpus):
    vectors, segment_ids, query, k = corpus
    table = {f"text {i}": vec for i, vec in enumerate(vectors)}
    index = ingest_corpus(
        [GuidelineSegment(segment_id, "d", f"text {i}")
         for i, segment_id in enumerate(segment_ids)],
        VectorTableEmbedder(dict(table, q=query), len(query)))
    got = [(r.segment.segment_id, r.dense_score.hex())
           for r in dense_retrieve(index, "q", k)]
    assert got == _brute_force_top_k(vectors, segment_ids, query, k)


@given(st.integers(1, 1536), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(["unit", "normal", "wide"]))
@example(1, 1, 0, "unit")
@example(1536, 12, 1, "wide")
def test_row_scores_hold_each_rows_own_product_bit_for_bit(dim, count, seed, scale):
    # dense_retrieve ranks and records these scores, so they must be what
    # units[i] @ q gives each row alone, whatever the dimension
    rng = np.random.default_rng(seed)
    units = rng.standard_normal((count + 3, dim))
    q = rng.standard_normal(dim)
    if scale == "unit":
        units /= np.linalg.norm(units, axis=1)[:, None]
        q /= np.linalg.norm(q)
    elif scale == "wide":
        units *= 10.0 ** rng.integers(-30, 30, size=units.shape)
    units.flags.writeable = False
    rows = np.sort(rng.choice(len(units), size=count, replace=False))
    assert ([score.hex() for score in row_scores(units, rows, q).tolist()]
            == [float(units[i] @ q).hex() for i in rows])


def test_empty_index_and_bad_k():
    index = GuidelineIndex([], np.empty((0, 8)), HashEmbedder(dim=8))
    with pytest.raises(RetrievalError, match="^cannot retrieve from an empty index$"):
        dense_retrieve(index, "q", k=1)
    full = ingest_corpus(segs(2), HashEmbedder(dim=8))
    with pytest.raises(ValueError):
        dense_retrieve(full, "q", k=0)


class ScriptScorer:
    def __init__(self, table):
        self.table = table
        self.calls = []

    def score(self, query_text, segment_texts):
        self.calls.append((query_text, list(segment_texts)))
        return [self.table[text] for text in segment_texts]


def test_rerank_matches_sort_oracle_over_scripted_scores():
    index = ingest_corpus(segs(8), HashEmbedder(dim=8))
    query = "q"
    candidates = dense_retrieve(index, query, k=8)
    table = {c.segment.text: float(i % 5) for i, c in enumerate(candidates)}
    got = rerank(candidates, query, ScriptScorer(table), n=4)
    oracle = sorted(candidates,
                    key=lambda c: (-table[c.segment.text], c.segment.segment_id))
    assert [r.segment.segment_id for r in got] == \
        [c.segment.segment_id for c in oracle[:4]]
    for r in got:
        assert r.rerank_score is not None
        assert r.rerank_score == table[r.segment.text]


def test_one_rerank_is_one_scorer_call_over_every_candidate():
    index = ingest_corpus(segs(8), HashEmbedder(dim=8))
    query = "q"
    candidates = dense_retrieve(index, query, k=8)
    scorer = ScriptScorer({c.segment.text: 1.0 for c in candidates})
    rerank(candidates, query, scorer, n=4)
    assert scorer.calls == [("q", [c.segment.text for c in candidates])]


@pytest.mark.parametrize("miscount", [lambda scores: scores[:-1],
                                      lambda scores: scores + [0.0]],
                         ids=["short", "long"])
def test_rerank_rejects_a_score_count_that_differs_from_the_candidates(miscount):
    index = ingest_corpus(segs(8), HashEmbedder(dim=8))
    query = "q"
    candidates = dense_retrieve(index, query, k=8)

    class MiscountingScorer:
        def score(self, query_text, segment_texts):
            return miscount([1.0] * len(segment_texts))

    got = len(miscount([1.0] * 8))
    with pytest.raises(RetrievalError,
                       match=f"^cross-scorer returned {got} scores for 8 segments$"):
        rerank(candidates, query, MiscountingScorer(), n=4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "minus_inf"])
def test_rerank_rejects_a_non_finite_score(bad):
    index = ingest_corpus(segs(4), HashEmbedder(dim=8))
    candidates = dense_retrieve(index, "q", k=4)
    by_text = {c.segment.text: score for c, score in zip(candidates, [0.2, bad, 0.9, 0.5])}

    class BadScorer:
        def score(self, query_text, segment_texts):
            return [by_text[text] for text in segment_texts]

    with pytest.raises(RetrievalError, match=f"^cross-scorer returned {bad} at position 1$"):
        rerank(candidates, "q", BadScorer(), n=4)


def test_rerank_preserves_dense_scores_and_reverses_on_negation():
    index = ingest_corpus(segs(6), HashEmbedder(dim=8))
    query = "q"
    candidates = dense_retrieve(index, query, k=6)
    dense_order = [c.segment.segment_id for c in candidates]
    dense_scores = {c.segment.segment_id: c.dense_score for c in candidates}

    class NegatingScorer:
        def score(self, query_text, segment_texts):
            return [-dense_scores[next(c.segment.segment_id for c in candidates
                                       if c.segment.text == text)]
                    for text in segment_texts]

    got = rerank(candidates, query, NegatingScorer(), n=6)
    assert [r.segment.segment_id for r in got] == list(reversed(dense_order))
    for r in got:
        assert r.dense_score == dense_scores[r.segment.segment_id]


def test_rerank_errors():
    index = ingest_corpus(segs(3), HashEmbedder(dim=8))
    query = "q"
    candidates = dense_retrieve(index, query, k=3)
    with pytest.raises(RetrievalError, match="^no candidates to rerank$"):
        rerank([], query, LexicalOverlapScorer(), n=2)
    with pytest.raises(ValueError):
        rerank(candidates, query, LexicalOverlapScorer(), n=0)

    class BrokenScorer:
        def score(self, query_text, segment_texts):
            raise RuntimeError("backend down")

    with pytest.raises(RetrievalError,
                       match="^cross-scoring 3 candidates failed: backend down$"):
        rerank(candidates, query, BrokenScorer(), n=2)


def test_two_stage_pipeline_bounds_and_containment():
    index = ingest_corpus(segs(12), HashEmbedder(dim=16))
    query = composite_query("Condition", ["finding one", "finding two"])
    trace = Trace("t")
    out = g_ret(index, query, LexicalOverlapScorer(), k=8, n=4, trace=trace)
    assert len(out) <= 4
    [row] = [r for r in trace.records if r["type"] == "retrieval"]
    dense_ids = {d["segment_id"] for d in row["dense"]}
    assert {r.segment.segment_id for r in out} <= dense_ids
    assert len(row["dense"]) == 8
    assert row["query"] == "Condition | findings: finding one; finding two"
    rerank_scores = [r.rerank_score for r in out]
    assert rerank_scores == sorted(rerank_scores, reverse=True)
    dense_trace_scores = [d["dense_score"] for d in row["dense"]]
    assert dense_trace_scores == sorted(dense_trace_scores, reverse=True)


def test_small_corpus_flows_through_both_stages():
    index = ingest_corpus(segs(3), HashEmbedder(dim=8))
    out = g_ret(index, composite_query("h", ["f"]),
                LexicalOverlapScorer(), Trace("t"), k=8, n=4)
    assert len(out) == 3


def test_retrieval_is_byte_stable_across_runs():
    def run():
        index = ingest_corpus(segs(20), HashEmbedder(dim=16))
        out = g_ret(index, composite_query("Condition", ["sign"]),
                    LexicalOverlapScorer(), Trace("t"), k=8, n=4)
        return [(r.segment.segment_id, r.dense_score, r.rerank_score) for r in out]

    assert run() == run()


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=4))
def test_result_size_never_exceeds_limits(n_segs, k, n):
    index = ingest_corpus(segs(n_segs), HashEmbedder(dim=8))
    out = g_ret(index, "query",
                LexicalOverlapScorer(), Trace("t"), k=k, n=n)
    assert len(out) == min(n, min(k, n_segs))
