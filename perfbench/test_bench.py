"""Self-checks for the benchmark's instrumentation and padding.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import padding  # noqa: E402
from dxcouncil import differential, runner  # noqa: E402
from dxcouncil.config import validate_config  # noqa: E402
from dxcouncil.kg import term_tokens  # noqa: E402
from spans import BackendProxy, Meter, SpanRecorder  # noqa: E402


class Backend:
    label = "live"

    def embed(self, texts):
        return [[0.0]] * len(texts)

    def score(self, query, text):
        return 0.5

    def score_many(self, query, texts):
        return [0.5] * len(texts)


def test_proxy_counts_any_public_method_once_and_sleeps():
    meter = Meter()
    proxy = BackendProxy(Backend(), "rerank", 0.002, meter)
    start = time.perf_counter()
    assert proxy.score("q", "t") == 0.5
    assert proxy.score_many("q", ["a", "b", "c"]) == [0.5] * 3
    assert time.perf_counter() - start >= 0.004
    assert proxy.label == "live"
    assert meter.count("rerank") == 2
    assert meter.take().count() == 2 and meter.count() == 0


def test_proxy_counts_embedded_texts():
    meter = Meter()
    proxy = BackendProxy(Backend(), "embed", 0.0, meter)
    proxy.embed(["a", "b", "c"])
    proxy.embed(["d"])
    assert (meter.count("embed"), meter.items("embed")) == (2, 4)


def test_inflight_mean_is_summed_request_time_over_busy_time():
    meter = Meter()
    meter.requests = [("chat", 0.0, 1.0, 1), ("chat", 2.0, 3.0, 1)]
    assert meter.inflight_mean() == 1.0
    meter.requests = [("chat", 0.0, 1.0, 1), ("embed", 0.0, 1.0, 1)]
    assert meter.inflight_mean() == 2.0


def test_self_times_add_up_to_the_root_span():
    rec = SpanRecorder()
    rec.enabled = True
    root = rec.open("batch")
    child = rec.open("child")
    rec.close(rec.open("grandchild"))
    rec.close(child)
    rec.close(rec.open("child"))
    rec.close(root)
    totals = rec.totals()
    assert totals["child"]["calls"] == 2
    assert sum(row["self_ms"] for row in totals.values()) == pytest.approx(
        totals["batch"]["ms"])


def test_wrap_rebinds_every_imported_name_and_unpatch_restores():
    original = differential.extract_abnormal_entities
    rec = SpanRecorder()
    rec.wrap("differential:extract_abnormal_entities")
    try:
        assert runner.extract_abnormal_entities is differential.extract_abnormal_entities
        assert runner.extract_abnormal_entities is not original
    finally:
        rec.unpatch()
    assert runner.extract_abnormal_entities is original
    assert differential.extract_abnormal_entities is original


def test_absent_targets_are_reported_not_raised():
    rec = SpanRecorder()
    rec.wrap("kg:KnowledgeGraph.no_such_method")
    rec.wrap("no_such_module:function")
    assert rec.absent == ["kg:KnowledgeGraph.no_such_method", "no_such_module:function"]


@pytest.fixture()
def base(tmp_path, monkeypatch):
    monkeypatch.setattr(padding, "CONCEPTS", 50)
    monkeypatch.setattr(padding, "SEGMENTS", 400)
    return replace(validate_config(ROOT / "fixtures" / "replay_config.yaml"),
                   output_dir=tmp_path / "out")


def test_padding_is_inert_and_seeded(base, tmp_path):
    one = padding.build_padded_bundle(base, tmp_path / "a", 3)
    two = padding.build_padded_bundle(base, tmp_path / "b", 3)
    for field, path in one.items():
        assert path.read_bytes() == two[field].read_bytes()
    fixture_ids = {line.split("\t")[0]
                   for line in base.concepts_path.read_text().splitlines()}
    added = one["triples_path"].read_text().splitlines()[
        len(base.triples_path.read_text().splitlines()):]
    assert len(added) == 50 * padding.OUT_EDGES
    assert all(line.split("\t")[2] not in fixture_ids for line in added)
    corpus = one["corpus_path"].read_text().splitlines()
    assert len(corpus) == len(base.corpus_path.read_text().splitlines()) + 400
    assert all(json.loads(line)["text"] for line in corpus)


def test_padding_rejects_a_token_shared_with_the_fixtures(base, tmp_path, monkeypatch):
    words = padding._words
    monkeypatch.setattr(padding, "_words",
                        lambda rng, count, banned: words(rng, count, banned) + ["jaundice"])
    assert "jaundice" in term_tokens(base.concepts_path.read_text())
    with pytest.raises(padding.PaddingError, match="fixture text"):
        padding.build_padded_bundle(base, tmp_path / "c", 3)


def test_padding_rejects_vectors_that_reach_a_query_top_k(base, tmp_path, monkeypatch):
    monkeypatch.setattr(padding, "_complement_basis", lambda vectors: np.eye(vectors.shape[1]))
    with pytest.raises(padding.PaddingError, match="top-k"):
        padding.build_padded_bundle(base, tmp_path / "d", 3)


@pytest.mark.parametrize("inward", [False, True])
def test_padding_rejects_an_edge_between_padding_and_fixtures(base, tmp_path, monkeypatch,
                                                             inward):
    edges = padding._padding_edges
    fixture_id = base.concepts_path.read_text().splitlines()[1].split("\t")[0]

    def with_bad_edge(rng, concept_ids):
        bad = (fixture_id, "padding_link", concept_ids[0]) if inward else \
            (concept_ids[0], "padding_link", fixture_id)
        return edges(rng, concept_ids) + [bad]

    monkeypatch.setattr(padding, "_padding_edges", with_bad_edge)
    with pytest.raises(padding.PaddingError, match="cross into the fixture graph"):
        padding.build_padded_bundle(base, tmp_path / "e", 3)
