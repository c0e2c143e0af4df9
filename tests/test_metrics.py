"""Weighted multiclass evaluation arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dxcouncil.metrics import confusion_counts, fbeta, weighted_metrics


def test_all_correct_scores_one_hundred_everywhere():
    report = weighted_metrics([("A", "A"), ("B", "B"), ("A", "A")])
    assert report.cases == 3
    assert report.correct == 3
    for value in (report.weighted_precision, report.weighted_recall,
                  report.weighted_f1, report.weighted_f05):
        assert value == pytest.approx(100.0)


def test_ten_distinct_correct_labels_score_exactly_one_hundred():
    report = weighted_metrics([(label, label) for label in "ABCDEFGHIJ"])
    assert (report.weighted_precision, report.weighted_recall,
            report.weighted_f1, report.weighted_f05) == (100.0, 100.0, 100.0, 100.0)


def test_single_error_hand_computation():
    report = weighted_metrics([("A", "A"), ("A", "B")])
    # class A: tp=1 fn=1 -> precision 1, recall 0.5; class B has no support
    assert report.weighted_precision == pytest.approx(100.0)
    assert report.weighted_recall == pytest.approx(50.0)
    assert report.weighted_f1 == pytest.approx(100.0 * (2 * 0.5) / 1.5)
    assert report.weighted_f05 == pytest.approx(100.0 * (1.25 * 0.5) / 0.75)
    assert report.correct == 1


def test_everything_wrong_scores_zero():
    report = weighted_metrics([("A", "B"), ("B", "A")])
    assert report.weighted_precision == 0.0
    assert report.weighted_recall == 0.0
    assert report.weighted_f1 == 0.0
    assert report.weighted_f05 == 0.0


def test_confusion_counts_tally():
    counts = confusion_counts([("A", "A"), ("A", "B"), ("B", "B"), ("C", "B")])
    assert (counts["A"].tp, counts["A"].fp, counts["A"].fn) == (1, 0, 1)
    assert (counts["B"].tp, counts["B"].fp, counts["B"].fn) == (1, 2, 0)
    assert (counts["C"].tp, counts["C"].fp, counts["C"].fn) == (0, 0, 1)
    assert counts["A"].support == 2
    assert counts["C"].support == 1


def test_predicted_only_class_carries_no_weight():
    # "B" never appears as a truth label, so its precision cannot drag the mean
    with_b = weighted_metrics([("A", "A"), ("A", "B")])
    assert with_b.per_class["B"].support == 0
    assert with_b.weighted_precision == pytest.approx(100.0)


def test_fbeta_zero_denominator():
    assert fbeta(0.0, 0.0, 1.0) == 0.0
    assert fbeta(1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert fbeta(1.0, 0.5, 0.5) == pytest.approx(1.25 * 0.5 / 0.75)


def test_report_serialization_shape():
    out = weighted_metrics([("A", "A"), ("B", "A")]).to_dict()
    assert set(out) == {"cases", "correct", "weighted_precision",
                        "weighted_recall", "weighted_f1", "weighted_f05",
                        "per_class"}
    assert out["per_class"]["B"] == {"tp": 0, "fp": 0, "fn": 1, "support": 1}
    assert list(out["per_class"]) == sorted(out["per_class"])


@given(st.lists(st.tuples(st.sampled_from("ABCD"), st.sampled_from("ABCD")),
                min_size=1, max_size=40))
def test_scores_stay_in_range_and_perfection_is_exact(pairs):
    report = weighted_metrics(pairs)
    for value in (report.weighted_precision, report.weighted_recall,
                  report.weighted_f1, report.weighted_f05):
        assert 0.0 <= value <= 100.0 + 1e-9
    if all(t == p for t, p in pairs):
        assert report.weighted_f1 == pytest.approx(100.0)
    assert report.correct == sum(1 for t, p in pairs if t == p)


@given(st.lists(st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")),
                min_size=2, max_size=20),
       st.randoms(use_true_random=False))
def test_pair_order_does_not_change_the_scores(pairs, rng):
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    a, b = weighted_metrics(pairs), weighted_metrics(shuffled)
    assert a.weighted_precision == pytest.approx(b.weighted_precision)
    assert a.weighted_f1 == pytest.approx(b.weighted_f1)
    assert a.weighted_f05 == pytest.approx(b.weighted_f05)


def _fraction_sums(pairs):
    # the support-weighted sums of exact per-class fractions, F-beta from
    # precision and recall, rounded to float at the end
    counts = confusion_counts(pairs)
    total = sum(c.support for c in counts.values())
    sums = [Fraction(0)] * 4
    for c in counts.values():
        if c.tp:
            precision, recall = Fraction(c.tp, c.tp + c.fp), Fraction(c.tp, c.tp + c.fn)
            weight = Fraction(c.support, total)
            for i, score in enumerate([precision, recall, fbeta(precision, recall, 1),
                                       fbeta(precision, recall, Fraction(1, 2))]):
                sums[i] += weight * score
    return [float(100 * s) for s in sums]


@given(st.lists(st.tuples(st.sampled_from("ABCDEFG"), st.sampled_from("ABCDEFG")),
                max_size=50))
def test_scores_are_the_exact_weighted_sums_rounded_once(pairs):
    report = weighted_metrics(pairs)
    assert [report.weighted_precision, report.weighted_recall, report.weighted_f1,
            report.weighted_f05] == _fraction_sums(pairs)
