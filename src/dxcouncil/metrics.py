"""Weighted multiclass evaluation over (truth, prediction) label pairs.

Per-class precision, recall, and F-beta are combined as weighted averages
with class support (true-label count) as the weight, reported on a 0-100
scale. Zero denominators score 0 rather than raising, so a class that is
never predicted simply contributes nothing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def support(self) -> int:
        return self.tp + self.fn


def confusion_counts(pairs: list[tuple[str, str]]) -> dict[str, ClassCounts]:
    """Tally one-vs-rest counts per label over (truth, prediction) pairs."""
    counts: dict[str, ClassCounts] = defaultdict(ClassCounts)
    for truth, predicted in pairs:
        if truth == predicted:
            counts[truth].tp += 1
        else:
            counts[truth].fn += 1
            counts[predicted].fp += 1
    return dict(counts)


def fbeta(precision, recall, beta):
    """F-beta of floats or of Fractions; 0.0 when both inputs are zero."""
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


@dataclass(frozen=True)
class MetricsReport:
    cases: int
    correct: int
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    weighted_f05: float
    per_class: dict[str, ClassCounts]

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "correct": self.correct,
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "weighted_f05": self.weighted_f05,
            "per_class": {
                label: {"tp": c.tp, "fp": c.fp, "fn": c.fn, "support": c.support}
                for label, c in sorted(self.per_class.items())
            },
        }


def weighted_metrics(pairs: list[tuple[str, str]]) -> MetricsReport:
    """Support-weighted precision/recall/F1/F0.5 on a 0-100 scale.

    Labels with zero support (predicted but never true) carry zero weight
    and so cannot affect the averages. Sums are exact fractions, rounded to
    float once, so a perfect batch reads exactly 100.0.
    """
    counts = confusion_counts(pairs)
    total_support = sum(c.support for c in counts.values())
    w_precision = w_recall = w_f1 = w_f05 = Fraction(0)
    for c in counts.values():
        if c.tp == 0:
            continue  # precision, recall and both F-scores are 0
        precision = Fraction(c.tp, c.tp + c.fp)
        recall = Fraction(c.tp, c.tp + c.fn)
        weight = Fraction(c.support, total_support)
        w_precision += weight * precision
        w_recall += weight * recall
        w_f1 += weight * fbeta(precision, recall, Fraction(1))
        w_f05 += weight * fbeta(precision, recall, Fraction(1, 2))
    return MetricsReport(
        cases=len(pairs),
        correct=sum(1 for truth, predicted in pairs if truth == predicted),
        weighted_precision=float(100 * w_precision),
        weighted_recall=float(100 * w_recall),
        weighted_f1=float(100 * w_f1),
        weighted_f05=float(100 * w_f05),
        per_class=counts,
    )
