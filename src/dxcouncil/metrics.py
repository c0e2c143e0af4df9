"""Weighted multiclass evaluation over (truth, prediction) label pairs.

Per-class precision, recall, and F-beta are combined as weighted averages
with class support (true-label count) as the weight, reported on a 0-100
scale. Zero denominators score 0 rather than raising, so a class that is
never predicted simply contributes nothing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass


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
    and so cannot affect the averages. Each average is an exact fraction,
    rounded to float once, so a perfect batch reads exactly 100.0. In counts,
    F-beta is ``(1 + b2) tp / ((1 + b2) tp + b2 fn + fp)`` with ``b2 = beta**2``,
    which is ``2 tp / (2 tp + fn + fp)`` for F1 and, times 4 above and below,
    ``5 tp / (5 tp + fn + 4 fp)`` for F0.5.
    """
    counts = confusion_counts(pairs)
    total_support = sum(c.support for c in counts.values())
    # a class with no true positive scores 0 on all four
    scored = [c for c in counts.values() if c.tp]

    def average(fraction) -> float:
        # 100 * sum(support * num / den) / total_support, summed over one
        # common denominator; int / int rounds the exact quotient once, as
        # float(Fraction) does
        if not scored:
            return 0.0
        parts = [(c.support, *fraction(c)) for c in scored]
        common = math.lcm(*(den for _, _, den in parts))
        return 100 * sum(support * num * (common // den) for support, num, den in parts) / (
            common * total_support)

    return MetricsReport(
        cases=len(pairs),
        correct=sum(1 for truth, predicted in pairs if truth == predicted),
        weighted_precision=average(lambda c: (c.tp, c.tp + c.fp)),
        weighted_recall=average(lambda c: (c.tp, c.tp + c.fn)),
        weighted_f1=average(lambda c: (2 * c.tp, 2 * c.tp + c.fn + c.fp)),
        weighted_f05=average(lambda c: (5 * c.tp, 5 * c.tp + c.fn + 4 * c.fp)),
        per_class=counts,
    )
