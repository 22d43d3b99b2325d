"""Detection metrics: precision, recall, accuracy, F1, per-attack recall.

Paper Section VIII-B: TP = anomalies correctly identified, TN = normal
correctly identified, FP = normal flagged, FN = anomalies missed;
precision = TP/(TP+FP), recall = TP/(TP+FN), accuracy = (TP+TN)/total,
F1 = harmonic mean of precision and recall.  Table V additionally slices
recall by attack type ("detected ratio").
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np


@dataclass(frozen=True)
class DetectionMetrics:
    """The four headline metrics plus raw confusion counts."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def accuracy(self) -> float:
        total = (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )
        return (self.true_positives + self.true_negatives) / total if total else 0.0

    @property
    def f1_score(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0

    @property
    def false_positive_rate(self) -> float:
        denominator = self.false_positives + self.true_negatives
        return self.false_positives / denominator if denominator else 0.0

    def as_dict(self) -> dict[str, float]:
        """The Table-IV row for this model."""
        return {
            "precision": self.precision,
            "recall": self.recall,
            "accuracy": self.accuracy,
            "f1_score": self.f1_score,
        }

    def __str__(self) -> str:
        return (
            f"P={self.precision:.2f} R={self.recall:.2f} "
            f"Acc={self.accuracy:.2f} F1={self.f1_score:.2f}"
        )


def confusion_counts(
    y_true: Sequence[bool] | np.ndarray, y_pred: Sequence[bool] | np.ndarray
) -> DetectionMetrics:
    """Confusion counts from boolean ground-truth / prediction vectors."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape}, y_pred {y_pred.shape}"
        )
    return DetectionMetrics(
        true_positives=int(np.sum(y_true & y_pred)),
        false_positives=int(np.sum(~y_true & y_pred)),
        true_negatives=int(np.sum(~y_true & ~y_pred)),
        false_negatives=int(np.sum(y_true & ~y_pred)),
    )


def evaluate_detection(
    labels: Sequence[int] | np.ndarray, y_pred: Sequence[bool] | np.ndarray
) -> DetectionMetrics:
    """Metrics from attack labels (0 = normal) and boolean predictions."""
    labels = np.asarray(labels)
    return confusion_counts(labels != 0, y_pred)


def per_attack_recall(
    labels: Sequence[int] | np.ndarray, y_pred: Sequence[bool] | np.ndarray
) -> dict[int, float]:
    """Detected ratio per attack type — the Table-V slices.

    Returns ``{attack_id: recall}`` for every attack id present in
    ``labels`` (normal packages are excluded).
    """
    labels = np.asarray(labels)
    y_pred = np.asarray(y_pred, dtype=bool)
    if labels.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: labels {labels.shape}, y_pred {y_pred.shape}"
        )
    ratios: dict[int, float] = {}
    for attack_id in sorted(set(int(v) for v in labels) - {0}):
        mask = labels == attack_id
        ratios[attack_id] = float(y_pred[mask].mean())
    return ratios

