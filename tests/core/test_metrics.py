"""Tests for detection metrics (Table IV / V machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import (
    DetectionMetrics,
    confusion_counts,
    evaluate_detection,
    per_attack_recall,
)

bool_arrays = st.lists(st.booleans(), min_size=1, max_size=100)


class TestDetectionMetrics:
    def test_paper_definitions(self):
        metrics = DetectionMetrics(
            true_positives=8, false_positives=2, true_negatives=85, false_negatives=5
        )
        assert metrics.precision == 8 / 10
        assert metrics.recall == 8 / 13
        assert metrics.accuracy == 93 / 100
        expected_f1 = 2 * metrics.precision * metrics.recall / (
            metrics.precision + metrics.recall
        )
        assert abs(metrics.f1_score - expected_f1) < 1e-12

    def test_degenerate_cases(self):
        empty = DetectionMetrics(0, 0, 0, 0)
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.accuracy == 0.0
        assert empty.f1_score == 0.0

    def test_as_dict_and_str(self):
        metrics = DetectionMetrics(1, 1, 1, 1)
        assert set(metrics.as_dict()) == {"precision", "recall", "accuracy", "f1_score"}
        assert "P=" in str(metrics)

    @given(bool_arrays)
    def test_property_accuracy_bounds(self, truth):
        rng = np.random.default_rng(42)
        pred = rng.random(len(truth)) > 0.5
        metrics = confusion_counts(truth, pred)
        assert 0.0 <= metrics.accuracy <= 1.0
        assert 0.0 <= metrics.f1_score <= 1.0

    @given(bool_arrays)
    def test_property_perfect_prediction(self, truth):
        metrics = confusion_counts(truth, truth)
        assert metrics.accuracy == 1.0
        if any(truth):
            assert metrics.recall == 1.0
            assert metrics.precision == 1.0


class TestConfusionCounts:
    def test_counts(self):
        truth = [True, True, False, False]
        pred = [True, False, True, False]
        metrics = confusion_counts(truth, pred)
        assert (
            metrics.true_positives,
            metrics.false_negatives,
            metrics.false_positives,
            metrics.true_negatives,
        ) == (1, 1, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts([True], [True, False])


class TestEvaluateDetection:
    def test_labels_to_binary(self):
        labels = [0, 3, 0, 7]
        pred = [False, True, True, False]
        metrics = evaluate_detection(labels, pred)
        assert metrics.true_positives == 1
        assert metrics.false_negatives == 1
        assert metrics.false_positives == 1
        assert metrics.true_negatives == 1


class TestPerAttackRecall:
    def test_slices_by_attack(self):
        labels = np.array([0, 1, 1, 2, 2, 2, 0])
        pred = np.array([False, True, False, True, True, True, True])
        ratios = per_attack_recall(labels, pred)
        assert ratios == {1: 0.5, 2: 1.0}

    def test_normal_excluded(self):
        ratios = per_attack_recall([0, 0], [True, True])
        assert ratios == {}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            per_attack_recall([0, 1], [True])
