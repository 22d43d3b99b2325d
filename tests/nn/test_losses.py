"""Tests for softmax cross-entropy, top-k error and the top-k rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.activations import softmax
from repro.nn.losses import (
    score_ranks,
    softmax_cross_entropy,
    top_k_error,
    top_k_hits,
    top_k_sets,
)

#: The float dtypes a network scores in.
FLOATS = (np.float32, np.float64)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_uniform_logits_loss_is_log_c(self):
        logits = np.zeros((4, 7))
        loss, _ = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        np.testing.assert_allclose(loss, np.log(7), atol=1e-9)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 6))
        targets = rng.integers(0, 6, 5)
        _, grad = softmax_cross_entropy(logits, targets)
        eps = 1e-6
        for i in range(5):
            for j in range(6):
                bumped = logits.copy()
                bumped[i, j] += eps
                loss_plus, _ = softmax_cross_entropy(bumped, targets)
                bumped[i, j] -= 2 * eps
                loss_minus, _ = softmax_cross_entropy(bumped, targets)
                numeric = (loss_plus - loss_minus) / (2 * eps)
                assert abs(grad[i, j] - numeric) < 1e-7

    def test_weights_mask_samples(self):
        logits = np.array([[5.0, 0.0], [0.0, 5.0], [9.0, 9.0]])
        targets = np.array([0, 1, 0])
        # Third sample masked out: loss should match first two only.
        loss_masked, grad = softmax_cross_entropy(logits, targets, np.array([1.0, 1.0, 0.0]))
        loss_pair, _ = softmax_cross_entropy(logits[:2], targets[:2])
        np.testing.assert_allclose(loss_masked, loss_pair, atol=1e-12)
        np.testing.assert_array_equal(grad[2], 0.0)

    def test_all_zero_weights(self):
        loss, grad = softmax_cross_entropy(np.ones((2, 3)), np.array([0, 1]), np.zeros(2))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.ones((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.ones((2, 3)), np.array([-1, 0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.ones((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.ones(3), np.array([0]))

    @given(st.integers(2, 10), st.integers(1, 12))
    def test_gradient_rows_sum_to_zero(self, num_classes, n):
        rng = np.random.default_rng(n * 100 + num_classes)
        logits = rng.standard_normal((n, num_classes))
        targets = rng.integers(0, num_classes, n)
        _, grad = softmax_cross_entropy(logits, targets)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


class TestTopK:
    def test_top_k_sets_membership(self):
        probs = np.array([[0.1, 0.5, 0.4], [0.8, 0.1, 0.1]])
        sets = top_k_sets(probs, 2)
        assert set(sets[0]) == {1, 2}
        assert 0 in set(sets[1])

    def test_top_k_hits(self):
        # Target 1 of the second row ranks third, behind two strictly
        # higher scores (a tie at the k-th place is a hit: TestTieRule).
        probs = np.array([[0.1, 0.5, 0.4], [0.8, 0.05, 0.15]])
        hits = top_k_hits(probs, np.array([2, 1]), 2)
        assert hits[0] and not hits[1]

    def test_error_monotone_in_k(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(10), size=50)
        targets = rng.integers(0, 10, 50)
        errors = [top_k_error(probs, targets, k) for k in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] == 0.0  # k = C always hits

    def test_k_larger_than_classes_clamped(self):
        probs = np.array([[0.9, 0.1]])
        assert top_k_error(probs, np.array([1]), 10) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_sets(np.ones((1, 3)), 0)

    def test_weighted_error_ignores_masked(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1]])
        targets = np.array([1, 1])
        # Second row masked; first row misses top-1.
        err = top_k_error(probs, targets, 1, weights=np.array([1.0, 0.0]))
        assert err == 1.0

    def test_empty_input(self):
        assert top_k_error(np.zeros((0, 4)), np.zeros(0, dtype=int), 2) == 0.0


def score_rows(dtype, elements=None, max_classes=24):
    """One row of scores per class, ties and infinities included."""
    if elements is None:
        width = 8 * np.dtype(dtype).itemsize
        elements = st.floats(allow_nan=False, width=width)
    return hnp.arrays(dtype, st.integers(2, max_classes), elements=elements)


class TestTieRule:
    """``top_k_hits``: predicted iff fewer than k scores are strictly higher,
    in both dtypes and on both the one-row and the batched path."""

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_tie_at_the_kth_place_is_predicted(self, dtype):
        scores = np.array([[0.8, 0.1, 0.1, 0.0]], dtype)
        for target in (1, 2):
            assert top_k_hits(scores[0], target, 2) is True
            assert top_k_hits(scores, np.array([target]), 2).tolist() == [True]
            assert top_k_hits(scores[0], target, 1) is False
            assert score_ranks(scores[0], target) == 1
        # Three-way tie below the top: all three share the second place.
        tied = np.array([2.0, -1.5, -1.5, -1.5], dtype)
        assert [top_k_hits(tied, t, 2) for t in range(4)] == [True] * 4
        assert [top_k_hits(tied, t, 1) for t in range(4)] == [True] + [False] * 3

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_k_at_least_the_classes_predicts_every_class(self, dtype):
        scores = np.array(
            [[3.0, -np.inf, 3.0, 0.5], [np.inf, 0.0, -0.0, -2.0]], dtype
        )
        for k in (4, 5, 50):
            for target in range(4):
                assert top_k_hits(scores[0], target, k) is True
                hits = top_k_hits(scores, np.array([target, target]), k)
                assert hits.tolist() == [True, True]
            assert top_k_hits(scores[0], -1, k) is False

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_out_of_vocabulary_is_never_predicted(self, dtype):
        # The last class tops the first row: a -1 read as an index would
        # take its score and count as predicted at every k.
        scores = np.array([[0.1, 0.2, 0.7], [0.7, 0.2, 0.1]], dtype)
        for k in (1, 2, 3, 10):
            assert top_k_hits(scores[0], -1, k) is False
            assert top_k_hits(scores[0], 3, k) is False
            assert top_k_hits(scores, np.array([-1, -1]), k).tolist() == [False] * 2
            assert top_k_hits(scores, np.array([-1, 0]), k).tolist() == [False, True]
            assert top_k_hits(scores, np.array([3, 0]), k).tolist() == [False, True]
        assert top_k_error(scores, np.array([-1, 0]), 3) == 0.5

    @pytest.mark.parametrize("dtype", FLOATS)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rule_is_top_k_set_membership_without_ties(self, dtype, data):
        """Where no other score equals the target's, the rule is membership
        in ``top_k_sets``; with a tie it can only count the target in."""
        scores = data.draw(score_rows(dtype))
        classes = scores.shape[0]
        target = data.draw(st.integers(0, classes - 1))
        k = data.draw(st.integers(1, classes + 2))
        in_set = target in top_k_sets(scores[None, :], k)[0]
        hit = top_k_hits(scores, target, k)
        others = np.delete(scores, target)
        if (others == scores[target]).any():
            assert hit or not in_set
        else:
            assert hit == in_set
        rows = np.stack([scores, scores[::-1], np.zeros_like(scores)])
        batched = top_k_hits(rows, np.array([target, classes - 1 - target, -1]), k)
        assert batched.tolist() == [hit, hit, False]

    @pytest.mark.parametrize("dtype", FLOATS)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_softmax_ranks_like_its_logits_without_created_ties(self, dtype, data):
        """Ranking ``softmax(logits)`` equals ranking ``logits`` unless the
        softmax rounds two different logits to one probability."""
        width = 8 * np.dtype(dtype).itemsize
        logits = data.draw(
            score_rows(dtype, st.floats(-30.0, 30.0, width=width))
        )
        probs = softmax(logits)
        assert probs.dtype == logits.dtype
        created = (logits[:, None] != logits[None, :]) & (
            probs[:, None] == probs[None, :]
        )
        ranks = [score_ranks(logits, t) for t in range(logits.shape[0])]
        prob_ranks = [score_ranks(probs, t) for t in range(logits.shape[0])]
        if not created.any():
            assert prob_ranks == ranks
            assert (score_ranks(probs[None, :], np.array([0])) == ranks[0]).all()
        # A tie the softmax creates can only move a target up.
        assert all(p <= r for p, r in zip(prob_ranks, ranks))
