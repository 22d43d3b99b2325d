"""Tests for the dynamic-k extension (paper future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic_k import DynamicKConfig, DynamicKPolicy, rank_of


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_min": 0},
            {"k_min": 5, "k_max": 2},
            {"window": 5},
            {"quantile": 0.4},
            {"quantile": 1.0},
            {"slack": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DynamicKConfig(**kwargs).validate()

    def test_initial_k_bounds(self):
        with pytest.raises(ValueError):
            DynamicKPolicy(DynamicKConfig(k_min=2, k_max=6), initial_k=1)


class TestPolicy:
    def test_sharp_predictions_shrink_k(self):
        policy = DynamicKPolicy(DynamicKConfig(k_min=2, k_max=10, window=40), initial_k=8)
        for _ in range(100):
            policy.observe_rank(0)  # always top-1 correct
        assert policy.k <= 3

    def test_diffuse_predictions_grow_k(self):
        policy = DynamicKPolicy(DynamicKConfig(k_min=2, k_max=10, window=40), initial_k=2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            policy.observe_rank(int(rng.integers(0, 8)))
        assert policy.k >= 7

    def test_k_stays_in_bounds(self):
        policy = DynamicKPolicy(DynamicKConfig(k_min=3, k_max=5, window=40), initial_k=4)
        for rank in [0] * 100 + [50] * 100:
            k = policy.observe_rank(rank)
            assert 3 <= k <= 5

    def test_none_ranks_ignored(self):
        policy = DynamicKPolicy(initial_k=4)
        for _ in range(500):
            policy.observe_rank(None)
        assert policy.k == 4  # no normal observations, no movement

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            DynamicKPolicy().observe_rank(-1)

    def test_warmup_before_adjusting(self):
        policy = DynamicKPolicy(DynamicKConfig(window=100), initial_k=4)
        for _ in range(10):  # fewer than window // 4 observations
            policy.observe_rank(0)
        assert policy.k == 4


class TestRankOf:
    def test_ranks(self):
        probs = np.array([0.1, 0.6, 0.3])
        assert rank_of(probs, 1) == 0
        assert rank_of(probs, 2) == 1
        assert rank_of(probs, 0) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rank_of(np.array([1.0]), 5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tied_scores_share_the_better_rank(self, dtype):
        """The strictly-higher count, whatever order a sort would give."""
        probs = np.array([0.3, 0.4, 0.3, 0.0], dtype)
        assert [rank_of(probs, t) for t in range(4)] == [1, 0, 1, 3]
        logits = np.log(np.array([0.3, 0.4, 0.3, 1e-9], dtype))
        assert [rank_of(logits, t) for t in range(4)] == [1, 0, 1, 3]
