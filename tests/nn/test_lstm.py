"""Tests for the LSTM layer: shapes, state handling, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradients
from repro.nn.losses import softmax_cross_entropy
from repro.nn.lstm import LSTMLayer, LSTMState


@pytest.fixture
def layer():
    return LSTMLayer(input_size=4, hidden_size=6, rng=0)


class TestForward:
    def test_output_shapes(self, layer):
        x = np.random.default_rng(0).standard_normal((5, 3, 4))
        h, state = layer.forward(x)
        assert h.shape == (5, 3, 6)
        assert state.h.shape == (3, 6)
        assert state.c.shape == (3, 6)

    def test_final_state_matches_last_output(self, layer):
        x = np.random.default_rng(1).standard_normal((5, 2, 4))
        h, state = layer.forward(x)
        np.testing.assert_array_equal(h[-1], state.h)

    def test_state_continuation_equals_long_pass(self, layer):
        """Splitting a sequence and carrying state must equal one pass."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 2, 4))
        h_full, _ = layer.forward(x, keep_cache=False)
        h_a, state = layer.forward(x[:4], keep_cache=False)
        h_b, _ = layer.forward(x[4:], state=state, keep_cache=False)
        np.testing.assert_allclose(np.concatenate([h_a, h_b]), h_full, atol=1e-12)

    def test_step_matches_forward(self, layer):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 1, 4))
        h_seq, _ = layer.forward(x, keep_cache=False)
        state = layer.zero_state(1)
        for t in range(6):
            h_t, state = layer.step(x[t], state)
            np.testing.assert_allclose(h_t, h_seq[t], atol=1e-12)

    def test_rejects_wrong_input_dim(self, layer):
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 2, 5)))

    def test_rejects_2d_input(self, layer):
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 4)))

    def test_bounded_outputs(self, layer):
        x = 100.0 * np.random.default_rng(4).standard_normal((4, 2, 4))
        h, _ = layer.forward(x, keep_cache=False)
        assert np.all(np.abs(h) <= 1.0)  # |h| = |o * tanh(c)| <= 1


class TestBackward:
    def test_gradcheck_all_parameters(self):
        layer = LSTMLayer(3, 5, rng=7)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2, 3))
        targets = rng.integers(0, 5, size=8)

        def loss_and_grads():
            h, _ = layer.forward(x, keep_cache=True)
            loss, dflat = softmax_cross_entropy(h.reshape(-1, 5), targets)
            layer.backward(dflat.reshape(4, 2, 5))
            return loss, layer.grads

        errors = check_gradients(loss_and_grads, layer.params, max_entries_per_param=16)
        assert max(errors.values()) < 1e-5, errors

    def test_gradcheck_input_gradient(self):
        layer = LSTMLayer(3, 4, rng=11)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2, 3))
        targets = rng.integers(0, 4, size=6)

        h, _ = layer.forward(x, keep_cache=True)
        loss, dflat = softmax_cross_entropy(h.reshape(-1, 4), targets)
        dx = layer.backward(dflat.reshape(3, 2, 4))

        eps = 1e-6
        rng2 = np.random.default_rng(2)
        for _ in range(10):
            t = rng2.integers(0, 3)
            b = rng2.integers(0, 2)
            d = rng2.integers(0, 3)
            x[t, b, d] += eps
            h_p, _ = layer.forward(x, keep_cache=False)
            loss_p, _ = softmax_cross_entropy(h_p.reshape(-1, 4), targets)
            x[t, b, d] -= 2 * eps
            h_m, _ = layer.forward(x, keep_cache=False)
            loss_m, _ = softmax_cross_entropy(h_m.reshape(-1, 4), targets)
            x[t, b, d] += eps
            numeric = (loss_p - loss_m) / (2 * eps)
            assert abs(dx[t, b, d] - numeric) < 1e-6

    def test_backward_without_forward_raises(self, layer):
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 1, 6)))

    def test_backward_consumes_cache(self, layer):
        x = np.zeros((2, 1, 4))
        layer.forward(x, keep_cache=True)
        layer.backward(np.zeros((2, 1, 6)))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 1, 6)))

    def test_backward_shape_mismatch(self, layer):
        layer.forward(np.zeros((2, 1, 4)), keep_cache=True)
        with pytest.raises(ValueError):
            layer.backward(np.zeros((3, 1, 6)))


class TestMisc:
    def test_parameter_count(self):
        layer = LSTMLayer(3, 5, rng=0)
        # W: 3x20, U: 5x20, b: 20
        assert layer.parameter_count() == 3 * 20 + 5 * 20 + 20

    def test_forget_bias_initialized_to_one(self, layer):
        bias = layer.params["b"]
        np.testing.assert_array_equal(bias[6:12], 1.0)

    def test_state_copy_is_deep(self):
        state = LSTMState(np.zeros((1, 2)), np.zeros((1, 2)))
        clone = state.copy()
        clone.h[0, 0] = 5.0
        assert state.h[0, 0] == 0.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            LSTMLayer(0, 4)
        with pytest.raises(ValueError):
            LSTMLayer(4, 0)


class TestStateBatching:
    def test_stack_and_split_roundtrip(self):
        rng = np.random.default_rng(0)
        states = [
            LSTMState(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
            for _ in range(4)
        ]
        stacked = LSTMState.stack(states)
        assert stacked.batch_size == 4
        for row, original in enumerate(states):
            restored = stacked.select([row])
            np.testing.assert_array_equal(original.h, restored.h)
            np.testing.assert_array_equal(original.c, restored.c)

    def test_stack_rejects_empty(self):
        with pytest.raises(ValueError):
            LSTMState.stack([])

    def test_select_compacts_rows(self):
        state = LSTMState(np.arange(6.0).reshape(3, 2), np.arange(6.0).reshape(3, 2))
        subset = state.select([0, 2])
        np.testing.assert_array_equal(subset.h, [[0.0, 1.0], [4.0, 5.0]])
        subset.h[0, 0] = 99.0  # select copies; original untouched
        assert state.h[0, 0] == 0.0

    def test_replace_rows_scatters(self):
        state = LSTMState(np.zeros((3, 2)), np.zeros((3, 2)))
        rows = LSTMState(np.ones((2, 2)), np.full((2, 2), 2.0))
        merged = state.copy()
        merged.set_rows([0, 2], rows)
        np.testing.assert_array_equal(merged.h[:, 0], [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(merged.c[:, 0], [2.0, 0.0, 2.0])
        assert state.h.sum() == 0.0  # the copy was written, not the original

    def test_replace_rows_count_mismatch(self):
        state = LSTMState(np.zeros((3, 2)), np.zeros((3, 2)))
        rows = LSTMState(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            state.set_rows([0], rows)

    def test_batched_step_matches_single_rows(self):
        """One (B, D) step equals B separate (1, D) steps."""
        layer = LSTMLayer(4, 6, rng=3)
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(5, 4))
        singles = []
        for row in xs:
            h, _ = layer.step(row[None, :], layer.zero_state(1))
            singles.append(h[0])
        h_batch, _ = layer.step(xs, layer.zero_state(5))
        np.testing.assert_allclose(h_batch, np.stack(singles), rtol=0, atol=1e-12)
