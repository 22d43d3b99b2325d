"""Tests for the stacked LSTM classifier: training, inference, streaming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import NetworkConfig, StackedLSTMClassifier
from repro.nn.activations import softmax
from repro.nn.gradcheck import check_gradients
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optimizers import Adam


def _cycle_fragment(num_classes=4, repeats=30, input_dim=None):
    """Deterministic cyclic signature stream: 0,1,2,...,C-1,0,1,..."""
    input_dim = input_dim or num_classes
    pattern = np.tile(np.arange(num_classes), repeats)
    eye = np.eye(num_classes)
    inputs = eye[pattern[:-1]]
    if input_dim > num_classes:
        inputs = np.concatenate(
            [inputs, np.zeros((inputs.shape[0], input_dim - num_classes))], axis=1
        )
    return inputs, pattern[1:]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(0, (4,), 3)
        with pytest.raises(ValueError):
            NetworkConfig(4, (), 3)
        with pytest.raises(ValueError):
            NetworkConfig(4, (0,), 3)
        with pytest.raises(ValueError):
            NetworkConfig(4, (4,), 1)

    def test_parameter_count_two_layers(self):
        model = StackedLSTMClassifier(NetworkConfig(3, (5, 4), 6), rng=0)
        expected = (3 * 20 + 5 * 20 + 20) + (5 * 16 + 4 * 16 + 16) + (4 * 6 + 6)
        assert model.parameter_count() == expected
        assert model.memory_bytes() == expected * 8


class TestEndToEndGradient:
    def test_stacked_gradcheck(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (5, 4), 3), rng=13)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 2, 4))
        y = rng.integers(0, 3, size=(5, 2))

        def loss_and_grads():
            logits, _ = model.forward(x, keep_cache=True)
            loss, dflat = softmax_cross_entropy(logits.reshape(-1, 3), y.reshape(-1))
            model.backward(dflat.reshape(5, 2, 3))
            return loss, model.gradients()

        errors = check_gradients(loss_and_grads, model.parameters(), max_entries_per_param=12)
        assert max(errors.values()) < 1e-5, errors


class TestTraining:
    def test_learns_deterministic_cycle(self):
        frag = _cycle_fragment(num_classes=4, repeats=25)
        model = StackedLSTMClassifier(NetworkConfig(4, (16,), 4), rng=0)
        history = model.fit([frag], epochs=30, batch_size=4, bptt_len=16, rng=0)
        assert history.losses[-1] < history.losses[0]
        assert model.top_k_validation_error([frag], 1) < 0.05

    def test_loss_decreases(self):
        frag = _cycle_fragment(num_classes=3, repeats=20)
        model = StackedLSTMClassifier(NetworkConfig(3, (8,), 3), rng=1)
        history = model.fit(
            [frag], epochs=20, batch_size=2, bptt_len=10, optimizer=Adam(0.02), rng=1
        )
        assert history.losses[-1] < history.losses[0] * 0.5

    def test_validation_tracking(self):
        frag = _cycle_fragment()
        model = StackedLSTMClassifier(NetworkConfig(4, (8,), 4), rng=2)
        history = model.fit(
            [frag], epochs=3, validation_fragments=[frag], validation_k=2, rng=0
        )
        assert len(history.validation_errors) == 3

    def test_callback_invoked(self):
        frag = _cycle_fragment()
        calls = []
        model = StackedLSTMClassifier(NetworkConfig(4, (4,), 4), rng=3)
        model.fit([frag], epochs=2, callback=lambda e, l: calls.append((e, l)), rng=0)
        assert [c[0] for c in calls] == [0, 1]

    def test_empty_fragments_rejected(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (4,), 4), rng=0)
        with pytest.raises(ValueError):
            model.fit([], epochs=1)

    def test_bad_epochs_rejected(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (4,), 4), rng=0)
        with pytest.raises(ValueError):
            model.fit([_cycle_fragment()], epochs=0)

    def test_reproducible_training(self):
        frag = _cycle_fragment()
        results = []
        for _ in range(2):
            model = StackedLSTMClassifier(NetworkConfig(4, (8,), 4), rng=5)
            history = model.fit([frag], epochs=3, optimizer=Adam(0.01), rng=9)
            results.append(history.losses)
        np.testing.assert_allclose(results[0], results[1], atol=1e-12)


class TestInference:
    def test_predict_proba_shape_and_normalization(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (6,), 5), rng=0)
        probs = model.predict_proba(np.random.default_rng(0).standard_normal((7, 4)))
        assert probs.shape == (7, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_proba_rejects_3d(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (6,), 5), rng=0)
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 3, 4)))

    def test_streaming_matches_batch(self):
        """The softmax of online step()'s logits reproduces predict_proba."""
        model = StackedLSTMClassifier(NetworkConfig(4, (6, 5), 5), rng=4)
        x = np.random.default_rng(1).standard_normal((9, 4))
        batch_probs = model.predict_proba(x)
        states = model.init_state(1)
        for t in range(9):
            logits, states = model.step(x[t], states)
            np.testing.assert_allclose(softmax(logits), batch_probs[t], atol=1e-12)

    def test_step_batched_input(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (6,), 5), rng=0)
        states = model.init_state(3)
        probs, states = model.step(np.zeros((3, 4)), states)
        assert probs.shape == (3, 5)

    def test_top_k_error_zero_when_k_equals_classes(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (6,), 5), rng=0)
        frag = (np.zeros((4, 4)), np.array([0, 1, 2, 3]))
        assert model.top_k_validation_error([frag], 5) == 0.0

    def test_top_k_error_empty(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (6,), 5), rng=0)
        assert model.top_k_validation_error([], 1) == 0.0


class TestStateBatching:
    @pytest.fixture()
    def model(self):
        return StackedLSTMClassifier(NetworkConfig(4, (6, 5), 4), rng=0)

    def test_stack_split_roundtrip(self, model):
        per_stream = [model.init_state(1) for _ in range(3)]
        stacked = model.stack_states(per_stream)
        assert [s.batch_size for s in stacked] == [3, 3]
        restored = model.split_states(stacked)
        assert len(restored) == 3
        assert all(len(states) == 2 for states in restored)

    def test_stack_rejects_mismatched_depth(self, model):
        with pytest.raises(ValueError):
            model.stack_states([model.init_state(1), model.init_state(1)[:1]])
        with pytest.raises(ValueError):
            model.stack_states([])

    def test_select_states_subsets_every_layer(self, model):
        states = model.init_state(4)
        subset = model.select_states(states, [1, 3])
        assert all(s.batch_size == 2 for s in subset)

    def test_batched_step_matches_per_stream_steps(self, model):
        """One (B, D) step must advance each row like a lone (1, D) step."""
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(3, 4))
        singles = []
        for row in xs:
            probs, _ = model.step(row, model.init_state(1))
            singles.append(probs)
        batched_probs, batched_states = model.step(xs, model.init_state(3))
        np.testing.assert_allclose(batched_probs, np.stack(singles), rtol=0, atol=1e-12)
        assert all(s.batch_size == 3 for s in batched_states)


class TestWeightDtype:
    """A network computes, and keeps its state, in its weights' dtype."""

    def test_float32_weights_step_and_predict_in_float32(self):
        model = StackedLSTMClassifier(NetworkConfig(4, (6, 5), 4), rng=0)
        assert model.dtype == np.float64
        model.cast(np.float32)
        assert model.dtype == np.float32
        x = np.random.default_rng(7).normal(size=(3, 4))
        states = model.init_state(3)
        assert {s.h.dtype for s in states} == {s.c.dtype for s in states} == {
            np.dtype(np.float32)
        }
        probs, stepped = model.step(x, states)
        assert probs.dtype == np.float32
        assert {s.h.dtype for s in stepped} == {s.c.dtype for s in stepped} == {
            np.dtype(np.float32)
        }
        # A float64 input is cast first: the same bits as a float32 one.
        narrow, _ = model.step(x.astype(np.float32), states)
        assert probs.tobytes() == narrow.tobytes()
        assert model.predict_proba(x).dtype == np.float32
        # Layer by layer on float64 inputs, as a seam-by-seam replay calls them.
        hidden = x
        for layer, state in zip(model.lstm_layers, states):
            hidden, _ = layer.step(hidden, state)
            assert hidden.dtype == np.float32
            hidden = hidden.astype(np.float64)
        logits = model.output_layer.forward(hidden, keep_cache=False)
        assert logits.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_state_round_trip_keeps_the_dtype(self, dtype):
        model = StackedLSTMClassifier(NetworkConfig(4, (6, 5), 4), rng=0)
        model.cast(dtype)
        restored = StackedLSTMClassifier.from_state(model.state_dict())
        assert restored.dtype == dtype
        for name, param in model.parameters().items():
            assert restored.parameters()[name].tobytes() == param.tobytes()
