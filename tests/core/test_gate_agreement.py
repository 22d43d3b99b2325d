"""The serving step's tanh gate block judges every ci capture like the
formula it replaced.

``LSTMLayer.step`` takes each LSTM gate from one in-place ``tanh`` over
the fused ``(B, 4H)`` block, with σ as ``½·tanh(x/2) + ½``.  Before, it
took σ of the ``i | f | o`` block from :func:`~repro.nn.activations.sigmoid`
(which training still uses).  The two differ by about an ulp per gate,
and the recurrent state carries that difference from package to package.
On every scenario's ci test capture, at one-row ticks and at
``SCHEDULE``'s mixed tick shapes, for the float32 detector and for a
float64 copy of its weights, this module runs the capture through the
engine twice, once as it stands and once with the replaced formula bound
to every LSTM layer, and demands the same verdict and level on every
row.  It reports the rows the top-k check ranked and the largest
``|Δh|`` and ``|Δlogit|`` seen between the two runs (``pytest -s``
prints them).
"""

from __future__ import annotations

from types import MethodType

import numpy as np
import pytest

from repro.nn.activations import sigmoid, tanh
from repro.nn.lstm import LSTMState
from tests.core.test_exactness import SCHEDULE, ci_run  # noqa: F401  (fixture)

#: Largest ``|Δh|`` and ``|Δlogit|`` the two runs may drift apart, per
#: weight dtype: far above what the ci captures show, far below any
#: change that could matter to a ranking.
DRIFT_BOUND = {np.dtype(np.float32): 1e-4, np.dtype(np.float64): 1e-12}


def replaced_step(layer, x_t, state):
    """``LSTMLayer.step`` as it was before the tanh gate block: the fused
    :func:`sigmoid` over ``i | f | o`` and a separate ``tanh`` for ``g``."""
    hidden = layer.hidden_size
    weights = layer.params["W"]
    x_t = np.asarray(x_t, dtype=weights.dtype)
    z = x_t @ weights + state.h @ layer.params["U"] + layer.params["b"]
    gates = sigmoid(z[:, : 3 * hidden])
    i = gates[:, :hidden]
    f = gates[:, hidden : 2 * hidden]
    o = gates[:, 2 * hidden :]
    g = tanh(z[:, 3 * hidden :])
    c = f * state.c + i * g
    h = o * tanh(c)
    return h, LSTMState(h, c)


def with_replaced_step(detector):
    """``detector`` with :func:`replaced_step` bound to each of its layers."""
    for layer in detector.timeseries.model.lstm_layers:
        layer.step = MethodType(replaced_step, layer)
    return detector


class Drift:
    """Both runs of one capture, row by row."""

    def __init__(self, detector, streams, weights_as, dtype):
        self.engines = [
            weights_as(detector, dtype).engine(len(streams)),
            with_replaced_step(weights_as(detector, dtype)).engine(len(streams)),
        ]
        # Rows the top-k check ranks, once the stream has a prediction.
        self.rankable = []
        for packages in streams:
            codes = detector.discretizer.transform_sequence(packages)
            flagged, ids = detector.package_detector.resolve_batch(codes)
            self.rankable.append(~flagged & (ids >= 0))
        self.rows = self.ranked = 0
        self.h = self.logit = 0.0

    def tick(self, number, rows, packages, cursor):
        current, replaced = (
            engine.observe_batch(
                {engine.stream_ids[row]: package for row, package in zip(rows, packages)}
            )
            for engine in self.engines
        )
        assert np.array_equal(current[0], replaced[0]), number
        assert np.array_equal(current[1], replaced[1]), number
        for row in rows:
            self.rows += 1
            self.ranked += bool(cursor[row] > 0 and self.rankable[row][cursor[row]])
            new, old = (engine.snapshot(engine.stream_ids[row]) for engine in self.engines)
            for mine, theirs in zip(new.lstm_states, old.lstm_states):
                self.h = max(self.h, float(np.abs(mine.h - theirs.h).max()))
            self.logit = max(
                self.logit, float(np.abs(new.last_probs - old.last_probs).max())
            )

    def report(self, request, dtype):
        request.node.user_properties += [
            ("ranked_rows", self.ranked),
            ("max_delta_h", self.h),
            ("max_delta_logit", self.logit),
        ]
        print(
            f"\n{request.node.name}: {self.rows} rows, {self.ranked} ranked; "
            f"max |dh| {self.h:.3g}, max |dlogit| {self.logit:.3g}"
        )
        assert self.ranked > self.rows // 4
        # The two runs did differ: the replaced formula was in effect.
        assert self.h > 0
        assert self.h <= DRIFT_BOUND[np.dtype(dtype)]
        assert self.logit <= DRIFT_BOUND[np.dtype(dtype)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestTanhGateAgreement:
    def test_one_row_ticks(self, ci_run, weights_as, dtype, request):
        detector, capture = ci_run
        drift = Drift(detector, [capture], weights_as, dtype)
        for position, package in enumerate(capture):
            drift.tick(position, (0,), [package], [position])
        assert drift.rows == len(capture)
        drift.report(request, dtype)

    def test_mixed_tick_shapes(self, ci_run, weights_as, dtype, request):
        detector, capture = ci_run
        third = len(capture) // 3
        streams = [capture[i * third : (i + 1) * third] for i in range(3)]
        drift = Drift(detector, streams, weights_as, dtype)
        cursor = [0, 0, 0]
        tick = 0
        while True:
            rows = SCHEDULE[tick % len(SCHEDULE)]
            if any(cursor[row] >= third for row in rows):
                break
            drift.tick(tick, rows, [streams[row][cursor[row]] for row in rows], cursor)
            for row in rows:
                cursor[row] += 1
            tick += 1
        assert tick > 100
        drift.report(request, dtype)
