"""Exactness of the one-row hot path against the reference Fig. 3 path.

The engine's seams are built for ticks of one row: scalar discretization
with only the joint PID clustering vectorized, one signature-table
lookup for the Bloom verdict and the vocabulary id, one in-place
``tanh`` over each LSTM layer's fused gate block, and partial ticks
written back in place.  Offline ``detect()`` runs the same engine, so
comparing the two cannot catch a numeric drift.  This module keeps the
reference path — columnar ``transform_columns``, ``signature_of`` +
``BloomFilter.__contains__`` + ``vocabulary.id_of``, the LSTM gates one
at a time (σ as ``0.5 * tanh(0.5 * z) + 0.5``), the top-k rule counted
one score at a time on the stored logits — and demands that every
verdict, level and recurrent-state byte be identical.  The reference
computes in the dtype of the network's weights (float32 for a trained
detector), as the engine does, and refuses a step whose input or state
is of another dtype.  It also holds the training path's fused
:func:`~repro.nn.activations.sigmoid` to its masked piecewise form.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bloom import BloomFilter
from repro.core.discretization import (
    CHANNEL_ORDER,
    EvenIntervalDiscretizer,
    IdentityDiscretizer,
    KMeans1DDiscretizer,
    KMeansNDDiscretizer,
)
from repro.core.signatures import (
    OOV_MEMO_CAPACITY,
    SignatureTable,
    SignatureVocabulary,
    codes_of,
    signature_of,
)
from repro.core.stream_engine import LEVEL_NONE, LEVEL_PACKAGE, LEVEL_TIMESERIES
from repro.core.timeseries_detector import BatchStreamState
from repro.experiments.pipeline import run_pipeline
from repro.ics.features import PID_PARAMETER_NAMES
from repro.nn.activations import sigmoid
from repro.nn.lstm import LSTMLayer, LSTMState
from repro.persistence import load_detector, save_detector
from repro.scenarios import scenario_names

# ----------------------------------------------------------------------
# the reference path
# ----------------------------------------------------------------------


def piecewise_sigmoid(x):
    """Sigmoid on the two masked halves, one ``exp`` call each, in the
    dtype of ``x``."""
    out = np.empty_like(x)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out


def reference_pid_code(channel, row):
    """The joint k-means code of one row, computed row by row."""
    if row is None or any(v is None or not np.isfinite(v) for v in row):
        return channel.missing_code
    point = (np.asarray(row, dtype=np.float64) - channel.mean_) / channel.scale_
    deltas = channel.centroids_ - point[None, :]
    distances = np.sqrt(np.sum(deltas * deltas, axis=1))
    nearest = int(np.argmin(distances))
    if distances[nearest] > channel.margin * channel.radii_[nearest]:
        return channel.out_of_range_code
    return nearest


def pid_row(package):
    values = tuple(getattr(package, name) for name in PID_PARAMETER_NAMES)
    return None if any(v is None for v in values) else values


def reference_codes(discretizer, package, prev_time):
    """Columnar discretization of one package, PID row by row."""
    assert CHANNEL_ORDER[-1] == "pid"
    columns = discretizer.transform_columns([package], prev_time)
    scalar = [int(columns[name][0]) for name in CHANNEL_ORDER[:-1]]
    return (*scalar, reference_pid_code(discretizer.channel("pid"), pid_row(package)))


def reference_encode(encoder, codes, flags, dtype):
    offsets = np.concatenate([[0], np.cumsum(encoder.cardinalities[:-1])])
    x = np.zeros((len(codes), encoder.input_size), dtype)
    for row, vector in enumerate(codes):
        for channel, code in enumerate(vector):
            assert 0 <= code < encoder.cardinalities[channel]
            x[row, offsets[channel] + code] = 1.0
        x[row, -1] = float(flags[row])
    return x


def reference_in_top_k(scores, target, k):
    """The top-k rule one comparison at a time: fewer than ``k`` scores
    strictly above the target's (float32 scores compare exactly as
    Python floats)."""
    row = scores.tolist()
    return sum(score > row[target] for score in row) < k


def reference_step(layer, x, state):
    """``LSTMLayer.step`` one gate at a time, out of place, in the
    weights' dtype: σ is ``0.5 * tanh(0.5 * z) + 0.5`` and τ is
    ``np.tanh``, each taken over its own gate's columns."""
    hidden = layer.hidden_size
    dtype = layer.params["W"].dtype
    assert x.dtype == state.h.dtype == state.c.dtype == dtype
    z = x @ layer.params["W"] + state.h @ layer.params["U"] + layer.params["b"]
    i = 0.5 * np.tanh(0.5 * z[:, :hidden]) + 0.5
    f = 0.5 * np.tanh(0.5 * z[:, hidden : 2 * hidden]) + 0.5
    o = 0.5 * np.tanh(0.5 * z[:, 2 * hidden : 3 * hidden]) + 0.5
    g = np.tanh(z[:, 3 * hidden :])
    c = f * state.c + i * g
    h = o * np.tanh(c)
    return h, LSTMState(h, c)


class ReferenceEngine:
    """The batched Fig. 3 data path through the reference seams."""

    def __init__(self, detector, streams):
        self.detector = detector
        self.state = detector.timeseries.new_stream_batch(streams)
        self.prev_times = [None] * streams

    def tick(self, rows, packages):
        detector = self.detector
        codes = [
            reference_codes(detector.discretizer, package, self.prev_times[row])
            for row, package in zip(rows, packages)
        ]
        for row, package in zip(rows, packages):
            self.prev_times[row] = package.time
        signatures = [signature_of(vector) for vector in codes]
        bloom = detector.package_detector.bloom
        flagged = np.array([s not in bloom for s in signatures], dtype=bool)
        ids = np.array(
            [
                -1 if (i := detector.vocabulary.id_of(s)) is None else i
                for s in signatures
            ],
            dtype=np.int64,
        )
        current = self.state.select(rows)
        verdicts = flagged.copy()
        judged = ~flagged & current.has_probs
        verdicts |= judged & (ids < 0)
        check = judged & (ids >= 0)
        for row in np.flatnonzero(check):
            verdicts[row] = not reference_in_top_k(
                current.last_probs[row], ids[row], detector.timeseries.k
            )
        model = detector.timeseries.model
        hidden = reference_encode(
            detector.timeseries.encoder, codes, verdicts, model.dtype
        )
        layers = []
        for layer, layer_state in zip(model.lstm_layers, current.lstm_states):
            hidden, layer_state = reference_step(layer, hidden, layer_state)
            layers.append(layer_state)
        stepped = BatchStreamState(
            lstm_states=layers,
            last_probs=model.output_layer.forward(hidden, keep_cache=False),
            has_probs=np.ones(len(rows), dtype=bool),
            packages_seen=current.packages_seen + 1,
        )
        self.state = self.state.replace_rows(rows, stepped)
        levels = np.full(len(rows), LEVEL_NONE, dtype=np.int64)
        levels[flagged] = LEVEL_PACKAGE
        levels[~flagged & verdicts] = LEVEL_TIMESERIES
        return verdicts, levels


def assert_same_state_bytes(engine, reference):
    got = engine.state_dict()["streams"]
    want = reference.state
    assert len(got["lstm"]) == len(want.lstm_states)
    for i, layer in enumerate(want.lstm_states):
        assert got["lstm"][f"layer{i}"]["h"].tobytes() == layer.h.tobytes()
        assert got["lstm"][f"layer{i}"]["c"].tobytes() == layer.c.tobytes()
    assert got["last_probs"].tobytes() == want.last_probs.tobytes()
    assert np.array_equal(got["has_probs"], want.has_probs)
    assert np.array_equal(got["packages_seen"], want.packages_seen)


# ----------------------------------------------------------------------
# every scenario's ci test capture
# ----------------------------------------------------------------------

#: Rows advanced per tick of the three-stream run, cycled: a full tick
#: in slot order, partial ticks out of slot order, and one-row ticks.
SCHEDULE = ((0, 1, 2), (2, 0), (1,), (0,), (2,), (1, 2))


@pytest.fixture(scope="module", params=scenario_names())
def ci_run(request):
    result = run_pipeline(f"ci@{request.param}")
    return result.detector, result.dataset.test_packages


def check_one_row_ticks(detector, capture):
    engine = detector.engine(1)
    reference = ReferenceEngine(detector, 1)
    for number, package in enumerate(capture):
        verdicts, levels = engine.observe_batch([package])
        want_verdicts, want_levels = reference.tick([0], [package])
        assert np.array_equal(verdicts, want_verdicts), number
        assert np.array_equal(levels, want_levels), number
        if number % 200 == 0:
            assert_same_state_bytes(engine, reference)
    assert_same_state_bytes(engine, reference)


def check_multi_stream_ticks(detector, capture):
    third = len(capture) // 3
    streams = [capture[i * third : (i + 1) * third] for i in range(3)]
    engine = detector.engine(3)
    ids = engine.stream_ids
    reference = ReferenceEngine(detector, 3)
    cursor = [0, 0, 0]
    tick = 0
    while True:
        rows = SCHEDULE[tick % len(SCHEDULE)]
        if any(cursor[row] >= third for row in rows):
            break
        batch = [streams[row][cursor[row]] for row in rows]
        if rows == (0, 1, 2):
            verdicts, levels = engine.observe_batch(batch)
        else:
            verdicts, levels = engine.observe_batch(
                {ids[row]: package for row, package in zip(rows, batch)}
            )
        want_verdicts, want_levels = reference.tick(list(rows), batch)
        assert np.array_equal(verdicts, want_verdicts), tick
        assert np.array_equal(levels, want_levels), tick
        for row in rows:
            cursor[row] += 1
        if tick % 100 == 0:
            assert_same_state_bytes(engine, reference)
        tick += 1
    assert tick > 100
    assert_same_state_bytes(engine, reference)


class TestScenarioCaptures:
    """The engine against the reference path, on the detector as trained
    (float32) and on a float64 copy of its weights, the dtype of every
    artifact and checkpoint written before float32 serving."""

    def test_one_row_ticks_match_reference(self, ci_run, weights_as):
        detector, capture = ci_run
        assert detector.timeseries.model.dtype == np.float32
        check_one_row_ticks(detector, capture)
        check_one_row_ticks(weights_as(detector, np.float64), capture)

    def test_full_and_partial_multi_stream_ticks_match_reference(
        self, ci_run, weights_as
    ):
        detector, capture = ci_run
        check_multi_stream_ticks(detector, capture)
        check_multi_stream_ticks(weights_as(detector, np.float64), capture)


class TestFloat64Agreement:
    """The float32 detector judges every ci test capture like a float64
    copy of the same weights: the proof that publishing detectors in
    float32 changes no verdict and no level."""

    def test_one_row_ticks_match_float64(self, ci_run, weights_as):
        detector, capture = ci_run
        assert detector.timeseries.model.dtype == np.float32
        wide = weights_as(detector, np.float64)
        got, want = detector.detect(capture), wide.detect(capture)
        assert np.array_equal(got.is_anomaly, want.is_anomaly)
        assert np.array_equal(got.level, want.level)

    def test_multi_stream_ticks_match_float64(self, ci_run, weights_as):
        """``SCHEDULE``'s tick shapes in float32 against the same ticks in
        float64, and against each stream's solo float64 ``detect()``."""
        detector, capture = ci_run
        wide = weights_as(detector, np.float64)
        third = len(capture) // 3
        streams = [capture[i * third : (i + 1) * third] for i in range(3)]
        engines = [detector.engine(3), wide.engine(3)]
        levels = [[], [], []]
        cursor = [0, 0, 0]
        tick = 0
        while True:
            rows = SCHEDULE[tick % len(SCHEDULE)]
            if any(cursor[row] >= third for row in rows):
                break
            narrow, broad = (
                engine.observe_batch(
                    {engine.stream_ids[row]: streams[row][cursor[row]] for row in rows}
                )
                for engine in engines
            )
            assert np.array_equal(narrow[0], broad[0]), tick
            assert np.array_equal(narrow[1], broad[1]), tick
            for row, level in zip(rows, narrow[1]):
                levels[row].append(int(level))
                cursor[row] += 1
            tick += 1
        assert tick > 100
        for row, stream in enumerate(streams):
            solo = wide.detect(stream[: cursor[row]])
            assert levels[row] == solo.level.tolist(), row


# ----------------------------------------------------------------------
# scalar discretization channels
# ----------------------------------------------------------------------

#: Values every channel must handle like its columnar path.
edge_values = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(min_value=-(2**60), max_value=2**60),
)
moderate = st.floats(min_value=-1e300, max_value=1e300)


def assert_scalar_path_matches(channel, values):
    scalar = [channel.transform(value) for value in values]
    # The columnar path also casts out-of-range positions it discards.
    with np.errstate(invalid="ignore", over="ignore"):
        assert scalar == channel.transform_many(values).tolist()


class TestScalarChannels:
    @settings(max_examples=300, deadline=None)
    @given(
        bounds=st.tuples(moderate, moderate).map(sorted),
        num_bins=st.integers(1, 40),
        equal=st.booleans(),
        extra=st.lists(edge_values, max_size=20),
        data=st.data(),
    )
    def test_even_interval(self, bounds, num_bins, equal, extra, data):
        low, high = bounds
        if equal:
            high = low
        channel = EvenIntervalDiscretizer.from_state(
            {"kind": "EvenIntervalDiscretizer", "num_bins": num_bins,
             "low": low, "high": high}
        )
        # Bin edges, their float neighbours and the range ends.
        edges = [low + (high - low) * k / num_bins for k in range(num_bins + 1)]
        edges += [np.nextafter(e, np.inf) for e in edges]
        edges += [np.nextafter(e, -np.inf) for e in edges]
        inside = (
            data.draw(st.lists(st.floats(low, high), max_size=10))
            if low < high
            else [low]
        )
        assert_scalar_path_matches(channel, edges + inside + extra)

    @settings(max_examples=300, deadline=None)
    @given(
        clusters=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6),
                st.floats(min_value=1e-12, max_value=1e3),
            ),
            min_size=1,
            max_size=5,
        ),
        margin=st.floats(1.0, 3.0),
        extra=st.lists(edge_values, max_size=20),
    )
    def test_kmeans_1d(self, clusters, margin, extra):
        centroids = np.array([c for c, _ in clusters])
        radii = np.array([r for _, r in clusters])
        channel = KMeans1DDiscretizer.from_state(
            {"kind": "KMeans1DDiscretizer", "num_clusters": len(clusters),
             "margin": margin, "centroids": centroids, "radii": radii}
        )
        # Acceptance-band edges and exact ties between centroids.
        edges = [float(c + s * margin * r) for c, r in clusters for s in (-1, 0, 1)]
        edges += [float((a + b) / 2) for a in centroids for b in centroids]
        assert_scalar_path_matches(channel, edges + extra)

    @settings(max_examples=200, deadline=None)
    @given(
        known=st.lists(
            st.one_of(st.integers(-50, 50), st.floats(-1e6, 1e6)),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        extra=st.lists(edge_values, max_size=20),
    )
    def test_identity(self, known, extra):
        values = np.array(sorted({float(v) for v in known}))
        channel = IdentityDiscretizer.from_state(
            {"kind": "IdentityDiscretizer", "values": values}
        )
        assert_scalar_path_matches(channel, list(known) + extra)


pid_value = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-10.0, 10.0),
)


class TestVectorizedPid:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
        margin=st.floats(1.0, 3.0),
        data=st.data(),
    )
    def test_vectorized_matches_row_at_a_time(self, shape, margin, data):
        clusters, features = shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centroids = rng.normal(size=(clusters, features))
        if clusters > 1 and data.draw(st.booleans()):
            centroids[1] = centroids[0]  # equal distances: argmin takes the first
        channel = KMeansNDDiscretizer.from_state({
            "kind": "KMeansNDDiscretizer",
            "num_clusters": clusters,
            "margin": margin,
            "centroids": centroids,
            "radii": rng.uniform(0.01, 2.0, size=clusters),
            "mean": rng.normal(size=features),
            "scale": rng.uniform(0.1, 3.0, size=features),
        })
        rows = data.draw(st.lists(
            st.one_of(
                st.none(),
                st.tuples(*[pid_value] * features),
                st.tuples(*[st.floats(-10.0, 10.0)] * features),
            ),
            max_size=30,
        ))
        # A point on the first centroid.
        centroid = channel.centroids_[0] * channel.scale_ + channel.mean_
        rows.append(tuple(centroid.tolist()))
        with np.errstate(over="ignore"):  # huge values: infinite distances
            want = [reference_pid_code(channel, row) for row in rows]
            assert channel.transform_many(rows).tolist() == want
            assert [channel.transform(row) for row in rows] == want

    def test_threshold_ties_pin_every_distance_bit(self):
        """Radii equal to each row's reference distance, then one ulp less.

        A code compares a distance with ``margin * radius``.  With
        ``margin`` 1 and each row's own cluster radius set to exactly its
        row-at-a-time distance, a vectorized distance one ulp off in
        either direction flips that row's code in one of the two runs.
        300 rows span two vectorized blocks.
        """
        rng = np.random.default_rng(11)
        clusters, features = 300, 5
        centroids = rng.normal(scale=10.0, size=(clusters, features))
        rows = centroids + rng.normal(scale=0.01, size=(clusters, features))
        exact = []
        for i, row in enumerate(rows):
            deltas = centroids - row[None, :]
            distances = np.sqrt(np.sum(deltas * deltas, axis=1))
            assert int(np.argmin(distances)) == i
            exact.append(distances[i])
        exact = np.array(exact)
        for radii, want in (
            (exact, list(range(clusters))),
            (np.nextafter(exact, 0.0), [clusters] * clusters),
        ):
            channel = KMeansNDDiscretizer.from_state({
                "kind": "KMeansNDDiscretizer", "num_clusters": clusters,
                "margin": 1.0, "centroids": centroids, "radii": radii,
                "mean": np.zeros(features), "scale": np.ones(features),
            })
            assert channel.transform_many([tuple(r) for r in rows]).tolist() == want


# ----------------------------------------------------------------------
# the training path's fused sigmoid
# ----------------------------------------------------------------------


#: The float dtypes a network computes in.
FLOATS = (np.float32, np.float64)


def as_bits(x):
    return x.view(f"int{8 * x.itemsize}")


def assert_bitwise_sigmoid(x):
    got, want = sigmoid(x), piecewise_sigmoid(x)
    assert got.dtype == want.dtype == x.dtype
    assert as_bits(got).tolist() == as_bits(want).tolist()


def float_arrays(dtype):
    """Non-NaN arrays of ``dtype``, infinities and subnormals included."""
    return hnp.arrays(
        dtype,
        st.integers(1, 64),
        elements=st.floats(
            allow_nan=False,
            allow_infinity=True,
            allow_subnormal=True,
            width=8 * np.dtype(dtype).itemsize,
        ),
    )


class TestFusedSigmoid:
    @settings(max_examples=500, deadline=None)
    @given(float_arrays(np.float64))
    def test_bitwise_equal_to_piecewise(self, x):
        assert_bitwise_sigmoid(x)

    @settings(max_examples=500, deadline=None)
    @given(float_arrays(np.float32))
    def test_bitwise_equal_to_piecewise_in_float32(self, x):
        assert_bitwise_sigmoid(x)

    def test_special_values(self):
        for dtype in FLOATS:
            info = np.finfo(dtype)
            x = np.array([
                0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 745.2, -745.2,
                709.78, -709.78, 88.7, -88.7, 103.9, -103.9, 36.7, -36.7,
                17.3, -17.3,
            ], dtype=dtype)
            extremes = np.array(
                [info.max, -info.max, info.smallest_subnormal, -info.smallest_subnormal],
                dtype=dtype,
            )
            assert_bitwise_sigmoid(np.concatenate([x, extremes]))

    def test_random_bit_patterns(self):
        for dtype in FLOATS:
            rng = np.random.default_rng(0)
            bits = np.dtype(f"int{8 * np.dtype(dtype).itemsize}")
            info = np.iinfo(bits)
            x = rng.integers(info.min, info.max, size=200_000, dtype=bits).view(dtype)
            x = x[~np.isnan(x)]
            assert_bitwise_sigmoid(x)
            # Strided and offset views, as the fused gate block is.
            block = rng.normal(scale=20.0, size=(7, 96)).astype(dtype)
            assert_bitwise_sigmoid(block[:, :72])
            assert_bitwise_sigmoid(block[:, 3:])

    def test_nan_gives_nan(self):
        out = sigmoid(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2]) and not np.isnan(out[1])


# ----------------------------------------------------------------------
# the serving step's gate block
# ----------------------------------------------------------------------


def assert_same_floats(got, want):
    """Bit for bit, except that any NaN matches any NaN."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(as_bits(got[~nan]), as_bits(want[~nan]))


def special_values(dtype):
    """Signed zeros, infinities, NaN, subnormals and values past the
    point where ``tanh`` (and so σ) saturates in ``dtype``."""
    info = np.finfo(dtype)
    return np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan,
        info.smallest_subnormal, -info.smallest_subnormal,
        info.smallest_normal / 3, -info.smallest_normal / 3,
        info.smallest_normal, -info.smallest_normal,
        9.5, -9.5, 19.5, -19.5, 40.0, -40.0, 1e30, -1e30,
        info.max, -info.max, 1.0, -1.0, 0.25, -3.0,
    ], dtype=dtype)


def gate_layer(dtype, bias, hidden):
    """A layer whose pre-activation ``z`` is exactly ``bias`` on zero
    inputs and state: ``W`` and ``U`` are zero."""
    layer = LSTMLayer(3, hidden, rng=0)
    layer.params = {
        "W": np.zeros((3, 4 * hidden), dtype),
        "U": np.zeros((hidden, 4 * hidden), dtype),
        "b": np.asarray(bias, dtype),
    }
    return layer


class TestServingGates:
    """``LSTMLayer.step`` against the gate-at-a-time reference, and the
    elementwise facts its one in-place ``tanh`` over the fused
    ``(B, 4H)`` block relies on."""

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_special_values_match_the_reference(self, dtype):
        values = special_values(dtype)
        hidden = len(values)
        for shift in range(4):
            # Every value meets every gate, and every cell value.
            bias = np.roll(np.tile(values, 4), shift * hidden // 4)
            layer = gate_layer(dtype, bias, hidden)
            for rows in (1, 3):
                c = np.tile(np.roll(values, shift), (rows, 1))
                state = LSTMState(np.zeros((rows, hidden), dtype), c)
                x = np.zeros((rows, 3), dtype)
                with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
                    h, stepped = layer.step(x, state)
                    want_h, want = reference_step(layer, x, state)
                assert_same_floats(h, want_h)
                assert_same_floats(stepped.c, want.c)

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_saturated_and_special_gates(self, dtype):
        """σ(±inf) is 1 and 0, σ(±0) is ½, σ(NaN) is NaN, and past
        saturation σ is exactly 1 or 0."""
        z = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan, 60.0, -60.0], dtype)
        hidden = len(z)
        layer = gate_layer(dtype, np.concatenate([z, z, z, np.ones(hidden)]), hidden)
        ones = np.ones((1, hidden), dtype)
        # c = f * 1 + i * tanh(1), h = o * tanh(c): i = f = o = σ(z).
        h, state = layer.step(np.zeros((1, 3), dtype), LSTMState(ones * 0, ones))
        sigma = np.array([1.0, 0.0, 0.5, 0.5, np.nan, 1.0, 0.0], dtype)
        tanh_1 = np.tanh(dtype(1.0))
        want_c = sigma + sigma * tanh_1
        assert_same_floats(state.c[0], want_c)
        assert_same_floats(h[0], sigma * np.tanh(want_c))

    @pytest.mark.parametrize("dtype", FLOATS)
    def test_tanh_sigma_is_within_two_eps_of_training_sigmoid(self, dtype):
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.normal(scale=6.0, size=100_000), [0.0, 1e-30, -1e-30, 40.0, -40.0]
        ]).astype(dtype)
        gap = np.abs((0.5 * np.tanh(0.5 * x) + 0.5) - sigmoid(x))
        assert gap.max() <= 2 * np.finfo(dtype).eps

    @pytest.mark.parametrize("dtype", FLOATS)
    @pytest.mark.parametrize("hidden", [24, 256])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 64])
    def test_block_tanh_equals_gate_and_row_tanh(self, dtype, hidden, rows):
        """``tanh`` of the contiguous ``(B, 4H)`` block, in place or not,
        is bit for bit ``tanh`` of each gate's columns (strided or
        copied out) and of each row."""
        rng = np.random.default_rng(rows * hidden)
        block = rng.normal(scale=5.0, size=(rows, 4 * hidden)).astype(dtype)
        specials = special_values(dtype)
        block.ravel()[rng.integers(0, block.size, size=len(specials))] = specials
        whole = np.tanh(block)
        in_place = block.copy()
        np.tanh(in_place, out=in_place)
        assert_same_floats(in_place, whole)
        for gate in range(4):
            columns = slice(gate * hidden, (gate + 1) * hidden)
            assert_same_floats(np.tanh(block[:, columns]), whole[:, columns])
            copied = np.ascontiguousarray(block[:, columns])
            assert_same_floats(np.tanh(copied), whole[:, columns])
        for row in range(rows):
            assert_same_floats(np.tanh(block[row]), whole[row])
            assert_same_floats(np.tanh(block[row : row + 1]), whole[row : row + 1])

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 64])
    def test_step_matches_reference_at_every_tick_shape(self, rows):
        rng = np.random.default_rng(rows)
        for dtype in FLOATS:
            layer = LSTMLayer(11, 24, rng=rows)
            layer.params = {k: v.astype(dtype) for k, v in layer.params.items()}
            state = LSTMState(
                rng.normal(size=(rows, 24)).astype(dtype),
                rng.normal(scale=3.0, size=(rows, 24)).astype(dtype),
            )
            before = state.copy()
            x = rng.normal(size=(rows, 11)).astype(dtype)
            h, stepped = layer.step(x, state)
            want_h, want = reference_step(layer, x, state)
            assert h.tobytes() == want_h.tobytes()
            assert stepped.c.tobytes() == want.c.tobytes()
            # The step never writes into the state it was given.
            assert state.h.tobytes() == before.h.tobytes()
            assert state.c.tobytes() == before.c.tobytes()

    @pytest.mark.parametrize(
        "weights, h, c",
        [
            (np.float32, np.float64, np.float64),
            (np.float32, np.float32, np.float64),
            (np.float32, np.float64, np.float32),
            (np.float64, np.float32, np.float32),
        ],
    )
    def test_state_of_another_dtype_is_refused(self, weights, h, c):
        """The in-place sums would round a float64 state to float32
        weights' precision without a word."""
        layer = LSTMLayer(3, 4, rng=0)
        layer.params = {k: v.astype(weights) for k, v in layer.params.items()}
        state = LSTMState(np.zeros((2, 4), h), np.zeros((2, 4), c))
        with pytest.raises(ValueError, match="dtype"):
            layer.step(np.zeros((2, 3), weights), state)


# ----------------------------------------------------------------------
# signature table: memo bound and tampered filters
# ----------------------------------------------------------------------


def vocabulary_and_filter(size=50):
    rng = np.random.default_rng(7)
    vocabulary = SignatureVocabulary()
    for _ in range(size):
        vocabulary.add(signature_of(rng.integers(0, 6, size=13)))
    bloom = BloomFilter.for_capacity(len(vocabulary), 0.01)
    bloom.update(vocabulary.signatures)
    return vocabulary, bloom


def out_of_vocabulary_vectors(vocabulary, count):
    vectors = []
    for n in range(count):
        vector = tuple(int(d) for d in f"{n:013d}")  # distinct 13-code tuples
        vector = (vector[0] + 100,) + vector[1:]  # never a vocabulary code
        assert signature_of(vector) not in vocabulary
        vectors.append(vector)
    return vectors


class TestSignatureTable:
    def test_memo_stays_bounded_small_and_answers_like_the_probe(self):
        vocabulary, bloom = vocabulary_and_filter()
        table = SignatureTable(vocabulary, bloom.__contains__)
        vectors = out_of_vocabulary_vectors(vocabulary, OOV_MEMO_CAPACITY + 300)
        # A tiny filter answers "maybe" for some of them: both branches run.
        bloom_small = BloomFilter(64, 2)
        bloom_small.update(vocabulary.signatures)
        small = SignatureTable(vocabulary, bloom_small.__contains__)
        for round_ in range(2):
            for vector in vectors:
                for filt, tab in ((bloom, table), (bloom_small, small)):
                    flagged, index = tab.resolve(vector)
                    assert flagged == (signature_of(vector) not in filt)
                    assert index == -1
                    assert len(tab._memo) <= OOV_MEMO_CAPACITY
        assert any(not small.resolve(v)[0] for v in vectors)
        assert any(small.resolve(v)[0] for v in vectors)
        memo = table._memo
        assert len(memo) == OOV_MEMO_CAPACITY
        held = sys.getsizeof(memo) + sum(
            sys.getsizeof(key) + sys.getsizeof(entry) for key, entry in memo.items()
        )
        # Five scenario models on one gateway: under 1 MB of memos.
        assert 5 * held < 1_000_000, held

    def test_vocabulary_vectors_answer_like_the_probe(self):
        vocabulary, bloom = vocabulary_and_filter()
        table = SignatureTable(vocabulary, bloom.__contains__)
        for index, signature in enumerate(vocabulary.signatures):
            codes = codes_of(signature)
            assert table.resolve(codes) == (signature not in bloom, index)
            # Equal sequences of another type resolve to the same entry.
            assert table.resolve(list(codes)) == (False, index)
            assert table.resolve(tuple(np.array(codes))) == (False, index)
        assert not table._memo

    def test_non_canonical_signatures_fall_back_to_the_probe(self):
        vocabulary = SignatureVocabulary()
        vocabulary.add("01|2")  # codes_of gives (1, 2), whose signature is "1|2"
        vocabulary.add("3|4")
        bloom = BloomFilter.for_capacity(2, 0.01)
        bloom.update(vocabulary.signatures)
        table = SignatureTable(vocabulary, bloom.__contains__)
        assert table.resolve((1, 2)) == ("1|2" not in bloom, -1)
        assert table.resolve((3, 4)) == (False, 1)

    def test_tampered_filter_still_flags_the_missing_signature(self, tmp_path):
        detector, loaded, capture, signatures, victim = tampered_filter(tmp_path)
        vocabulary = detector.vocabulary
        victim_codes = codes_of(victim)
        assert loaded.package_detector.is_anomalous_codes(victim_codes)
        flagged, ids = loaded.package_detector.resolve_batch([victim_codes])
        assert flagged.tolist() == [True]
        assert ids.tolist() == [vocabulary.id_of(victim)]
        hits = [i for i, s in enumerate(signatures) if s == victim]
        assert hits
        tampered_levels = loaded.detect(capture).level
        original_levels = detector.detect(capture).level
        assert all(tampered_levels[i] == LEVEL_PACKAGE for i in hits)
        assert all(original_levels[i] != LEVEL_PACKAGE for i in hits)

    def test_flagged_vocabulary_rows_in_multi_row_ticks(self, tmp_path):
        """A Bloom-flagged signature the vocabulary knows skips the top-k
        check in ticks of every shape, however the model ranks it."""
        _, loaded, capture, _, _ = tampered_filter(tmp_path)
        check_multi_stream_ticks(loaded, capture)


def tampered_filter(tmp_path):
    """The ci gas_pipeline detector, and a copy whose Bloom filter lacks
    the capture's most frequent in-vocabulary signature."""
    result = run_pipeline("ci@gas_pipeline")
    detector, capture = result.detector, result.dataset.test_packages
    codes = detector.discretizer.transform_sequence(capture)
    signatures = [signature_of(vector) for vector in codes]
    vocabulary = detector.vocabulary
    original = detector.package_detector.bloom
    # The most frequent in-vocabulary signature of the capture that
    # a filter without it does not contain by accident.
    ranked = sorted(
        {s for s in signatures if s in vocabulary},
        key=lambda s: (-signatures.count(s), s),
    )
    for victim in ranked:
        tampered = BloomFilter(original.num_bits, original.num_hashes)
        tampered.update(s for s in vocabulary.signatures if s != victim)
        if victim not in tampered:
            break
    else:
        pytest.fail("every candidate collides in the tampered filter")
    path = tmp_path / "tampered.npz"
    state = detector.state_dict()
    state["package_detector"]["bloom"] = tampered.state_dict()
    save_detector(type(detector).from_state(state), path)
    return detector, load_detector(path), capture, signatures, victim
