"""Recurrent state carries the network's dtype on every path that makes it.

A trained detector serves in float32, and a detector loaded from an
older float64 artifact serves in float64.  Either way every ``h``,
``c`` and ``last_probs`` array must be in the weights' dtype: a float64
state stepped against float32 weights makes every gate product float64
and re-converts the recurrent weight matrix on each call, with no
verdict showing it.  So each create and restore path is checked for the
dtype of what it makes:

- ``new_stream_batch`` and ``attach``;
- ``StreamState.from_state`` and ``StreamEngine.from_state``, whatever
  dtype the state was saved in;
- ``attach`` on a shard worker after an INIT that ships a 0-row engine
  snapshot;
- gateway checkpoint resume in both worker modes, float32 and float64;
- a hot-swap to a new model version in both worker modes.

The float64 cases stand for artifacts and checkpoints written before
detectors were published in float32: they load, serve and resume in
float64, bit for bit like the run that never stopped.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.stream_engine import StreamEngine
from repro.core.timeseries_detector import StreamState
from repro.persistence import SINGLE_LABEL
from repro.registry import ModelRegistry
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient
from repro.serve.transport import encode_stream_data
from repro.serve.workers import (
    WorkerHandle,
    decode_reply,
    decode_verdicts,
    encode_call,
    encode_observe,
)
from repro.utils.artifact import load_artifact, read_meta

FLOAT32, FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)


def state_arrays(streams):
    """Every recurrent-state and prediction array of an engine's
    ``state_dict()["streams"]``."""
    arrays = [streams["last_probs"]]
    for layer in streams["lstm"].values():
        arrays += [layer["h"], layer["c"]]
    return arrays


def state_dtypes(streams):
    return {array.dtype for array in state_arrays(streams)}


def checkpoint_engine_states(path):
    """``{(shard, label): engine state}`` of a gateway checkpoint."""
    state = load_artifact(path, kind=read_meta(path)["kind"])
    return {
        (shard, label): engine
        for shard, pool in state["shards"].items()
        for label, engine in pool.items()
    }


def replay(handle, key, capture, **kwargs):
    host, port = handle.address
    result = ReplayClient(host, port, stream_key=key, **kwargs).replay(capture)
    assert result.complete
    return result


def wait_for(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.fixture(scope="module", params=[FLOAT32, FLOAT64], ids=["float32", "float64"])
def served(request, detector, weights_as):
    """The session detector (float32, as trained) or its float64 copy."""
    if request.param == FLOAT32:
        assert detector.timeseries.model.dtype == FLOAT32
        return detector
    return weights_as(detector, FLOAT64)


class TestEngineStatePaths:
    def test_new_streams_and_attach(self, served, capture):
        dtype = served.timeseries.model.dtype
        fresh = served.timeseries.new_stream_batch(3)
        assert state_dtypes(fresh.state_dict()) == {dtype}
        engine = served.engine(2)
        engine.observe_batch(capture[:2])
        engine.attach()
        engine.observe_batch(capture[2:5])
        assert state_dtypes(engine.state_dict()["streams"]) == {dtype}
        snapshot = engine.snapshot(engine.stream_ids[-1])
        assert {s.h.dtype for s in snapshot.lstm_states} == {dtype}
        assert snapshot.last_probs.dtype == dtype

    @pytest.mark.parametrize("saved", [FLOAT32, FLOAT64], ids=["from32", "from64"])
    def test_restores_follow_the_model(self, served, capture, saved):
        dtype = served.timeseries.model.dtype
        engine = served.engine(2)
        for package in capture[:6]:
            engine.observe_batch([package, package])
        state = engine.state_dict()
        streams = state["streams"]
        streams["last_probs"] = streams["last_probs"].astype(saved)
        for layer in streams["lstm"].values():
            layer["h"], layer["c"] = layer["h"].astype(saved), layer["c"].astype(saved)

        resumed = StreamEngine.from_state(served, state)
        assert state_dtypes(resumed.state_dict()["streams"]) == {dtype}
        resumed.attach()
        resumed.observe_batch(capture[6:9])
        assert state_dtypes(resumed.state_dict()["streams"]) == {dtype}

        stream = engine.snapshot(engine.stream_ids[0]).state_dict()
        stream["last_probs"] = stream["last_probs"].astype(saved)
        restored = StreamState.from_state(stream, dtype)
        assert {s.h.dtype for s in restored.lstm_states} == {dtype}
        assert {s.c.dtype for s in restored.lstm_states} == {dtype}
        assert restored.last_probs.dtype == dtype

    def test_same_dtype_resume_is_bit_identical(self, served, capture):
        engine = served.engine(1)
        for package in capture[:40]:
            engine.observe_batch([package])
        resumed = StreamEngine.from_state(served, engine.state_dict())
        for package in capture[40:80]:
            assert np.array_equal(
                resumed.observe_batch([package])[0], engine.observe_batch([package])[0]
            )
        got = state_arrays(resumed.state_dict()["streams"])
        want = state_arrays(engine.state_dict()["streams"])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestShardWorker:
    def test_attach_after_an_init_snapshot(self, served, capture):
        """INIT ships a 0-row engine snapshot; the rows a worker then
        attaches and steps carry the model's dtype."""
        dtype = served.timeseries.model.dtype
        handle = WorkerHandle(0)
        try:
            init = encode_call(
                "init",
                detector=served.state_dict(),
                pool={SINGLE_LABEL: served.engine(0).state_dict()},
            )
            assert decode_reply(handle.call_sync(init)) is None
            sid = decode_reply(
                handle.call_sync(encode_call("attach", label=SINGLE_LABEL))
            )
            reference = served.engine(1)
            for package in capture[:12]:
                wire = encode_observe(
                    [(SINGLE_LABEL, [(sid, encode_stream_data(package, 0))])]
                )
                (verdict,), _ = decode_verdicts(handle.call_sync(wire), 1)
                verdicts, levels = reference.observe_batch([package])
                assert verdict == (bool(verdicts[0]), int(levels[0]))
            snapshot = decode_reply(handle.call_sync(encode_call("snapshot")))
        finally:
            handle.close()
        streams = snapshot[SINGLE_LABEL]["streams"]
        assert state_dtypes(streams) == {dtype}
        want = state_arrays(reference.state_dict()["streams"])
        assert [a.tobytes() for a in state_arrays(streams)] == [
            a.tobytes() for a in want
        ]


class TestGatewayResume:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_checkpoint_resume_keeps_the_dtype_and_the_bits(
        self, served, capture, mode, tmp_path
    ):
        """Kill at a checkpoint, resume in ``mode``: the state is in the
        model's dtype and equals the uninterrupted run's, byte for byte."""
        dtype = served.timeseries.model.dtype
        first = tmp_path / "first.npz"
        handle = start_in_thread(
            served, GatewayConfig(num_shards=1, checkpoint_path=str(first))
        )
        try:
            head = replay(handle, "a", capture[:60])
        finally:
            handle.stop()
        for engine in checkpoint_engine_states(first).values():
            assert state_dtypes(engine["streams"]) == {dtype}

        second = tmp_path / "second.npz"
        gateway = DetectionGateway.from_checkpoint(
            str(first), GatewayConfig(worker_mode=mode, checkpoint_path=str(second))
        )
        assert gateway.detector.timeseries.model.dtype == dtype
        handle = start_in_thread(None, gateway=gateway)
        try:
            tail = replay(handle, "a", capture)
        finally:
            handle.stop()
        assert tail.start == 60
        offline = served.detect(capture)
        stitched = np.concatenate([head.anomalies, tail.anomalies])
        assert np.array_equal(stitched, offline.is_anomaly)

        uninterrupted = served.engine(1)
        for package in capture:
            uninterrupted.observe_batch([package])
        (engine,) = checkpoint_engine_states(second).values()
        assert state_dtypes(engine["streams"]) == {dtype}
        want = state_arrays(uninterrupted.state_dict()["streams"])
        assert [a.tobytes() for a in state_arrays(engine["streams"])] == [
            a.tobytes() for a in want
        ]


class TestHotSwap:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_swapped_stream_serves_in_the_new_models_dtype(
        self, scenario_detectors, weights_as, mode, tmp_path
    ):
        """v1 is a float64 artifact and v2 is published as trained: the
        stream serves v1 in float64, then restarts on v2 in float32, and
        only v2's engine is left to checkpoint."""
        from repro.ics.dataset import generate_stream

        gas = scenario_detectors["gas_pipeline"]
        assert gas.timeseries.model.dtype == FLOAT32
        old = weights_as(gas, FLOAT64)
        capture = generate_stream("gas_pipeline", 40, 11)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(old, "gas_pipeline")
        assert registry.load("gas_pipeline", 1).timeseries.model.dtype == FLOAT64
        path = tmp_path / "swap.npz"
        gateway = DetectionGateway(
            config=GatewayConfig(
                num_shards=1,
                worker_mode=mode,
                checkpoint_path=str(path),
                registry_poll_seconds=0,
            ),
            registry=registry,
        )
        handle = start_in_thread(None, gateway=gateway)
        try:
            before = replay(handle, "a", capture[:20], scenario="gas_pipeline")
            registry.publish(gas, "gas_pipeline")  # v2 goes live
            wait_for(lambda: handle.stats()["swaps_applied"] == 1)
            after = replay(handle, "a", capture, scenario="gas_pipeline")
        finally:
            handle.stop()
        assert after.start == 20
        assert np.array_equal(before.anomalies, old.detect(capture[:20]).is_anomaly)
        assert np.array_equal(after.anomalies, gas.detect(capture[20:]).is_anomaly)
        engines = checkpoint_engine_states(path)
        assert [label for _, label in engines] == ["gas_pipeline@2"]
        (engine,) = engines.values()
        assert state_dtypes(engine["streams"]) == {FLOAT32}
