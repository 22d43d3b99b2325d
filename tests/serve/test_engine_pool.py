"""One engine pool behind both shard backends.

- The worker-side byte codec, driven on an in-process :class:`EnginePool`
  (no spawned process): every OBSERVE and control-call reply
  round-trips, every truncated, padded or mislabelled reply raises
  :class:`WorkerError`, and so does any request but those two shapes.
- Thread- and process-mode gateways fed the same traffic write
  checkpoints holding the same state, array for array and field for
  field — single-detector and routed (with a hot-swap) alike.
- A promote requested before ``start()`` lands when the gateway starts.
- Losing one shard worker does not take shutdown down with it.
- A start that fails releases everything it started.
"""

from __future__ import annotations

import gc
import multiprocessing
import socket
import struct
import threading
import time
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Historian
from repro.persistence import route_label
from repro.registry import ModelRegistry
from repro.serve.gateway import (
    DetectionGateway,
    GatewayConfig,
    ShardError,
    start_in_thread,
)
from repro.serve.replay import ReplayClient
from repro.serve.transport import encode_stream_data
from repro.serve.workers import (
    CALL_KIND,
    EnginePool,
    WorkerError,
    decode_reply,
    decode_verdicts,
    encode_call,
    encode_observe,
    serve_request,
)
from repro.utils import artifact
from repro.utils.artifact import load_artifact, read_meta

V1 = ("gas_pipeline", 1)
V2 = ("gas_pipeline", 2)


def assert_state_equal(left, right, path="state"):
    """Nested state dicts hold the same keys, arrays and scalars."""
    if isinstance(left, dict):
        assert isinstance(right, dict) and set(left) == set(right), path
        for key in left:
            assert_state_equal(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        left, right = np.asarray(left), np.asarray(right)
        assert left.dtype == right.dtype and np.array_equal(left, right), path
    else:
        assert left == right, path


# ----------------------------------------------------------------------
# the codec on an in-process pool
# ----------------------------------------------------------------------


def exchanges(detector, capture, streams, steps, ticks, offset):
    """Every op through :func:`serve_request` on one in-process pool.

    Each OBSERVE names the one label ``ticks`` times, once per
    successive tick, as a gateway shard's drain does.  Yields
    ``(response, decode, check)``: ``check(decode(response))`` compares
    against a reference engine driven one tick at a time.
    """
    pool = EnginePool(lambda route: detector)
    reference = detector.engine(0)
    label = route_label(*V1)
    for _ in range(streams):
        expected = reference.attach()
        yield (
            serve_request(pool, encode_call("attach", label=label)),
            decode_reply,
            lambda got, want=expected: got == want,
        )
    at = offset
    for _ in range(steps):
        groups, want = [], []
        for _ in range(ticks):
            batch = {
                sid: capture[(at + sid) % len(capture)]
                for sid in reference.stream_ids
            }
            at += streams
            verdicts, levels = reference.observe_batch(batch)
            want += [(bool(v), int(lv)) for v, lv in zip(verdicts, levels)]
            groups.append(
                (label, [(sid, encode_stream_data(p, 0)) for sid, p in batch.items()])
            )

        def decode(resp, count=len(want)):
            rows, seconds = decode_verdicts(resp, count)
            assert len(seconds) == ticks and min(seconds) >= 0.0
            return rows

        yield (
            serve_request(pool, encode_observe(groups)),
            decode,
            lambda got, w=want: got == w,
        )
    last = reference.stream_ids[-1]
    yield (
        serve_request(pool, encode_call("seen", label=label, stream_id=last)),
        decode_reply,
        lambda got, want=reference.packages_seen(last): got == want,
    )
    stats = {
        label: {
            "stats": asdict(reference.stats),
            "streams": {
                str(sid): reference.packages_seen(sid)
                for sid in reference.stream_ids
            },
        }
    }
    yield (
        serve_request(pool, encode_call("stats")),
        decode_reply,
        lambda got: got == stats,
    )
    state = reference.state_dict()

    def same_snapshot(got):
        assert set(got) == {label}
        assert_state_equal(got[label], state)
        return True

    yield serve_request(pool, encode_call("snapshot")), decode_reply, same_snapshot
    # Moving the last stream to v2: a fresh v2 engine gives it id 0, and
    # v1's engine, once empty, is dropped from the pool.
    expected_swap = [0, reference.packages_seen(last)]
    swap = encode_call(
        "swap",
        scenario=V1[0],
        old_version=V1[1],
        new_version=V2[1],
        stream_id=last,
    )
    yield serve_request(pool, swap), decode_reply, lambda got: got == expected_swap
    assert (route_label(*V1) in pool.engines) == (streams > 1)


class TestCodecProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        streams=st.integers(1, 3),
        steps=st.integers(0, 3),
        ticks=st.integers(1, 3),
        offset=st.integers(0, 149),
        data=st.data(),
    )
    def test_responses_round_trip_and_reject_damage(
        self, detector, capture, streams, steps, ticks, offset, data
    ):
        for resp, decode, check in exchanges(
            detector, capture, streams, steps, ticks, offset
        ):
            assert check(decode(resp))
            for cut in range(len(resp)):
                with pytest.raises(WorkerError):
                    decode(resp[:cut])
            with pytest.raises(WorkerError):
                decode(resp + b"\x00")
            opcode = data.draw(
                st.integers(0, 255).filter(lambda b: bytes([b]) != resp[:1])
            )
            with pytest.raises(WorkerError):
                decode(bytes([opcode]) + resp[1:])

    def test_unknown_request_opcode_is_an_error(self, detector):
        pool = EnginePool(lambda route: detector)
        with pytest.raises(WorkerError, match="unknown opcode"):
            serve_request(pool, b"Z")
        # The retired per-op opcodes are unknown too.
        for opcode in b"IAPWST":
            with pytest.raises(WorkerError, match="unknown opcode"):
                serve_request(pool, bytes([opcode]))

    def test_unknown_or_damaged_call_is_an_error(self, detector, monkeypatch):
        pool = EnginePool(lambda route: detector)
        for name in ("init", "quit", "observe", "_engine"):
            with pytest.raises(WorkerError, match="unknown call"):
                serve_request(pool, encode_call(name))
        call = encode_call("stats")
        assert decode_reply(serve_request(pool, call)) == {}
        for damaged in (call[:-1], call + b"\x00", call[:1]):
            with pytest.raises(WorkerError):
                serve_request(pool, damaged)
        # A request or reply of another schema version is refused.
        with monkeypatch.context() as patch:
            patch.setattr(artifact, "ARTIFACT_VERSION", 0)
            stale = encode_call("stats")
            blob = artifact.state_to_bytes({"result": None}, kind=CALL_KIND)
        with pytest.raises(WorkerError, match="schema version 0"):
            serve_request(pool, stale)
        with pytest.raises(WorkerError, match="schema version 0"):
            decode_reply(b"c" + struct.pack(">I", len(blob)) + blob)


# ----------------------------------------------------------------------
# thread/process checkpoint parity
# ----------------------------------------------------------------------


def checkpoint_contents(path):
    header = read_meta(path)
    return header, load_artifact(path, kind=header["kind"])


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


class TestCheckpointParity:
    """One stream per shard, so every tick holds one row and the engine
    counters cannot depend on timing."""

    def test_single_detector_checkpoints_match(self, detector, capture, tmp_path):
        contents = {}
        for mode in ("thread", "process"):
            path = tmp_path / f"{mode}.npz"
            handle = start_in_thread(
                detector,
                GatewayConfig(
                    num_shards=2, worker_mode=mode, checkpoint_path=str(path)
                ),
            )
            try:
                replay(handle, "a", capture[:70])
                replay(handle, "b", capture[40:100])
                routes = handle.stats()["routes"]
                assert {routes["a"]["shard"], routes["b"]["shard"]} == {0, 1}
            finally:
                handle.stop()
            contents[mode] = checkpoint_contents(path)
        assert contents["thread"][0] == contents["process"][0]
        assert_state_equal(contents["thread"][1], contents["process"][1])

    def test_routed_checkpoints_match_across_a_hot_swap(
        self, scenario_detectors, tmp_path
    ):
        from repro.ics.dataset import generate_stream

        gas = scenario_detectors["gas_pipeline"]
        captures = {
            "a": generate_stream("gas_pipeline", 40, 11),
            "b": generate_stream("water_tank", 40, 12),
        }
        tags = {"a": "gas_pipeline", "b": "water_tank"}
        contents = {}
        for mode in ("thread", "process"):
            registry = ModelRegistry(tmp_path / f"registry-{mode}")
            registry.publish(gas, "gas_pipeline")
            registry.publish(scenario_detectors["water_tank"], "water_tank")
            path = tmp_path / f"{mode}.npz"
            gateway = DetectionGateway(
                config=GatewayConfig(
                    num_shards=2,
                    worker_mode=mode,
                    checkpoint_path=str(path),
                    registry_poll_seconds=0,
                ),
                registry=registry,
            )
            handle = start_in_thread(None, gateway=gateway)
            try:
                for key, capture in captures.items():
                    replay(handle, key, capture[:20], scenario=tags[key])
                registry.publish(gas, "gas_pipeline")  # v2 goes live
                wait_for(lambda: handle.stats()["swaps_applied"] == 1)
                for key, capture in captures.items():
                    assert replay(handle, key, capture).start == 20
                routes = handle.stats()["routes"]
                assert routes["a"]["version"] == 2
                assert routes["a"]["seq_base"] == 20
            finally:
                handle.stop()
            contents[mode] = checkpoint_contents(path)
        header, state = contents["thread"]
        assert header == contents["process"][0]
        assert header["meta"]["stream_routes"] == ["gas_pipeline@2", "water_tank@1"]
        assert_state_equal(state, contents["process"][1])


class TestEarlyPromote:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_promote_before_start_lands_at_start(
        self, mode, scenario_detectors, tmp_path
    ):
        """A restored gateway told to promote before it starts serves the
        new version from its first package (no poll, no subscription
        yet: only the early request can cause the swap)."""
        from repro.ics.dataset import generate_stream

        gas = scenario_detectors["gas_pipeline"]
        capture = generate_stream("gas_pipeline", 40, 11)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(gas, "gas_pipeline")
        path = tmp_path / "routed.npz"
        config = GatewayConfig(
            worker_mode=mode, checkpoint_path=str(path), registry_poll_seconds=0
        )
        handle = start_in_thread(
            None, gateway=DetectionGateway(config=config, registry=registry)
        )
        try:
            replay(handle, "a", capture[:15], scenario="gas_pipeline")
        finally:
            handle.stop()
        registry.publish(gas, "gas_pipeline")  # v2, while no gateway runs
        restored = DetectionGateway.from_checkpoint(
            str(path), config, registry=registry
        )
        restored.request_promote("gas_pipeline")
        handle = start_in_thread(None, gateway=restored)
        try:
            stats = handle.stats()
            assert stats["swaps_applied"] == 1
            assert stats["routes"]["a"]["version"] == 2
            assert stats["routes"]["a"]["seq_base"] == 15
            assert replay(handle, "a", capture).start == 15
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# a dead shard worker at shutdown
# ----------------------------------------------------------------------


def shard_workers():
    return {
        proc.name: proc
        for proc in multiprocessing.active_children()
        if proc.name.startswith("repro-shard-worker-")
    }


class TestDeadShardWorker:
    def test_stop_still_flushes_joins_and_answers(
        self, detector, capture, tmp_path
    ):
        """Shard 1's idle worker dies: stop() cannot write the shutdown
        checkpoint (it needs every shard) and says so, by the shard
        failure the failed snapshot records, but still closes the other
        worker, flushes every verdict to the historian and stops the
        loop thread; stats() keeps answering."""
        historian = Historian(tmp_path / "hist")
        threads_before = set(threading.enumerate())
        workers_before = set(shard_workers().values())
        handle = start_in_thread(
            detector,
            GatewayConfig(
                num_shards=2,
                worker_mode="process",
                checkpoint_path=str(tmp_path / "gw.npz"),
            ),
            historian=historian,
        )
        try:
            (loop_thread,) = [
                thread
                for thread in set(threading.enumerate()) - threads_before
                if thread.name == "repro-gateway"
            ]
            workers = {
                name: proc
                for name, proc in shard_workers().items()
                if proc not in workers_before
            }
            assert replay(handle, "plant", capture[:60]).judged == 60
            assert handle.stats()["routes"]["plant"]["shard"] == 0
            workers["repro-shard-worker-1"].kill()
            workers["repro-shard-worker-1"].join(10.0)
            assert not workers["repro-shard-worker-1"].is_alive()
            with pytest.raises(ShardError, match="shard 1 failed") as failure:
                handle.stop()
            assert isinstance(failure.value.__cause__, WorkerError)
            assert len(historian.query(stream_key="plant")) == 60
            loop_thread.join(10.0)
            assert not loop_thread.is_alive()
            workers["repro-shard-worker-0"].join(10.0)
            assert not workers["repro-shard-worker-0"].is_alive()
            stats = handle.stats()
            assert stats["routes"]["plant"]["packages"] == 60
            assert stats["shards"][0]["packages"] == 60
            assert stats["shards"][1]["packages"] == 0
            assert [entry["shard"] for entry in stats["failed_shards"]] == [1]
        finally:
            historian.close()


# ----------------------------------------------------------------------
# a start that fails
# ----------------------------------------------------------------------


class TestFailedStart:
    @pytest.mark.parametrize("routed", [False, True], ids=["single", "routed"])
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_failed_start_releases_what_it_started(
        self, mode, routed, detector, scenario_detectors, tmp_path
    ):
        """Binding a held port fails after the shard tasks, the worker
        processes and the registry subscription exist: none of them may
        outlive the error, and the loop is closed."""
        registry = None
        if routed:
            registry = ModelRegistry(tmp_path / "registry")
            registry.publish(scenario_detectors["gas_pipeline"], "gas_pipeline")
        gc.collect()
        threads_before = set(threading.enumerate())
        workers_before = set(shard_workers().values())
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            gateway = DetectionGateway(
                None if routed else detector,
                GatewayConfig(
                    port=held.getsockname()[1], num_shards=2, worker_mode=mode
                ),
                registry=registry,
            )
            with pytest.raises(OSError):
                start_in_thread(None, gateway=gateway)
        assert not [
            proc
            for proc in shard_workers().values()
            if proc not in workers_before and proc.is_alive()
        ]
        assert not [
            thread.name
            for thread in set(threading.enumerate()) - threads_before
            if thread.name.startswith("repro-")
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del gateway
            gc.collect()
        assert not [
            w for w in caught if "unclosed event loop" in str(w.message)
        ]
        if routed:
            assert registry._listeners == []
            # A publish after the failure must not call into the dead loop.
            registry.publish(scenario_detectors["gas_pipeline"], "gas_pipeline")
