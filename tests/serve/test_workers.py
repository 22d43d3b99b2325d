"""Multi-process shard backend: channel codec, worker lifecycle, and
the full gateway contract under ``worker_mode="process"``.

The acceptance bar does not move when compute leaves the event loop:
whatever the backend, verdicts must be **bit-identical** to offline
``detect()`` — through kills, checkpoint resumes (in either mode, from
either mode's checkpoint), hot-swaps and tiny-queue backpressure.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.persistence import parse_route_label, route_label
from repro.registry import ModelRegistry
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient
from repro.serve.transport import (
    KIND_OPEN_ACK,
    MbapDecoder,
    encode_open,
    encode_stream_data,
    wrap_pdu,
)
from repro.serve.workers import (
    CALL_KIND,
    SINGLE_LABEL,
    WorkerError,
    WorkerHandle,
    _init_pool,
    decode_reply,
    decode_verdicts,
    encode_call,
    encode_observe,
)
from repro.utils import artifact
from repro.utils.artifact import state_from_bytes, state_to_bytes


@pytest.fixture()
def offline(detector, capture):
    return detector.detect(capture)


def process_gateway(detector, **config):
    return start_in_thread(
        detector, GatewayConfig(worker_mode="process", **config)
    )


class TestChannelCodec:
    def test_pool_label_round_trips_single_and_routed(self):
        assert route_label(None, None) == SINGLE_LABEL
        assert parse_route_label(SINGLE_LABEL) == (None, None)
        label = route_label("gas_pipeline", 3)
        assert "@" in label  # can never collide with the single slot
        assert parse_route_label(label) == ("gas_pipeline", 3)

    def test_init_frame_requires_exactly_one_mode(self, detector):
        with pytest.raises(WorkerError, match="exactly one"):
            _init_pool(encode_call("init", pool={}))
        with pytest.raises(WorkerError, match="exactly one"):
            _init_pool(
                encode_call(
                    "init",
                    detector=detector.state_dict(),
                    registry_root="/tmp/registry",
                    pool={},
                )
            )
        # Only INIT may open the pipe, whatever the first frame is.
        for first in (encode_call("stats"), encode_observe([]), b"I"):
            with pytest.raises(WorkerError, match="before INIT"):
                _init_pool(first)
        pool = _init_pool(
            encode_call("init", detector=detector.state_dict(), pool={})
        )
        assert pool.engines == {}

    def test_verdict_row_count_mismatch_is_fatal(self):
        import struct

        # Two rows plus the per-group timing trailer (one group).
        resp = b"o" + bytes((1, 2, 0, 0)) + struct.pack(">H", 1)
        resp += struct.pack(">d", 0.25)
        verdicts, timings = decode_verdicts(resp, 2)
        assert verdicts == [(True, 2), (False, 0)]
        assert timings == [0.25]
        with pytest.raises(WorkerError, match="expected 3"):
            decode_verdicts(resp, 3)
        # A response truncated mid-trailer is fatal too.
        with pytest.raises(WorkerError, match="expected 2"):
            decode_verdicts(resp[:-4], 2)

    def test_engine_state_blob_round_trips(self, detector):
        engine = detector.engine(2)
        blob = state_to_bytes({SINGLE_LABEL: engine.state_dict()}, kind=CALL_KIND)
        restored = state_from_bytes(blob, kind=CALL_KIND)
        assert set(restored) == {SINGLE_LABEL}
        assert list(restored[SINGLE_LABEL]["stream_ids"]) == list(
            engine.stream_ids
        )
        with pytest.raises(Exception, match="state blob"):
            state_from_bytes(blob, kind="something-else")


class TestWorkerHandle:
    def test_worker_serves_full_op_cycle(self, detector, capture, monkeypatch):
        """One spawned worker exercises both frame shapes and every
        control call, and its verdicts match an identically-driven
        in-process engine."""
        handle = WorkerHandle(0)
        try:
            # Ops before INIT are an error response, not a dead worker.
            with pytest.raises(WorkerError, match="before INIT"):
                handle.call_sync(encode_call("attach", label=SINGLE_LABEL))
            # So is an INIT with both (or neither) model sources.
            with pytest.raises(WorkerError, match="exactly one"):
                handle.call_sync(encode_call("init", pool={}))
            # A container of another schema version fails across the pipe.
            with monkeypatch.context() as patch:
                patch.setattr(artifact, "ARTIFACT_VERSION", 0)
                stale = encode_call("init", detector=detector.state_dict(), pool={})
            with pytest.raises(WorkerError, match="schema version 0"):
                handle.call_sync(stale)

            init = encode_call("init", detector=detector.state_dict(), pool={})
            assert decode_reply(handle.call_sync(init)) is None
            sid = decode_reply(
                handle.call_sync(encode_call("attach", label=SINGLE_LABEL))
            )

            reference = detector.engine(0)
            ref_sid = reference.attach()
            for package in capture[:8]:
                wire = encode_observe(
                    [(SINGLE_LABEL, [(sid, encode_stream_data(package, 0))])]
                )
                (verdict,), timings = decode_verdicts(handle.call_sync(wire), 1)
                expected, levels = reference.observe_batch({ref_sid: package})
                assert verdict == (bool(expected[0]), int(levels[0]))
                assert len(timings) == 1 and timings[0] >= 0.0

            call = encode_call("seen", label=SINGLE_LABEL, stream_id=sid)
            assert decode_reply(handle.call_sync(call)) == 8

            stats = decode_reply(handle.call_sync(encode_call("stats")))
            assert stats[SINGLE_LABEL]["streams"] == {str(sid): 8}
            assert stats[SINGLE_LABEL]["stats"]["packages"] == 8

            snapshot = decode_reply(handle.call_sync(encode_call("snapshot")))
            assert set(snapshot) == {SINGLE_LABEL}
            assert list(snapshot[SINGLE_LABEL]["stream_ids"]) == [sid]

            with pytest.raises(WorkerError, match="unknown call 'init'"):
                handle.call_sync(init)
        finally:
            handle.close()

    def test_killed_worker_fails_calls_not_hangs(self):
        handle = WorkerHandle(0)
        handle.kill()
        with pytest.raises(WorkerError):
            handle.call_sync(encode_call("attach", label=SINGLE_LABEL), timeout=30.0)


class TestProcessGateway:
    def test_process_mode_matches_thread_mode_and_offline(
        self, detector, capture, offline
    ):
        for shards in (1, 2):
            handle = process_gateway(detector, num_shards=shards)
            try:
                host, port = handle.address
                result = ReplayClient(host, port, stream_key="plant").replay(
                    capture
                )
                assert result.complete and result.start == 0
                assert np.array_equal(result.anomalies, offline.is_anomaly)
                assert np.array_equal(result.levels, offline.level)
                stats = handle.stats()
                assert stats["processed"] == len(capture)
                assert stats["routes"]["plant"]["packages"] == len(capture)
                # Engine counters come from the workers and must add up
                # exactly like the in-process backend's.
                assert (
                    sum(s.get("packages", 0) for s in stats["shards"])
                    == len(capture)
                )
                assert stats["transport"]["modbus"]["frames_decoded"] > 0
            finally:
                handle.stop()
            # stats() keeps answering after the workers are gone.
            assert handle.stats()["processed"] == len(capture)

    def test_concurrent_streams_shard_across_workers(self, detector, capture):
        num_clients = 3
        slices = [capture[i::num_clients] for i in range(num_clients)]
        expected = [detector.detect(s) for s in slices]
        handle = process_gateway(detector, num_shards=2)
        try:
            host, port = handle.address
            results: dict[int, object] = {}

            def run(i):
                client = ReplayClient(host, port, stream_key=f"plant-{i}")
                results[i] = client.replay(slices[i])

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(num_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            for i in range(num_clients):
                assert results[i].complete, f"client {i} incomplete"
                assert np.array_equal(
                    results[i].anomalies, expected[i].is_anomaly
                ), f"client {i} diverged from offline detection"
                assert np.array_equal(results[i].levels, expected[i].level)
            assert handle.stats()["processed"] == sum(len(s) for s in slices)
        finally:
            handle.stop()

    def test_concurrent_opens_bind_to_different_shards(self, detector):
        """Two OPENs that race the ATTACH round trip still spread out.

        Both frames are on the wire before the gateway answers either,
        so the second OPEN picks its shard while the first one's ATTACH
        is still in flight to its worker.
        """
        handle = process_gateway(detector, num_shards=2)
        sockets = []
        try:
            sockets = [
                socket.create_connection(handle.address, 10.0) for _ in range(2)
            ]
            for number, sock in enumerate(sockets):
                sock.sendall(wrap_pdu(encode_open(f"race-{number}"), 1))
            for sock in sockets:
                sock.settimeout(10.0)
                decoder, frames = MbapDecoder(), []
                while not frames:
                    data = sock.recv(65536)
                    assert data, "gateway closed before OPEN_ACK"
                    frames = decoder.feed(data)
                assert frames[0].kind == KIND_OPEN_ACK
            routes = handle.stats()["routes"]
            assert {routes[f"race-{n}"]["shard"] for n in range(2)} == {0, 1}
        finally:
            for sock in sockets:
                sock.close()
            handle.stop()

    def test_queued_packages_cost_one_observe_round_trip(
        self, detector, capture
    ):
        """k packages queued together on a shard cross its worker pipe
        in one OBSERVE and still step its engine k times.

        Each client sends its whole window in one write, so the gateway
        queues all k packages before the shard drains its queue.
        """
        k = 8
        expected = detector.detect(capture[:k])
        metrics = MetricsRegistry()
        handle = start_in_thread(
            detector,
            GatewayConfig(num_shards=2, worker_mode="process"),
            metrics=metrics,
        )
        try:
            host, port = handle.address
            for key in ("plant-0", "plant-1"):
                result = ReplayClient(
                    host, port, stream_key=key, window=k
                ).replay(capture[:k])
                assert result.complete and result.start == 0
                assert np.array_equal(result.anomalies, expected.is_anomaly)
                assert np.array_equal(result.levels, expected.level)
            stats = handle.stats()
        finally:
            handle.stop()
        assert {stats["routes"][key]["shard"] for key in stats["routes"]} == {0, 1}
        assert [shard["ticks"] for shard in stats["shards"]] == [k, k]
        round_trips = [
            metrics.histogram(
                "worker_pipe_roundtrip_seconds", op="observe", worker=str(i)
            ).count
            for i in range(2)
        ]
        assert round_trips == [1, 1]

    def test_kill_and_resume_is_bit_identical(
        self, detector, capture, offline, tmp_path
    ):
        """The thread-mode fail-over drill, re-run with worker
        processes: periodic checkpoints coordinate across workers and a
        hard kill resumes bit-identically."""
        checkpoint = tmp_path / "gateway.npz"
        first_handle = process_gateway(
            detector,
            num_shards=2,
            checkpoint_path=str(checkpoint),
            checkpoint_every=40,
        )
        host, port = first_handle.address
        prefix = 100
        first = ReplayClient(host, port, stream_key="plant").replay(
            capture[:prefix]
        )
        assert first.complete
        assert first_handle.stats()["checkpoints_written"] >= 1
        first_handle.stop(checkpoint=False)  # crash: periodic snapshot only

        gateway = DetectionGateway.from_checkpoint(
            str(checkpoint), GatewayConfig(worker_mode="process")
        )
        second_handle = start_in_thread(None, gateway=gateway)
        try:
            host, port = second_handle.address
            second = ReplayClient(host, port, stream_key="plant").replay(capture)
            assert second.complete
            resumed_at = second.start
            assert 0 < resumed_at <= prefix
            assert resumed_at % 40 == 0
            anomalies = np.concatenate(
                [first.anomalies[:resumed_at], second.anomalies]
            )
            levels = np.concatenate([first.levels[:resumed_at], second.levels])
            assert np.array_equal(anomalies, offline.is_anomaly)
            assert np.array_equal(levels, offline.level)
        finally:
            second_handle.stop()

    def test_checkpoints_interchange_between_worker_modes(
        self, detector, capture, offline, tmp_path
    ):
        """Per-worker snapshots merge into the *same* on-disk format the
        in-process backend writes: a checkpoint taken in either mode
        resumes in the other, bit for bit."""
        boundary = 60
        for first_mode, second_mode in (
            ("thread", "process"),
            ("process", "thread"),
        ):
            checkpoint = tmp_path / f"{first_mode}-to-{second_mode}.npz"
            handle = start_in_thread(
                detector,
                GatewayConfig(
                    num_shards=2,
                    worker_mode=first_mode,
                    checkpoint_path=str(checkpoint),
                ),
            )
            host, port = handle.address
            first = ReplayClient(host, port, stream_key="plant").replay(
                capture[:boundary]
            )
            assert first.complete
            handle.stop(checkpoint=True)

            gateway = DetectionGateway.from_checkpoint(
                str(checkpoint), GatewayConfig(worker_mode=second_mode)
            )
            handle2 = start_in_thread(None, gateway=gateway)
            try:
                host, port = handle2.address
                second = ReplayClient(host, port, stream_key="plant").replay(
                    capture
                )
                assert second.start == boundary  # nothing re-judged
                anomalies = np.concatenate([first.anomalies, second.anomalies])
                levels = np.concatenate([first.levels, second.levels])
                assert np.array_equal(anomalies, offline.is_anomaly), (
                    f"{first_mode} -> {second_mode} diverged"
                )
                assert np.array_equal(levels, offline.level)
            finally:
                handle2.stop()

    def test_backpressure_under_tiny_queue(self, detector, capture, offline):
        """Tiny shard queues with worker processes: overload suspends
        the reader, serves everything, loses nothing, deadlocks never."""
        handle = process_gateway(detector, max_pending=1)
        try:
            host, port = handle.address
            result = ReplayClient(
                host, port, stream_key="slow", window=64
            ).replay(capture)
            assert result.complete
            assert result.judged == len(capture)  # no silent loss
            assert np.array_equal(result.anomalies, offline.is_anomaly)
        finally:
            handle.stop()


class TestRoutedProcessGateway:
    def routed_process_gateway(self, registry, **config):
        gateway = DetectionGateway(
            config=GatewayConfig(worker_mode="process", **config),
            registry=registry,
        )
        return start_in_thread(None, gateway=gateway)

    def test_tagged_streams_route_per_scenario(
        self, registry, scenario_detectors
    ):
        from repro.ics.dataset import generate_stream

        captures = {
            name: generate_stream(name, 30, 11)
            for name in ("gas_pipeline", "water_tank")
        }
        handle = self.routed_process_gateway(registry, num_shards=2)
        try:
            host, port = handle.address
            results = {}
            for name, capture in captures.items():
                client = ReplayClient(
                    host, port, stream_key=f"site-{name}", scenario=name
                )
                results[name] = client.replay(capture)
            stats = handle.stats()
            for name, result in results.items():
                assert result.complete
                offline = scenario_detectors[name].detect(captures[name])
                assert np.array_equal(result.anomalies, offline.is_anomaly)
                assert np.array_equal(result.levels, offline.level)
                route = stats["routes"][f"site-{name}"]
                assert route["scenario"] == name
                assert route["packages"] == len(captures[name])
        finally:
            handle.stop()

    def test_hot_swap_drains_inside_workers_without_drops(
        self, tmp_path, scenario_detectors
    ):
        """Promote v2 while a replay is mid-flight through worker
        processes: zero packages dropped or re-judged, and the stitched
        stream is v1-offline before the boundary, v2-offline after."""
        from repro.core.combined import CombinedDetector, DetectorConfig
        from repro.core.timeseries_detector import TimeSeriesDetectorConfig
        from repro.ics.dataset import generate_dataset, generate_stream
        from repro.scenarios import get_scenario

        dataset = generate_dataset(
            get_scenario("gas_pipeline").dataset_config(num_cycles=250), seed=3
        )
        gas_v2, _ = CombinedDetector.train(
            dataset.train_fragments,
            dataset.validation_fragments,
            DetectorConfig(
                timeseries=TimeSeriesDetectorConfig(hidden_sizes=(8,), epochs=1)
            ),
            rng=5,
        )
        capture = generate_stream("gas_pipeline", 60, 13)
        own = ModelRegistry(tmp_path / "swap")
        v1 = scenario_detectors["gas_pipeline"]
        own.publish(v1, "gas_pipeline")
        handle = self.routed_process_gateway(own, max_pending=8)
        try:
            host, port = handle.address

            def promote_mid_flight():
                deadline = time.monotonic() + 20.0
                while handle.stats()["processed"] < len(capture) // 4:
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.002)
                own.publish(gas_v2, "gas_pipeline")  # activates v2

            publisher = threading.Thread(target=promote_mid_flight)
            publisher.start()
            result = ReplayClient(
                host, port, stream_key="plant", scenario="gas_pipeline", window=8
            ).replay(capture)
            publisher.join(30.0)

            assert result.complete
            assert result.judged == len(capture)  # zero dropped packages
            stats = handle.stats()
            assert stats["swaps_applied"] == 1
            boundary = stats["routes"]["plant"]["seq_base"]
            assert 0 < boundary < len(capture), "swap missed the live window"
            expected_head = v1.detect(capture[:boundary])
            expected_tail = gas_v2.detect(capture[boundary:])
            assert np.array_equal(
                result.anomalies,
                np.concatenate(
                    [expected_head.is_anomaly, expected_tail.is_anomaly]
                ),
            )
            assert np.array_equal(
                result.levels,
                np.concatenate([expected_head.level, expected_tail.level]),
            )
            assert stats["routes"]["plant"]["version"] == 2
        finally:
            handle.stop()

    def test_routed_checkpoint_resumes_in_process_mode(
        self, tmp_path, registry, scenario_detectors
    ):
        """Routed checkpoint round trip with worker processes on both
        sides: the route table, per-dialect transport counters and every
        engine's recurrent state survive the merge."""
        from repro.ics.dataset import generate_stream

        capture = generate_stream("gas_pipeline", 30, 11)
        checkpoint = tmp_path / "routed.npz"
        gateway = DetectionGateway(
            config=GatewayConfig(
                num_shards=2,
                worker_mode="process",
                checkpoint_path=str(checkpoint),
            ),
            registry=registry,
        )
        handle = start_in_thread(None, gateway=gateway)
        host, port = handle.address
        half = len(capture) // 2
        first = ReplayClient(
            host, port, stream_key="a", scenario="gas_pipeline"
        ).replay(capture[:half])
        assert first.complete
        frames_before = handle.stats()["transport"]["modbus"]["frames_decoded"]
        handle.stop(checkpoint=True)

        restored = DetectionGateway.from_checkpoint(
            str(checkpoint),
            GatewayConfig(worker_mode="process"),
            registry=registry,
        )
        handle2 = start_in_thread(None, gateway=restored)
        try:
            host, port = handle2.address
            assert (
                handle2.stats()["transport"]["modbus"]["frames_decoded"]
                == frames_before
            )
            second = ReplayClient(host, port, stream_key="a").replay(capture)
            assert second.start == half
            stitched = np.concatenate([first.anomalies, second.anomalies])
            offline = scenario_detectors["gas_pipeline"].detect(capture)
            assert np.array_equal(stitched, offline.is_anomaly)
            assert handle2.stats()["routes"]["a"]["scenario"] == "gas_pipeline"
        finally:
            handle2.stop()
