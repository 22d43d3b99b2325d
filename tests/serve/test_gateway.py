"""End-to-end gateway tests over real sockets.

The acceptance bar: a replay client streaming a labelled capture
through a live gateway gets alert decisions **bit-identical** to
offline ``CombinedDetector.detect()`` on the same packages, and killing
the gateway mid-capture then resuming from its periodic checkpoint
changes no decision.
"""

from __future__ import annotations

import asyncio
import math
import socket
import struct
import threading
import time
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ics.features import FEATURE_NAMES
from repro.persistence import (
    SINGLE_LABEL,
    RouteBinding,
    load_gateway_checkpoint,
    save_gateway_checkpoint,
)
from repro.serve.alerts import AlertPipeline
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient, ReplayError
from repro.serve.transport import (
    KIND_ERROR,
    KIND_OPEN_ACK,
    KIND_VERDICT,
    MbapDecoder,
    decode_open_ack,
    decode_verdict,
    encode_data,
    encode_open,
    wrap_pdu,
)
from repro.utils.artifact import ArtifactError, read_meta


@pytest.fixture()
def offline(detector, capture):
    return detector.detect(capture)


def collect_frames(sock, decoder, count, timeout=10.0):
    """Read until ``count`` frames arrived (or time out)."""
    sock.settimeout(timeout)
    frames = []
    while len(frames) < count:
        data = sock.recv(65536)
        if not data:
            break
        frames.extend(decoder.feed(data))
    return frames


class TestEndToEnd:
    def test_replay_matches_offline_detection_bit_identically(
        self, detector, capture, offline
    ):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            host, port = handle.address
            result = ReplayClient(host, port, stream_key="plant-a").replay(capture)
            assert result.complete and result.start == 0
            assert np.array_equal(result.anomalies, offline.is_anomaly)
            assert np.array_equal(result.levels, offline.level)
            stats = handle.stats()
            assert stats["processed"] == len(capture)
            assert stats["shards"][0]["packages"] == len(capture)
            assert stats["alerts"]["emitted"] >= 1
        finally:
            handle.stop()

    def test_line_noise_changes_no_decision(self, detector, capture, offline):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            host, port = handle.address
            client = ReplayClient(
                host, port, stream_key="noisy", noise_every=5, noise_bytes=64
            )
            result = client.replay(capture)
            assert result.complete
            assert np.array_equal(result.anomalies, offline.is_anomaly)
            assert np.array_equal(result.levels, offline.level)
            assert handle.stats()["bytes_discarded"] > 0
        finally:
            handle.stop()

    def test_concurrent_streams_one_per_shard_match_offline(
        self, detector, capture
    ):
        """With one stream per shard every batch has one row, so each
        client must reproduce offline detection exactly — concurrently."""
        num_clients = 3
        slices = [capture[i::num_clients] for i in range(num_clients)]
        expected = [detector.detect(s) for s in slices]
        handle = start_in_thread(detector, GatewayConfig(num_shards=num_clients))
        try:
            host, port = handle.address
            results: dict[int, object] = {}

            def run(i):
                client = ReplayClient(host, port, stream_key=f"plant-{i}")
                results[i] = client.replay(slices[i])

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(num_clients)
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
            stats = handle.stats()
            assert stats["streams"] == num_clients
            assert stats["processed"] == sum(len(s) for s in slices)
        finally:
            handle.stop()

    def test_concurrent_streams_share_one_shard(self, detector, capture):
        """Many sessions on one engine: everything is served, per-stream
        counts add up, and batching happens through one worker."""
        num_clients = 4
        slices = [capture[i::num_clients] for i in range(num_clients)]
        handle = start_in_thread(detector, GatewayConfig(num_shards=1))
        try:
            host, port = handle.address
            results: dict[int, object] = {}

            def run(i):
                client = ReplayClient(host, port, stream_key=f"s{i}", window=8)
                results[i] = client.replay(slices[i])

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(num_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            total = sum(len(s) for s in slices)
            for i in range(num_clients):
                assert results[i].complete
                assert results[i].judged == len(slices[i])
                # Whatever the batch composition, an alert always carries
                # a level tag and vice versa.
                anomalies, levels = results[i].anomalies, results[i].levels
                assert np.array_equal(anomalies, levels != 0)
            stats = handle.stats()
            assert stats["shards"][0]["packages"] == total
            assert stats["processed"] == total
        finally:
            handle.stop()

    def test_reconnect_resumes_where_the_stream_left_off(
        self, detector, capture, offline
    ):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            host, port = handle.address
            half = len(capture) // 2
            first = ReplayClient(host, port, stream_key="plant-a").replay(
                capture[:half]
            )
            assert first.complete and first.start == 0
            second = ReplayClient(host, port, stream_key="plant-a").replay(capture)
            assert second.start == half
            assert second.judged == len(capture) - half
            anomalies = np.concatenate([first.anomalies, second.anomalies])
            levels = np.concatenate([first.levels, second.levels])
            assert np.array_equal(anomalies, offline.is_anomaly)
            assert np.array_equal(levels, offline.level)
        finally:
            handle.stop()


class TestFailover:
    def test_kill_and_resume_changes_no_decision(
        self, detector, capture, offline, tmp_path
    ):
        checkpoint = tmp_path / "gateway.npz"
        config = GatewayConfig(
            checkpoint_path=str(checkpoint), checkpoint_every=40
        )
        first_handle = start_in_thread(detector, config)
        host, port = first_handle.address
        prefix = 100
        first = ReplayClient(host, port, stream_key="plant-a").replay(
            capture[:prefix]
        )
        assert first.complete
        assert first_handle.stats()["checkpoints_written"] >= 1
        # Hard kill: no shutdown checkpoint — resume must come from the
        # last periodic one, exactly like a crash.
        first_handle.stop(checkpoint=False)

        gateway = DetectionGateway.from_checkpoint(str(checkpoint))
        second_handle = start_in_thread(None, gateway=gateway)
        try:
            host, port = second_handle.address
            second = ReplayClient(host, port, stream_key="plant-a").replay(capture)
            assert second.complete
            resumed_at = second.start
            assert 0 < resumed_at <= prefix
            assert resumed_at % 40 == 0  # a periodic checkpoint boundary

            # Replayed overlap reproduces the pre-kill verdicts...
            overlap = prefix - resumed_at
            assert np.array_equal(
                first.anomalies[resumed_at:], second.anomalies[:overlap]
            )
            # ...and the stitched run is the uninterrupted offline run.
            anomalies = np.concatenate(
                [first.anomalies[:resumed_at], second.anomalies]
            )
            levels = np.concatenate([first.levels[:resumed_at], second.levels])
            assert np.array_equal(anomalies, offline.is_anomaly)
            assert np.array_equal(levels, offline.level)
        finally:
            second_handle.stop()

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_periodic_checkpoint_cuts_a_multi_tick_drain(
        self, mode, detector, capture, tmp_path
    ):
        """Two streams on one engine tick at most two rows at a time, so
        the first periodic checkpoint lands on the first tick boundary at
        or past the due count, however many ticks the drain that crossed
        it held.  An odd interval puts that boundary inside a tick."""
        every = 101
        checkpoint = tmp_path / "gateway.npz"
        handle = start_in_thread(
            detector,
            GatewayConfig(
                worker_mode=mode,
                checkpoint_path=str(checkpoint),
                checkpoint_every=every,
            ),
        )
        host, port = handle.address
        halves = {"north": capture[0::2], "south": capture[1::2]}
        results = {}

        def run(key):
            results[key] = ReplayClient(host, port, stream_key=key).replay(
                halves[key]
            )

        threads = [threading.Thread(target=run, args=(key,)) for key in halves]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert set(results) == set(halves)
            assert all(result.complete for result in results.values())
            assert handle.stats()["checkpoints_written"] == 1
        finally:
            handle.stop(checkpoint=False)
        processed = read_meta(str(checkpoint))["meta"]["processed"]
        assert every <= processed < every + 2
        routes = DetectionGateway.from_checkpoint(
            str(checkpoint), detector=detector
        ).stats()["routes"]
        assert sum(route["packages"] for route in routes.values()) == processed

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_periodic_checkpoint_is_a_consistent_snapshot(
        self, mode, detector, capture, tmp_path
    ):
        """A periodic checkpoint's drift-monitor state covers exactly
        the packages its engines have seen, so a kill and a resume from
        it end in the monitor state of an uninterrupted run."""

        def run(handle, packages):
            host, port = handle.address
            try:
                result = ReplayClient(host, port, stream_key="plant").replay(
                    packages
                )
                assert result.complete
            finally:
                handle.stop(checkpoint=False)
            return result, handle.gateway.monitors.state_dict()

        _, uninterrupted = run(
            start_in_thread(detector, GatewayConfig(worker_mode=mode)), capture
        )
        checkpoint = tmp_path / "gateway.npz"
        run(
            start_in_thread(
                detector,
                GatewayConfig(
                    worker_mode=mode,
                    checkpoint_path=str(checkpoint),
                    checkpoint_every=40,
                ),
            ),
            capture[:100],
        )
        resumed, state = run(
            start_in_thread(
                None,
                gateway=DetectionGateway.from_checkpoint(
                    str(checkpoint), GatewayConfig(worker_mode=mode),
                    detector=detector,
                ),
            ),
            capture,
        )
        assert resumed.start == 80
        assert state == uninterrupted

    def test_shutdown_checkpoint_resumes_exactly(self, detector, capture, tmp_path):
        checkpoint = tmp_path / "gateway.npz"
        config = GatewayConfig(checkpoint_path=str(checkpoint))
        handle = start_in_thread(detector, config)
        host, port = handle.address
        ReplayClient(host, port, stream_key="plant-a").replay(capture[:60])
        handle.stop(checkpoint=True)  # graceful: snapshot at shutdown

        gateway = DetectionGateway.from_checkpoint(str(checkpoint))
        handle2 = start_in_thread(None, gateway=gateway)
        try:
            host, port = handle2.address
            result = ReplayClient(host, port, stream_key="plant-a").replay(capture)
            assert result.start == 60  # nothing re-judged
        finally:
            handle2.stop()

    @staticmethod
    def single_pools(engines):
        return [{SINGLE_LABEL: engine.state_dict()} for engine in engines]

    @staticmethod
    def bind(shard, stream_id):
        return RouteBinding(shard, None, None, stream_id)

    def test_checkpoint_topology_overrides_config(self, detector, capture, tmp_path):
        path = tmp_path / "gateway.npz"
        engines = [detector.engine(1), detector.engine(0), detector.engine(0)]
        save_gateway_checkpoint(
            path,
            self.single_pools(engines),
            {"k": self.bind(0, engines[0].stream_ids[0])},
            detector=detector,
        )
        gateway = DetectionGateway.from_checkpoint(
            str(path), GatewayConfig(num_shards=1)
        )
        assert gateway.config.num_shards == 3

    def test_torn_binding_table_rejected(self, detector, tmp_path):
        path = tmp_path / "gateway.npz"
        engine = detector.engine(1)
        pools = self.single_pools([engine])
        with pytest.raises(ValueError):
            save_gateway_checkpoint(
                path, pools, {"k": self.bind(0, 999)},  # unattached stream
                detector=detector,
            )
        with pytest.raises(ValueError):
            save_gateway_checkpoint(
                path, pools, {"k": self.bind(5, engine.stream_ids[0])},
                detector=detector,
            )

    def test_gateway_checkpoint_roundtrip(self, detector, tmp_path):
        path = tmp_path / "gateway.npz"
        engines = [detector.engine(2), detector.engine(1)]
        bindings = {
            "a": self.bind(0, engines[0].stream_ids[0]),
            "b": self.bind(0, engines[0].stream_ids[1]),
            "c": self.bind(1, engines[1].stream_ids[0]),
        }
        save_gateway_checkpoint(
            path, self.single_pools(engines), bindings, meta={"x": 1},
            detector=detector,
        )
        restored = load_gateway_checkpoint(path)
        assert restored.bindings == bindings
        assert [len(pool) for pool in restored.pools] == [1, 1]
        assert [pool[SINGLE_LABEL].num_streams for pool in restored.pools] == [2, 1]
        assert restored.meta == {"x": 1}

    def test_wrong_kind_artifact_rejected(self, detector, tmp_path):
        from repro.persistence import save_detector

        path = tmp_path / "detector.npz"
        save_detector(detector, path)
        with pytest.raises(ArtifactError):
            load_gateway_checkpoint(path)


class TestDrainSplit:
    """Where a shard cuts the packages it took from its queue into
    drains, each one pool call."""

    @staticmethod
    def pending(routes):
        """One queue item per ``(scenario, stream_id)``, in order."""
        return deque(
            (
                SimpleNamespace(
                    route=RouteBinding(0, scenario, 1, stream_id)
                ),
                seq, None, None,
            )
            for seq, (scenario, stream_id) in enumerate(routes)
        )

    def test_cut_before_the_observe_group_limit(self, detector, monkeypatch):
        monkeypatch.setattr("repro.serve.gateway.OBSERVE_MAX_GROUPS", 5)
        shard = DetectionGateway(detector)._shards[0]
        pending = self.pending([("a", 0), ("b", 0)] * 4)
        batches, counts, rest = shard._take_ticks(pending)
        # Two groups a tick: a third tick would make six.
        assert counts == [2, 2]
        assert [label for label, _ in batches] == ["a@1", "b@1"] * 2
        assert [item[1] for item in rest] == [4, 5, 6, 7]

    def test_cut_at_the_tick_a_checkpoint_falls_due(self, detector, tmp_path):
        gateway = DetectionGateway(
            detector,
            GatewayConfig(
                checkpoint_path=str(tmp_path / "gateway.npz"),
                checkpoint_every=5,
            ),
        )
        gateway._since_checkpoint = 2
        pending = self.pending([("a", 0), ("a", 1)] * 4)
        batches, counts, rest = gateway._shards[0]._take_ticks(pending)
        assert counts == [2, 2]  # 4 and 6 packages: due at the second
        assert [sorted(by_stream) for _, by_stream in batches] == [[0, 1]] * 2
        assert [item[1] for item in rest] == [4, 5, 6, 7]


class TestSettle:
    def test_returns_once_the_loop_stops(self, detector):
        """settle() queues a callback on the gateway's loop.  A loop
        that stops before reaching it never runs it, so settle() has to
        notice the stop rather than wait out its whole deadline."""
        gateway = DetectionGateway(detector)
        loop = asyncio.new_event_loop()
        try:
            loop.run_until_complete(gateway.start())
            busy = threading.Event()

            def last_step():
                busy.set()
                time.sleep(0.3)  # settle() queues its callback meanwhile
                loop.stop()  # so the loop stops before it runs it

            loop.call_soon(last_step)
            thread = threading.Thread(target=loop.run_forever)
            thread.start()
            assert busy.wait(5.0)
            started = time.perf_counter()
            gateway.settle()
            waited = time.perf_counter() - started
            thread.join(5.0)
            assert not thread.is_alive()
            assert waited < 2.0
        finally:
            loop.run_until_complete(gateway.stop(checkpoint=False))
            loop.close()


class TestProtocolEdges:
    def open_stream(self, address, key="raw"):
        sock = socket.create_connection(address, 10.0)
        decoder = MbapDecoder()
        sock.sendall(wrap_pdu(encode_open(key), 1))
        frames = collect_frames(sock, decoder, 1)
        assert frames[0].kind == KIND_OPEN_ACK
        _, seen = decode_open_ack(frames[0].pdu)
        return sock, decoder, seen

    def test_second_connection_on_live_key_rejected(self, detector, capture):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            sock, _, _ = self.open_stream(handle.address, "dup")
            rival = socket.create_connection(handle.address, 10.0)
            rival.sendall(wrap_pdu(encode_open("dup"), 1))
            frames = collect_frames(rival, MbapDecoder(), 1)
            assert frames and frames[0].kind == KIND_ERROR
            rival.close()
            sock.close()
        finally:
            handle.stop()

    def test_out_of_order_seq_is_fatal(self, detector, capture):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            sock, decoder, seen = self.open_stream(handle.address)
            assert seen == 0
            sock.sendall(
                wrap_pdu(encode_data(capture[0], 17), 2)  # expected seq 0
            )
            frames = collect_frames(sock, decoder, 1)
            assert frames and frames[0].kind == KIND_ERROR
            sock.close()
        finally:
            handle.stop()

    def test_corrupt_embedded_rtu_is_counted_and_dropped(self, detector, capture):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            sock, decoder, _ = self.open_stream(handle.address)
            corrupt = bytearray(encode_data(capture[0], 0))
            corrupt[-1] ^= 0x01  # break the embedded RTU CRC
            sock.sendall(wrap_pdu(bytes(corrupt), 2))
            # The mangled package is dropped, the session survives: the
            # next valid package still gets verdict seq 0.
            sock.sendall(wrap_pdu(encode_data(capture[0], 0), 3))
            frames = collect_frames(sock, decoder, 1)
            assert frames and frames[0].kind == KIND_VERDICT
            deadline = time.monotonic() + 5.0
            while handle.stats()["crc_errors"] < 1:
                assert time.monotonic() < deadline, "crc error never counted"
                time.sleep(0.01)
            sock.close()
        finally:
            handle.stop()

    @pytest.mark.parametrize(
        "mode, field, position",
        [
            ("thread", "address", 0),
            ("process", "address", 0),
            ("thread", "time", 1),
            ("process", "time", 1),
        ],
    )
    def test_record_without_address_or_time_spares_its_shard(
        self, detector, capture, offline, mode, field, position
    ):
        """A DATA record whose ``address`` (or, on a stream's second
        package, ``time``) is NaN is counted malformed and dropped, like
        any bad record: the shard keeps judging the sender's retransmit
        and a bystander stream on the same shard."""
        handle = start_in_thread(
            detector, GatewayConfig(num_shards=1, worker_mode=mode)
        )
        try:
            sender, sender_frames, _ = self.open_stream(handle.address, "sender")
            bystander, bystander_frames, _ = self.open_stream(
                handle.address, "bystander"
            )
            for seq in range(position):
                sender.sendall(wrap_pdu(encode_data(capture[seq], seq), 2 + seq))
            poisoned = bytearray(encode_data(capture[position], position))
            offset = 1 + 4 + 1 + FEATURE_NAMES.index(field) * 8
            poisoned[offset : offset + 8] = struct.pack(">d", math.nan)
            sender.sendall(wrap_pdu(bytes(poisoned), 10))
            # The dropped PDU counts as never received: send it again.
            sender.sendall(
                wrap_pdu(encode_data(capture[position], position), 11)
            )
            count = 5
            for seq in range(count):
                bystander.sendall(wrap_pdu(encode_data(capture[seq], seq), 2 + seq))
            for sock, decoder, expected in (
                (bystander, bystander_frames, count),
                (sender, sender_frames, position + 1),
            ):
                frames = collect_frames(sock, decoder, expected, timeout=5.0)
                verdicts = [decode_verdict(frame.pdu) for frame in frames]
                assert [frame.kind for frame in frames] == [KIND_VERDICT] * expected
                assert [seq for seq, _, _ in verdicts] == list(range(expected))
                assert [anomaly for _, anomaly, _ in verdicts] == (
                    offline.is_anomaly[:expected].tolist()
                )
            assert handle.stats()["malformed"] == 1
            sender.close()
            bystander.close()
        finally:
            handle.stop()

    def test_data_before_open_is_fatal(self, detector, capture):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            sock = socket.create_connection(handle.address, 10.0)
            sock.sendall(wrap_pdu(encode_data(capture[0], 0), 1))
            frames = collect_frames(sock, MbapDecoder(), 1)
            assert frames and frames[0].kind == KIND_ERROR
            sock.close()
        finally:
            handle.stop()

    def test_replaying_beyond_capture_raises(self, detector, capture):
        handle = start_in_thread(detector, GatewayConfig())
        try:
            host, port = handle.address
            ReplayClient(host, port, stream_key="k").replay(capture[:50])
            with pytest.raises(ReplayError):
                ReplayClient(host, port, stream_key="k").replay(capture[:10])
        finally:
            handle.stop()

    def test_backpressure_under_tiny_queue(self, detector, capture, offline):
        """A one-slot shard queue still serves everything, just slower."""
        handle = start_in_thread(detector, GatewayConfig(max_pending=1))
        try:
            host, port = handle.address
            result = ReplayClient(
                host, port, stream_key="slow", window=64
            ).replay(capture)
            assert result.complete
            assert np.array_equal(result.anomalies, offline.is_anomaly)
        finally:
            handle.stop()
