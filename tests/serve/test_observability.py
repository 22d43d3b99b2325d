"""Ops plane end to end: metrics, historian and HTTP API on a live
gateway.

The observability layer is a **pure observer**: with every hook
attached, gateway verdicts stay bit-identical to offline ``detect()``,
the historian's on-disk log reproduces those verdicts exactly (through
a kill-and-resume fail-over), the HTTP API serves live state during a
replay, and ``stats()`` exposes one schema whatever the worker mode.
"""

from __future__ import annotations

import json
import math
import urllib.request

import numpy as np
import pytest

from repro.ics.dataset import generate_stream
from repro.obs import Historian, MetricsRegistry, ObsServer, start_obs_in_thread
from repro.serve.alerts import AlertPipeline, RecentAlertsBuffer
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient


def _assert_records_match_offline(records, capture, offline):
    """The historian log IS the verdict stream: one record per package,
    in order, bit-identical to offline ``detect()`` on the capture."""
    assert [r.seq for r in records] == list(range(len(capture)))
    assert np.array_equal(
        np.array([r.verdict for r in records]), offline.is_anomaly
    )
    # The fused level is recorded wherever a verdict fired.
    for record in records:
        if record.verdict:
            assert record.level == offline.level[record.seq]
    # The process value rides along (NaN encodes command packages).
    for record, package in zip(records, capture):
        if package.pressure_measurement is None:
            assert math.isnan(record.process_value)
        else:
            assert record.process_value == package.pressure_measurement


class TestHistorianBitIdentity:
    def test_query_reproduces_offline_detect(self, tmp_path, detector, capture):
        metrics = MetricsRegistry()
        with Historian(tmp_path / "hist") as historian:
            handle = start_in_thread(
                detector,
                GatewayConfig(num_shards=2),
                metrics=metrics,
                historian=historian,
            )
            try:
                host, port = handle.address
                result = ReplayClient(
                    host, port, stream_key="site", protocol="modbus"
                ).replay(capture)
                stats = handle.stats()
            finally:
                handle.stop()
            records = historian.query(stream_key="site")
        assert result.complete
        _assert_records_match_offline(
            records, capture, detector.detect(capture)
        )
        # Metrics agree with stats(): same packages, same transport.
        snap = metrics.snapshot()
        assert (
            snap["gateway_packages_total"]["samples"][0]["value"]
            == stats["processed"]
            == len(capture)
        )
        frames = {
            s["labels"]["protocol"]: s["value"]
            for s in snap["gateway_transport_frames_decoded_total"]["samples"]
        }
        assert frames == {
            name: c["frames_decoded"]
            for name, c in stats["transport"].items()
        }

    def test_log_survives_kill_and_resume(self, tmp_path, detector, capture):
        # Crash mid-stream, restore from the periodic checkpoint with a
        # fresh Historian over the SAME root: the stitched log must
        # still be one complete, bit-identical verdict history.
        checkpoint = tmp_path / "gw.npz"
        root = tmp_path / "hist"
        half = len(capture) // 2
        with Historian(root) as historian:
            handle = start_in_thread(
                detector,
                GatewayConfig(
                    num_shards=2,
                    checkpoint_path=str(checkpoint),
                    checkpoint_every=20,
                ),
                historian=historian,
            )
            host, port = handle.address
            first = ReplayClient(host, port, stream_key="plant").replay(
                capture[:half]
            )
            assert first.complete
            handle.stop(checkpoint=True)

        with Historian(root) as historian:
            restored = DetectionGateway.from_checkpoint(
                str(checkpoint), detector=detector, historian=historian
            )
            handle = start_in_thread(None, gateway=restored)
            try:
                host, port = handle.address
                second = ReplayClient(host, port, stream_key="plant").replay(
                    capture
                )
            finally:
                handle.stop()
            assert second.start == half and second.complete
            records = historian.query(stream_key="plant")
            assert historian.stats()["segments"] == 2  # resume never appends
        _assert_records_match_offline(
            records, capture, detector.detect(capture)
        )


class TestHttpApiOnLiveGateway:
    def test_endpoints_serve_a_replayed_gateway(
        self, tmp_path, detector, capture
    ):
        metrics = MetricsRegistry()
        recent = RecentAlertsBuffer()
        pipeline = AlertPipeline([recent], metrics=metrics)
        with Historian(tmp_path / "hist", metrics=metrics) as historian:
            handle = start_in_thread(
                detector,
                GatewayConfig(),
                alerts=pipeline,
                metrics=metrics,
                historian=historian,
            )
            obs = start_obs_in_thread(
                ObsServer(
                    gateway=handle.gateway,
                    metrics=metrics,
                    historian=historian,
                    recent_alerts=recent,
                )
            )
            try:
                host, port = handle.address
                result = ReplayClient(host, port, stream_key="site").replay(
                    capture[:60]
                )
                assert result.complete
                ohost, oport = obs.address
                base = f"http://{ohost}:{oport}"

                with urllib.request.urlopen(f"{base}/stats", timeout=5) as r:
                    stats = json.loads(r.read())
                assert stats["processed"] == 60
                assert stats["routes"]["site"]["packages"] == 60

                with urllib.request.urlopen(f"{base}/metrics", timeout=5) as r:
                    text = r.read().decode("utf-8")
                assert "gateway_packages_total 60" in text
                assert 'gateway_transport_frames_decoded_total{protocol="modbus"}' in text
                assert "historian_records_total 60" in text

                query = f"{base}/historian/query?stream=site&limit=1000"
                with urllib.request.urlopen(query, timeout=5) as r:
                    payload = json.loads(r.read())
                assert payload["count"] == 60
                assert [rec["seq"] for rec in payload["records"]] == list(
                    range(60)
                )

                with urllib.request.urlopen(
                    f"{base}/alerts/recent", timeout=5
                ) as r:
                    alerts = json.loads(r.read())["alerts"]
                assert len(alerts) == recent.total

                with urllib.request.urlopen(f"{base}/", timeout=5) as r:
                    page = r.read().decode("utf-8")
                assert "site" in page and "Historian" in page
            finally:
                obs.stop()
                handle.stop()

    def test_reads_cover_every_verdict_a_client_holds(
        self, tmp_path, detector, capture
    ):
        """A drain writes its verdict frames before its historian
        appends, so a client can hold verdicts the historian has not
        logged yet.  An HTTP read waits for the gateway's loop to finish
        that drain, so it sees every one of them."""
        with Historian(tmp_path / "hist") as historian:
            handle = start_in_thread(
                detector, GatewayConfig(), historian=historian
            )
            obs = start_obs_in_thread(
                ObsServer(gateway=handle.gateway, historian=historian)
            )
            try:
                host, port = handle.address
                ohost, oport = obs.address
                for round_ in range(4):
                    key = f"site-{round_}"
                    result = ReplayClient(
                        host, port, stream_key=key, window=64
                    ).replay(capture)
                    assert result.complete
                    query = (
                        f"http://{ohost}:{oport}/historian/query"
                        f"?stream={key}&limit=1000"
                    )
                    with urllib.request.urlopen(query, timeout=5) as r:
                        assert json.loads(r.read())["count"] == len(capture)
            finally:
                obs.stop()
                handle.stop()

    def test_alerts_carry_model_lineage(self, registry, scenario_detectors):
        # Routed gateways stamp every alert with the (scenario, version)
        # that judged the package, so alert storms correlate with
        # rollouts.
        capture = generate_stream("gas_pipeline", 30, 11)
        offline = scenario_detectors["gas_pipeline"].detect(capture)
        recent = RecentAlertsBuffer()
        gateway = DetectionGateway(
            config=GatewayConfig(),
            registry=registry,
            alerts=AlertPipeline([recent]),
        )
        handle = start_in_thread(None, gateway=gateway)
        try:
            host, port = handle.address
            result = ReplayClient(
                host, port, stream_key="site", scenario="gas_pipeline"
            ).replay(capture)
        finally:
            handle.stop()
        assert result.complete
        assert offline.is_anomaly.any()  # the capture includes attacks
        alerts = recent.snapshot()
        assert alerts  # so at least one alert emitted...
        for alert in alerts:  # ...and every one names its model
            assert alert["scenario"] == "gas_pipeline"
            assert alert["version"] == 1


def _schema(value):
    """Recursive key/type skeleton of a stats() payload."""
    if isinstance(value, dict):
        return {key: _schema(item) for key, item in sorted(value.items())}
    if isinstance(value, list):
        return [_schema(item) for item in value]
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return type(value).__name__


class TestCrossModeStatsSchema:
    @pytest.mark.parametrize("routed", [False, True])
    def test_thread_and_process_stats_share_one_schema(
        self, routed, registry, detector, capture
    ):
        # Same replay through both shard backends: stats() must come
        # back with the identical key structure and value types (the
        # process backend reports through the pipe codec, which once
        # drifted from the in-process EngineStats schema).
        payloads = {}
        for mode in ("thread", "process"):
            if routed:
                gateway = DetectionGateway(
                    config=GatewayConfig(worker_mode=mode),
                    registry=registry,
                )
                handle = start_in_thread(None, gateway=gateway)
            else:
                handle = start_in_thread(
                    detector, GatewayConfig(worker_mode=mode)
                )
            try:
                host, port = handle.address
                kwargs = {"scenario": "gas_pipeline"} if routed else {}
                result = ReplayClient(
                    host, port, stream_key="site", **kwargs
                ).replay(capture[:40])
                assert result.complete
                payloads[mode] = handle.stats()
            finally:
                handle.stop()
        assert _schema(payloads["thread"]) == _schema(payloads["process"])
        # And not just in shape: identical inputs, identical counters.
        for mode in ("thread", "process"):
            shards = payloads[mode]["shards"]
            if routed:  # registry mode: {route_label: engine stats}
                total = sum(
                    engine["packages"]
                    for shard in shards
                    for engine in shard.values()
                )
            else:  # single mode: one engine-stats dict per shard
                total = sum(shard["packages"] for shard in shards)
            assert total == 40
