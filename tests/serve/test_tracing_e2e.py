"""Tracing plane end to end: spans ride the live serving path in both
worker backends without perturbing a single verdict, sampled trace ids
are bit-stable across a kill-and-resume replay, the ``/traces/*``
endpoints serve the store over real sockets, and ``repro trace``
aggregates the JSONL export offline.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from time import perf_counter

import numpy as np
import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, ObsServer, start_obs_in_thread
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.obs.tracing import TraceConfig, Tracer
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient

#: Dense enough to sample plenty of the 150-package capture.
SAMPLE_EVERY = 4

THREAD_STAGES = {"decode", "route", "queue", "tick", "deliver"}
PROCESS_STAGES = {"decode", "route", "queue", "worker", "pipe", "deliver"}


def _replay(handle, capture, stream="plant"):
    host, port = handle.address
    result = ReplayClient(host, port, stream_key=stream).replay(capture)
    assert result.complete
    return result


def _expected_samples(tracer, stream, seqs):
    return {seq for seq in seqs if tracer.should_sample(stream, seq)}


class TestPureObserver:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_verdicts_bit_identical_and_stages_complete(
        self, mode, detector, capture
    ):
        offline = detector.detect(capture)

        bare = start_in_thread(
            detector, GatewayConfig(num_shards=2, worker_mode=mode)
        )
        try:
            bare_result = _replay(bare, capture)
        finally:
            bare.stop()

        tracer = Tracer(TraceConfig(sample_every=SAMPLE_EVERY))
        traced = start_in_thread(
            detector,
            GatewayConfig(num_shards=2, worker_mode=mode),
            tracer=tracer,
        )
        try:
            traced_result = _replay(traced, capture)
            stats = traced.stats()
        finally:
            traced.stop()

        # The tracer saw packages but never touched a verdict.
        for result in (bare_result, traced_result):
            assert np.array_equal(result.anomalies, offline.is_anomaly)
            assert np.array_equal(result.levels, offline.level)

        expected = _expected_samples(tracer, "plant", range(len(capture)))
        assert expected, "sampling selected nothing — test is vacuous"
        tstats = stats["tracing"]
        assert tstats["spans_started"] == len(expected)
        assert tstats["spans_finished"] == len(expected)
        spans = tracer.recent(limit=len(capture))
        assert {span["seq"] for span in spans} == expected
        want = THREAD_STAGES if mode == "thread" else PROCESS_STAGES
        for span in spans:
            assert set(span["stages"]) == want, span
            assert all(v >= 0.0 for v in span["stages"].values()), span
            assert span["total_seconds"] == pytest.approx(
                sum(span["stages"].values())
            )


class TestStageAttribution:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_stages_add_up_to_each_span_under_drains(
        self, mode, detector, capture, monkeypatch
    ):
        """A package deep in a multi-tick drain still has its whole wall
        time, from frame receipt to span finish, in its stages: the
        groups ahead of it count as queue, those behind it and the
        frame writes as deliver."""
        tracer = Tracer(TraceConfig(sample_every=1))
        received, finished = {}, {}
        start, finish = tracer.start, tracer.finish

        def timed_start(stream, seq, mark):
            received[(stream, seq)] = mark
            return start(stream, seq, mark)

        def timed_finish(span, **kwargs):
            finished[(span.stream, span.seq)] = perf_counter()
            return finish(span, **kwargs)

        monkeypatch.setattr(tracer, "start", timed_start)
        monkeypatch.setattr(tracer, "finish", timed_finish)
        metrics = MetricsRegistry()
        handle = start_in_thread(
            detector,
            GatewayConfig(worker_mode=mode),
            metrics=metrics,
            tracer=tracer,
        )
        try:
            host, port = handle.address
            result = ReplayClient(
                host, port, stream_key="plant", window=16
            ).replay(capture)
            assert result.complete
        finally:
            handle.stop()

        # The drains held several ticks, or the test shows nothing.
        drains = metrics.histogram("gateway_tick_seconds", shard="0").count
        ticks = metrics.histogram(
            "gateway_tick_batch_size", buckets=DEFAULT_SIZE_BUCKETS, shard="0"
        ).count
        assert ticks == len(capture) and drains < ticks / 2
        spans = tracer.recent(limit=len(capture))
        assert len(spans) == len(capture)
        for span in spans:
            key = (span["stream"], span["seq"])
            wall = finished[key] - received[key]
            unattributed = wall - span["total_seconds"]
            assert abs(unattributed) < max(0.05 * wall, 50e-6), span


class TestKillResumeDeterminism:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_trace_ids_identical_across_kill_and_resume(
        self, mode, tmp_path, detector, capture
    ):
        half = len(capture) // 2

        # Reference: one uninterrupted traced replay.
        ref_export = tmp_path / "ref.jsonl"
        tracer = Tracer(
            TraceConfig(sample_every=SAMPLE_EVERY, export_path=str(ref_export))
        )
        handle = start_in_thread(
            detector,
            GatewayConfig(num_shards=2, worker_mode=mode),
            tracer=tracer,
        )
        try:
            _replay(handle, capture)
        finally:
            handle.stop()
            tracer.close()

        # Kill+resume: half the capture, a checkpoint "crash", then a
        # *fresh* tracer on the restored gateway — no tracer state rides
        # the checkpoint, sampling is (stream, seq)-seeded.
        export = tmp_path / "resumed.jsonl"
        checkpoint = tmp_path / "gw.npz"
        tracer1 = Tracer(
            TraceConfig(sample_every=SAMPLE_EVERY, export_path=str(export))
        )
        handle = start_in_thread(
            detector,
            GatewayConfig(
                num_shards=2,
                worker_mode=mode,
                checkpoint_path=str(checkpoint),
            ),
            tracer=tracer1,
        )
        try:
            _replay(handle, capture[:half])
        finally:
            handle.stop(checkpoint=True)
            tracer1.close()

        tracer2 = Tracer(
            TraceConfig(sample_every=SAMPLE_EVERY, export_path=str(export))
        )
        restored = DetectionGateway.from_checkpoint(
            str(checkpoint), detector=detector, tracer=tracer2
        )
        handle = start_in_thread(None, gateway=restored)
        try:
            resumed = _replay(handle, capture)
            assert resumed.start == half  # nothing re-judged, nothing re-traced
        finally:
            handle.stop()
            tracer2.close()

        def spans_of(path):
            return {
                (rec["stream"], rec["seq"]): rec["trace_id"]
                for rec in map(json.loads, path.read_text().splitlines())
            }

        reference, stitched = spans_of(ref_export), spans_of(export)
        assert stitched == reference
        assert len(reference) == len(
            _expected_samples(tracer, "plant", range(len(capture)))
        )


class TestTracesOverHttp:
    def test_traces_endpoints_serve_the_store(self, detector, capture):
        metrics = MetricsRegistry()
        tracer = Tracer(TraceConfig(sample_every=SAMPLE_EVERY), metrics=metrics)
        handle = start_in_thread(
            detector,
            GatewayConfig(num_shards=2),
            metrics=metrics,
            tracer=tracer,
        )
        obs = start_obs_in_thread(
            ObsServer(gateway=handle.gateway, metrics=metrics)
        )
        try:
            _replay(handle, capture)
            host, port = obs.address

            def get(path):
                with urllib.request.urlopen(
                    f"http://{host}:{port}{path}", timeout=5
                ) as resp:
                    return json.loads(resp.read())

            recent = get("/traces/recent?limit=5")
            assert recent["count"] == len(recent["spans"]) == 5
            assert all(span["trace_id"] for span in recent["spans"])

            slowest = get("/traces/slowest")
            assert slowest["slowest"], "no exemplars retained"
            rows = [row["seconds"] for row in slowest["slowest"]]
            assert rows == sorted(rows, reverse=True)
            assert {row["stage"] for row in slowest["slowest"]} <= THREAD_STAGES

            # The stage histograms made it to the exposition too.
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ) as resp:
                assert b"trace_stage_seconds" in resp.read()

            # Satellite: malformed params are a 400 JSON error body,
            # never a 500 traceback — over a real socket.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get("/traces/recent?limit=abc")
            assert excinfo.value.code == 400
            assert excinfo.value.headers["Content-Type"].startswith(
                "application/json"
            )
            body = json.loads(excinfo.value.read())
            excinfo.value.close()
            assert body["status"] == 400 and "limit" in body["error"]
        finally:
            obs.stop()
            handle.stop()

    def test_traces_404_without_a_tracer(self, detector, capture):
        handle = start_in_thread(detector, GatewayConfig(num_shards=1))
        obs = start_obs_in_thread(ObsServer(gateway=handle.gateway))
        try:
            host, port = obs.address
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/traces/recent", timeout=5
                )
            assert excinfo.value.code == 404
            excinfo.value.close()
        finally:
            obs.stop()
            handle.stop()


class TestTraceCli:
    def test_aggregates_export_offline(self, tmp_path, detector, capture, capsys):
        export = tmp_path / "spans.jsonl"
        tracer = Tracer(
            TraceConfig(sample_every=SAMPLE_EVERY, export_path=str(export))
        )
        handle = start_in_thread(
            detector, GatewayConfig(num_shards=2), tracer=tracer
        )
        try:
            _replay(handle, capture)
        finally:
            handle.stop()
            tracer.close()

        out = tmp_path / "trace.json"
        assert (
            main(["trace", "--spans", str(export), "--json", str(out)]) == 0
        )
        payload = json.loads(out.read_text())
        expected = _expected_samples(tracer, "plant", range(len(capture)))
        assert payload["spans"] == len(expected)
        assert set(payload["stages"]) == THREAD_STAGES
        assert sum(
            row["share"] for row in payload["stages"].values()
        ) == pytest.approx(1.0)
        assert payload["total_p99_seconds"] >= payload["total_p50_seconds"] > 0
        printed = capsys.readouterr().out
        assert "span(s)" in printed and "queue" in printed

    def test_rejects_garbage_export(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit, match="bad.jsonl:1"):
            main(["trace", "--spans", str(bad)])
