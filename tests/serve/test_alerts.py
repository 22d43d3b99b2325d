"""Tests for severity classification, dedup/rate-limiting, sinks and the
pipeline state that rides gateway checkpoints."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stream_engine import LEVEL_PACKAGE, LEVEL_TIMESERIES
from repro.serve.alerts import (
    AlertConfig,
    AlertPipeline,
    JsonlSink,
    Severity,
    stdout_sink,
)

from tests.serve.test_transport import make_package


def submit(pipeline, t, level, stream="s", seq=0):
    return pipeline.submit(stream, seq, make_package(time=t), level)


class TestSeverity:
    def test_bloom_level_outranks_lstm_level(self):
        pipeline = AlertPipeline()
        bloom = submit(pipeline, 0.0, LEVEL_PACKAGE)
        lstm = submit(pipeline, 100.0, LEVEL_TIMESERIES)
        assert bloom.severity == Severity.HIGH
        assert lstm.severity == Severity.MEDIUM
        assert bloom.severity > lstm.severity

    def test_repeat_offender_escalates(self):
        config = AlertConfig(
            dedup_window=0.5, escalate_threshold=3, escalate_window=30.0
        )
        pipeline = AlertPipeline(config=config)
        first = submit(pipeline, 0.0, LEVEL_TIMESERIES)
        second = submit(pipeline, 1.0, LEVEL_TIMESERIES)
        third = submit(pipeline, 2.0, LEVEL_TIMESERIES)
        assert not first.escalated and not second.escalated
        assert third.escalated
        assert third.severity == Severity.HIGH

    def test_escalation_saturates_at_critical(self):
        assert Severity.CRITICAL.escalate() == Severity.CRITICAL

    def test_escalation_window_expires(self):
        config = AlertConfig(
            dedup_window=0.5, escalate_threshold=2, escalate_window=5.0
        )
        pipeline = AlertPipeline(config=config)
        submit(pipeline, 0.0, LEVEL_TIMESERIES)
        late = submit(pipeline, 100.0, LEVEL_TIMESERIES)
        assert not late.escalated


class TestDedupAndRateLimit:
    def test_duplicates_fold_into_next_emission(self):
        pipeline = AlertPipeline(config=AlertConfig(dedup_window=5.0))
        assert submit(pipeline, 0.0, LEVEL_PACKAGE) is not None
        assert submit(pipeline, 1.0, LEVEL_PACKAGE) is None
        assert submit(pipeline, 2.0, LEVEL_PACKAGE) is None
        later = submit(pipeline, 10.0, LEVEL_PACKAGE)
        assert later is not None
        assert later.repeats == 2
        stats = pipeline.stats()
        assert stats["emitted"] == 2
        assert stats["suppressed"] == 2

    def test_levels_dedup_independently(self):
        pipeline = AlertPipeline(config=AlertConfig(dedup_window=5.0))
        assert submit(pipeline, 0.0, LEVEL_PACKAGE) is not None
        assert submit(pipeline, 1.0, LEVEL_TIMESERIES) is not None

    def test_streams_dedup_independently(self):
        pipeline = AlertPipeline(config=AlertConfig(dedup_window=5.0))
        assert submit(pipeline, 0.0, LEVEL_PACKAGE, stream="a") is not None
        assert submit(pipeline, 1.0, LEVEL_PACKAGE, stream="b") is not None

    def test_rate_limit_caps_emissions_per_window(self):
        config = AlertConfig(
            dedup_window=0.0, rate_window=60.0, max_alerts_per_window=3
        )
        pipeline = AlertPipeline(config=config)
        emitted = [
            submit(pipeline, float(t), LEVEL_PACKAGE) is not None
            for t in range(10)
        ]
        assert sum(emitted) == 3
        fresh_window = submit(pipeline, 120.0, LEVEL_PACKAGE)
        assert fresh_window is not None

    def test_deterministic_on_stream_clock(self):
        """Identical inputs produce identical alert streams, run after run."""

        def run():
            collected = []
            pipeline = AlertPipeline(sinks=[collected.append])
            for t in range(20):
                submit(pipeline, float(t), LEVEL_PACKAGE if t % 3 else LEVEL_TIMESERIES, seq=t)
            return collected

        assert run() == run()


class TestSinks:
    def test_jsonl_sink_writes_one_object_per_alert(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        pipeline = AlertPipeline(sinks=[JsonlSink(path)])
        submit(pipeline, 0.0, LEVEL_PACKAGE, seq=5)
        submit(pipeline, 50.0, LEVEL_TIMESERIES, seq=9)
        pipeline.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["severity"] == "HIGH"
        assert lines[0]["level"] == "package"
        assert lines[1]["seq"] == 9

    def test_stdout_sink_prints(self, capsys):
        pipeline = AlertPipeline(sinks=[stdout_sink])
        submit(pipeline, 0.0, LEVEL_PACKAGE)
        assert "HIGH" in capsys.readouterr().out

    def test_broken_sink_never_blocks_the_others(self):
        collected = []

        def broken(alert):
            raise RuntimeError("sink down")

        pipeline = AlertPipeline(sinks=[broken, collected.append])
        alert = submit(pipeline, 0.0, LEVEL_PACKAGE)
        assert alert is not None
        assert collected == [alert]
        assert pipeline.stats()["sink_errors"] == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dedup_window": -1.0},
            {"rate_window": 0.0},
            {"max_alerts_per_window": 0},
            {"escalate_threshold": 0},
            {"escalate_window": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AlertConfig(**kwargs).validate()


class TestStateRoundTrip:
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.floats(0.0, 3.0),
                st.sampled_from([LEVEL_PACKAGE, LEVEL_TIMESERIES]),
            ),
            min_size=2,
            max_size=60,
        ),
        cut=st.integers(0, 60),
    )
    @settings(max_examples=50, deadline=None)
    def test_restored_pipeline_continues_like_the_original(self, events, cut):
        """A pipeline rebuilt from a JSON round trip of ``state_dict()``
        mid-stream emits what the uninterrupted one emits from there."""
        config = AlertConfig(
            dedup_window=2.0, rate_window=20.0, max_alerts_per_window=4,
            escalate_threshold=2, escalate_window=10.0,
        )
        clock = {"a": 0.0, "b": 0.0}
        timeline = []
        for seq, (stream, step, level) in enumerate(events):
            clock[stream] += step
            timeline.append((stream, clock[stream], level, seq))
        cut = min(cut, len(timeline))
        whole = AlertPipeline(config=config)
        first = AlertPipeline(config=config)
        for stream, t, level, seq in timeline[:cut]:
            submit(whole, t, level, stream, seq)
            submit(first, t, level, stream, seq)
        state = json.loads(json.dumps(first.state_dict()))
        resumed = AlertPipeline(config=config)
        resumed.load_state(state)
        assert resumed.state_dict() == first.state_dict()
        for stream, t, level, seq in timeline[cut:]:
            assert submit(resumed, t, level, stream, seq) == submit(
                whole, t, level, stream, seq
            )
        assert resumed.stats() == whole.stats()
