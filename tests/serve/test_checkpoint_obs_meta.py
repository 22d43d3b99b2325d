"""Gateway checkpoint meta with *mixed* obs config: incidents on with
monitors off — and vice versa — in both worker backends; and the alert
pipeline's state, which rides every checkpoint.

The incident plane's state rides checkpoint metadata, but the two
planes are independent knobs: a checkpoint must carry exactly the
state of the planes that were enabled, a resume with the same flags
must restore that state bit-identically, and a resume that disables a
plane must ignore (not lose) its saved meta.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.serve.alerts import AlertPipeline
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient
from repro.utils.artifact import read_meta

COMBOS = [
    pytest.param(True, False, id="incidents-on-monitors-off"),
    pytest.param(False, True, id="incidents-off-monitors-on"),
]


def _replay(handle, capture, stream="plant"):
    host, port = handle.address
    result = ReplayClient(host, port, stream_key=stream).replay(capture)
    assert result.complete
    return result


class TestMixedObsCheckpointMeta:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("incidents_on,monitors_on", COMBOS)
    def test_meta_round_trips_exactly_the_enabled_planes(
        self, mode, incidents_on, monitors_on, tmp_path, detector, capture
    ):
        checkpoint = tmp_path / f"{mode}-{incidents_on}-{monitors_on}.npz"
        half = len(capture) // 2
        offline = detector.detect(capture)

        gateway = DetectionGateway(
            detector,
            GatewayConfig(
                num_shards=2,
                worker_mode=mode,
                checkpoint_path=str(checkpoint),
            ),
            incidents=incidents_on,
            monitors=monitors_on,
        )
        assert (gateway.incidents is not None) == incidents_on
        assert (gateway.monitors is not None) == monitors_on
        handle = start_in_thread(None, gateway=gateway)
        try:
            first = _replay(handle, capture[:half])
        finally:
            handle.stop(checkpoint=True)

        saved_incidents = (
            gateway.incidents.state_dict() if incidents_on else None
        )
        saved_monitors = gateway.monitors.state_dict() if monitors_on else None
        if monitors_on:
            # The monitors actually watched the stream before the stop.
            streams = saved_monitors["streams"]
            assert streams["plant"]["packages"] == half

        # The on-disk meta holds exactly the enabled planes.
        meta = read_meta(str(checkpoint))["meta"]
        assert ("incidents" in meta) == incidents_on
        assert ("monitors" in meta) == monitors_on

        # Resume with matching flags: enabled state restored
        # bit-identically, the disabled plane still off.
        restored = DetectionGateway.from_checkpoint(
            str(checkpoint),
            detector=detector,
            incidents=incidents_on,
            monitors=monitors_on,
        )
        assert (restored.incidents is not None) == incidents_on
        assert (restored.monitors is not None) == monitors_on
        if incidents_on:
            assert restored.incidents.state_dict() == saved_incidents
        if monitors_on:
            assert restored.monitors.state_dict() == saved_monitors

        handle = start_in_thread(None, gateway=restored)
        try:
            second = _replay(handle, capture)
            assert second.start == half  # nothing re-judged
        finally:
            handle.stop()
        anomalies = np.concatenate([first.anomalies, second.anomalies])
        levels = np.concatenate([first.levels, second.levels])
        assert np.array_equal(anomalies, offline.is_anomaly)
        assert np.array_equal(levels, offline.level)
        if monitors_on:
            monitor_streams = restored.monitors.state_dict()["streams"]
            assert monitor_streams["plant"]["packages"] == len(capture)

    def test_disabling_a_plane_on_resume_ignores_its_meta(
        self, tmp_path, detector, capture
    ):
        """A checkpoint written with both planes on resumes cleanly with
        either plane forced off — saved meta is skipped, not an error."""
        checkpoint = tmp_path / "both-on.npz"
        handle = start_in_thread(
            detector,
            GatewayConfig(num_shards=2, checkpoint_path=str(checkpoint)),
        )
        try:
            _replay(handle, capture[: len(capture) // 2])
        finally:
            handle.stop(checkpoint=True)
        meta = read_meta(str(checkpoint))["meta"]
        assert "incidents" in meta and "monitors" in meta

        restored = DetectionGateway.from_checkpoint(
            str(checkpoint), detector=detector, incidents=False, monitors=True
        )
        assert restored.incidents is None
        assert restored.monitors is not None

        restored = DetectionGateway.from_checkpoint(
            str(checkpoint), detector=detector, incidents=True, monitors=False
        )
        assert restored.incidents is not None
        assert restored.monitors is None
        # The kept plane still restored its saved state.
        assert restored.incidents.state_dict() == meta["incidents"]


class TestAlertStateResume:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_alerts_after_kill_and_resume_match_the_uninterrupted_run(
        self, mode, tmp_path, detector, capture
    ):
        """Dedup, rate-limit and escalation state ride the checkpoint: a
        gateway killed after 100 packages and resumed from its periodic
        checkpoint emits exactly the alerts the uninterrupted run emits
        from there on, and its correlator absorbs the same count."""
        config = GatewayConfig(worker_mode=mode, checkpoint_every=40)

        def serve(alerts, gateway=None, prefix=len(capture), path="unused.npz"):
            if gateway is None:
                gateway = DetectionGateway(
                    detector,
                    replace(config, checkpoint_path=str(tmp_path / path)),
                    AlertPipeline([alerts.append]),
                )
            handle = start_in_thread(None, gateway=gateway)
            try:
                result = _replay(handle, capture[:prefix])
            finally:
                handle.stop(checkpoint=False)  # a crash: periodic snapshots only
            return gateway, result

        uninterrupted: list = []
        whole, _ = serve(uninterrupted)
        crashed: list = []
        serve(crashed, prefix=100, path="gw.npz")
        resumed_alerts: list = []
        restored = DetectionGateway.from_checkpoint(
            str(tmp_path / "gw.npz"),
            replace(config, checkpoint_path=str(tmp_path / "gw.npz")),
            AlertPipeline([resumed_alerts.append]),
            detector=detector,
        )
        restored, second = serve(resumed_alerts, gateway=restored)
        assert second.start == 80

        assert uninterrupted, "the drill needs alerts to compare"
        assert [a for a in crashed if a.seq < 80] == [
            a for a in uninterrupted if a.seq < 80
        ]
        assert resumed_alerts == [a for a in uninterrupted if a.seq >= 80]
        absorbed = whole.incidents.stats()["alerts_absorbed"]
        assert restored.incidents.stats()["alerts_absorbed"] == absorbed
        assert restored.alerts.stats() == whole.alerts.stats()
