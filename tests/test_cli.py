"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import multiprocessing
import socket
import threading

import pytest

from repro.cli import main

#: Micro configuration so each CLI run trains in well under a second.
MICRO = ["--profile", "ci", "--cycles", "200", "--epochs", "1", "--hidden", "8"]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "detector.npz"
    assert main(["train", *MICRO, "--seed", "3", "--out", str(path)]) == 0
    return path


def test_train_writes_artifact(model_path, capsys):
    assert model_path.exists()
    assert main(["info", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "combined-detector" in out
    assert "meta.profile: ci" in out
    assert "meta.seed: 3" in out


def test_detect_runs_from_stored_provenance(model_path, tmp_path, capsys):
    report = tmp_path / "detect.json"
    code = main(
        ["detect", "--model", str(model_path), "--limit", "60",
         "--json", str(report)]
    )
    assert code == 0
    assert "detect: 60 packages" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["packages"] == 60
    assert 0.0 <= payload["f1"] <= 1.0


def test_detect_checkpoint_then_resume_covers_stream(model_path, tmp_path):
    checkpoint = tmp_path / "checkpoint.npz"
    detect_report = tmp_path / "detect.json"
    resume_report = tmp_path / "resume.json"

    assert main(
        ["detect", "--model", str(model_path), "--stop-after", "50",
         "--checkpoint", str(checkpoint), "--json", str(detect_report)]
    ) == 0
    assert checkpoint.exists()

    assert main(
        ["resume", "--checkpoint", str(checkpoint), "--json", str(resume_report)]
    ) == 0
    first = json.loads(detect_report.read_text())
    rest = json.loads(resume_report.read_text())
    assert first["packages"] == 50
    assert rest["offset"] == 50

    # Together the two phases classified the whole test stream exactly once.
    full_report = tmp_path / "full.json"
    assert main(
        ["detect", "--model", str(model_path), "--json", str(full_report)]
    ) == 0
    full = json.loads(full_report.read_text())
    assert first["packages"] + rest["packages"] == full["packages"]
    # Resume is bit-identical to the uninterrupted run, so alert totals match.
    assert first["alerts"] + rest["alerts"] == full["alerts"]


def test_stop_after_requires_checkpoint(model_path):
    with pytest.raises(SystemExit):
        main(["detect", "--model", str(model_path), "--stop-after", "10"])


def assert_negative_count_refused(argv, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert str(excinfo.value.code) == f"error: {flag} must be >= 0, got {value}"


def test_negative_limit_is_a_one_line_error(model_path, tmp_path):
    """A negative N would count packages from the end of the capture."""
    checkpoint = tmp_path / "checkpoint.npz"
    assert main(
        ["detect", "--model", str(model_path), "--stop-after", "10",
         "--checkpoint", str(checkpoint)]
    ) == 0
    for argv in (
        ["detect", "--model", str(model_path)],
        ["resume", "--checkpoint", str(checkpoint)],
        ["replay", "--host", "127.0.0.1", "--port", "1", *MICRO],
    ):
        assert_negative_count_refused([*argv, "--limit", "-5"], "--limit", -5)


def test_negative_stop_after_is_a_one_line_error(model_path, tmp_path):
    checkpoint = tmp_path / "checkpoint.npz"
    assert_negative_count_refused(
        ["detect", "--model", str(model_path), "--stop-after", "-100",
         "--checkpoint", str(checkpoint)],
        "--stop-after", -100,
    )
    assert not checkpoint.exists()


def test_missing_model_is_an_error(tmp_path, capsys):
    assert main(["detect", "--model", str(tmp_path / "nope.npz")]) == 1
    assert "error:" in capsys.readouterr().err


def test_info_on_garbage_is_an_error(tmp_path, capsys):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"not an artifact")
    assert main(["info", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


class TestServeAndReplay:
    def test_serve_and_replay_roundtrip(self, model_path, tmp_path):
        """Full CLI loop: gateway serves, replay streams over real sockets."""
        import threading
        import time as _time

        port_file = tmp_path / "port"
        checkpoint = tmp_path / "gateway.npz"
        report = tmp_path / "replay.json"
        spans = tmp_path / "spans.jsonl"
        limit = 60

        serve_rc: list[int] = []

        def serve():
            serve_rc.append(
                main(
                    ["serve", "--model", str(model_path), "--port", "0",
                     "--shards", "2", "--checkpoint", str(checkpoint),
                     "--quiet", "--port-file", str(port_file),
                     "--trace-sample", "2", "--trace-export", str(spans),
                     "--max-packages", str(limit)]
                )
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = _time.monotonic() + 30.0
        while not port_file.exists():
            assert _time.monotonic() < deadline, "gateway never came up"
            assert thread.is_alive(), "serve exited before listening"
            _time.sleep(0.02)
        host, port = port_file.read_text().split()

        rc = main(
            ["replay", "--host", host, "--port", port, *MICRO, "--seed", "3",
             "--limit", str(limit), "--key", "cli-drill", "--json", str(report)]
        )
        assert rc == 0
        thread.join(30.0)
        assert serve_rc == [0]
        payload = json.loads(report.read_text())
        assert payload["packages"] == limit
        assert payload["offset"] == 0
        assert payload["complete"] is True
        # Graceful shutdown wrote the fail-over checkpoint.
        assert checkpoint.exists()
        assert main(["info", str(checkpoint)]) == 0
        # ... and the tracer exported spans `repro trace` can aggregate.
        trace_report = tmp_path / "trace.json"
        assert main(["trace", "--spans", str(spans),
                     "--json", str(trace_report)]) == 0
        trace_payload = json.loads(trace_report.read_text())
        assert trace_payload["spans"] > 0
        assert "queue" in trace_payload["stages"]

    def test_trace_export_without_sampling_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="trace-sample"):
            main(["serve", "--model", "whatever.npz",
                  "--trace-export", str(tmp_path / "s.jsonl")])

    def test_serve_requires_model_or_resumable_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["serve"])
        with pytest.raises(SystemExit):
            main(["serve", "--resume", "--checkpoint", "/nonexistent/gw.npz"])

    def test_bad_gateway_config_is_a_clean_cli_error(self, model_path):
        # --checkpoint-every without --checkpoint, and a zero shard pool:
        # both must exit with a message, not an unhandled traceback.
        for argv in (
            ["serve", "--model", str(model_path), "--checkpoint-every", "10"],
            ["serve", "--model", str(model_path), "--shards", "0"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_zero_alerts_buffer_is_a_one_line_error(self, model_path, tmp_path):
        writers = TestBindFailures.historian_writers()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", str(model_path), "--quiet", "--port", "0",
                  "--alerts-buffer", "0", "--historian", str(tmp_path / "h")])
        message = str(excinfo.value.code)
        assert message.startswith("error: ") and "\n" not in message, message
        assert "--alerts-buffer" in message and "got 0" in message, message
        assert TestBindFailures.historian_writers() == writers

    def test_bad_replay_window_is_a_clean_cli_error(self):
        with pytest.raises(SystemExit):
            main(["replay", *MICRO, "--window", "0", "--limit", "1"])

    def test_replay_against_dead_gateway_is_an_error(self, capsys):
        rc = main(
            ["replay", "--host", "127.0.0.1", "--port", "1", *MICRO, "--limit", "1"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestScenariosCommand:
    def test_lists_every_registered_scenario(self, tmp_path, capsys):
        from repro.scenarios import scenario_names

        report = tmp_path / "scenarios.json"
        assert main(["scenarios", "--verbose", "--json", str(report)]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        payload = json.loads(report.read_text())
        assert [entry["name"] for entry in payload] == list(scenario_names())

    def test_train_with_scenario_records_provenance(self, tmp_path, capsys):
        path = tmp_path / "tank.npz"
        assert main(
            ["train", *MICRO, "--scenario", "water_tank", "--seed", "3",
             "--out", str(path)]
        ) == 0
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "meta.scenario: water_tank" in out

        # detect regenerates the water-tank stream from stored provenance.
        report = tmp_path / "detect.json"
        assert main(
            ["detect", "--model", str(path), "--limit", "40",
             "--json", str(report)]
        ) == 0
        assert json.loads(report.read_text())["packages"] == 40

    def test_qualified_profile_selects_scenario(self, tmp_path):
        path = tmp_path / "feeder.npz"
        argv = ["train", "--profile", "ci@power_feeder", "--cycles", "200",
                "--epochs", "1", "--hidden", "8", "--out", str(path)]
        assert main(argv) == 0
        from repro.utils.artifact import read_meta

        meta = read_meta(str(path))["meta"]
        assert meta["scenario"] == "power_feeder"
        assert meta["profile"] == "ci@power_feeder"

    def test_unknown_scenario_is_a_clean_cli_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", *MICRO, "--scenario", "steel_mill",
                  "--out", str(tmp_path / "x.npz")])

    def test_degenerate_cycles_is_a_clean_cli_error(self, tmp_path):
        # --cycles too small for one test fragment: clean message at
        # parse time, never a raw ValueError traceback.
        with pytest.raises(SystemExit, match="test split"):
            main(["train", "--profile", "ci", "--cycles", "10",
                  "--out", str(tmp_path / "x.npz")])


class TestFleetCommand:
    def test_fleet_streams_and_verifies(self, model_path, tmp_path, capsys):
        report = tmp_path / "fleet.json"
        rc = main(
            ["fleet", "--model", str(model_path), "--sites", "3",
             "--cycles", "15", "--shards", "2", "--json", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "offline-match" in out
        payload = json.loads(report.read_text())
        assert len(payload["sites"]) == 3
        assert len(payload["scenarios"]) >= 2
        assert payload["all_match_offline"] is True
        assert payload["total_packages"] == sum(
            site["packages"] for site in payload["sites"]
        )

    def test_fleet_no_verify_reports_null_not_vacuous_true(self, model_path, tmp_path):
        report = tmp_path / "fleet.json"
        rc = main(
            ["fleet", "--model", str(model_path), "--sites", "2",
             "--cycles", "15", "--no-verify", "--json", str(report)]
        )
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["all_match_offline"] is None
        assert all(site["matches_offline"] is None for site in payload["sites"])

    def test_fleet_rejects_unknown_scenario(self, model_path):
        with pytest.raises(SystemExit):
            main(["fleet", "--model", str(model_path),
                  "--scenarios", "gas_pipeline,steel_mill"])

    def test_fleet_rejects_bad_config(self, model_path):
        with pytest.raises(SystemExit):
            main(["fleet", "--model", str(model_path), "--sites", "0"])

    def test_fleet_process_workers_and_async_driver(
        self, model_path, tmp_path, capsys
    ):
        report = tmp_path / "fleet.json"
        rc = main(
            ["fleet", "--model", str(model_path), "--sites", "2",
             "--scenarios", "gas_pipeline", "--cycles", "5",
             "--worker-mode", "process",
             "--json", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "process shard(s)" in out
        payload = json.loads(report.read_text())
        assert payload["worker_mode"] == "process"
        assert payload["all_match_offline"] is True

    def test_fleet_reports_drift_counts_and_traces(
        self, model_path, tmp_path, capsys
    ):
        """Satellite: the end-of-run summary and --json carry drift-alert
        counts by kind, and --trace-sample/--trace-export ride along."""
        report = tmp_path / "fleet.json"
        spans = tmp_path / "spans.jsonl"
        rc = main(
            ["fleet", "--model", str(model_path), "--sites", "2",
             "--scenarios", "gas_pipeline", "--cycles", "10",
             "--trace-sample", "2", "--trace-export", str(spans),
             "--json", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "drift alerts:" in out
        assert "traces:" in out
        payload = json.loads(report.read_text())
        assert set(payload["drift"]) == {"package", "timeseries", "anomaly"}
        assert all(
            isinstance(count, int) for count in payload["drift"].values()
        )
        trace_report = tmp_path / "trace.json"
        assert main(["trace", "--spans", str(spans),
                     "--json", str(trace_report)]) == 0
        assert json.loads(trace_report.read_text())["spans"] > 0


class TestRegistryCommand:
    @pytest.fixture()
    def registry_dir(self, tmp_path):
        return tmp_path / "registry"

    def test_publish_list_promote_roundtrip(
        self, model_path, registry_dir, tmp_path, capsys
    ):
        publish = ["registry", "publish", "--registry", str(registry_dir),
                   "--model", str(model_path)]
        assert main(publish) == 0  # v1, active (scenario from provenance)
        assert main([*publish, "--no-activate"]) == 0  # dark v2
        out = capsys.readouterr().out
        assert "published gas_pipeline@1 (active)" in out
        assert "published gas_pipeline@2 (dark)" in out

        report = tmp_path / "registry.json"
        assert main(["registry", "list", "--registry", str(registry_dir),
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "* gas_pipeline" in out  # v1 still carries the active marker
        payload = json.loads(report.read_text())
        assert [(e["version"], e["active"]) for e in payload] == [
            (1, True), (2, False),
        ]

        assert main(["registry", "promote", "--registry", str(registry_dir),
                     "--scenario", "gas_pipeline", "--version", "2"]) == 0
        assert "promoted gas_pipeline@2" in capsys.readouterr().out

    def test_publish_explicit_scenario_override(
        self, model_path, registry_dir, capsys
    ):
        assert main(["registry", "publish", "--registry", str(registry_dir),
                     "--model", str(model_path),
                     "--scenario", "water_tank"]) == 0
        assert "water_tank@1" in capsys.readouterr().out

    def test_promote_unknown_version_is_an_error(
        self, model_path, registry_dir, capsys
    ):
        assert main(["registry", "publish", "--registry", str(registry_dir),
                     "--model", str(model_path)]) == 0
        assert main(["registry", "promote", "--registry", str(registry_dir),
                     "--scenario", "gas_pipeline", "--version", "9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_rejects_model_and_registry_together(
        self, model_path, registry_dir
    ):
        with pytest.raises(SystemExit):
            main(["serve", "--model", str(model_path),
                  "--registry", str(registry_dir)])

    def test_serve_on_empty_registry_is_a_clean_error(self, registry_dir):
        registry_dir.mkdir()
        with pytest.raises(SystemExit, match="no published models"):
            main(["serve", "--registry", str(registry_dir)])

    def test_resume_of_a_version_the_registry_lacks_is_a_clean_error(
        self, model_path, registry_dir, tmp_path
    ):
        from repro.persistence import (
            RouteBinding,
            load_detector,
            save_gateway_checkpoint,
        )

        engine = load_detector(model_path).engine(1)
        checkpoint = tmp_path / "gateway.npz"
        save_gateway_checkpoint(
            checkpoint,
            [{"gas_pipeline@1": engine.state_dict()}],
            {"site": RouteBinding(0, "gas_pipeline", 1, engine.stream_ids[0])},
        )
        registry_dir.mkdir()
        with pytest.raises(
            SystemExit, match="^error: scenario 'gas_pipeline' has no published version 1"
        ):
            main(["serve", "--registry", str(registry_dir), "--resume",
                  "--checkpoint", str(checkpoint)])

    def test_heterogeneous_fleet_from_prepublished_registry(
        self, model_path, registry_dir, tmp_path, capsys
    ):
        # Pre-publish the lone scenario so the fleet needs no training.
        assert main(["registry", "publish", "--registry", str(registry_dir),
                     "--model", str(model_path)]) == 0
        report = tmp_path / "fleet.json"
        rc = main(
            ["fleet", "--heterogeneous", "--registry", str(registry_dir),
             "--scenarios", "gas_pipeline", "--sites", "2", "--cycles", "15",
             "--json", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[heterogeneous]" in out
        assert "[gas_pipeline@1]" in out
        payload = json.loads(report.read_text())
        assert payload["heterogeneous"] is True
        assert payload["all_match_offline"] is True
        assert all(
            site["route_scenario"] == "gas_pipeline"
            and site["route_version"] == 1
            for site in payload["sites"]
        )

    def test_heterogeneous_fleet_rejects_explicit_model(self, model_path):
        with pytest.raises(SystemExit):
            main(["fleet", "--heterogeneous", "--model", str(model_path)])


class TestBindFailures:
    """A port that is already taken is a one-line ``error:`` exit, and
    the failed start leaves no gateway, shard worker or historian
    writer running."""

    @pytest.fixture()
    def held_port(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen()
            yield sock.getsockname()[1]

    @staticmethod
    def assert_one_line_error(excinfo):
        message = str(excinfo.value.code)
        assert message.startswith("error: ") and "\n" not in message, message
        assert "in use" in message, message

    @staticmethod
    def historian_writers():
        return sum(
            thread.name == "repro-historian" for thread in threading.enumerate()
        )

    def test_serve_port(self, model_path, held_port, tmp_path):
        writers = self.historian_writers()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", str(model_path), "--quiet",
                  "--port", str(held_port), "--historian", str(tmp_path / "h")])
        self.assert_one_line_error(excinfo)
        assert self.historian_writers() == writers

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_serve_http_port(self, model_path, held_port, tmp_path, mode):
        writers = self.historian_writers()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--model", str(model_path), "--quiet",
                  "--port", "0", "--shards", "2", "--worker-mode", mode,
                  "--http-port", str(held_port),
                  "--historian", str(tmp_path / "h")])
        self.assert_one_line_error(excinfo)
        assert self.historian_writers() == writers
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-worker")
        ]

    def test_other_os_errors_keep_their_traceback(self, model_path, tmp_path):
        """Only the binds are one-line errors; the gateway still stops
        and the historian still closes on any other failure."""
        writers = self.historian_writers()
        with pytest.raises(IsADirectoryError):
            main(["serve", "--model", str(model_path), "--quiet",
                  "--port", "0", "--historian", str(tmp_path / "h"),
                  "--port-file", str(tmp_path)])
        assert self.historian_writers() == writers

    def test_fleet_http_port(self, model_path, held_port):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--model", str(model_path), "--sites", "2",
                  "--cycles", "5", "--http-port", str(held_port)])
        self.assert_one_line_error(excinfo)
