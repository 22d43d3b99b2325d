"""Read-only HTTP API tests: routing, serialization, real sockets."""

from __future__ import annotations

import gc
import json
import socket
import threading
import urllib.error
import urllib.request
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.historian import Historian
from repro.obs.httpapi import ObsServer, start_obs_in_thread
from repro.obs.metrics import MetricsRegistry


class _StubGateway:
    """Just enough stats() surface for dashboard/stats endpoints."""

    def settle(self):
        pass

    def stats(self):
        return {
            "mode": "single",
            "processed": 42,
            "streams": 2,
            "live_sessions": 1,
            "peak_queue_depth": 5,
            "checkpoints_written": 0,
            "alerts": {"emitted": 3, "suppressed": 1},
            "transport": {
                "modbus": {
                    "connections": 2,
                    "frames_decoded": 43,
                    "bytes_discarded": 0,
                    "resyncs": 0,
                }
            },
            "routes": {
                "plant-1": {
                    "scenario": "gas_pipeline",
                    "version": 1,
                    "protocol": "modbus",
                    "shard": 0,
                    "packages": 42,
                }
            },
        }


def _get(server: ObsServer, path: str, params=None):
    return server.handle(path, params or {})


class TestRouting:
    def test_unknown_path_is_404(self):
        server = ObsServer(gateway=_StubGateway())
        with pytest.raises(Exception, match="unknown path"):
            _get(server, "/nope")

    def test_stats_json(self):
        server = ObsServer(gateway=_StubGateway())
        content_type, body = _get(server, "/stats")
        assert content_type == "application/json"
        assert json.loads(body)["processed"] == 42

    def test_metrics_exposition(self):
        registry = MetricsRegistry()
        registry.counter("pkts_total").inc(9)
        server = ObsServer(metrics=registry)
        content_type, body = _get(server, "/metrics")
        assert content_type.startswith("text/plain")
        assert b"pkts_total 9" in body

    def test_endpoints_404_when_component_missing(self):
        server = ObsServer(gateway=_StubGateway())
        for path in ("/metrics", "/alerts/recent", "/registry"):
            with pytest.raises(Exception, match="404|no "):
                _get(server, path)
        with pytest.raises(Exception, match="no historian"):
            _get(server, "/historian/query")

    def test_alerts_recent_respects_limit(self):
        from repro.serve.alerts import RecentAlertsBuffer

        buffer = RecentAlertsBuffer(capacity=8)
        for i in range(5):
            buffer(_FakeAlert(i))
        server = ObsServer(recent_alerts=buffer)
        _, body = _get(server, "/alerts/recent", {"limit": "2"})
        alerts = json.loads(body)["alerts"]
        assert [a["seq"] for a in alerts] == [3, 4]

    def test_historian_query_params(self, tmp_path):
        historian = Historian(tmp_path / "h")
        for seq in range(6):
            historian.append(
                "k", "gas", 1, seq, 0, False, None, wall_time=100.0 + seq
            )
        server = ObsServer(historian=historian)
        try:
            _, body = _get(
                server,
                "/historian/query",
                {"stream": "k", "since": "102", "limit": "2"},
            )
            payload = json.loads(body)
            assert payload["count"] == 2
            assert [r["seq"] for r in payload["records"]] == [4, 5]
            with pytest.raises(Exception, match="unknown parameters"):
                _get(server, "/historian/query", {"bogus": "1"})
            with pytest.raises(Exception, match="must be a number"):
                _get(server, "/historian/query", {"since": "abc"})
            with pytest.raises(Exception, match="must be an integer"):
                _get(server, "/historian/query", {"limit": "two"})
            with pytest.raises(Exception, match="must be >= 1"):
                _get(server, "/historian/query", {"limit": "-3"})
        finally:
            historian.close()

    def test_traces_endpoints_serve_tracer_state(self):
        from repro.obs.tracing import TraceConfig, Tracer

        tracer = Tracer(TraceConfig(sample_every=1))
        for seq in range(4):
            span = tracer.start("plant", seq, 0.0)
            span.stages["decode"] = 0.001 * (seq + 1)
            tracer.finish(span, scenario="gas")
        server = ObsServer(tracer=tracer)
        _, body = _get(server, "/traces/recent", {"limit": "2"})
        payload = json.loads(body)
        assert payload["count"] == 2
        assert [s["seq"] for s in payload["spans"]] == [3, 2]
        _, body = _get(server, "/traces/slowest")
        rows = json.loads(body)["slowest"]
        assert rows[0]["seconds"] == pytest.approx(0.004)
        assert rows[0]["scenario"] == "gas"
        with pytest.raises(Exception, match="must be an integer"):
            _get(server, "/traces/recent", {"limit": "abc"})
        with pytest.raises(Exception, match="unknown parameters"):
            _get(server, "/traces/recent", {"bogus": "1"})

    def test_traces_endpoints_404_without_tracer(self):
        server = ObsServer(gateway=_StubGateway())
        for path in ("/traces/recent", "/traces/slowest"):
            with pytest.raises(Exception, match="no tracer"):
                _get(server, path)

    def test_tracer_adopted_from_gateway(self):
        from repro.obs.tracing import TraceConfig, Tracer

        gateway = _StubGateway()
        gateway.tracer = Tracer(TraceConfig(sample_every=1))
        server = ObsServer(gateway=gateway)
        _, body = _get(server, "/traces/recent")
        assert json.loads(body) == {"count": 0, "spans": []}

    def test_healthz_reports_uptime_and_version(self):
        from repro import __version__

        server = ObsServer()
        content_type, body = _get(server, "/healthz")
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["version"] == __version__
        assert payload["uptime_seconds"] >= 0

    def test_incidents_endpoint_serves_correlator_snapshot(self):
        from repro.obs.incidents import CorrelatorConfig, IncidentCorrelator
        from repro.serve.alerts import Alert, Severity

        correlator = IncidentCorrelator(
            CorrelatorConfig(window=10.0, resolve_after=30.0)
        )
        for i, scenario in enumerate(["gas", "gas", "water"]):
            correlator(
                Alert(
                    stream=f"s{i}",
                    seq=i,
                    time=float(i),
                    level=1,
                    severity=Severity.HIGH,
                    escalated=False,
                    repeats=0,
                    label=1,
                    scenario=scenario,
                    version=1,
                )
            )
        server = ObsServer(incidents=correlator)
        _, body = _get(server, "/incidents")
        payload = json.loads(body)
        assert payload["counts"]["open"] == 2
        assert len(payload["open"]) == 2
        _, body = _get(server, "/incidents", {"limit": "1"})
        assert len(json.loads(body)["open"]) == 1

    def test_drift_endpoint_serves_monitor_stats(self):
        from repro.obs.monitors import DriftMonitorBank, DriftMonitorConfig

        bank = DriftMonitorBank(
            DriftMonitorConfig(baseline_packages=2, min_packages=3)
        )
        for i in range(5):
            bank.observe("s1", i, float(i), 0)
        server = ObsServer(monitors=bank)
        _, body = _get(server, "/drift")
        payload = json.loads(body)
        assert payload["streams"]["s1"]["warmed_up"] is True
        assert payload["drift_alerts"] == 0

    def test_incidents_and_drift_404_when_missing(self):
        server = ObsServer()
        with pytest.raises(Exception, match="no incident correlator"):
            _get(server, "/incidents")
        with pytest.raises(Exception, match="no drift monitors"):
            _get(server, "/drift")

    def test_dashboard_renders_html(self, tmp_path):
        from repro.obs.tracing import TraceConfig, Tracer

        tracer = Tracer(TraceConfig(sample_every=1))
        span = tracer.start("plant-1", 0, 0.0)
        span.stages.update({"decode": 0.001, "queue": 0.004})
        tracer.finish(span, scenario="gas_pipeline")
        historian = Historian(tmp_path / "h")
        try:
            server = ObsServer(
                gateway=_StubGateway(),
                historian=historian,
                tracer=tracer,
                title="t&t",
            )
            content_type, body = _get(server, "/")
            page = body.decode("utf-8")
        finally:
            historian.close()
        assert content_type == "text/html"
        assert "t&amp;t" in page  # titles are escaped
        assert "modbus" in page
        assert "gas_pipeline" in page
        assert "Historian" in page
        assert "Tracing" in page  # the stage waterfall panel
        assert "queue" in page


class _FakeAlert:
    def __init__(self, seq):
        self.seq = seq

    def to_dict(self):
        return {"seq": self.seq}


class TestOverSockets:
    def test_real_http_round_trip(self):
        registry = MetricsRegistry()
        registry.gauge("up").set(1)
        handle = start_obs_in_thread(
            ObsServer(gateway=_StubGateway(), metrics=registry)
        )
        try:
            host, port = handle.address
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
                assert resp.status == 200
                assert b"up 1" in resp.read()
            with urllib.request.urlopen(f"{base}/stats", timeout=5) as resp:
                assert json.loads(resp.read())["streams"] == 2
            with urllib.request.urlopen(f"{base}/", timeout=5) as resp:
                assert resp.headers["Content-Type"].startswith("text/html")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nothing", timeout=5)
            assert excinfo.value.code == 404
            excinfo.value.close()
            # Read-only: non-GET methods are refused.
            request = urllib.request.Request(
                f"{base}/stats", data=b"x", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 405
            # ... and say what IS allowed, per RFC 9110.
            assert excinfo.value.headers["Allow"] == "GET, HEAD"
            excinfo.value.close()
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as resp:
                assert json.loads(resp.read())["status"] == "ok"
        finally:
            handle.stop()

    def test_malformed_params_are_json_400s_not_tracebacks(self, tmp_path):
        """Satellite: a bad query param is a 400 with a machine-readable
        JSON error body — the server never answers 500 for client junk."""
        from repro.obs.incidents import IncidentCorrelator
        from repro.obs.tracing import Tracer
        from repro.serve.alerts import RecentAlertsBuffer

        historian = Historian(tmp_path / "h")
        alerts = RecentAlertsBuffer(capacity=8)
        for i in range(3):
            alerts(_FakeAlert(i))
        handle = start_obs_in_thread(
            ObsServer(
                historian=historian,
                incidents=IncidentCorrelator(),
                recent_alerts=alerts,
                tracer=Tracer(),
            )
        )
        try:
            host, port = handle.address
            base = f"http://{host}:{port}"
            for path in (
                "/incidents?limit=abc",
                "/incidents?limit=-1",
                "/historian/query?since=noon",
                "/historian/query?limit=two",
                # limit=0 is refused everywhere, not "everything" via x[-0:]
                "/incidents?limit=0",
                "/alerts/recent?limit=0",
                "/traces/recent?limit=0",
                "/historian/query?limit=0",
                "//[",  # a target urlsplit rejects (unclosed IPv6 host)
                "/registry",  # 404 (no registry), still JSON
            ):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"{base}{path}", timeout=5)
                assert excinfo.value.code in (400, 404), path
                assert excinfo.value.code == (
                    404 if path.startswith("/registry") else 400
                ), path
                content_type = excinfo.value.headers["Content-Type"]
                assert content_type.startswith("application/json"), path
                body = json.loads(excinfo.value.read())
                excinfo.value.close()
                assert body["status"] == excinfo.value.code, path
                assert body["error"], path
        finally:
            handle.stop()
            historian.close()

    def test_failed_start_leaves_nothing_behind(self):
        """A taken port: start_obs_in_thread raises OSError, its loop is
        closed and its thread joined."""
        gc.collect()
        threads_before = set(threading.enumerate())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with socket.socket() as held:
                held.bind(("127.0.0.1", 0))
                held.listen()
                with pytest.raises(OSError):
                    start_obs_in_thread(ObsServer(port=held.getsockname()[1]))
            gc.collect()
        assert not [
            thread.name
            for thread in set(threading.enumerate()) - threads_before
            if thread.name == "repro-obs-http"
        ]
        assert not [
            w for w in caught if "unclosed event loop" in str(w.message)
        ]


# ----------------------------------------------------------------------
# arbitrary request heads
# ----------------------------------------------------------------------

_PATHS = (
    "/", "/healthz", "/metrics", "/stats", "/registry", "/alerts/recent",
    "/incidents", "/drift", "/historian/query", "/traces/recent",
    "/traces/slowest", "/%zz", "",
)
#: Authority prefixes; the two unclosed IPv6 hosts make urlsplit raise.
_AUTHORITIES = ("", "", "//[", "http://[::1", "//host:80")
_PARAMS = ("limit", "stream", "scenario", "since", "until", "bogus")
_VALUES = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "2", "abc", "nan", "inf", "1e309", "9" * 5000, "%",
         "[", ""]
    ),
    st.text(max_size=12),
)
_QUERY = st.lists(
    st.tuples(st.sampled_from(_PARAMS), _VALUES), max_size=4
).map(lambda pairs: "&".join(f"{key}={value}" for key, value in pairs))
_TARGET = st.one_of(
    st.tuples(
        st.sampled_from(_AUTHORITIES), st.sampled_from(_PATHS), _QUERY
    ).map(lambda parts: parts[0] + parts[1] + (f"?{parts[2]}" if parts[2] else "")),
    st.text(max_size=40),
)
_REQUEST_LINE = st.tuples(
    st.one_of(st.sampled_from(["GET", "HEAD"]), st.text(max_size=6)),
    _TARGET,
    st.sampled_from(["HTTP/1.1", "HTTP/1.0", ""]),
).map(lambda parts: " ".join(parts).encode("utf-8") + b"\r\n\r\n")


class TestRequestHeadFuzz:
    """Any request head gets a 200, 400, 404 or 405 — never a 500 — and
    every error body is JSON carrying ``error`` and ``status``."""

    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        from repro.obs.incidents import IncidentCorrelator
        from repro.obs.tracing import TraceConfig, Tracer
        from repro.serve.alerts import RecentAlertsBuffer

        historian = Historian(tmp_path_factory.mktemp("fuzz") / "h")
        for seq in range(4):
            historian.append(
                "k", "gas", 1, seq, 0, seq % 2 == 1, None, wall_time=100.0 + seq
            )
        alerts = RecentAlertsBuffer(capacity=8)
        for i in range(3):
            alerts(_FakeAlert(i))
        tracer = Tracer(TraceConfig(sample_every=1))
        for seq in range(3):
            span = tracer.start("k", seq, 0.0)
            span.stages["decode"] = 0.001 * (seq + 1)
            tracer.finish(span, scenario="gas")
        yield ObsServer(
            gateway=_StubGateway(),
            metrics=MetricsRegistry(),
            historian=historian,
            recent_alerts=alerts,
            incidents=IncidentCorrelator(),
            tracer=tracer,
        )
        historian.close()

    @staticmethod
    def check(server: ObsServer, head: bytes) -> None:
        status, content_type, body, _ = server._respond(head)
        assert status in (200, 400, 404, 405), (head, body)
        if status != 200:
            assert content_type == "application/json"
            payload = json.loads(body)
            assert payload["status"] == status
            assert payload["error"]

    @given(head=st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_raw_bytes(self, server, head):
        self.check(server, head)

    @given(head=_REQUEST_LINE)
    @settings(max_examples=200, deadline=None)
    def test_request_lines(self, server, head):
        self.check(server, head)
