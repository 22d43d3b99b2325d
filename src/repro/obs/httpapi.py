"""Read-only fleet HTTP API and minimal dashboard (asyncio + stdlib).

One tiny HTTP/1.1 server exposes a running gateway's observable state
to browsers, scripts and Prometheus scrapers:

====================  ==================================================
``/``                 single-page HTML fleet overview (auto-refreshing)
``/healthz``          liveness probe: status (``degraded`` once a gateway
                      shard failed), uptime and version (JSON)
``/metrics``          Prometheus text exposition of the metrics registry
``/stats``            the gateway's full ``stats()`` dict as JSON
``/registry``         published model lineages (routed gateways; JSON)
``/alerts/recent``    the newest alerts from the ring-buffer sink (JSON)
``/incidents``        correlated incidents, open + recently resolved (JSON)
``/drift``            per-stream drift-monitor rates vs. baseline (JSON)
``/historian/query``  verdict-historian range query (JSON)
``/traces/recent``    newest sampled package traces with stage times (JSON)
``/traces/slowest``   slowest exemplar traces per (scenario, stage) (JSON)
====================  ==================================================

``/historian/query`` accepts ``stream``, ``scenario``, ``since``,
``until`` (epoch seconds) and ``limit`` query parameters, mirroring
:meth:`repro.obs.historian.Historian.query`; the live write buffer is
flushed before the scan so a query always covers every verdict already
delivered.

Errors come back as JSON bodies — ``{"error": ..., "status": ...}`` —
with the matching status code (400 on a malformed request target or
query parameter, including a ``limit`` below 1; 404 on unknown paths or
unattached subsystems), never an HTML traceback.

The server is **strictly read-only** — every endpoint answers GET (and
HEAD) only, mutating nothing, so exposing it on an ops network cannot
influence detection.  It deliberately implements just enough HTTP for
curl, browsers and scrapers: request line + headers in, one
``Connection: close`` response out, no keep-alive, no TLS (front it
with a real proxy if you need either).

:class:`ObsServer` runs on whatever event loop calls
:meth:`ObsServer.start` (the CLI starts it next to the gateway);
:func:`start_obs_in_thread` gives it a private background loop for
tests, notebooks and the fleet runner.
"""

from __future__ import annotations

import asyncio
import html
import json
import time
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, unquote, urlsplit

from repro.utils.loop_thread import LoopThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.historian import Historian
    from repro.obs.incidents import IncidentCorrelator
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.monitors import DriftMonitorBank
    from repro.obs.tracing import Tracer
    from repro.registry.store import ModelRegistry
    from repro.serve.alerts import RecentAlertsBuffer
    from repro.serve.gateway import DetectionGateway

__all__ = ["ObsServer", "ObsServerHandle", "start_obs_in_thread"]

#: Hard cap on one request head (request line + headers).
_MAX_REQUEST_BYTES = 16384

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


def _error_body(status: int, message: str) -> bytes:
    return json.dumps({"error": message, "status": status}).encode("utf-8")


def _json_default(value: Any) -> Any:
    """Last-resort JSON coercion for numpy scalars riding stats dicts."""
    for attr in ("item",):
        method = getattr(value, attr, None)
        if callable(method):
            return method()
    return str(value)


class ObsServer:
    """Serve the observability surface of one gateway over HTTP."""

    def __init__(
        self,
        *,
        gateway: "DetectionGateway | None" = None,
        metrics: "MetricsRegistry | None" = None,
        historian: "Historian | None" = None,
        recent_alerts: "RecentAlertsBuffer | None" = None,
        registry: "ModelRegistry | None" = None,
        incidents: "IncidentCorrelator | None" = None,
        monitors: "DriftMonitorBank | None" = None,
        tracer: "Tracer | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        title: str = "repro fleet",
    ) -> None:
        self._gateway = gateway
        self._metrics = metrics
        self._historian = historian
        self._recent_alerts = recent_alerts
        self._registry = registry
        if registry is None and gateway is not None:
            self._registry = getattr(gateway, "registry", None)
        # Incident correlator / drift monitors ride the gateway unless
        # attached explicitly (offline post-mortem servers).
        self._incidents = incidents
        if incidents is None and gateway is not None:
            self._incidents = getattr(gateway, "incidents", None)
        self._monitors = monitors
        if monitors is None and gateway is not None:
            self._monitors = getattr(gateway, "monitors", None)
        self._tracer = tracer
        if tracer is None and gateway is not None:
            self._tracer = getattr(gateway, "tracer", None)
        self._host = host
        self._port = port
        self._title = title
        self._server: asyncio.AbstractServer | None = None
        self._requests = 0
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("observability server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` — read after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("observability server is not listening")
        return self._server.sockets[0].getsockname()[:2]

    # -- request plumbing ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10.0
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
                TimeoutError,
                ConnectionError,
            ):
                return
            if len(head) > _MAX_REQUEST_BYTES:
                status, content_type = 400, "application/json"
                body = _error_body(400, "request too large")
                extra: dict[str, str] = {}
            else:
                status, content_type, body, extra = self._respond(head)
            head_lines = (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
                f"Content-Type: {content_type}; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Cache-Control: no-store\r\n"
            )
            for name, value in extra.items():
                head_lines += f"{name}: {value}\r\n"
            head_lines += "Connection: close\r\n\r\n"
            writer.write(head_lines.encode("ascii"))
            writer.write(body)
            try:
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _respond(self, head: bytes) -> tuple[int, str, bytes, dict[str, str]]:
        self._requests += 1
        # A gateway on another loop may be mid fan-out of verdicts its
        # clients already hold; let it finish so reads cover them.
        if self._gateway is not None:
            self._gateway.settle()
        try:
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split(" ")
            if len(parts) != 3:
                raise _HttpError(400, "malformed request line")
            method, target, _version = parts
            if method not in ("GET", "HEAD"):
                raise _HttpError(
                    405,
                    "read-only API: GET/HEAD only",
                    headers={"Allow": "GET, HEAD"},
                )
            try:
                split = urlsplit(target)
            except ValueError as exc:  # e.g. an unclosed "[" IPv6 host
                raise _HttpError(400, f"malformed request target: {exc}") from exc
            path = unquote(split.path)
            params = {
                key: values[-1]
                for key, values in parse_qs(split.query).items()
            }
            content_type, body = self.handle(path, params)
            if method == "HEAD":
                body = b""
            return 200, content_type, body, {}
        except _HttpError as exc:
            # Machine-readable errors: a malformed query parameter is a
            # JSON 400 a client can parse, never an HTML traceback.
            return (
                exc.status,
                "application/json",
                _error_body(exc.status, exc.message),
                exc.headers,
            )
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return (
                500,
                "application/json",
                _error_body(500, f"internal error: {exc}"),
                {},
            )

    # -- routing -------------------------------------------------------

    def handle(
        self, path: str, params: dict[str, str]
    ) -> tuple[str, bytes]:
        """Dispatch one request path; returns ``(content_type, body)``.

        Exposed for in-process testing: drives the exact code the
        socket path runs, minus the socket.
        """
        if path in ("/", "/index.html"):
            return "text/html", self._page_overview().encode("utf-8")
        if path == "/healthz":
            return "application/json", self._json(self._healthz())
        if path == "/incidents":
            if self._incidents is None:
                raise _HttpError(404, "no incident correlator attached")
            payload = self._incidents.snapshot()
            limit = self._int_param(params, "limit")
            if limit is not None:
                payload["open"] = payload["open"][-limit:]
                payload["resolved"] = payload["resolved"][-limit:]
            return "application/json", self._json(payload)
        if path == "/drift":
            if self._monitors is None:
                raise _HttpError(404, "no drift monitors attached")
            return "application/json", self._json(self._monitors.stats())
        if path == "/metrics":
            if self._metrics is None:
                raise _HttpError(404, "no metrics registry attached")
            return (
                "text/plain; version=0.0.4",
                self._metrics.render_prometheus().encode("utf-8"),
            )
        if path == "/stats":
            return "application/json", self._json(self._stats())
        if path == "/registry":
            return "application/json", self._json(self._registry_payload())
        if path == "/alerts/recent":
            if self._recent_alerts is None:
                raise _HttpError(404, "no recent-alerts buffer attached")
            limit = self._int_param(params, "limit")
            alerts = self._recent_alerts.snapshot()
            if limit is not None:
                alerts = alerts[-limit:]
            return "application/json", self._json({"alerts": alerts})
        if path == "/historian/query":
            return "application/json", self._json(
                self._historian_query(params)
            )
        if path == "/traces/recent":
            if self._tracer is None:
                raise _HttpError(404, "no tracer attached")
            unknown = set(params) - {"limit"}
            if unknown:
                raise _HttpError(400, f"unknown parameters: {sorted(unknown)}")
            limit = self._int_param(params, "limit")
            spans = self._tracer.recent(50 if limit is None else limit)
            return "application/json", self._json(
                {"count": len(spans), "spans": spans}
            )
        if path == "/traces/slowest":
            if self._tracer is None:
                raise _HttpError(404, "no tracer attached")
            return "application/json", self._json(
                {"slowest": self._tracer.slowest()}
            )
        raise _HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _json(payload: Any) -> bytes:
        return json.dumps(
            payload, indent=2, sort_keys=True, default=_json_default
        ).encode("utf-8")

    @staticmethod
    def _int_param(params: dict[str, str], name: str) -> int | None:
        raw = params.get(name)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError as exc:
            raise _HttpError(400, f"{name} must be an integer: {raw!r}") from exc
        if value < 1:
            # A limit keeps the newest `limit` items; x[-0:] would keep
            # them all and a negative value would silently flip the slice.
            raise _HttpError(400, f"{name} must be >= 1: {raw!r}")
        return value

    @staticmethod
    def _float_param(params: dict[str, str], name: str) -> float | None:
        raw = params.get(name)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError as exc:
            raise _HttpError(400, f"{name} must be a number: {raw!r}") from exc

    # -- endpoint bodies -----------------------------------------------

    def _healthz(self) -> dict[str, Any]:
        from repro import __version__

        failed = getattr(self._gateway, "failed_shards", None)
        return {
            "status": "degraded" if failed else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "version": __version__,
            "requests": self._requests,
        }

    def _stats(self) -> dict[str, Any]:
        if self._gateway is None:
            raise _HttpError(404, "no gateway attached")
        return self._gateway.stats()

    def _registry_payload(self) -> dict[str, Any]:
        if self._registry is None:
            raise _HttpError(
                404, "no model registry attached (homogeneous gateway?)"
            )
        return {
            "root": str(getattr(self._registry, "root", "")),
            "entries": [
                {
                    "scenario": entry.scenario,
                    "version": entry.version,
                    "active": entry.active,
                    "path": entry.path,
                    "meta": entry.meta,
                }
                for entry in self._registry.entries()
            ],
        }

    def _historian_query(self, params: dict[str, str]) -> dict[str, Any]:
        if self._historian is None:
            raise _HttpError(404, "no historian attached")
        unknown = set(params) - {"stream", "scenario", "since", "until", "limit"}
        if unknown:
            raise _HttpError(400, f"unknown parameters: {sorted(unknown)}")
        limit = self._int_param(params, "limit")
        if limit is None:
            limit = 1000  # triage default; cap unbounded scans in JSON
        from repro.obs.historian import HistorianError

        self._historian.flush()
        try:
            records = self._historian.query(
                stream_key=params.get("stream"),
                scenario=params.get("scenario"),
                since=self._float_param(params, "since"),
                until=self._float_param(params, "until"),
                limit=limit,
            )
        except HistorianError as exc:
            raise _HttpError(400, str(exc)) from exc
        return {
            "count": len(records),
            "records": [record.to_dict() for record in records],
        }

    # -- dashboard -----------------------------------------------------

    def _page_overview(self) -> str:
        """One self-contained HTML page: the fleet at a glance."""
        sections: list[str] = []
        stats: dict[str, Any] | None = None
        if self._gateway is not None:
            try:
                stats = self._gateway.stats()
            except Exception:  # noqa: BLE001 - page must render regardless
                stats = None
        if stats is not None:
            alerts = stats.get("alerts", {})
            tiles = [
                ("mode", stats.get("mode", "?")),
                ("packages", stats.get("processed", 0)),
                ("streams", stats.get("streams", 0)),
                ("live sessions", stats.get("live_sessions", 0)),
                ("alerts emitted", alerts.get("emitted", 0)),
                ("alerts suppressed", alerts.get("suppressed", 0)),
                ("peak queue depth", stats.get("peak_queue_depth", 0)),
                ("checkpoints", stats.get("checkpoints_written", 0)),
            ]
            if stats.get("mode") == "registry":
                tiles += [
                    ("identified", stats.get("identified", 0)),
                    ("abstained", stats.get("abstained", 0)),
                    ("hot-swaps", stats.get("swaps_applied", 0)),
                ]
            sections.append(
                "<h2>Gateway</h2><table>"
                + "".join(
                    f"<tr><th>{html.escape(str(k))}</th>"
                    f"<td>{html.escape(str(v))}</td></tr>"
                    for k, v in tiles
                )
                + "</table>"
            )
            transport = stats.get("transport", {})
            if transport:
                head = (
                    "<tr><th>dialect</th><th>connections</th>"
                    "<th>frames</th><th>junk bytes</th><th>resyncs</th></tr>"
                )
                rows = "".join(
                    f"<tr><td>{html.escape(name)}</td>"
                    f"<td>{c.get('connections', 0)}</td>"
                    f"<td>{c.get('frames_decoded', 0)}</td>"
                    f"<td>{c.get('bytes_discarded', 0)}</td>"
                    f"<td>{c.get('resyncs', 0)}</td></tr>"
                    for name, c in sorted(transport.items())
                )
                sections.append(f"<h2>Transport</h2><table>{head}{rows}</table>")
            routes = stats.get("routes", {})
            if routes:
                head = (
                    "<tr><th>stream</th><th>model</th><th>protocol</th>"
                    "<th>shard</th><th>packages</th></tr>"
                )
                rows = "".join(
                    "<tr>"
                    f"<td>{html.escape(str(key))}</td>"
                    f"<td>{html.escape(str(route.get('scenario')))}"
                    f"@{html.escape(str(route.get('version')))}</td>"
                    f"<td>{html.escape(str(route.get('protocol')))}</td>"
                    f"<td>{route.get('shard', '?')}</td>"
                    f"<td>{route.get('packages', 0)}</td>"
                    "</tr>"
                    for key, route in sorted(routes.items())
                )
                sections.append(f"<h2>Streams</h2><table>{head}{rows}</table>")
        if self._incidents is not None:
            snap = self._incidents.snapshot()
            counts = snap["counts"]
            head = (
                "<tr><th>id</th><th>status</th><th>model</th>"
                "<th>severity</th><th>streams</th><th>alerts</th>"
                "<th>first seen</th><th>last seen</th></tr>"
            )
            shown = snap["open"] + snap["resolved"][-5:]
            rows = "".join(
                "<tr>"
                f"<td>{inc['id']}</td>"
                f"<td>{html.escape(str(inc['status']))}</td>"
                f"<td>{html.escape(str(inc['scenario']))}"
                f"@{html.escape(str(inc['version']))}</td>"
                f"<td>{html.escape(str(inc['severity']))}</td>"
                f"<td>{len(inc['streams'])}</td>"
                f"<td>{inc['alerts']}</td>"
                f"<td>{inc['first_seen']:.2f}</td>"
                f"<td>{inc['last_seen']:.2f}</td>"
                "</tr>"
                for inc in shown
            )
            if not rows:
                rows = '<tr><td colspan="8">no incidents</td></tr>'
            sections.append(
                f"<h2>Incidents ({counts['open']} open, "
                f"{counts['resolved_total']} resolved)</h2>"
                f"<table>{head}{rows}</table>"
            )
        if self._recent_alerts is not None:
            recent = self._recent_alerts.snapshot()[-15:]
            if recent:
                head = (
                    "<tr><th>t</th><th>stream</th><th>severity</th>"
                    "<th>level</th><th>model</th><th>seq</th></tr>"
                )
                rows = "".join(
                    "<tr>"
                    f"<td>{alert.get('time', 0):.2f}</td>"
                    f"<td>{html.escape(str(alert.get('stream')))}</td>"
                    f"<td>{html.escape(str(alert.get('severity')))}</td>"
                    f"<td>{html.escape(str(alert.get('level')))}</td>"
                    f"<td>{html.escape(str(alert.get('scenario')))}"
                    f"@{html.escape(str(alert.get('version')))}</td>"
                    f"<td>{alert.get('seq', 0)}</td>"
                    "</tr>"
                    for alert in reversed(recent)
                )
                sections.append(
                    f"<h2>Recent alerts</h2><table>{head}{rows}</table>"
                )
        if self._tracer is not None:
            tstats = self._tracer.stats()
            summary = tstats.get("stages", {})
            head = (
                "<tr><th>stage</th><th>spans</th><th>p50 ms</th>"
                "<th>p99 ms</th><th>critical-path share</th></tr>"
            )
            rows = "".join(
                "<tr>"
                f"<td>{html.escape(stage)}</td>"
                f"<td>{entry['count']}</td>"
                f"<td>{entry['p50_seconds'] * 1e3:.3f}</td>"
                f"<td>{entry['p99_seconds'] * 1e3:.3f}</td>"
                "<td><div style=\"background:#9cf;height:10px;"
                f"width:{max(1, round(entry['share'] * 200))}px\"></div>"
                f"{entry['share'] * 100:.1f}%</td>"
                "</tr>"
                for stage, entry in summary.items()
            )
            if not rows:
                rows = '<tr><td colspan="5">no spans sampled yet</td></tr>'
            sections.append(
                f"<h2>Tracing (1/{tstats['sample_every']} sampled, "
                f"{tstats['spans_finished']} spans)</h2>"
                f"<table>{head}{rows}</table>"
            )
        if self._historian is not None:
            hstats = self._historian.stats()
            sections.append(
                "<h2>Historian</h2><table>"
                f"<tr><th>root</th><td>{html.escape(hstats['root'])}</td></tr>"
                f"<tr><th>appended (this run)</th><td>{hstats['appended']}</td></tr>"
                f"<tr><th>segments</th><td>{hstats['segments']}</td></tr>"
                f"<tr><th>bytes</th><td>{hstats['bytes']}</td></tr>"
                "</table>"
            )
        links = " · ".join(
            f'<a href="{path}">{path}</a>'
            for path in (
                "/healthz",
                "/metrics",
                "/stats",
                "/registry",
                "/alerts/recent",
                "/incidents",
                "/drift",
                "/historian/query?limit=50",
                "/traces/recent",
                "/traces/slowest",
            )
        )
        body = "".join(sections) or "<p>nothing attached yet</p>"
        return (
            "<!doctype html><html><head>"
            f"<title>{html.escape(self._title)}</title>"
            '<meta http-equiv="refresh" content="5">'
            "<style>"
            "body{font-family:monospace;margin:2em;background:#111;color:#ddd}"
            "table{border-collapse:collapse;margin:0 0 1.5em}"
            "td,th{border:1px solid #444;padding:2px 10px;text-align:left}"
            "th{color:#9cf}h1,h2{color:#fff}a{color:#9cf}"
            "</style></head><body>"
            f"<h1>{html.escape(self._title)}</h1>"
            f"<p>{links}</p>"
            f"{body}"
            "</body></html>"
        )


class ObsServerHandle:
    """An :class:`ObsServer` running on its own background event loop."""

    def __init__(self, server: ObsServer, runner: LoopThread) -> None:
        self.server = server
        self._runner = runner

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        self._runner.stop(self.server.stop(), timeout)


def start_obs_in_thread(server: ObsServer) -> ObsServerHandle:
    """Run an observability server on a daemon thread (tests, fleets)."""
    return ObsServerHandle(server, LoopThread(server.start(), "repro-obs-http"))
