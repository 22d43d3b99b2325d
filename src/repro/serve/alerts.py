"""Alert pipeline: severity, dedup/rate-limiting, pluggable sinks.

Raw detector verdicts are too chatty for an operations console — a
scan attack can flag hundreds of consecutive packages.  The pipeline
turns per-package verdicts into operator-facing alerts:

- **Severity** encodes *which* level fired: an unknown package
  signature (Bloom filter, paper level 1) can never be produced by
  normal traffic and maps to ``HIGH``; a top-k miss by the LSTM
  (level 2) is probabilistic evidence and maps to ``MEDIUM``.  A stream
  that keeps firing — a *repeat offender* — escalates one step, so a
  sustained campaign outranks an isolated glitch.
- **Dedup / rate-limiting** works on the *stream clock* (package
  capture timestamps), never wall time, so a replayed capture produces
  byte-identical alert streams run after run.  Repeats of one
  ``(stream, level)`` pair inside ``dedup_window`` seconds are folded
  into the eventual next emission's ``repeats`` count, and each stream
  is capped at ``max_alerts_per_window`` emissions per window.
- **Sinks** are callables receiving :class:`Alert`; ``stdout_sink``,
  :class:`JsonlSink` and any plain function (callback) ship with the
  module.  Sink failures are isolated — one broken sink never blocks
  detection or the other sinks.

The pipeline is a pure observer: it never influences detection
decisions, so gateway verdicts stay bit-identical to offline
:meth:`~repro.core.combined.CombinedDetector.detect` whatever the alert
configuration.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from dataclasses import asdict, dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Any, Callable

from repro.core.stream_engine import LEVEL_NAMES, LEVEL_PACKAGE, LEVEL_TIMESERIES
from repro.ics.features import Package

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


class Severity(IntEnum):
    """Operator-facing alert priority, ordered."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2
    CRITICAL = 3

    def escalate(self) -> "Severity":
        """One step up, saturating at :attr:`CRITICAL`."""
        return Severity(min(self.value + 1, Severity.CRITICAL.value))


#: Base severity by detection level.
LEVEL_SEVERITY = {
    LEVEL_PACKAGE: Severity.HIGH,
    LEVEL_TIMESERIES: Severity.MEDIUM,
}


@dataclass(frozen=True)
class Alert:
    """One emitted alert."""

    stream: str  # stream key of the offending session
    seq: int  # package sequence number within the stream
    time: float  # capture timestamp of the triggering package
    level: int  # LEVEL_* tag of the detector stage that fired
    severity: Severity
    escalated: bool  # repeat-offender escalation applied
    repeats: int  # suppressed duplicates folded into this alert
    label: int  # ground-truth attack id when the capture carries one
    scenario: str | None = None  # model lineage that judged the package...
    version: int | None = None  # ...so alert storms correlate with rollouts
    kind: str = "verdict"  # "verdict" | "drift:<rate>" for synthetic alerts

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES.get(self.level, str(self.level))

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (severity by name, level spelled out)."""
        payload = asdict(self)
        payload["severity"] = self.severity.name
        payload["level"] = self.level_name
        return payload


def alert_from_dict(payload: dict[str, Any]) -> Alert:
    """Inverse of :meth:`Alert.to_dict` — JSONL replay / post-mortem."""
    raw_level = payload["level"]
    if isinstance(raw_level, str):
        for lvl, name in LEVEL_NAMES.items():
            if name == raw_level:
                level = lvl
                break
        else:
            level = int(raw_level)
    else:
        level = int(raw_level)
    version = payload.get("version")
    return Alert(
        stream=str(payload["stream"]),
        seq=int(payload["seq"]),
        time=float(payload["time"]),
        level=level,
        severity=Severity[payload["severity"]],
        escalated=bool(payload["escalated"]),
        repeats=int(payload["repeats"]),
        label=int(payload["label"]),
        scenario=payload.get("scenario"),
        version=None if version is None else int(version),
        kind=str(payload.get("kind", "verdict")),
    )


#: An alert sink: any callable consuming one :class:`Alert`.
AlertSink = Callable[[Alert], None]


def stdout_sink(alert: Alert) -> None:
    """Human-readable one-liner per alert on stdout."""
    escalated = " (escalated)" if alert.escalated else ""
    repeats = f" x{alert.repeats + 1}" if alert.repeats else ""
    print(
        f"[{alert.severity.name:<8}] t={alert.time:10.2f}s "
        f"stream={alert.stream} seq={alert.seq} "
        f"level={alert.level_name}{escalated}{repeats}",
        file=sys.stdout,
    )


class JsonlSink:
    """Append alerts to a JSON-lines file (one object per alert)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self._handle = open(path, "a", encoding="utf-8")

    def __call__(self, alert: Alert) -> None:
        self._handle.write(json.dumps(alert.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


class RecentAlertsBuffer:
    """Sink keeping the newest ``capacity`` alerts for the HTTP API.

    Stores JSON-able dicts (not :class:`Alert` objects) so a snapshot
    can be serialized without touching the pipeline again.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buffer: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._total = 0

    def __call__(self, alert: Alert) -> None:
        self._buffer.append(alert.to_dict())
        self._total += 1

    def snapshot(self) -> list[dict[str, Any]]:
        """Oldest-to-newest copy of the retained alerts."""
        return list(self._buffer)

    @property
    def total(self) -> int:
        """Alerts seen over the buffer's lifetime (including evicted)."""
        return self._total


@dataclass(frozen=True)
class AlertConfig:
    """Tuning knobs for the pipeline, all in stream-clock seconds."""

    dedup_window: float = 5.0  # fold same (stream, level) repeats within this
    rate_window: float = 60.0  # rate-limit accounting window
    max_alerts_per_window: int = 20  # per-stream emission cap per rate window
    escalate_threshold: int = 3  # emissions within escalate_window => escalate
    escalate_window: float = 30.0

    def validate(self) -> "AlertConfig":
        if self.dedup_window < 0:
            raise ValueError(f"dedup_window must be >= 0, got {self.dedup_window}")
        if self.rate_window <= 0:
            raise ValueError(f"rate_window must be > 0, got {self.rate_window}")
        if self.max_alerts_per_window < 1:
            raise ValueError(
                "max_alerts_per_window must be >= 1, got "
                f"{self.max_alerts_per_window}"
            )
        if self.escalate_threshold < 1:
            raise ValueError(
                f"escalate_threshold must be >= 1, got {self.escalate_threshold}"
            )
        if self.escalate_window <= 0:
            raise ValueError(
                f"escalate_window must be > 0, got {self.escalate_window}"
            )
        return self


@dataclass
class _StreamAlertState:
    """Per-stream dedup / rate / escalation bookkeeping."""

    last_emitted_at: dict[int, float] = field(default_factory=dict)  # by level
    pending_repeats: dict[int, int] = field(default_factory=dict)  # by level
    emitted_times: deque = field(default_factory=deque)  # recent emissions
    suppressed: int = 0
    emitted: int = 0


class AlertPipeline:
    """Severity-classify, dedup and fan alerts out to sinks."""

    def __init__(
        self,
        sinks: list[AlertSink] | None = None,
        config: AlertConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = (config or AlertConfig()).validate()
        self._sinks: list[AlertSink] = list(sinks or [])
        self._streams: dict[str, _StreamAlertState] = {}
        self._sink_errors = 0
        self._injected = 0
        self._metrics = metrics
        self._m_suppressed = (
            None
            if metrics is None
            else metrics.counter(
                "alerts_suppressed_total", "Verdicts deduplicated or rate-limited"
            )
        )

    def add_sink(self, sink: AlertSink) -> None:
        self._sinks.append(sink)

    # ------------------------------------------------------------------

    def submit(
        self,
        stream: str,
        seq: int,
        package: Package,
        level: int,
        scenario: str | None = None,
        version: int | None = None,
    ) -> Alert | None:
        """Feed one anomalous verdict; returns the alert if one is emitted.

        ``level`` is the ``LEVEL_*`` tag of the detector stage that
        fired; ``scenario``/``version`` identify the model lineage that
        judged the package (routed gateways).  Returns ``None`` when
        the verdict was deduplicated or rate-limited (still counted in
        :meth:`stats`).
        """
        cfg = self.config
        state = self._streams.setdefault(stream, _StreamAlertState())
        now = package.time

        last = state.last_emitted_at.get(level)
        if last is not None and 0 <= now - last < cfg.dedup_window:
            state.pending_repeats[level] = state.pending_repeats.get(level, 0) + 1
            state.suppressed += 1
            if self._m_suppressed is not None:
                self._m_suppressed.inc()
            return None

        # Rate limit: cap emissions per stream per rate window.
        times = state.emitted_times
        while times and now - times[0] > cfg.rate_window:
            times.popleft()
        if len(times) >= cfg.max_alerts_per_window:
            state.pending_repeats[level] = state.pending_repeats.get(level, 0) + 1
            state.suppressed += 1
            if self._m_suppressed is not None:
                self._m_suppressed.inc()
            return None

        # Repeat offender: streams alerting repeatedly escalate a step.
        recent = sum(1 for t in times if now - t <= cfg.escalate_window)
        escalated = recent + 1 >= cfg.escalate_threshold
        severity = LEVEL_SEVERITY.get(level, Severity.LOW)
        if escalated:
            severity = severity.escalate()

        alert = Alert(
            stream=stream,
            seq=seq,
            time=now,
            level=level,
            severity=severity,
            escalated=escalated,
            repeats=state.pending_repeats.pop(level, 0),
            label=package.label,
            scenario=scenario,
            version=version,
        )
        state.last_emitted_at[level] = now
        times.append(now)
        state.emitted += 1
        if self._metrics is not None:
            self._metrics.counter(
                "alerts_emitted_total",
                "Alerts fanned out to sinks",
                severity=alert.severity.name,
            ).inc()
        self._dispatch(alert)
        return alert

    def inject(self, alert: Alert) -> Alert:
        """Fan a pre-built synthetic alert (e.g. drift) out to sinks.

        Bypasses dedup / rate-limit / escalation bookkeeping entirely so
        the verdict-alert stream stays bit-identical whether or not
        monitors are attached — injection is a pure observer path.
        """
        self._injected += 1
        if self._metrics is not None:
            self._metrics.counter(
                "alerts_emitted_total",
                "Alerts fanned out to sinks",
                severity=alert.severity.name,
            ).inc()
        self._dispatch(alert)
        return alert

    def _dispatch(self, alert: Alert) -> None:
        for sink in self._sinks:
            try:
                sink(alert)
            except Exception:  # noqa: BLE001 - sinks must never break detection
                self._sink_errors += 1

    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Per-stream dedup, rate-limit and escalation state, JSON-able:
        it rides gateway checkpoint metadata, so a resumed gateway
        suppresses exactly what the uninterrupted one would have."""
        return {
            "injected": self._injected,
            "streams": {
                key: {
                    "last_emitted_at": {
                        str(level): at for level, at in s.last_emitted_at.items()
                    },
                    "pending_repeats": {
                        str(level): n for level, n in s.pending_repeats.items()
                    },
                    "emitted_times": list(s.emitted_times),
                    "suppressed": s.suppressed,
                    "emitted": s.emitted,
                }
                for key, s in sorted(self._streams.items())
            },
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore from :meth:`state_dict` output; sinks and config stay."""
        self._injected = int(state["injected"])
        self._streams = {
            str(key): _StreamAlertState(
                last_emitted_at={
                    int(level): float(at)
                    for level, at in entry["last_emitted_at"].items()
                },
                pending_repeats={
                    int(level): int(n)
                    for level, n in entry["pending_repeats"].items()
                },
                emitted_times=deque(float(t) for t in entry["emitted_times"]),
                suppressed=int(entry["suppressed"]),
                emitted=int(entry["emitted"]),
            )
            for key, entry in state["streams"].items()
        }

    def stats(self) -> dict[str, Any]:
        """Aggregate and per-stream emission/suppression counters.

        Safe to call from another thread while the pipeline is live:
        the stream table is snapshotted in one GIL-atomic step before
        iteration.
        """
        streams = list(self._streams.items())
        return {
            "streams": {
                key: {"emitted": s.emitted, "suppressed": s.suppressed}
                for key, s in sorted(streams)
            },
            "emitted": sum(s.emitted for _, s in streams),
            "suppressed": sum(s.suppressed for _, s in streams),
            "injected": self._injected,
            "sink_errors": self._sink_errors,
        }

    def close(self) -> None:
        """Close sinks that hold resources (files, sockets)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()
