"""Per-package tracing plane: span pipeline, stage-latency attribution
and offline trace analysis.

Every *sampled* package carries a :class:`TraceSpan` through the whole
serving path — frame decode → route resolution → shard enqueue →
(thread or process) worker tick → verdict → alert/historian delivery —
and the gateway stamps each stage with its duration from monotonic
timestamps.  The stage vocabulary:

=========  ====================================================
``decode``   frame receipt → telemetry record decoded (CRC checked)
``route``    decode → route resolved and the package enqueued
``queue``    enqueue → its engine group starts: the wait for its
             shard's drain plus the groups ahead of it in that drain
``tick``     the batched LSTM step (thread backend, per route group)
``worker``   the batched LSTM step inside the worker process
``pipe``     process-backend pipe round-trip minus worker compute
``deliver``  its group's end → span finish: the drain's later groups,
             its verdict frames and the historian/alert/monitor
             fan-out up to its own
=========  ====================================================

The stages of a span add up to its wall time from frame receipt to
finish.

Sampling is **stream-clock-seeded**, never wall-clock: a package is
sampled iff ``crc32("<stream>:<seq>") % sample_every == 0``, and its
trace id is a digest of the same token.  A replay therefore selects
exactly the same packages and assigns them exactly the same ids — the
property the kill+resume E2E test pins down — and tracing is a pure
observer: verdict streams are bit-identical with it on or off.
(Packages buffered during probe auto-identification bypass sampling;
they are re-enqueued untraced, deterministically.)

The tracer keeps a bounded in-memory store of recent spans, retains
the slowest exemplar traces per ``(scenario, stage)``, feeds
``trace_stage_seconds{stage,scenario}`` histograms into the metrics
registry, and optionally appends every finished span to a JSONL export
that ``repro trace`` (see :func:`load_spans` / :func:`aggregate_spans`)
turns into an offline stage-attribution table.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Iterable

__all__ = [
    "STAGE_ORDER",
    "TraceConfig",
    "TraceSpan",
    "Tracer",
    "aggregate_spans",
    "load_spans",
]

#: Canonical stage order, used for waterfall rendering and report rows.
STAGE_ORDER = ("decode", "route", "queue", "tick", "worker", "pipe", "deliver")


@dataclass(frozen=True)
class TraceConfig:
    """Tuning knobs for the tracing plane.

    ``sample_every=1`` traces every package; the default keeps the
    serving overhead within the CI gate (``benchmarks/bench_tracing.py``).
    """

    sample_every: int = 64
    store_capacity: int = 512
    slowest_per_key: int = 3
    export_path: str | None = None

    def validate(self) -> "TraceConfig":
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.store_capacity < 1:
            raise ValueError(
                f"store_capacity must be >= 1, got {self.store_capacity}"
            )
        if self.slowest_per_key < 1:
            raise ValueError(
                f"slowest_per_key must be >= 1, got {self.slowest_per_key}"
            )
        return self


class TraceSpan:
    """One sampled package's span context.

    ``mark`` is the monotonic timestamp of the last stage boundary; the
    gateway advances it as the package crosses stages and records each
    stage's duration into ``stages``.  The span rides the shard queue
    (and, in process mode, stays gateway-side while its package crosses
    the worker pipe) until :meth:`Tracer.finish` seals it.
    """

    __slots__ = ("trace_id", "stream", "seq", "mark", "stages")

    def __init__(self, trace_id: str, stream: str, seq: int, mark: float):
        self.trace_id = trace_id
        self.stream = stream
        self.seq = seq
        self.mark = mark
        self.stages: dict[str, float] = {}


def _sample_token(stream: str, seq: int) -> bytes:
    return f"{stream}:{seq}".encode("utf-8", "replace")


class Tracer:
    """Deterministic-sampling span collector; a pure observer.

    Thread-safe: spans finish on the gateway loop thread while the HTTP
    API reads ``recent()``/``slowest()``/``stats()`` from its own.
    """

    def __init__(
        self,
        config: TraceConfig | None = None,
        *,
        metrics: Any = None,
    ) -> None:
        self.config = (config if config is not None else TraceConfig()).validate()
        self._metrics = metrics
        self._recent: deque[dict[str, Any]] = deque(
            maxlen=self.config.store_capacity
        )
        self._slowest: dict[tuple[str, str], list[dict[str, Any]]] = {}
        self._histograms: dict[tuple[str, str], Any] = {}
        self._export = None
        self._lock = threading.Lock()
        self._started = 0
        self._finished = 0
        self._exported = 0

    # -- sampling ----------------------------------------------------

    def should_sample(self, stream: str, seq: int) -> bool:
        """Deterministic in ``(stream, seq)`` — identical across replays."""
        token = _sample_token(stream, seq)
        return zlib.crc32(token) % self.config.sample_every == 0

    @staticmethod
    def trace_id(stream: str, seq: int) -> str:
        return blake2b(_sample_token(stream, seq), digest_size=8).hexdigest()

    def start(self, stream: str, seq: int, mark: float) -> TraceSpan | None:
        """Open a span for ``(stream, seq)`` if it is sampled, else None."""
        if not self.should_sample(stream, seq):
            return None
        with self._lock:
            self._started += 1
        return TraceSpan(self.trace_id(stream, seq), stream, seq, mark)

    # -- collection --------------------------------------------------

    def finish(
        self,
        span: TraceSpan,
        *,
        scenario: str | None = None,
        version: int | None = None,
        time: float | None = None,
    ) -> dict[str, Any]:
        """Seal a span: store, exemplars, histograms, optional export."""
        record = {
            "trace_id": span.trace_id,
            "stream": span.stream,
            "seq": span.seq,
            "scenario": scenario,
            "version": version,
            "time": time,
            "total_seconds": sum(span.stages.values()),
            "stages": dict(span.stages),
        }
        scenario_key = scenario if scenario is not None else "-"
        keep = self.config.slowest_per_key
        with self._lock:
            self._finished += 1
            self._recent.append(record)
            for stage, seconds in record["stages"].items():
                bucket = self._slowest.setdefault((scenario_key, stage), [])
                bucket.append(record)
                bucket.sort(key=lambda rec: -rec["stages"][stage])
                del bucket[keep:]
                if self._metrics is not None:
                    key = (stage, scenario_key)
                    histogram = self._histograms.get(key)
                    if histogram is None:
                        histogram = self._metrics.histogram(
                            "trace_stage_seconds",
                            "Per-stage latency of sampled package traces.",
                            stage=stage,
                            scenario=scenario_key,
                        )
                        self._histograms[key] = histogram
                    histogram.observe(seconds)
            if self.config.export_path is not None:
                if self._export is None:
                    self._export = open(
                        self.config.export_path, "a", encoding="utf-8"
                    )
                self._export.write(json.dumps(record, sort_keys=True) + "\n")
                self._exported += 1
        return record

    # -- read side ---------------------------------------------------

    def recent(self, limit: int = 50) -> list[dict[str, Any]]:
        """Newest finished spans first, at most ``limit``."""
        with self._lock:
            spans = list(self._recent)
        spans.reverse()
        return spans[: max(0, limit)]

    def slowest(self) -> list[dict[str, Any]]:
        """Slowest exemplar traces per ``(scenario, stage)``, sorted."""
        with self._lock:
            rows = [
                {
                    "scenario": scenario,
                    "stage": stage,
                    "seconds": record["stages"][stage],
                    "trace": record,
                }
                for (scenario, stage), bucket in self._slowest.items()
                for record in bucket
            ]
        rows.sort(key=lambda row: -row["seconds"])
        return rows

    def stage_summary(self) -> dict[str, dict[str, float]]:
        """Per-stage p50/p99/mean and critical-path share over the store."""
        with self._lock:
            spans = list(self._recent)
        return _summarize_stages(spans)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            started, finished = self._started, self._finished
            stored, exported = len(self._recent), self._exported
        return {
            "sample_every": self.config.sample_every,
            "spans_started": started,
            "spans_finished": finished,
            "spans_stored": stored,
            "spans_exported": exported,
            "stages": self.stage_summary(),
        }

    # -- export lifecycle --------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if self._export is not None:
                self._export.flush()

    def close(self) -> None:
        with self._lock:
            if self._export is not None:
                self._export.close()
                self._export = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- offline analysis (the `repro trace` backend) --------------------


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
    return ordered[int(rank) - 1]


def _summarize_stages(
    records: Iterable[dict[str, Any]],
) -> dict[str, dict[str, float]]:
    per_stage: dict[str, list[float]] = {}
    for record in records:
        for stage, seconds in record.get("stages", {}).items():
            per_stage.setdefault(stage, []).append(float(seconds))
    grand_total = sum(sum(values) for values in per_stage.values())
    ordered_stages = [s for s in STAGE_ORDER if s in per_stage]
    ordered_stages += sorted(set(per_stage) - set(STAGE_ORDER))
    summary: dict[str, dict[str, float]] = {}
    for stage in ordered_stages:
        values = sorted(per_stage[stage])
        total = sum(values)
        summary[stage] = {
            "count": len(values),
            "p50_seconds": _percentile(values, 50),
            "p99_seconds": _percentile(values, 99),
            "mean_seconds": total / len(values),
            "total_seconds": total,
            "share": total / grand_total if grand_total > 0 else 0.0,
        }
    return summary


def load_spans(path) -> list[dict[str, Any]]:
    """Read a JSONL span export, rejecting malformed lines with location."""
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
            if not isinstance(record, dict) or not isinstance(
                record.get("stages"), dict
            ):
                raise ValueError(f"{path}:{lineno}: not a span record")
            records.append(record)
    return records


def aggregate_spans(
    records: Iterable[dict[str, Any]],
    *,
    scenario: str | None = None,
) -> dict[str, Any]:
    """Fold exported spans into a stage-attribution table.

    Returns per-stage count/p50/p99/mean plus each stage's
    *critical-path share* — its fraction of all traced time, the number
    that says where an optimisation PR should aim.
    """
    selected = [
        record
        for record in records
        if scenario is None or record.get("scenario") == scenario
    ]
    totals = sorted(
        float(
            record.get("total_seconds")
            or sum(record.get("stages", {}).values())
        )
        for record in selected
    )
    return {
        "spans": len(selected),
        "scenario": scenario,
        "total_p50_seconds": _percentile(totals, 50),
        "total_p99_seconds": _percentile(totals, 99),
        "stages": _summarize_stages(selected),
    }
