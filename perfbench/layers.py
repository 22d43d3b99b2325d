"""In-process replays that time each layer's public functions.

Each replay runs on the workload's own inputs: the sites' captures, the
wire bytes the load generator sent, and the verdict stream the gateway
returned.  Every figure is microseconds (or milliseconds) per call or
per package, so it can be set against the end-to-end per-package cost.

The engine replay reproduces ``StreamEngine.observe_batch`` one Fig. 3
seam at a time through the public calls, tick by tick at the rows per
tick the served run measured, and checks its verdicts against the
engine's own on the same ticks.  Spans of every replayed call are kept
in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import json
import shutil
import struct
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.core.signatures import signature_of
from repro.core.stream_engine import LEVEL_NONE, LEVEL_PACKAGE, LEVEL_TIMESERIES
from repro.core.timeseries_detector import BatchStreamState
from repro.ics.features import Package
from repro.nn.activations import softmax
from repro.nn.losses import top_k_sets
from repro.obs.historian import Historian
from repro.obs.incidents import IncidentCorrelator
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import DriftMonitorBank
from repro.registry import ModelRegistry, ScenarioRouter
from repro.serve.alerts import AlertPipeline, RecentAlertsBuffer
from repro.serve.protocols import get_adapter
from repro.serve.transport import KIND_DATA, encode_stream_data
from repro.serve.workers import OP_OBSERVE, SINGLE_LABEL, decode_verdicts, encode_observe

perf_counter = time.perf_counter

#: Engine seams in Fig. 3 order -> the per-layer metric reporting each
#: one in microseconds per package.
SEAMS = {
    "discretization.transform_batch": "discretization.transform_batch_us",
    "package_detector.bloom": "package_detector.bloom_us",
    "signatures.id_of": "signatures.id_of_us",
    "timeseries.top_k": "timeseries.top_k_us",
    "timeseries.encode": "timeseries.encode_us",
    "lstm.step.l0": "lstm.step_us.l0",
    "lstm.step.l1": "lstm.step_us.l1",
    "dense.output": "dense.output_us",
}


class SpanLog:
    """Spans of the benchmark's own replay calls, kept in memory."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def add(
        self, trace: str, name: str, start: float, end: float,
        parent: int | None = None,
    ) -> int:
        span_id = len(self.records)
        self.records.append({
            "span": span_id, "trace": trace, "name": name,
            "start": start, "end": end, "parent": parent,
        })
        return span_id

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def tick_plan(rows_per_tick: float, streams: int, packages: int) -> list[list[int]]:
    """Stream rows advanced by each tick, averaging ``rows_per_tick``.

    Tick ``t`` takes ``floor((t+1)r) - floor(tr)`` rows (clamped to the
    stream count), chosen round-robin, so fractional rates such as 1.07
    become the matching mix of one- and two-row ticks.
    """
    rate = min(max(rows_per_tick, 1.0), float(streams))
    plan: list[list[int]] = []
    cursor = done = 0
    while done < packages:
        t = len(plan)
        size = int((t + 1) * rate) - int(t * rate)
        size = max(1, min(streams, size, packages - done))
        rows = sorted((cursor + i) % streams for i in range(size))
        cursor = (cursor + size) % streams
        plan.append(rows)
        done += size
    return plan


def replay_engine(
    detector, captures: list[list[Package]], plan: list[list[int]],
    spans: SpanLog, trace: str,
) -> tuple[dict[str, float], int, bool]:
    """Time every seam and ``observe_batch`` on the same ticks.

    Returns total seconds per seam (plus ``engine.observe_batch``), the
    packages replayed, and whether the seam-by-seam verdicts and levels
    equal the engine's on every tick.
    """
    streams = len(captures)
    engine = detector.engine(0)
    ids = [engine.attach() for _ in range(streams)]
    disc = detector.discretizer
    package_detector = detector.package_detector
    timeseries = detector.timeseries
    vocabulary = timeseries.vocabulary
    model = timeseries.model
    state = timeseries.new_stream_batch(streams)
    prev_times: list[float | None] = [None] * streams
    cursor = [0] * streams
    totals: dict[str, float] = defaultdict(float)
    packages = 0
    identical = True
    for tick, rows in enumerate(plan):
        batch = [captures[i][cursor[i]] for i in rows]
        mapping = {ids[i]: package for i, package in zip(rows, batch)}
        t0 = perf_counter()
        want_verdicts, want_levels = engine.observe_batch(mapping)
        t1 = perf_counter()

        marks = [perf_counter()]
        codes = disc.transform_batch(batch, [prev_times[i] for i in rows])
        marks.append(perf_counter())
        flagged = package_detector.anomalous_codes_batch(codes)
        marks.append(perf_counter())
        signature_ids = np.array(
            [
                -1 if (sid := vocabulary.id_of(signature_of(c))) is None else sid
                for c in codes
            ],
            dtype=np.int64,
        )
        marks.append(perf_counter())
        partial = rows != list(range(streams))
        current = state.select(rows) if partial else state
        verdicts = flagged.copy()
        judged = ~flagged & current.has_probs
        verdicts |= judged & (signature_ids < 0)
        check = judged & (signature_ids >= 0)
        top_started = perf_counter()
        if check.any():
            sets = top_k_sets(current.last_probs[check], timeseries.k)
            verdicts[check] = ~(sets == signature_ids[check, None]).any(axis=1)
        marks.append(perf_counter())
        inputs = timeseries.encoder.encode_sequence(codes, verdicts)
        marks.append(perf_counter())
        hidden = inputs
        layer_states = []
        for layer, layer_state in zip(model.lstm_layers, current.lstm_states):
            hidden, new_layer_state = layer.step(hidden, layer_state)
            layer_states.append(new_layer_state)
            marks.append(perf_counter())
        probs = softmax(model.output_layer.forward(hidden, keep_cache=False), axis=-1)
        marks.append(perf_counter())

        stepped = BatchStreamState(
            lstm_states=layer_states,
            last_probs=probs,
            has_probs=np.ones(len(rows), dtype=bool),
            packages_seen=current.packages_seen + 1,
        )
        state = state.replace_rows(rows, stepped) if partial else stepped
        for i, package in zip(rows, batch):
            prev_times[i] = package.time
            cursor[i] += 1
        levels = np.full(len(rows), LEVEL_NONE, dtype=np.int64)
        levels[flagged] = LEVEL_PACKAGE
        levels[~flagged & verdicts] = LEVEL_TIMESERIES
        identical = identical and bool(
            np.array_equal(verdicts, want_verdicts)
            and np.array_equal(levels, want_levels)
        )

        # Seam boundaries; the top-k seam starts after the verdict setup.
        names = list(SEAMS)[:5]
        names += [f"lstm.step.l{i}" for i in range(len(layer_states))]
        names.append("dense.output")
        starts = marks[:3] + [top_started] + marks[4:-1]
        trace_id = f"{trace}:{tick}"
        reference = spans.add(trace_id, "engine.observe_batch", t0, t1)
        parent = spans.add(trace_id, "replay.tick", marks[0], marks[-1], reference)
        for name, start, end in zip(names, starts, marks[1:]):
            totals[name] += end - start
            spans.add(trace_id, name, start, end, parent)
        totals["engine.observe_batch"] += t1 - t0
        packages += len(rows)
    return dict(totals), packages, identical


def replay_decode(wire: dict[str, list[list[bytes]]], spans: SpanLog) -> dict[str, float]:
    """Decoder ``feed`` plus ``decode_data``: microseconds per DATA frame."""
    costs: dict[str, float] = {}
    for dialect, connections in sorted(wire.items()):
        adapter = get_adapter(dialect)
        frames = 0
        elapsed = 0.0
        for number, chunks in enumerate(connections):
            started = perf_counter()
            decoder = adapter.decoder()
            for chunk in chunks:
                for frame in decoder.feed(chunk):
                    if frame.kind == KIND_DATA:
                        adapter.decode_data(frame.pdu)
                        frames += 1
            ended = perf_counter()
            elapsed += ended - started
            spans.add(f"decode:{dialect}:{number}", "protocols.decode", started, ended)
        costs[dialect] = elapsed / max(frames, 1) * 1e6
    return costs


def _timed(spans: SpanLog, name: str, calls) -> float:
    """Run the zero-argument callables; microseconds per call."""
    started = perf_counter()
    for call in calls:
        call()
    ended = perf_counter()
    spans.add(name, name, started, ended)
    return (ended - started) / max(len(calls), 1) * 1e6


def replay_delivery(items: list[tuple], historian_dir: Path | None, spans: SpanLog) -> dict[str, float]:
    """Verdict fan-out on the run's verdict stream, one layer at a time.

    ``items`` holds ``(stream, seq, package, anomaly, level, scenario,
    version)`` in delivery order.  Alert emissions (and drift alerts)
    are collected on the way and fed to the incident correlator.
    """
    costs: dict[str, float] = {}
    alerts = []

    pipeline = AlertPipeline([RecentAlertsBuffer(256)], metrics=MetricsRegistry())

    def submit(item):
        stream, seq, package, _, level, scenario, version = item
        alert = pipeline.submit(
            stream, seq, package, level, scenario=scenario, version=version
        )
        if alert is not None:
            alerts.append(alert)

    anomalous = [item for item in items if item[3]]
    costs["alerts.submit"] = _timed(
        spans, "alerts.submit", [lambda item=item: submit(item) for item in anomalous]
    )

    monitors = DriftMonitorBank(metrics=MetricsRegistry())

    def observe(item):
        stream, seq, package, _, level, scenario, version = item
        drift = monitors.observe(
            stream, seq, package.time, level, scenario=scenario, version=version
        )
        if drift is not None:
            alerts.append(drift)

    costs["monitors.observe"] = _timed(
        spans, "monitors.observe", [lambda item=item: observe(item) for item in items]
    )

    alerts.sort(key=lambda alert: alert.time)
    correlator = IncidentCorrelator(metrics=MetricsRegistry())
    costs["incidents.observe"] = _timed(
        spans, "incidents.observe",
        [lambda alert=alert: correlator.observe(alert) for alert in alerts],
    )

    costs["historian.append"] = 0.0
    if historian_dir is not None:
        historian = Historian(historian_dir, metrics=MetricsRegistry())
        try:
            costs["historian.append"] = _timed(
                spans, "historian.append",
                [
                    lambda item=item: historian.append(
                        item[0], item[5], item[6], item[1], item[4], item[3],
                        item[2].pressure_measurement,
                    )
                    for item in items
                ],
            )
        finally:
            historian.close()
            shutil.rmtree(historian_dir, ignore_errors=True)
    return costs


def replay_frame_verdict(items: list[tuple], protocols: dict[str, str], spans: SpanLog) -> float:
    """``frame_verdict`` per verdict, each in its stream's dialect."""
    adapters = {key: get_adapter(protocol) for key, protocol in protocols.items()}
    return _timed(
        spans, "protocols.frame_verdict",
        [
            lambda item=item: adapters[item[0]].frame_verdict(
                item[1], item[3], item[4], unit_id=item[2].address & 0xFF
            )
            for item in items
        ],
    )


def replay_registry(
    root: Path, probes: list[tuple[list[Package], str]], spans: SpanLog
) -> tuple[float, float]:
    """Milliseconds per identification attempt and per cold model load.

    Each probe is re-identified the way the gateway does: one attempt
    per buffered package from ``min_probe`` on, until one is decisive.
    """
    router = ScenarioRouter(ModelRegistry(root))
    scenarios = router.registry.scenarios()
    for scenario in scenarios:
        router.resolve(scenario)  # warm: identification is timed, not loading
    calls = 0
    started = perf_counter()
    for capture, protocol in probes:
        for size in range(router.min_probe, router.probe_window + 1):
            calls += 1
            if not router.identify(capture[:size], protocol=protocol).abstained:
                break
    ended = perf_counter()
    spans.add("registry", "registry.identify", started, ended)
    identify_ms = (ended - started) / max(calls, 1) * 1e3

    elapsed = 0.0
    for scenario in scenarios:
        cold = ModelRegistry(root)
        version = cold.active_version(scenario)
        started = perf_counter()
        cold.load(scenario, version)
        ended = perf_counter()
        elapsed += ended - started
        spans.add("registry", "registry.load_cold", started, ended)
    return identify_ms, elapsed / max(len(scenarios), 1) * 1e3


_U16 = struct.Struct(">H")


def replay_worker_codec(
    captures: list[list[Package]], verdicts: list[list[tuple[bool, int]]],
    plan: list[list[int]], spans: SpanLog,
) -> tuple[float, float]:
    """OBSERVE encode and verdict decode: microseconds per package.

    Responses are laid out as a worker writes them: one (verdict, level)
    byte pair per row, then the group count and one timing per group.
    """
    cursor = [0] * len(captures)
    requests, responses = [], []
    for rows in plan:
        batch = []
        answer = bytearray(OP_OBSERVE.lower())
        for row in rows:
            batch.append((row, captures[row][cursor[row]]))
            verdict, level = verdicts[row][cursor[row]]
            answer += bytes((1 if verdict else 0, level & 0xFF))
            cursor[row] += 1
        answer += _U16.pack(1) + struct.pack(">d", 0.0)
        requests.append(batch)
        responses.append((bytes(answer), len(rows)))
    packages = sum(len(rows) for rows in plan)

    started = perf_counter()
    for batch in requests:
        encode_observe(
            [(SINGLE_LABEL, [(row, encode_stream_data(p, 0)) for row, p in batch])]
        )
    ended = perf_counter()
    spans.add("workers", "workers.encode_observe", started, ended)
    encode_us = (ended - started) / max(packages, 1) * 1e6

    started = perf_counter()
    for answer, count in responses:
        decode_verdicts(answer, count)
    ended = perf_counter()
    spans.add("workers", "workers.decode_verdicts", started, ended)
    return encode_us, (ended - started) / max(packages, 1) * 1e6
