"""Verdict-historian benchmarks: raw log throughput and the price of
observability on the serving hot path.

Two questions, one file:

1. **Is the historian fast enough to never matter?**  Direct
   append/flush/query throughput of the segment-rotated log, far above
   any realistic verdict rate (the testbed polls at ~4 packages/sec
   per link; the gateway peaks in the thousands).
2. **Does full instrumentation slow serving down?**  The same
   concurrent replay is driven through a bare gateway and through one
   carrying the whole ops plane (metrics registry + alert counters +
   historian), interleaved best-of-N to cancel machine noise.  The
   instrumented run must stay within ``MAX_OVERHEAD`` of bare
   throughput — and, observability being a *pure observer*, its
   verdicts must be bit-identical.

Run:  REPRO_PROFILE=ci pytest benchmarks/bench_historian.py -s
"""

from __future__ import annotations

import time

from benchmarks.conftest import (
    drive_replay,
    emit_json,
    emit_report,
    overhead_gate,
    train_overhead_workload,
)
from repro.obs import Historian, MetricsRegistry
from repro.serve.alerts import AlertConfig, AlertPipeline
from repro.serve.gateway import GatewayConfig, start_in_thread

#: Instrumented serving may cost at most this fraction of bare pkg/s.
MAX_OVERHEAD = 0.05

#: profile -> (direct append records, clients, packages/client, repeats)
SIZES = {
    "ci": (50_000, 4, 500, 5),
    "default": (200_000, 8, 600, 5),
    "paper": (500_000, 16, 800, 7),
}


def _sizes(profile):
    return SIZES.get(profile, SIZES["default"])


def test_append_and_query_throughput(profile, tmp_path):
    records, *_ = _sizes(profile)
    streams = [f"plant-{i}" for i in range(8)]
    with Historian(tmp_path / "hist", segment_records=100_000) as historian:
        started = time.perf_counter()
        for seq in range(records):
            historian.append(
                streams[seq % len(streams)],
                "gas_pipeline",
                1,
                seq,
                seq % 3,
                seq % 7 == 0,
                float(seq),
                wall_time=1000.0 + seq * 0.25,
            )
        historian.flush()
        append_secs = time.perf_counter() - started

        started = time.perf_counter()
        full = historian.query()
        scan_secs = time.perf_counter() - started

        started = time.perf_counter()
        window = historian.query(
            stream_key=streams[0],
            since=1000.0,
            until=1000.0 + records * 0.05,
            limit=10_000,
        )
        window_secs = time.perf_counter() - started
        stats = historian.stats()

    assert len(full) == records
    assert window and window_secs < scan_secs + 1.0
    append_rate = records / append_secs
    scan_rate = records / scan_secs
    results = {
        "profile": profile,
        "records": records,
        "segments": stats["segments"],
        "bytes": stats["bytes"],
        "append_records_per_sec": append_rate,
        "full_scan_records_per_sec": scan_rate,
        "windowed_query_seconds": window_secs,
        "windowed_query_rows": len(window),
    }
    emit_report(
        "historian_bench",
        f"{'records':>10}{'segments':>10}{'append/s':>12}{'scan/s':>12}"
        f"{'window s':>10}\n"
        f"{records:>10}{stats['segments']:>10}{append_rate:>12.0f}"
        f"{scan_rate:>12.0f}{window_secs:>10.3f}",
    )
    emit_json("historian_bench", results)
    # Orders of magnitude above any verdict rate the gateway can emit.
    assert append_rate > 5_000, results
    assert scan_rate > 5_000, results


def test_instrumentation_overhead(profile, tmp_path):
    _, clients, per_client, repeats = _sizes(profile)
    detector, slices = train_overhead_workload(clients, per_client)
    total = sum(len(s) for s in slices)

    def run_once(instrumented, tag):
        metrics = historian = None
        if instrumented:
            metrics = MetricsRegistry()
            historian = Historian(tmp_path / f"hist-{tag}", metrics=metrics)
        handle = start_in_thread(
            detector,
            GatewayConfig(num_shards=2, max_pending=512),
            AlertPipeline(config=AlertConfig(), metrics=metrics),
            metrics=metrics,
            historian=historian,
        )
        try:
            verdicts, elapsed = drive_replay(handle, slices)
            assert handle.stats()["processed"] == total
        finally:
            handle.stop()
        if historian is not None:
            assert len(historian.query()) == total  # nothing dropped
            historian.close()
        return verdicts, total / elapsed

    gate = overhead_gate(run_once, repeats, MAX_OVERHEAD, "instrumentation")
    bare, instrumented = gate["bare"], gate["instrumented"]
    overhead_peak, overhead_paired = gate["peak"], gate["paired"]
    overhead = gate["overhead"]
    results = {
        "profile": profile,
        "packages": total,
        "repeats": repeats,
        "bare_pkg_per_sec": bare,
        "instrumented_pkg_per_sec": instrumented,
        "best_bare": max(bare),
        "best_instrumented": max(instrumented),
        "paired_ratios": gate["ratios"],
        "overhead_peak": overhead_peak,
        "overhead_paired": overhead_paired,
        "overhead_fraction": overhead,
        "max_overhead": MAX_OVERHEAD,
    }
    emit_report(
        "observability_overhead",
        f"{'config':>14}{'best pkg/s':>12}\n"
        f"{'bare':>14}{max(bare):>12.0f}\n"
        f"{'instrumented':>14}{max(instrumented):>12.0f}\n"
        f"overhead: peak {overhead_peak * 100:.2f}%, paired "
        f"{overhead_paired * 100:.2f}% (gate {MAX_OVERHEAD * 100:.0f}%)",
    )
    emit_json("observability_overhead", results)
    assert overhead <= MAX_OVERHEAD, results
