"""Tracing-plane benchmark: the price of per-package spans on the
serving hot path.

The same concurrent replay is driven through a bare gateway and
through one carrying a :class:`~repro.obs.tracing.Tracer` at its
default sampling rate, interleaved best-of-N to cancel machine noise.
The traced run must stay within ``MAX_OVERHEAD`` of bare throughput —
and, tracing being a *pure observer*, its verdicts must be
bit-identical.

Run:  REPRO_PROFILE=ci pytest benchmarks/bench_tracing.py -s
"""

from __future__ import annotations

from benchmarks.conftest import (
    drive_replay,
    emit_json,
    emit_report,
    overhead_gate,
    train_overhead_workload,
)
from repro.obs import MetricsRegistry, TraceConfig, Tracer
from repro.serve.gateway import GatewayConfig, start_in_thread

#: Traced serving may cost at most this fraction of bare pkg/s.
MAX_OVERHEAD = 0.05

#: profile -> (clients, packages/client, repeats)
SIZES = {
    "ci": (4, 500, 5),
    "default": (8, 600, 5),
    "paper": (16, 800, 7),
}


def _sizes(profile):
    return SIZES.get(profile, SIZES["default"])


def test_tracing_overhead(profile):
    clients, per_client, repeats = _sizes(profile)
    detector, slices = train_overhead_workload(clients, per_client)
    total = sum(len(s) for s in slices)
    config = TraceConfig()  # default sampling: what users actually pay

    def run_once(traced, tag):
        tracer = None
        if traced:
            tracer = Tracer(config, metrics=MetricsRegistry())
        handle = start_in_thread(
            detector,
            GatewayConfig(num_shards=2, max_pending=512),
            tracer=tracer,
        )
        try:
            verdicts, elapsed = drive_replay(handle, slices)
            assert handle.stats()["processed"] == total
        finally:
            handle.stop()
        if tracer is not None:
            stats = tracer.stats()
            # Every sampled package must have finished its span.
            assert stats["spans_finished"] == stats["spans_started"] > 0
            tracer.close()
        return verdicts, total / elapsed

    gate = overhead_gate(run_once, repeats, MAX_OVERHEAD, "tracing")
    bare, traced = gate["bare"], gate["instrumented"]
    overhead_peak, overhead_paired = gate["peak"], gate["paired"]
    overhead = gate["overhead"]
    results = {
        "profile": profile,
        "packages": total,
        "repeats": repeats,
        "sample_every": config.sample_every,
        "bare_pkg_per_sec": bare,
        "traced_pkg_per_sec": traced,
        "best_bare": max(bare),
        "best_traced": max(traced),
        "paired_ratios": gate["ratios"],
        "overhead_peak": overhead_peak,
        "overhead_paired": overhead_paired,
        "overhead_fraction": overhead,
        "max_overhead": MAX_OVERHEAD,
    }
    emit_report(
        "tracing_overhead",
        f"{'config':>14}{'best pkg/s':>12}\n"
        f"{'bare':>14}{max(bare):>12.0f}\n"
        f"{'traced':>14}{max(traced):>12.0f}\n"
        f"overhead: peak {overhead_peak * 100:.2f}%, paired "
        f"{overhead_paired * 100:.2f}% (gate {MAX_OVERHEAD * 100:.0f}%, "
        f"1/{config.sample_every} sampling)",
    )
    emit_json("tracing_overhead", results)
    assert overhead <= MAX_OVERHEAD, results
