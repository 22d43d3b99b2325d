"""Incident-plane benchmarks: correlator storm throughput and the
price of the incident/drift monitors on the serving hot path.

Two questions, one file:

1. **Can the correlator keep up with an alert storm?**  A synthetic
   1000-stream storm is folded through a bare
   :class:`IncidentCorrelator` — the grouping arithmetic must run far
   above any alert rate the gateway can emit, and the incident count
   it produces is exactly predictable from the storm's shape.
2. **Do the monitors slow serving down?**  The same concurrent replay
   is driven through a gateway with the incident plane disabled and
   one with correlator + drift monitors attached, interleaved
   best-of-N to cancel machine noise.  The instrumented run must stay
   within ``MAX_OVERHEAD`` of bare throughput — and, the incident
   plane being a *pure observer*, its verdicts must be bit-identical.

Run:  REPRO_PROFILE=ci pytest benchmarks/bench_incidents.py -s
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
from repro.obs.incidents import CorrelatorConfig, IncidentCorrelator
from repro.serve.alerts import Alert, AlertConfig, AlertPipeline, Severity
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread

#: The incident plane may cost at most this fraction of bare pkg/s.
MAX_OVERHEAD = 0.05

#: profile -> (storm alerts, storm streams, clients, pkgs/client, repeats)
SIZES = {
    "ci": (100_000, 1000, 4, 400, 5),
    "default": (250_000, 1000, 8, 600, 5),
    "paper": (600_000, 2000, 16, 800, 7),
}

SCENARIOS = tuple(f"scenario-{i}" for i in range(10))


def _sizes(profile):
    return SIZES.get(profile, SIZES["default"])


def _storm(alerts, streams):
    """A storm of ``alerts`` across ``streams`` keys, shaped as bursts:
    every burst sweeps all scenarios inside one correlation window,
    then goes quiet long enough to resolve — so the expected incident
    count is exactly ``bursts * len(SCENARIOS)``."""
    config = CorrelatorConfig(window=30.0, resolve_after=60.0)
    per_burst = 10_000
    bursts = max(1, alerts // per_burst)
    out = []
    for burst in range(bursts):
        base = burst * 1000.0  # inter-burst gap >> resolve_after
        for i in range(per_burst):
            out.append(
                Alert(
                    stream=f"plant-{(burst * 7 + i) % streams:04d}",
                    seq=burst * per_burst + i,
                    time=base + (i % 300) * 0.1,  # burst spans 29.9s
                    level=1 + i % 2,
                    severity=Severity.HIGH if i % 3 else Severity.CRITICAL,
                    escalated=False,
                    repeats=0,
                    label=1,
                    scenario=SCENARIOS[i % len(SCENARIOS)],
                    version=1 + (i // len(SCENARIOS)) % 2,
                )
            )
    # Distinct (scenario, version) routes double the per-burst count.
    expected = bursts * len(SCENARIOS) * 2
    return config, out, expected


def test_correlator_storm_throughput(profile):
    alerts, streams, *_ = _sizes(profile)
    config, storm, expected = _storm(alerts, streams)
    correlator = IncidentCorrelator(config)

    started = time.perf_counter()
    for alert in storm:
        correlator.observe(alert)
    elapsed = time.perf_counter() - started

    stats = correlator.stats()
    rate = len(storm) / elapsed
    results = {
        "profile": profile,
        "alerts": len(storm),
        "streams": streams,
        "alerts_per_sec": rate,
        "incidents_opened": stats["opened_total"],
        "incidents_expected": expected,
        "open": stats["open"],
    }
    emit_report(
        "incidents_bench",
        f"{'alerts':>10}{'streams':>9}{'alerts/s':>12}{'incidents':>11}\n"
        f"{len(storm):>10}{streams:>9}{rate:>12.0f}"
        f"{stats['opened_total']:>11}",
    )
    emit_json("incidents_bench", results)
    # Incident-count sanity: the storm's shape fixes the answer.
    assert stats["opened_total"] == expected, results
    assert stats["alerts_absorbed"] == len(storm), results
    # Orders of magnitude above any alert rate the gateway can emit.
    assert rate > 20_000, results


def test_incident_plane_overhead(profile):
    *_, clients, per_client, repeats = _sizes(profile)
    detector, slices = train_overhead_workload(clients, per_client)
    total = sum(len(s) for s in slices)

    def run_once(with_plane, tag):
        gateway = DetectionGateway(
            detector,
            GatewayConfig(num_shards=2, max_pending=512),
            AlertPipeline(config=AlertConfig()),
            incidents=None if with_plane else False,
            monitors=None if with_plane else False,
        )
        handle = start_in_thread(None, gateway=gateway)
        try:
            verdicts, elapsed = drive_replay(handle, slices)
            assert handle.stats()["processed"] == total
        finally:
            handle.stop()
        if with_plane:
            # The plane really ran: every package passed the monitors.
            drift = gateway.stats()["drift"]
            assert sum(
                s["packages"] for s in drift["streams"].values()
            ) == total
        return verdicts, total / elapsed

    gate = overhead_gate(run_once, repeats, MAX_OVERHEAD, "the incident plane")
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
        "monitors_overhead",
        f"{'config':>14}{'best pkg/s':>12}\n"
        f"{'bare':>14}{max(bare):>12.0f}\n"
        f"{'incident plane':>14}{max(instrumented):>12.0f}\n"
        f"overhead: peak {overhead_peak * 100:.2f}%, paired "
        f"{overhead_paired * 100:.2f}% (gate {MAX_OVERHEAD * 100:.0f}%)",
    )
    emit_json("monitors_overhead", results)
    assert overhead <= MAX_OVERHEAD, results
