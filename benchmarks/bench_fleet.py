"""Fleet serving throughput: aggregate gateway pkg/s vs concurrent sites.

Drives the full production load shape end to end: N simulated sites —
scenarios assigned round-robin across the registered plants — each
replay their own capture concurrently into one sharded gateway over
real loopback sockets.  The metric is aggregate packages/sec from
fleet start to last verdict, as the site count scales 1 → 4 → 16 → 100.

More sites widen the per-tick engine batches (throughput up) until
socket/session overhead dominates; the emitted table shows where that
knee sits for the profile's model size.  Every site replays on its own
OS thread, so the 100-site row runs 100 client threads — the largest
fleet the repo drives.

Run:  REPRO_PROFILE=ci pytest benchmarks/bench_fleet.py -s
"""

from __future__ import annotations

from benchmarks.conftest import emit_json, emit_report
from repro.experiments.pipeline import run_pipeline
from repro.serve.fleet import FleetConfig, FleetRunner

SITE_COUNTS = (1, 4, 16, 100)

#: profile -> polling cycles per site capture, keyed by site count
#: (the 100-site row uses short captures: the point is concurrent
#: session pressure, not per-site stream length).
CYCLES_PER_SITE = {"ci": 40, "default": 60, "paper": 80}
CYCLES_AT_SCALE = {"ci": 4, "default": 8, "paper": 10}


def test_fleet_throughput(profile):
    detector = run_pipeline(profile).detector
    cycles = CYCLES_PER_SITE.get(profile, CYCLES_PER_SITE["default"])
    cycles_at_scale = CYCLES_AT_SCALE.get(profile, CYCLES_AT_SCALE["default"])

    rows = []
    results = {"profile": profile, "cycles_per_site": cycles, "sites": {}}
    for num_sites in SITE_COUNTS:
        config = FleetConfig(
            num_sites=num_sites,
            cycles_per_site=cycles_at_scale if num_sites >= 100 else cycles,
            num_shards=2,
            base_seed=7,
        )
        result = FleetRunner(detector, config).run()
        assert result.all_complete, f"incomplete replay at {num_sites} sites"
        assert result.gateway_stats["processed"] == result.total_packages
        assert result.gateway_stats["streams"] == num_sites

        ticks = sum(s["ticks"] for s in result.gateway_stats["shards"])
        mean_batch = result.total_packages / ticks if ticks else 0.0
        scenarios = len(result.scenarios_streamed)
        rows.append(
            f"{num_sites:>6}{scenarios:>11}"
            f"{result.total_packages:>10}{result.packages_per_second:>12.0f}"
            f"{mean_batch:>12.2f}"
        )
        results["sites"][str(num_sites)] = {
            "scenarios_streamed": list(result.scenarios_streamed),
            "total_packages": result.total_packages,
            "packages_per_sec": result.packages_per_second,
            "mean_batch_rows_per_tick": mean_batch,
            "seconds": result.seconds,
        }

    table = "\n".join(
        [
            f"{'sites':>6}{'scenarios':>11}{'packages':>10}"
            f"{'pkg/s':>12}{'rows/tick':>12}"
        ]
        + rows
    )
    emit_report("fleet_throughput", table)
    emit_json("fleet_throughput", results)

    # Real links poll at ~4 pkg/s per site; even the 100-site fleet must
    # clear its aggregate real-time rate with huge headroom.
    slowest = min(r["packages_per_sec"] for r in results["sites"].values())
    assert slowest > 100.0, table
