"""The benchmark's workloads: gateway flags, site roster and load shape.

Every number that shapes the offered load is written here, never
derived from a measurement, so the load does not move with the code
under test.  ``offered_rate`` is the open-loop slices' fixed rate for
the whole workload, about a quarter of the closed-loop throughput the
workload reached when the benchmark was written (about 500 pkg/s for
``paper-lstm-process`` on one CPU, 1200 for ``mixed-fleet``).  At half
that throughput, slow spells of the shared two-core host pushed the
gateway into queueing and the open-loop p99 swung between 3 and 18 ms
from run to run; at a quarter it stays put.

``paper-lstm`` is defined for runs by hand (thread against process mode
on the same traffic) but left out of ``BENCHMARK.json``: its throughput
is bimodal.  A thread-mode shard runs every queued package in
back-to-back ticks without reading the sockets in between, so whether
the two streams meet in one tick depends on their phase, which holds
for a slice and flips between slices and runs (about 1 row per tick and
940 pkg/s, or 1.9 rows and 1400 pkg/s).  In ``paper-lstm-process`` the
generator opens its connections one at a time, so the gateway binds
the two streams to its two shards, one each, on every run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Site:
    """One simulated field link: a stream key bound to a scenario capture."""

    key: str
    scenario: str
    protocol: str
    #: Tagged sites name their scenario in OPEN; untagged ones are
    #: auto-identified by a registry gateway.
    tagged: bool = True
    #: Inject ``NOISE_BYTES`` of 0xFF line noise before every Nth frame.
    noise_every: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"model"`` serves one artifact (``--model``); ``"registry"`` routes
    #: every stream through the per-scenario registry (``--registry``).
    serving: str
    worker_mode: str
    shards: int
    sites: tuple[Site, ...]
    #: Open-loop rate, packages per second over all connections.
    offered_rate: float
    #: Packages per second of closed-loop time each site's capture must
    #: hold; far above what the closed loop reaches today, so a faster
    #: gateway never runs out of traffic.
    capture_rate: int
    #: Closed-loop in-flight window per connection.  Untagged sites need
    #: at least the router's probe window (16) or they stall.  With 32
    #: in flight on each of two streams sharing one engine, the gateway's
    #: ticks flipped between about one and two rows from run to run (720
    #: against 1400 pkg/s); with 8 they stay near two.
    window: int
    #: Packages one connection streams before it closes and the next
    #: site of its slot connects; ``None`` keeps one connection per slot.
    segment: int | None = None
    historian: bool = False
    checkpoint_every: int = 0

    def gateway_args(self) -> list[str]:
        return [
            "--worker-mode", self.worker_mode, "--shards", str(self.shards),
        ]


#: Bytes of idle-line filler injected before a noisy site's frames.
NOISE_BYTES = 9

#: Packages an untagged stream must send before a registry gateway has
#: identified it: the default ``probe_window`` of ``ScenarioRouter``.
PROBE_WINDOW = 16

#: Concurrent connections, and so slots: ``nproc`` on the 2-core box the
#: benchmark was written on, fixed so the load does not depend on the
#: host it runs on.
CONNECTIONS = 2

_PAPER_SITES = (
    Site("gas-a", "gas_pipeline", "modbus", tagged=False),
    Site("gas-b", "gas_pipeline", "modbus", tagged=False),
)

# Dialects rotate modbus / iec104 / dnp3 down the roster.  An untagged
# site must speak a dialect whose candidate set holds its scenario (the
# identifier narrows iec104 to chlorination and modbus to the other four;
# dnp3 is declared by no scenario, so it is scored against all five).
_FLEET_SITES = (
    Site("fleet-00", "gas_pipeline", "modbus"),
    Site("fleet-01", "water_tank", "iec104", noise_every=7),
    Site("fleet-02", "power_feeder", "dnp3", tagged=False),
    Site("fleet-03", "hvac_chiller", "modbus", tagged=False),
    Site("fleet-04", "chlorination_dosing", "iec104", tagged=False, noise_every=11),
    Site("fleet-05", "gas_pipeline", "dnp3", tagged=False),
    Site("fleet-06", "water_tank", "modbus", tagged=False, noise_every=13),
    Site("fleet-07", "power_feeder", "iec104", noise_every=7),
    Site("fleet-08", "hvac_chiller", "dnp3"),
    Site("fleet-09", "chlorination_dosing", "modbus"),
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-lstm",
            why=(
                "2x256 gas_pipeline LSTM, thread mode, one shard, two "
                "modbus streams sharing one engine: compute core and batch "
                "formation dominate"
            ),
            serving="model",
            worker_mode="thread",
            shards=1,
            sites=_PAPER_SITES,
            offered_rate=300.0,
            capture_rate=4000,
            window=8,
        ),
        Workload(
            name="paper-lstm-process",
            why=(
                "same model and traffic with --worker-mode process --shards 2: "
                "the only workload where serve.workers and its pipe run"
            ),
            serving="model",
            worker_mode="process",
            shards=2,
            sites=_PAPER_SITES,
            offered_rate=125.0,
            capture_rate=4000,
            window=8,
        ),
        Workload(
            name="mixed-fleet",
            why=(
                "registry gateway, five ci-size scenarios over three dialects, "
                "half untagged, noise, historian and checkpoints: per-package "
                "glue dominates"
            ),
            serving="registry",
            worker_mode="thread",
            shards=1,
            sites=_FLEET_SITES,
            offered_rate=300.0,
            capture_rate=1000,
            window=32,
            segment=200,
            historian=True,
            checkpoint_every=2000,
        ),
    )
}
