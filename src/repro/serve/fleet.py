"""Fleet serving: N simulated sites streaming into one sharded gateway.

A production monitor does not watch one testbed — it terminates links
from a *fleet* of heterogeneous sites: some gas pipelines, some water
tanks, some feeder sections, each with its own capture timeline.  The
:class:`FleetRunner` reproduces exactly that load shape against a live
:class:`~repro.serve.gateway.DetectionGateway`:

- each :class:`SiteSpec` names a scenario and a seed and generates its
  own capture (different physics, different attack schedule),
- every site replays concurrently, one OS thread per site, over a real
  TCP socket with its own stream key, so sessions shard across the
  gateway's engine workers and each tick batches whatever the fleet
  delivered,
- because the gateway pins every stream to one engine row and processes
  it strictly in sequence order, each site's verdicts are **bit-identical
  to running its capture through offline** ``detector.detect()`` — which
  :meth:`FleetRunner.run` can verify in-process.

The runner serves in two modes.  **Homogeneous** (``detector=``): one
trained framework scores every site — in-scenario quality on at most
one plant, the PR-4 baseline.  **Heterogeneous** (``registry=``): the
gateway routes every stream to its scenario's active registry artifact
(tagged OPENs by default, or auto-identified probes with
``tag_streams=False``), and verification checks each site against *its
own scenario's* model — in-scenario quality everywhere.

The runner is the substrate for the ``repro fleet`` CLI and the fleet
and registry benchmarks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.combined import CombinedDetector
from repro.core.metrics import DetectionMetrics, evaluate_detection
from repro.ics.features import Package
from repro.serve.alerts import AlertPipeline, RecentAlertsBuffer
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.protocols import get_adapter
from repro.serve.replay import ReplayClient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.historian import Historian
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer
    from repro.registry.store import ModelRegistry


class ObsBindError(OSError):
    """The observability API could not take the runner's ``http_port``."""


@dataclass(frozen=True)
class SiteSpec:
    """One simulated site: a named stream bound to a scenario capture.

    ``protocol`` is the wire dialect the site's replay client speaks
    (see :mod:`repro.serve.protocols`); ``None`` defers to the
    scenario's declared dialect, so e.g. a chlorination site streams
    IEC-104 without per-site configuration.
    """

    name: str
    scenario: str
    seed: int
    num_cycles: int = 60
    protocol: str | None = None

    def wire_protocol(self) -> str:
        """The dialect this site streams — explicit or scenario-declared."""
        if self.protocol is not None:
            return self.protocol
        from repro.scenarios import get_scenario

        try:
            return get_scenario(self.scenario).protocol
        except KeyError:
            return "modbus"

    def capture(self) -> list[Package]:
        """Generate this site's package stream (deterministic per spec).

        A live site has no train/validation/test split, so the raw
        stream is generated directly — the offline split's minimum-size
        rules do not apply and any ``num_cycles >= 1`` is streamable.
        Sharing :func:`~repro.ics.dataset.generate_stream` guarantees a
        site capture equals ``generate_dataset(...).all_packages`` for
        the same scenario/seed/cycles.
        """
        from repro.ics.dataset import generate_stream

        return generate_stream(self.scenario, self.num_cycles, self.seed)


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run."""

    num_sites: int = 4
    scenarios: tuple[str, ...] = ()  # empty = all registered scenarios
    cycles_per_site: int = 60
    num_shards: int = 2
    base_seed: int = 0
    window: int = 32  # per-site replay in-flight window
    verify_offline: bool = False  # re-run every capture through detect()
    #: Heterogeneous mode only: tag each site's OPEN with its scenario
    #: (False = untagged, the gateway auto-identifies from the probe).
    tag_streams: bool = True
    #: Wire dialects assigned round-robin across sites (mixed-protocol
    #: fleet).  Empty = each site speaks its scenario's declared dialect.
    protocols: tuple[str, ...] = ()
    #: Gateway shard backend (see
    #: :attr:`repro.serve.gateway.GatewayConfig.worker_mode`).
    worker_mode: str = "thread"
    #: Time every package from send to verdict on every site.
    record_latency: bool = False
    #: Ring size of the recent-alerts buffer feeding the HTTP API.
    alerts_buffer: int = 256

    def validate(self) -> "FleetConfig":
        if self.num_sites < 1:
            raise ValueError(f"num_sites must be >= 1, got {self.num_sites}")
        if self.alerts_buffer < 1:
            raise ValueError(
                f"alerts_buffer must be >= 1, got {self.alerts_buffer}"
            )
        if self.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got "
                f"{self.worker_mode!r}"
            )
        if self.cycles_per_site < 1:
            raise ValueError(
                f"cycles_per_site must be >= 1, got {self.cycles_per_site}"
            )
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        for protocol in self.protocols:
            get_adapter(protocol)  # raises KeyError on unknown dialects
        return self

    def sites(self) -> list[SiteSpec]:
        """The fleet roster: scenarios assigned round-robin across sites."""
        from repro.scenarios import scenario_names

        names = self.scenarios or scenario_names()
        protocols = self.protocols
        return [
            SiteSpec(
                name=f"site-{i:02d}-{names[i % len(names)]}",
                scenario=names[i % len(names)],
                seed=self.base_seed + i,
                num_cycles=self.cycles_per_site,
                protocol=(
                    protocols[i % len(protocols)] if protocols else None
                ),
            )
            for i in range(self.num_sites)
        ]


@dataclass
class SiteResult:
    """Verdicts one site collected from the gateway."""

    spec: SiteSpec
    packages: int
    anomalies: np.ndarray
    levels: np.ndarray
    metrics: DetectionMetrics
    complete: bool
    matches_offline: bool | None = None  # None = verification not requested
    #: Model that scored this site (heterogeneous mode; from gateway stats).
    route_scenario: str | None = None
    route_version: int | None = None
    #: Wire dialect the gateway saw this site speak (from gateway stats).
    route_protocol: str | None = None
    #: Per-package send-to-verdict seconds (``record_latency`` runs only).
    latencies: np.ndarray | None = None


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet run."""

    sites: list[SiteResult]
    seconds: float
    gateway_stats: dict = field(default_factory=dict)
    heterogeneous: bool = False

    @property
    def total_packages(self) -> int:
        return sum(site.packages for site in self.sites)

    @property
    def packages_per_second(self) -> float:
        return self.total_packages / self.seconds if self.seconds > 0 else 0.0

    @property
    def scenarios_streamed(self) -> tuple[str, ...]:
        return tuple(sorted({site.spec.scenario for site in self.sites}))

    @property
    def all_complete(self) -> bool:
        return all(site.complete for site in self.sites)

    @property
    def incident_counts(self) -> dict:
        """Correlator counters from the gateway (empty when disabled)."""
        return dict(self.gateway_stats.get("incidents", {}))

    @property
    def drift_counts(self) -> dict:
        """Drift alerts fired by kind (empty when monitors disabled)."""
        drift = self.gateway_stats.get("drift", {})
        return {
            str(kind): int(count)
            for kind, count in drift.get("by_kind", {}).items()
        }

    @property
    def all_match_offline(self) -> bool:
        """True when every verified site matched offline detection."""
        return all(site.matches_offline is not False for site in self.sites)

    def latency_percentiles(self) -> dict[str, float] | None:
        """Fleet-wide p50/p99 per-package latency in milliseconds.

        ``None`` unless the run recorded latencies
        (:attr:`FleetConfig.record_latency`).
        """
        samples = [
            site.latencies
            for site in self.sites
            if site.latencies is not None and len(site.latencies)
        ]
        if not samples:
            return None
        merged = np.concatenate(samples)
        return {
            "p50_ms": float(np.percentile(merged, 50) * 1e3),
            "p99_ms": float(np.percentile(merged, 99) * 1e3),
        }


class FleetRunner:
    """Drive a multi-scenario site fleet through one detection gateway.

    Pass ``detector=`` for the homogeneous baseline (one model serves
    every site) or ``registry=`` for heterogeneous serving (the gateway
    routes every site to its scenario's active registry artifact, and
    offline verification checks each site against its *own* model).
    """

    def __init__(
        self,
        detector: CombinedDetector | None = None,
        config: FleetConfig | None = None,
        registry: "ModelRegistry | None" = None,
        metrics: "MetricsRegistry | None" = None,
        historian: "Historian | None" = None,
        tracer: "Tracer | None" = None,
        http_port: int | None = None,
    ) -> None:
        if (detector is None) == (registry is None):
            raise ValueError(
                "pass exactly one of detector= (homogeneous) or "
                "registry= (heterogeneous)"
            )
        self.detector = detector
        self.registry = registry
        self.config = (config or FleetConfig()).validate()
        #: Optional observability: a shared metrics registry (gateway,
        #: workers, alerts and the fleet's own send->verdict latency
        #: histogram all land in it), a verdict historian, and an HTTP
        #: port to serve both on for the duration of :meth:`run`.
        self.metrics = metrics
        self.historian = historian
        self.tracer = tracer
        self.http_port = http_port
        #: Bound (host, port) of the observability server while a run
        #: with ``http_port`` is live.
        self.http_address: tuple[str, int] | None = None

    @property
    def heterogeneous(self) -> bool:
        return self.registry is not None

    def _reference_detector(self, scenario: str) -> CombinedDetector:
        """The model a site's verdicts are verified against."""
        if self.registry is None:
            assert self.detector is not None
            return self.detector
        return self.registry.resolve(scenario)[0]

    def run(self) -> FleetResult:
        """Start a gateway, stream every site concurrently, gather verdicts.

        Raises :class:`ObsBindError` when ``http_port`` is taken; the
        gateway is stopped first.
        """
        config = self.config
        sites = config.sites()
        captures = {site.name: site.capture() for site in sites}
        if self.registry is not None:
            # Resolve every scenario up front: a missing registry entry
            # must fail loudly here, not as a mid-replay protocol error
            # on some site thread.
            for scenario in sorted({site.scenario for site in sites}):
                self.registry.resolve(scenario)

        gateway_config = GatewayConfig(
            num_shards=config.num_shards,
            # Deep enough that a whole fleet's in-flight windows cannot
            # wedge the shard queues while one site stalls.
            max_pending=max(256, 4 * config.window, 2 * config.num_sites),
            worker_mode=config.worker_mode,
        )
        # Silent pipeline: alert bookkeeping runs, nothing prints (the
        # recent-alerts ring only feeds the HTTP API and metrics).
        recent = RecentAlertsBuffer(config.alerts_buffer)
        alerts = AlertPipeline(sinks=[recent], metrics=self.metrics)
        if self.registry is not None:
            gateway = DetectionGateway(
                config=gateway_config,
                alerts=alerts,
                registry=self.registry,
                metrics=self.metrics,
                historian=self.historian,
                tracer=self.tracer,
            )
            handle = start_in_thread(None, gateway=gateway)
        else:
            handle = start_in_thread(
                self.detector,
                gateway_config,
                alerts,
                metrics=self.metrics,
                historian=self.historian,
                tracer=self.tracer,
            )
        latency_histogram = (
            self.metrics.histogram(
                "fleet_send_verdict_seconds",
                "Per-package send-to-verdict latency across all sites",
            )
            if self.metrics is not None and config.record_latency
            else None
        )
        results: dict[str, SiteResult] = {}
        errors: list[BaseException] = []

        def stream(site: SiteSpec) -> None:
            try:
                replayed = ReplayClient(
                    host,
                    port,
                    stream_key=site.name,
                    window=config.window,
                    scenario=(
                        site.scenario
                        if self.heterogeneous and config.tag_streams
                        else None
                    ),
                    protocol=site.wire_protocol(),
                    record_latency=config.record_latency,
                ).replay(captures[site.name])
                if latency_histogram is not None and replayed.latencies is not None:
                    for sample in replayed.latencies:
                        latency_histogram.observe(float(sample))
                labels = np.array([p.label for p in captures[site.name]])
                results[site.name] = SiteResult(
                    spec=site,
                    packages=replayed.judged,
                    anomalies=replayed.anomalies,
                    levels=replayed.levels,
                    metrics=evaluate_detection(
                        labels[replayed.start : replayed.start + replayed.judged],
                        replayed.anomalies,
                    ),
                    complete=replayed.complete,
                    latencies=replayed.latencies,
                )
            except BaseException as exc:  # noqa: BLE001 - joined below
                errors.append(exc)

        obs_handle = None
        try:
            if self.http_port is not None:
                from repro.obs.httpapi import ObsServer, start_obs_in_thread

                try:
                    obs_handle = start_obs_in_thread(
                        ObsServer(
                            gateway=handle.gateway,
                            metrics=self.metrics,
                            historian=self.historian,
                            recent_alerts=recent,
                            port=self.http_port,
                        )
                    )
                except OSError as exc:
                    raise ObsBindError(*exc.args) from exc
                self.http_address = obs_handle.address
            host, port = handle.address
            started = time.perf_counter()
            threads = [
                threading.Thread(target=stream, args=(site,), name=site.name)
                for site in sites
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - started
            stats = handle.stats()
        finally:
            if obs_handle is not None:
                obs_handle.stop()
                self.http_address = None
            handle.stop()
        if errors:
            raise errors[0]

        routes = stats.get("routes", {})
        for site in sites:
            route = routes.get(site.name, {})
            results[site.name].route_scenario = route.get("scenario")
            results[site.name].route_version = route.get("version")
            results[site.name].route_protocol = route.get("protocol")

        if config.verify_offline:
            for site in sites:
                result = results[site.name]
                offline = self._reference_detector(site.scenario).detect(
                    captures[site.name]
                )
                result.matches_offline = bool(
                    result.complete
                    and len(offline) == result.packages
                    and np.array_equal(offline.is_anomaly, result.anomalies)
                    and np.array_equal(
                        np.where(offline.is_anomaly, offline.level, 0),
                        np.where(result.anomalies, result.levels, 0),
                    )
                    # A heterogeneous site must really have been scored
                    # by its own scenario's artifact, not a lucky match.
                    and (
                        not self.heterogeneous
                        or result.route_scenario == site.scenario
                    )
                )

        return FleetResult(
            sites=[results[site.name] for site in sites],
            seconds=seconds,
            gateway_stats=stats,
            heterogeneous=self.heterogeneous,
        )
