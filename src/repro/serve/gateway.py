"""The online detection gateway: Modbus/TCP in, verdicts and alerts out.

This is the serving layer the paper's Fig.-3 data path never shipped: a
TCP server that terminates Modbus/TCP sessions from link taps, funnels
their package streams through a pool of sharded
:class:`~repro.core.stream_engine.StreamEngine` workers, answers every
package with a verdict frame, feeds anomalies to an
:class:`~repro.serve.alerts.AlertPipeline`, and periodically checkpoints
the complete serving state through :mod:`repro.persistence` so a
restarted gateway resumes every stream **bit-identically**.

Architecture
------------
- Each client connection binds to a named *stream key* (its OPEN
  frame).  A key maps to one recurrent stream on one shard, assigned
  least-loaded on first sight and sticky forever after — reconnects
  (including after a gateway restart from checkpoint) land on the same
  LSTM state.
- Each shard owns one :class:`~repro.serve.workers.EnginePool` — one
  engine per *model route* — and one worker task.  Packages arriving on
  the shard's sessions accumulate in its bounded queue; the worker
  drains the queue and advances all waiting streams with **one batched
  LSTM step per engine per tick**, so inference stays batched under
  load exactly like the offline engine.  A drain splits into the
  successive ticks a stream's order needs (each stream at most once
  per tick) and hands all of them to the pool in **one call**, the
  groups of every tick in tick order; a route may repeat, and each
  engine runs its groups as **one pass** (the seams without recurrence
  once over the drain's rows, the LSTM steps tick by tick), so a
  process-mode drain is one pipe round trip however many ticks it
  holds.  Every verdict frame of the
  drain is then written, one write per session, before the historian,
  alert, monitor and tracer fan-out runs.
- Backpressure is end-to-end: a full shard queue suspends that
  session's reader coroutine, which stops draining the socket, which
  fills the client's TCP window.  A client that stops *reading* its
  verdicts past a high-water mark is evicted instead of wedging the
  shard.
- Because each stream's packages are processed strictly in sequence
  order on a single engine row, verdicts per stream are independent of
  shard count, batch composition of any tick, and connection timing —
  batching changes wall-clock, never decisions.
- The gateway reaches every pool through one async interface, so each
  behaviour — tick, hot-swap, checkpoint, stats — has one code path.
  ``GatewayConfig(worker_mode="thread")`` awaits the pool directly on
  the event loop; ``worker_mode="process"`` runs the same pool in its
  own OS worker process behind a pickle-free byte codec
  (:mod:`repro.serve.workers`), so shard compute leaves the loop's GIL.
  Verdicts, checkpoints, hot-swaps and resume offsets are bit-identical
  between the two.
- Losing one shard does not take the gateway down.  A shard whose
  drain or pool call raises is failed for good (:class:`ShardError`):
  its sessions get an ERROR frame and are closed, new stream keys bind
  to the other shards, which serve on, and no checkpoint is written
  after it, so the last good one stands.  ``stats()`` names the failed
  shards, and :meth:`DetectionGateway.stop` raises the first failure
  once everything is closed.

Heterogeneous serving
---------------------
A gateway built over a :class:`~repro.registry.ModelRegistry`
(``registry=``, the only model source besides a single ``detector``)
serves a *mixed fleet*: every stream key is routed at OPEN time, by the
gateway's own :class:`~repro.registry.ScenarioRouter`, to a versioned
per-scenario detector —

- an OPEN frame carrying an explicit scenario tag resolves to that
  scenario's active registry version;
- an untagged stream is **auto-identified** by scoring its buffered
  probe against every registered scenario's package-signature database
  — routed as soon as the score is decisive, refused (an ERROR frame)
  once the router's probe window is exhausted without confidence,
  never misrouted;
- publishing (or ``repro registry promote``-ing) a new active version
  **hot-swaps** live shards between ticks: each affected stream is
  drained from its old engine and re-attached to the new version's
  engine with zero dropped packages, the verdict sequence continuing
  unbroken.

A single-model gateway is a one-route gateway: every stream binds to
the pool slot :data:`~repro.persistence.SINGLE_LABEL`.  Every pool,
drain group and checkpoint keys its engines by that route label
(``scenario@version`` in a routed gateway), which a binding holds
ready-made.  Both kinds checkpoint their engine pools and route table
through :func:`repro.persistence.save_gateway_checkpoint`; a
single-model file also embeds the detector, while a routed restore
loads the exact ``(scenario, version)`` artifacts from the registry
(:meth:`~repro.registry.ModelRegistry.load`), so fail-over stays
bit-identical in heterogeneous mode too.

The module is std-lib asyncio only; :func:`start_in_thread` runs a
gateway on a background event loop for tests, benchmarks and notebooks.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from contextlib import AsyncExitStack
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.core.stream_engine import WIRE_U32_MAX, EngineStats
from repro.ics.modbus import CrcError
from repro.obs.incidents import IncidentCorrelator
from repro.obs.monitors import DriftMonitorBank
from repro.persistence import (
    SINGLE_LABEL,
    RouteBinding,
    load_gateway_checkpoint,
    parse_route_label,
    route_label,
    save_gateway_checkpoint,
)
from repro.registry.router import RoutingError, ScenarioRouter
from repro.serve.alerts import AlertPipeline
from repro.serve.protocols import (
    MODBUS,
    PROTOCOL_NAMES,
    ProtocolAdapter,
    ProtocolSniffer,
)
from repro.serve.transport import (
    KIND_DATA,
    KIND_ERROR,
    KIND_OPEN,
    TransportError,
)
from repro.serve.workers import (
    OBSERVE_MAX_GROUPS,
    EnginePool,
    WorkerError,
    WorkerHandle,
    WorkerPool,
    decode_reply,
    encode_call,
)
from repro.utils.loop_thread import LoopThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.combined import CombinedDetector
    from repro.core.stream_engine import StreamEngine
    from repro.ics.features import Package
    from repro.obs.historian import Historian
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer
    from repro.registry.store import ModelRegistry

#: Stream id placeholder acked to untagged streams awaiting
#: auto-identification (no engine row is assigned yet).  Engine ids
#: stay below it.
PENDING_STREAM_ID = WIRE_U32_MAX

#: :meth:`DetectionGateway.settle` waits at most this long for the
#: gateway's loop, checking every poll interval that the loop still runs.
_SETTLE_SECONDS = 5.0
_SETTLE_POLL_SECONDS = 0.01


class ProtocolViolation(Exception):
    """Fatal per-connection protocol error; reported then disconnected."""


class ShardError(RuntimeError):
    """A shard failed: one of its drains or pool calls raised (the
    cause).  It serves no more packages; the other shards go on."""


@dataclass(frozen=True)
class GatewayConfig:
    """Serving parameters of one gateway process."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from .address
    num_shards: int = 1
    checkpoint_path: str | None = None
    checkpoint_every: int = 0  # packages between periodic checkpoints; 0 = off
    max_pending: int = 256  # per-shard queue bound (backpressure trigger)
    max_write_buffer: int = 1 << 20  # evict clients that stop reading verdicts
    max_packages: int | None = None  # stop serving after N packages (tests/CLI)
    registry_poll_seconds: float = 1.0  # registry mode: hot-swap poll; 0 = off
    protocols: tuple[str, ...] = ()  # accepted wire dialects; () = all
    #: Shard compute backend.  ``"thread"`` runs each shard's engine
    #: pool inline on the event loop (zero IPC, but every shard contends
    #: for one GIL).  ``"process"`` runs the same pool in its own OS
    #: worker process (see :mod:`repro.serve.workers`), one pipe round
    #: trip per drain of the shard queue; verdicts are bit-identical
    #: between the two.
    worker_mode: str = "thread"

    def validate(self) -> "GatewayConfig":
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got "
                f"{self.worker_mode!r}"
            )
        unknown = set(self.protocols) - set(PROTOCOL_NAMES)
        if unknown:
            raise ValueError(
                f"unknown protocols: {sorted(unknown)}; "
                f"available: {list(PROTOCOL_NAMES)}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every and not self.checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.max_write_buffer < 1024:
            raise ValueError(
                f"max_write_buffer must be >= 1024, got {self.max_write_buffer}"
            )
        if self.max_packages is not None and self.max_packages < 1:
            raise ValueError(
                f"max_packages must be >= 1, got {self.max_packages}"
            )
        if self.registry_poll_seconds < 0:
            raise ValueError(
                f"registry_poll_seconds must be >= 0, got "
                f"{self.registry_poll_seconds}"
            )
        return self


class _Session:
    """One live client connection."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.key: str | None = None
        self.shard: "_Shard | None" = None
        self.route: RouteBinding | None = None
        self.probe: list[tuple[int, "Package"]] = []
        self.next_seq = 0
        self.evicted = False
        #: Wire dialect this connection speaks; Modbus until the
        #: sniffer locks on (also the error-framing fallback).
        self.adapter: ProtocolAdapter = MODBUS

    def send(self, payload: bytes, max_buffer: int) -> None:
        """Best-effort write; evict the peer if it stopped reading."""
        if self.evicted:
            return
        try:
            self.writer.write(payload)
            transport = self.writer.transport
            if transport.get_write_buffer_size() > max_buffer:
                self.evicted = True
                transport.abort()
        except (ConnectionError, RuntimeError):
            self.evicted = True


def take_ticks(
    pending: deque, budget: int | None, max_groups: int
) -> tuple[list, list[int], deque]:
    """Split queued packages into one drain's ticks; returns the rest.

    One tick advances each stream by at most one package, so a
    package's tick is the number of earlier packages of its stream in
    ``pending``: surplus packages wait for later ticks, preserving
    per-stream order.  A tick is grouped by engine — one batched LSTM
    step per *model* — in the order its routes first appear, and
    streams are keyed by engine row within their group, since ids are
    only unique within one engine of the pool.  One pass over
    ``pending`` builds every tick.

    Returns every taken tick's ``(label, {stream_id: item})`` groups,
    concatenated in tick order, each tick's row count, and the packages
    of the ticks not taken, in queue order.  The drain stops after the
    tick that spends ``budget`` rows (``None``: no limit), and before a
    tick that would take it past ``max_groups`` groups.
    """
    ticks: list[dict[str, dict[int, tuple]]] = []
    sizes: list[int] = []
    placed: list[int] = []  # the tick of each pending package
    earlier: dict[tuple[str, int], int] = {}
    for item in pending:
        route = item[0].route
        label = route.label
        tick = earlier.get((label, route.stream_id), 0)
        earlier[(label, route.stream_id)] = tick + 1
        if tick == len(ticks):
            ticks.append({})
            sizes.append(0)
        ticks[tick].setdefault(label, {})[route.stream_id] = item
        sizes[tick] += 1
        placed.append(tick)
    batches: list[tuple[str, dict[int, tuple]]] = []
    counts: list[int] = []
    for groups, size in zip(ticks, sizes):
        if batches and len(batches) + len(groups) > max_groups:
            break
        batches.extend(groups.items())
        counts.append(size)
        if budget is not None:
            budget -= size
            if budget <= 0:
                break
    taken = len(counts)
    if taken == len(ticks):
        return batches, counts, deque()
    rest = deque(item for item, tick in zip(pending, placed) if tick >= taken)
    return batches, counts, rest


class _Shard:
    """One engine pool plus the worker that batches its streams' packages.

    The worker drains its queue in *drains*: the packages waiting at one
    moment, split into the ticks the engine runs one after another
    (:func:`take_ticks`).  All ticks of a drain go to the pool in one
    ``observe`` call, every tick's groups concatenated in tick order; a
    route label may repeat, and each engine runs its groups as one pass
    in order, so it steps through exactly the ticks it would run one
    call at a time.  A drain ends early at the tick where a periodic
    checkpoint falls due and at the OBSERVE frame's group limit.

    A drain or pool call that raises fails the shard for good
    (:meth:`DetectionGateway._fail`): ``failure`` holds the error, and
    the worker goes on taking its queue only to refuse each package's
    session, so a reader parked on the full queue wakes up.
    """

    def __init__(self, gateway: "DetectionGateway", index: int,
                 max_pending: int, pool: EnginePool) -> None:
        self.gateway = gateway
        self.index = index
        metrics = gateway.metrics
        if metrics is None:
            self._t_tick = None
            self._h_batch = None
            self._g_depth = None
        else:
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

            label = str(index)
            self._t_tick = metrics.histogram(
                "gateway_tick_seconds",
                "One drain of the shard queue (pool call + delivery)",
                shard=label,
            )
            self._h_batch = metrics.histogram(
                "gateway_tick_batch_size",
                "Streams advanced per engine tick",
                DEFAULT_SIZE_BUCKETS,
                shard=label,
            )
            self._g_depth = metrics.gauge(
                "gateway_queue_depth",
                "Shard queue depth sampled at enqueue",
                shard=label,
            )
        #: The shard's engines: in-process until a process-mode
        #: :meth:`DetectionGateway.start` moves them into a worker.
        self.pool: EnginePool | WorkerPool = pool
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        self.bound_streams = 0
        #: Serializes a drain's route reads plus its pool call against
        #: route mutations (hot-swap) and pool snapshots (checkpoint).
        #: Thread-mode holders never yield, so there it is never
        #: contended.
        self.lock = asyncio.Lock()
        #: Why the shard stopped serving; ``None`` while it serves.
        self.failure: ShardError | None = None

    async def run(self) -> None:
        """Take what the queue holds, drain it, repeat until a drain
        raises; then refuse every package still queued or yet to come."""
        try:
            while True:
                items = [await self.queue.get()]
                while True:
                    try:
                        items.append(self.queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                pending = deque(items)
                while pending:
                    pending = await self._drain(pending)
        except Exception as exc:  # noqa: BLE001 - recorded as the shard's failure
            self.gateway._fail(self, exc)
        while True:
            session = (await self.queue.get())[0]
            self.gateway._refuse(session, str(self.failure))

    def _take_ticks(self, pending: deque) -> tuple[list, list[int], deque]:
        """This drain's ticks of ``pending`` (:func:`take_ticks`), cut at
        the tick that makes a periodic checkpoint due, so checkpoints
        land on the package counts of a shard that runs one tick per
        call, and at the OBSERVE frame's group limit."""
        gateway = self.gateway
        every = gateway.config.checkpoint_every
        budget = None
        if every and not gateway._failures:
            budget = every - gateway._since_checkpoint
        return take_ticks(pending, budget, OBSERVE_MAX_GROUPS)

    async def _drain(self, pending: deque) -> deque:
        """Run the next drain of ``pending`` in one pool call."""
        gateway = self.gateway
        started = perf_counter() if self._t_tick is not None else 0.0
        traced = gateway.tracer is not None
        async with self.lock:
            batches, counts, pending = self._take_ticks(pending)
            picked = perf_counter() if traced else 0.0
            results, seconds = await self.pool.observe(
                [
                    (label, {sid: item[2] for sid, item in by_stream.items()})
                    for label, by_stream in batches
                ]
            )
        if traced:
            self._attribute(batches, seconds, picked)
        # Account before delivery: a write can flush to the socket
        # synchronously, so this ordering guarantees a client can never
        # observe a verdict the gateway's own counters don't cover yet.
        gateway._after_work(sum(counts))
        gateway._deliver([
            answer
            for (_, by_stream), (verdicts, levels) in zip(batches, results)
            for answer in zip(by_stream.values(), verdicts, levels)
        ])
        # Checkpoint after the fan-out, so the alert, incident and
        # monitor state it saves covers exactly the packages its engines
        # have seen.  It runs after this shard's lock is released,
        # because it takes every shard lock.
        if gateway._checkpoint_due():
            await gateway._checkpoint()
        if self._t_tick is not None:
            self._t_tick.observe(perf_counter() - started)
            for count in counts:
                self._h_batch.observe(count)
        return pending

    def _attribute(self, batches: list, seconds: list[float], picked: float) -> None:
        """Stamp each traced package's queue and compute stages.

        A group's compute is its engine seconds: ``tick`` in thread
        mode; in process mode ``worker``, from the OBSERVE trailer, plus
        ``pipe``, whatever the round trip spent beyond the call's total
        compute, one cost shared by every group.  A package waits in
        ``queue`` from its enqueue until its own group starts: the
        drain's pickup plus the engine seconds of the groups before it.
        Its span's mark then moves to the end of its group's compute, so
        ``deliver`` covers the later groups, the frame writes and the
        fan-out up to its own.
        """
        pipe = None
        if isinstance(self.pool, WorkerPool):
            pipe = max(0.0, perf_counter() - picked - sum(seconds))
        waited = 0.0
        for (_, by_stream), engine in zip(batches, seconds):
            if pipe is None:
                stage, computed = {"tick": engine}, engine
            else:
                stage, computed = {"worker": engine, "pipe": pipe}, engine + pipe
            for item in by_stream.values():
                span = item[3]
                if span is not None:
                    span.stages["queue"] = picked + waited - span.mark
                    span.stages.update(stage)
                    span.mark = picked + waited + computed
            waited += engine


class DetectionGateway:
    """Async Modbus/TCP server multiplexing sessions onto sharded engines.

    Built either over one trained ``detector`` (homogeneous: every
    stream is scored by that model) or over a model ``registry``
    (heterogeneous: every stream is routed to its scenario's versioned
    artifact, with auto-identification and hot-swap).
    """

    def __init__(
        self,
        detector: "CombinedDetector | None" = None,
        config: GatewayConfig | None = None,
        alerts: AlertPipeline | None = None,
        *,
        registry: "ModelRegistry | None" = None,
        model_info: dict[str, Any] | None = None,
        metrics: "MetricsRegistry | None" = None,
        historian: "Historian | None" = None,
        incidents: "IncidentCorrelator | bool | None" = None,
        monitors: "DriftMonitorBank | bool | None" = None,
        tracer: "Tracer | None" = None,
        _pools: "list[dict[str, StreamEngine]] | None" = None,
        _routes: "dict[str, RouteBinding] | None" = None,
    ) -> None:
        self.config = (config or GatewayConfig()).validate()
        if (detector is None) == (registry is None):
            raise ValueError(
                "pass exactly one of detector= (homogeneous) or "
                "registry= (heterogeneous)"
            )
        self.detector = detector
        #: The model registry of a routed gateway; ``None`` for a single
        #: detector.
        self.registry = registry
        self._router = None if registry is None else ScenarioRouter(registry)
        self.alerts = alerts if alerts is not None else AlertPipeline()
        self._model_info = dict(model_info) if model_info else None
        #: Optional observability hooks — all pure observers: none of
        #: them ever influences verdicts or routing.
        self.metrics = metrics
        self.historian = historian
        #: Incident correlation + drift monitors: on by default (pass
        #: ``False`` to disable, or a prebuilt instance to share one).
        #: Their state rides checkpoint meta bit-identically.
        self.incidents: IncidentCorrelator | None
        if incidents is False:
            self.incidents = None
        elif incidents is None or incidents is True:
            self.incidents = IncidentCorrelator(metrics=metrics)
        else:
            self.incidents = incidents
        self.monitors: DriftMonitorBank | None
        if monitors is False:
            self.monitors = None
        elif monitors is None or monitors is True:
            self.monitors = DriftMonitorBank(metrics=metrics)
        else:
            self.monitors = monitors
        if self.incidents is not None:
            self.alerts.add_sink(self.incidents)
        #: Tracing plane: off unless a Tracer is attached.  Sampling is
        #: seeded by ``(stream key, seq)`` — never wall clock — so it
        #: needs no checkpoint state: a resumed replay re-selects
        #: exactly the same packages with the same trace ids.
        self.tracer = tracer
        if metrics is None:
            self._m_packages = None
            self._m_checkpoint_timer = None
            self._m_queue_peak = None
        else:
            self._m_packages = metrics.counter(
                "gateway_packages_total", "Packages judged by this gateway"
            )
            self._m_checkpoint_timer = metrics.histogram(
                "gateway_checkpoint_seconds", "Checkpoint write duration"
            )
            self._m_queue_peak = metrics.gauge(
                "gateway_queue_depth_peak",
                "High-water mark over all shard queues",
            )
        #: Mirror of transport counters as metrics, keyed by dialect.
        self._m_transport: dict[str, dict[str, Any]] = {}
        self._peak_queue_depth = 0
        if _pools is None:
            # A single-detector pool always holds its one slot, so every
            # shard has an engine to checkpoint even before any stream.
            _pools = [
                {SINGLE_LABEL: detector.engine(0)} if registry is None else {}
                for _ in range(self.config.num_shards)
            ]
        elif len(_pools) != self.config.num_shards:
            raise ValueError(
                f"{len(_pools)} restored shards for config.num_shards="
                f"{self.config.num_shards}"
            )
        self._shards = [
            _Shard(
                self, i, self.config.max_pending,
                EnginePool(self._detector_for, engines),
            )
            for i, engines in enumerate(_pools)
        ]
        #: stream key -> live route; sticky across reconnects.
        self._bindings: dict[str, RouteBinding] = dict(_routes or {})
        for route in self._bindings.values():
            self._shards[route.shard].bound_streams += 1
        self._live: dict[str, _Session] = {}
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._registry_listener = None
        self._workers: list[asyncio.Task] = []
        self._processed = 0
        self._since_checkpoint = 0
        self._checkpoints_written = 0
        self._crc_errors = 0
        self._malformed = 0
        self._bytes_discarded = 0
        #: Per-dialect edge health: connections, frames decoded, junk
        #: bytes shed and resync events, keyed by adapter name.
        self._transport_stats: dict[str, dict[str, int]] = {}
        self._swaps_applied = 0
        self._identified = 0
        self._abstained = 0
        self._done = asyncio.Event()
        self._stopped = False
        #: Each failed shard's :class:`ShardError`, in order of failure.
        self._failures: list[ShardError] = []
        #: Serializes checkpoint writers (any shard's tick may trigger
        #: one) and re-checks dueness under the lock.
        self._checkpoint_lock = asyncio.Lock()
        #: Hot-swaps requested before start(): scenario -> version.
        self._early_swaps: dict[str, int] = {}
        #: Running hot-swap tasks (the loop only holds tasks weakly).
        self._swap_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        config: GatewayConfig | None = None,
        alerts: AlertPipeline | None = None,
        detector: "CombinedDetector | None" = None,
        registry: "ModelRegistry | None" = None,
        model_info: dict[str, Any] | None = None,
        metrics: "MetricsRegistry | None" = None,
        historian: "Historian | None" = None,
        incidents: "IncidentCorrelator | bool | None" = None,
        monitors: "DriftMonitorBank | bool | None" = None,
        tracer: "Tracer | None" = None,
    ) -> "DetectionGateway":
        """Rebuild a gateway from a checkpoint; streams resume bit-identically.

        The shard count is part of the checkpointed topology, so it
        overrides ``config.num_shards``.  Single-detector checkpoints
        optionally take ``detector`` to skip the embedded copy; routed
        checkpoints *require* ``registry=`` to load the exact
        ``(scenario, version)`` artifacts their engine pools reference
        (:meth:`~repro.registry.ModelRegistry.load`; a version the
        registry no longer holds is a
        :class:`~repro.registry.RegistryError`).  ``model_info``
        defaults to the one the checkpointed gateway served with.
        ``incidents``/``monitors``
        mirror the constructor (pass ``False`` to keep a plane disabled
        on resume — checkpoint meta for a disabled plane is ignored, not
        lost).
        """
        restored = load_gateway_checkpoint(
            path, detector, None if registry is None else registry.load
        )
        meta = restored.meta
        gateway = cls(
            restored.detector,
            replace(config or GatewayConfig(), num_shards=len(restored.pools)),
            alerts,
            registry=registry,
            model_info=meta.get("model") if model_info is None else model_info,
            metrics=metrics,
            historian=historian,
            incidents=incidents,
            monitors=monitors,
            tracer=tracer,
            _pools=restored.pools,
            _routes=restored.bindings,
        )
        gateway._restore_transport_stats(meta)
        gateway._restore_obs_state(meta)
        return gateway

    def _obs_state_meta(self) -> dict[str, Any]:
        """Alert, correlator and monitor state for checkpoint metadata."""
        meta: dict[str, Any] = {"alerts": self.alerts.state_dict()}
        if self.incidents is not None:
            meta["incidents"] = self.incidents.state_dict()
        if self.monitors is not None:
            meta["monitors"] = self.monitors.state_dict()
        return meta

    def _restore_obs_state(self, meta: dict[str, Any]) -> None:
        """Resume the state saved by :meth:`_obs_state_meta`."""
        if meta.get("alerts"):
            self.alerts.load_state(meta["alerts"])
        if self.incidents is not None and meta.get("incidents"):
            self.incidents.load_state(meta["incidents"])
        if self.monitors is not None and meta.get("monitors"):
            self.monitors.load_state(meta["monitors"])

    def _restore_transport_stats(self, meta: dict[str, Any]) -> None:
        """Carry per-dialect edge counters across a fail-over."""
        for name, counters in (meta.get("transport") or {}).items():
            if name in PROTOCOL_NAMES:
                restored = {k: int(v) for k, v in counters.items()}
                self._transport_counters(name).update(restored)
                mirrors = self._transport_metrics(name)
                if mirrors is not None:
                    for field, value in restored.items():
                        if field in mirrors:
                            mirrors[field].inc(value)

    async def _start_worker_processes(self) -> None:
        """Move each shard's engine pool into its own worker process.

        The gateway always *constructs* its pools in-process (fresh or
        checkpoint-restored); at start each pool's snapshot is shipped
        to a worker, which rebuilds the same pool there.
        """
        model: dict[str, Any]
        if self.registry is None:
            assert self.detector is not None
            model = {"detector": self.detector.state_dict()}
        else:
            model = {"registry_root": str(self.registry.root)}
        payloads = [
            encode_call("init", pool=await shard.pool.snapshot(), **model)
            for shard in self._shards
        ]
        handles: list[WorkerHandle] = []
        try:
            for shard in self._shards:
                handles.append(WorkerHandle(shard.index, metrics=self.metrics))
            replies = await asyncio.gather(
                *(
                    handle.call(payload)
                    for handle, payload in zip(handles, payloads)
                )
            )
            for reply in replies:
                decode_reply(reply)
        except BaseException:
            await asyncio.to_thread(
                lambda: [handle.close(timeout=2.0) for handle in handles]
            )
            raise
        for shard, handle in zip(self._shards, handles):
            shard.pool = WorkerPool(handle)

    async def start(self) -> None:
        """Bind the listening socket and launch the shard workers.

        A start that fails part-way releases what it started (shard
        tasks, worker processes, the registry subscription) through
        :meth:`stop` before the error propagates.
        """
        if self._server is not None:
            raise RuntimeError("gateway already started")
        loop = asyncio.get_running_loop()
        self._loop = loop
        try:
            for scenario, version in self._early_swaps.items():
                await self._apply_swap(scenario, version)
            self._early_swaps.clear()
            if self.config.worker_mode == "process":
                await self._start_worker_processes()
            self._workers = [loop.create_task(shard.run()) for shard in self._shards]
            if self._router is not None:
                # In-process publishes/promotes hot-swap immediately; the
                # poll task additionally picks up activations performed by
                # other processes (e.g. `repro registry promote`).
                def listener(scenario: str, version: int) -> None:
                    loop.call_soon_threadsafe(self._maybe_swap, scenario)

                self._registry_listener = listener
                self.registry.subscribe(listener)
                if self.config.registry_poll_seconds > 0:
                    self._workers.append(loop.create_task(self._watch_registry()))
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
        except BaseException:
            await self.stop(checkpoint=False)
            raise

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — read after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("gateway is not listening")
        return self._server.sockets[0].getsockname()[:2]

    async def wait_done(self) -> None:
        """Block until ``max_packages`` packages have been served."""
        await self._done.wait()

    def settle(self) -> None:
        """From another thread: wait until the gateway's loop has
        finished the step it is running.

        A drain writes its verdict frames before its historian, alert,
        monitor and tracer fan-out, so a client can hold a verdict whose
        fan-out is still running.  Once this returns, the fan-out of
        every verdict sent before the call is done.  A no-op on the
        gateway's own loop and on a gateway that is not running; returns
        as soon as the loop stops, and after at most five seconds.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        try:
            if asyncio.get_running_loop() is loop:
                return
        except RuntimeError:
            pass  # called from a thread without a loop
        turned = threading.Event()
        try:
            loop.call_soon_threadsafe(turned.set)
        except RuntimeError:
            return  # the loop closed meanwhile
        # A loop that stops before it reaches the callback never runs
        # it, so poll for that rather than wait out the whole deadline.
        deadline = perf_counter() + _SETTLE_SECONDS
        while not turned.wait(_SETTLE_POLL_SECONDS):
            if not loop.is_running() or perf_counter() >= deadline:
                return

    async def stop(self, checkpoint: bool = True) -> None:
        """Graceful shutdown; ``checkpoint=False`` models a hard crash.

        Every shard pool is closed, the alert pipeline closed and the
        historian flushed even when the final checkpoint or a pool call
        fails.  Afterwards the first shard failure is raised (a
        :class:`ShardError`; a gateway with a failed shard writes no
        shutdown checkpoint), or else the first such error.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._registry_listener is not None:
            self.registry.unsubscribe(self._registry_listener)
            self._registry_listener = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # A periodic checkpoint in flight finishes before the shard
        # tasks are cancelled, so two writes never race on one file.
        async with self._checkpoint_lock:
            for worker in self._workers:
                worker.cancel()
            for worker in self._workers:
                try:
                    await worker
                except (asyncio.CancelledError, Exception):
                    pass
            for session in list(self._live.values()):
                try:
                    session.writer.close()
                except RuntimeError:
                    pass
            self._live.clear()
            try:
                if checkpoint:
                    await self._write_checkpoint()
            finally:
                closed = await asyncio.gather(
                    *(shard.pool.close() for shard in self._shards),
                    return_exceptions=True,
                )
                self.alerts.close()
                if self.historian is not None:
                    # Flush (not close): the verdict log must be durable
                    # once the gateway is down, but the owner may keep
                    # querying it.
                    self.historian.flush()
        if self._failures:
            raise self._failures[0]
        for outcome in closed:
            if isinstance(outcome, BaseException):
                raise outcome

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    def _transport_counters(self, protocol: str) -> dict[str, int]:
        counters = self._transport_stats.get(protocol)
        if counters is None:
            counters = {
                "connections": 0,
                "frames_decoded": 0,
                "bytes_discarded": 0,
                "resyncs": 0,
            }
            self._transport_stats[protocol] = counters
        return counters

    def _transport_metrics(self, protocol: str) -> "dict[str, Any] | None":
        """Metric mirrors of one dialect's edge counters (lazily built)."""
        if self.metrics is None:
            return None
        mirrors = self._m_transport.get(protocol)
        if mirrors is None:
            mirrors = {
                field: self.metrics.counter(
                    f"gateway_transport_{field}_total",
                    f"Per-dialect transport {field.replace('_', ' ')}",
                    protocol=protocol,
                )
                for field in (
                    "connections", "frames_decoded", "bytes_discarded",
                    "resyncs",
                )
            }
            self._m_transport[protocol] = mirrors
        return mirrors

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = _Session(writer)
        # Every connection self-identifies its wire dialect: the sniffer
        # locks onto the first dialect whose whole frame parses at the
        # head of the stream (shedding leading garbage), then decodes it.
        decoder = ProtocolSniffer(self.config.protocols)
        counters: dict[str, int] | None = None
        mirrors: dict[str, Any] | None = None
        marks = (0, 0, 0)  # decoder (frames, discarded, resyncs) seen so far
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                frames = decoder.feed(data)
                if decoder.adapter is None:
                    continue  # no whole frame of any dialect yet
                if counters is None:
                    session.adapter = decoder.adapter
                    counters = self._transport_counters(decoder.adapter.name)
                    mirrors = self._transport_metrics(decoder.adapter.name)
                    counters["connections"] += 1
                    if mirrors is not None:
                        mirrors["connections"].inc()
                frames_delta = decoder.frames_decoded - marks[0]
                counters["frames_decoded"] += frames_delta
                discarded = decoder.bytes_discarded - marks[1]
                counters["bytes_discarded"] += discarded
                self._bytes_discarded += discarded
                resyncs_delta = decoder.resyncs - marks[2]
                counters["resyncs"] += resyncs_delta
                if mirrors is not None:
                    mirrors["frames_decoded"].inc(frames_delta)
                    mirrors["bytes_discarded"].inc(discarded)
                    mirrors["resyncs"].inc(resyncs_delta)
                marks = (
                    decoder.frames_decoded,
                    decoder.bytes_discarded,
                    decoder.resyncs,
                )
                for frame in frames:
                    await self._on_frame(session, frame)
            await self._flush(session)
        except ProtocolViolation as exc:
            session.send(
                session.adapter.frame_error(str(exc)),
                self.config.max_write_buffer,
            )
            await self._flush(session)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if decoder.adapter is None:
                # Connection died (or closed) before any dialect locked
                # on: its junk still shows up in the edge counters.
                self._bytes_discarded += decoder.bytes_discarded
            if session.key is not None and self._live.get(session.key) is session:
                del self._live[session.key]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _flush(self, session: _Session) -> None:
        if not session.evicted:
            try:
                await session.writer.drain()
            except (ConnectionError, RuntimeError):
                pass

    async def _on_frame(self, session: _Session, frame) -> None:
        kind = frame.kind
        if kind == KIND_OPEN:
            await self._on_open(session, frame)
            await self._flush(session)
        elif kind == KIND_DATA:
            await self._on_data(session, frame)
        elif kind == KIND_ERROR:
            raise ProtocolViolation("peer reported an error")
        else:
            raise ProtocolViolation(f"unexpected frame kind {kind:#04x}")

    async def _on_open(self, session: _Session, frame) -> None:
        if session.key is not None:
            raise ProtocolViolation("session already bound to a stream")
        try:
            key, scenario_tag, protocol_tag = session.adapter.decode_open(frame.pdu)
        except TransportError as exc:
            raise ProtocolViolation(str(exc)) from exc
        if protocol_tag is not None and protocol_tag != session.adapter.name:
            # A declared dialect that contradicts the negotiated framing is
            # a confused (or spoofing) client, not a tolerable mismatch.
            raise ProtocolViolation(
                f"stream {key!r} declares protocol {protocol_tag!r} but "
                f"speaks {session.adapter.name!r}"
            )
        if key in self._live:
            raise ProtocolViolation(f"stream key {key!r} already connected")

        route = self._bindings.get(key)
        if route is None and self._router is not None and scenario_tag is None:
            # Untagged stream on a routed gateway: hold the session and
            # auto-identify its scenario from the first probe window.
            session.key = key
            self._live[key] = session
            session.send(
                session.adapter.frame_open_ack(PENDING_STREAM_ID, 0),
                self.config.max_write_buffer,
            )
            return
        # Claim the key *before* any await: a second OPEN racing the
        # bind round-trip must hit the already-connected check above.
        session.key = key
        self._live[key] = session
        if route is None:
            route = await self._bind(
                key, scenario_tag, protocol=session.adapter.name
            )
        else:
            route.protocol = session.adapter.name

        session.route = route
        session.shard = self._shards[route.shard]
        seen = await self._route_packages_seen(session.shard, route)
        # Reading seq_base after the await is safe: a hot-swap folds
        # the old engine's count into seq_base, so the sum (the next
        # expected wire seq) is invariant across swaps.
        session.next_seq = route.seq_base + seen
        session.send(
            session.adapter.frame_open_ack(route.stream_id, session.next_seq),
            self.config.max_write_buffer,
        )

    async def _route_packages_seen(
        self, shard: _Shard, route: RouteBinding
    ) -> int:
        """Lifetime package count of one route's current engine row; an
        OPEN on a failed shard is refused."""
        if shard.failure is None:
            try:
                async with shard.lock:
                    return await shard.pool.seen(route.label, route.stream_id)
            except Exception as exc:  # noqa: BLE001 - fails the shard
                self._fail(shard, exc)
        raise ProtocolViolation(str(shard.failure))

    async def _bind(
        self,
        key: str,
        scenario_tag: str | None,
        identified: tuple[str, int] | None = None,
        protocol: str = "modbus",
    ) -> RouteBinding:
        """Assign a fresh stream key its shard, model route and engine row."""
        if self._router is None:
            # Homogeneous gateway: one model serves everything; a
            # scenario tag is advisory and does not change routing.
            scenario: str | None = None
            version: int | None = None
        elif identified is not None:
            scenario, version = identified
        else:
            assert scenario_tag is not None
            try:
                _, entry = self._router.resolve(scenario_tag)
            except RoutingError as exc:
                raise ProtocolViolation(str(exc)) from exc
            scenario, version = entry.scenario, entry.version
        # Least-loaded live shard (ties to the lowest index) keeps the
        # per-tick batches balanced as keys come and go.  The shard is
        # reserved before the ATTACH await, so OPENs binding concurrently
        # see each other's choice; a failed ATTACH gives it back.
        live = [shard for shard in self._shards if shard.failure is None]
        if not live:
            raise ProtocolViolation(f"every shard failed: {self._failures[0]}")
        shard = min(live, key=lambda s: (s.bound_streams, s.index))
        shard.bound_streams += 1
        try:
            stream_id = await shard.pool.attach(route_label(scenario, version))
        except Exception as exc:  # noqa: BLE001 - fails the shard
            shard.bound_streams -= 1
            raise ProtocolViolation(str(self._fail(shard, exc))) from exc
        except BaseException:
            shard.bound_streams -= 1
            raise
        route = RouteBinding(
            shard.index, scenario, version, stream_id, protocol=protocol
        )
        self._bindings[key] = route
        return route

    async def _on_data(self, session: _Session, frame) -> None:
        if session.key is None:
            raise ProtocolViolation("DATA before OPEN")
        tracer = self.tracer
        received = decoded = 0.0
        if tracer is not None:
            received = perf_counter()
        try:
            data = session.adapter.decode_data(frame.pdu)
        except CrcError:
            # Corrupt embedded frame: count it, drop the PDU, keep the
            # session.  The DATA layer is reliable-in-order — a dropped
            # PDU is treated as never received, so the sender must
            # retransmit from its in-flight window (a stalled window
            # times out, reconnects, and OPEN_ACK points it back at the
            # exact next package).
            self._crc_errors += 1
            return
        except (TransportError, ValueError):
            self._malformed += 1
            return
        if tracer is not None:
            decoded = perf_counter()
        if data.seq != session.next_seq:
            raise ProtocolViolation(
                f"stream {session.key!r}: expected seq {session.next_seq}, "
                f"got {data.seq}"
            )
        session.next_seq += 1
        if session.route is None:
            # Auto-identification probe: identification is attempted on
            # every buffered package past the router's minimum — a
            # short stream routes as soon as its probe is decisive, and
            # only a stream still unidentified after the full window is
            # refused (an attack burst at the head keeps buffering
            # until clean traffic tips the score).
            assert self._router is not None
            session.probe.append((data.seq, data.package))
            if len(session.probe) >= self._router.min_probe:
                await self._identify_and_bind(
                    session, final=len(session.probe) >= self._router.probe_window
                )
            return
        # Bounded queue: when the shard is saturated this await parks
        # the reader, which stops draining the socket — backpressure
        # reaches the client as a zero TCP window.
        assert session.shard is not None
        span = None
        if tracer is not None:
            span = tracer.start(session.key, data.seq, received)
            if span is not None:
                now = perf_counter()
                span.stages["decode"] = decoded - received
                span.stages["route"] = now - decoded
                # "queue" runs from here to tick pickup, so a put() that
                # parks on a full shard counts as queueing, not routing.
                span.mark = now
        await session.shard.queue.put((session, data.seq, data.package, span))
        self._note_queued(session.shard)

    async def _identify_and_bind(self, session: _Session, final: bool) -> None:
        assert self._router is not None and session.key is not None
        outcome = self._router.identify(
            [pkg for _, pkg in session.probe],
            protocol=session.adapter.name,
        )
        if outcome.abstained:
            if not final:
                return  # inconclusive so far: keep buffering the probe
            self._abstained += 1
            raise ProtocolViolation(
                f"cannot identify a registered scenario for stream "
                f"{session.key!r}: {outcome.describe()}"
            )
        self._identified += 1
        assert outcome.scenario is not None and outcome.version is not None
        route = await self._bind(
            session.key,
            None,
            identified=(outcome.scenario, outcome.version),
            protocol=session.adapter.name,
        )
        session.route = route
        session.shard = self._shards[route.shard]
        # Probe packages were buffered before a route existed; they are
        # re-enqueued untraced (deterministically — a replay buffers the
        # exact same probe window).
        probe, session.probe = session.probe, []
        for seq, package in probe:
            await session.shard.queue.put((session, seq, package, None))
            self._note_queued(session.shard)

    # ------------------------------------------------------------------
    # model resolution & hot-swap
    # ------------------------------------------------------------------

    def _detector_for(self, label: str) -> "CombinedDetector":
        """The trained framework behind one pool slot."""
        if self._router is None:
            assert self.detector is not None
            return self.detector
        return self._router.load(*parse_route_label(label))

    def request_promote(self, scenario: str) -> None:
        """Thread-safe: re-check a scenario's active version and hot-swap.

        Before :meth:`start` the swap is remembered and applied there.
        """
        if self._loop is None:
            self._maybe_swap(scenario)
        else:
            self._loop.call_soon_threadsafe(self._maybe_swap, scenario)

    def _maybe_swap(self, scenario: str) -> None:
        if self._router is None or self._stopped:
            return
        try:
            version = self._router.active_version(scenario)
        except RoutingError:
            return
        if not any(
            route.scenario == scenario and route.version != version
            for route in self._bindings.values()
        ):
            return
        if self._loop is None:
            self._early_swaps[scenario] = version
            return
        task = self._loop.create_task(self._apply_swap(scenario, version))
        self._swap_tasks.add(task)
        task.add_done_callback(self._swap_tasks.discard)

    async def _apply_swap(self, scenario: str, version: int) -> None:
        """Drain-and-swap every stream of ``scenario`` onto ``version``.

        Each shard's lock is held across its swap ops, so the re-attach
        lands *between* that shard's ticks and no tick reads a
        half-updated route table: packages already queued are simply
        scored by the new engine on the next tick — none are dropped,
        and the verdict sequence continues unbroken.  The old version's
        recurrent state does not transfer (architectures and
        vocabularies may differ); each swapped stream restarts from a
        fresh zero state exactly like offline ``detect()`` starting at
        the swap boundary.  Route fields are re-checked under the lock,
        so concurrent swaps (subscribe callback racing the registry
        poll) stay idempotent.
        """
        swapped = 0
        try:
            for shard in self._shards:
                if shard.failure is not None:
                    continue
                async with shard.lock:
                    for route in list(self._bindings.values()):
                        if (
                            route.shard != shard.index
                            or route.scenario != scenario
                            or route.version == version
                        ):
                            continue
                        new_id, old_seen = await shard.pool.swap(
                            scenario, route.version, version, route.stream_id
                        )
                        route.seq_base += old_seen
                        route.stream_id = new_id
                        route.version = version
                        route.label = route_label(scenario, version)
                        swapped += 1
        except WorkerError:
            if not self._stopped:  # shutdown races are expected
                raise
        if swapped:
            self._swaps_applied += 1

    async def _watch_registry(self) -> None:
        """Poll for activations done by other processes (CLI promote)."""
        assert self._router is not None
        while True:
            await asyncio.sleep(self.config.registry_poll_seconds)
            scenarios = {
                route.scenario
                for route in self._bindings.values()
                if route.scenario is not None
            }
            for scenario in scenarios:
                self._maybe_swap(scenario)

    # ------------------------------------------------------------------
    # verdict delivery (called by shard workers)
    # ------------------------------------------------------------------

    def _note_queued(self, shard: _Shard) -> None:
        """Track queue depth at enqueue (peak rides stats() and metrics)."""
        depth = shard.queue.qsize()
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        if shard._g_depth is not None:
            shard._g_depth.set(depth)
            self._m_queue_peak.max(depth)

    def _deliver(self, answered) -> None:
        """Answer one drain: every verdict frame first, then the fan-out.

        ``answered`` holds ``(item, verdict, level)`` for every package
        of the drain in tick order.  Each session gets its frames in one
        write, in seq order; only then do the historian, alerts,
        monitors and tracer see each package in turn.
        """
        frames: dict[_Session, list[bytes]] = {}
        for (session, seq, package, _), verdict, level in answered:
            frames.setdefault(session, []).append(
                session.adapter.frame_verdict(
                    seq, bool(verdict), int(level),
                    unit_id=package.address & 0xFF,
                )
            )
        max_buffer = self.config.max_write_buffer
        for session, payload in frames.items():
            session.send(b"".join(payload), max_buffer)
        historian = self.historian
        monitors = self.monitors
        tracer = self.tracer
        fallback = (self._model_info or {}).get("scenario")
        for (session, seq, package, span), verdict, level in answered:
            route = session.route
            scenario = (
                route.scenario
                if route is not None and route.scenario is not None
                else fallback
            )
            version = route.version if route is not None else None
            if historian is not None and session.key is not None:
                historian.append(
                    session.key,
                    scenario,
                    version,
                    seq,
                    int(level),
                    bool(verdict),
                    package.pressure_measurement,
                )
            if verdict and session.key is not None:
                self.alerts.submit(
                    session.key, seq, package, int(level),
                    scenario=scenario, version=version,
                )
            if monitors is not None and session.key is not None:
                drift = monitors.observe(
                    session.key, seq, package.time, int(level),
                    scenario=scenario, version=version,
                )
                if drift is not None:
                    self.alerts.inject(drift)
            if span is not None and tracer is not None:
                span.stages["deliver"] = perf_counter() - span.mark
                tracer.finish(
                    span,
                    scenario=scenario,
                    version=version,
                    time=package.time,
                )

    def _after_work(self, count: int) -> None:
        self._processed += count
        self._since_checkpoint += count
        if self._m_packages is not None:
            self._m_packages.inc(count)
        cfg = self.config
        if cfg.max_packages is not None and self._processed >= cfg.max_packages:
            self._done.set()

    def _checkpoint_due(self) -> bool:
        cfg = self.config
        return bool(
            cfg.checkpoint_every
            and not self._failures
            and self._since_checkpoint >= cfg.checkpoint_every
        )

    async def _checkpoint(self) -> None:
        """Periodic checkpoint (any shard's tick may trigger one)."""
        async with self._checkpoint_lock:
            if self._checkpoint_due():  # another shard may have just written
                await self._write_checkpoint()

    async def _write_checkpoint(self) -> None:
        """Snapshot every pool under all shard locks, then write off-loop.

        With every shard lock held, no tick is between its route reads
        and its pool call and no swap can run, so each pool snapshot
        matches the route table copied beside it.  ``state_dict()``
        copies every array, so the write can leave the event loop while
        ticks go on.  Both worker modes write the same on-disk format,
        so checkpoints are interchangeable across modes.

        Nothing is written once a shard has failed, so the last good
        checkpoint stands; a snapshot that raises fails its own shard,
        never the drain that made the checkpoint due.
        """
        path = self.config.checkpoint_path
        if not path or self._failures:
            return
        started = perf_counter()
        async with AsyncExitStack() as stack:
            for shard in self._shards:
                await stack.enter_async_context(shard.lock)
            meta = {
                "processed": self._processed,
                "routes": self._route_meta(),
                "transport": {
                    name: dict(counters)
                    for name, counters in sorted(self._transport_stats.items())
                },
                **self._obs_state_meta(),
            }
            if self._model_info:
                meta["model"] = dict(self._model_info)
            # Copies: a hot-swap may rewrite live routes during the write.
            bindings = {
                key: replace(route) for key, route in self._bindings.items()
            }
            pools = []
            for shard in self._shards:
                try:
                    pools.append(await shard.pool.snapshot())
                except Exception as exc:  # noqa: BLE001 - fails the shard
                    self._fail(shard, exc)
                    return
            self._since_checkpoint = 0
        await asyncio.to_thread(
            save_gateway_checkpoint,
            path,
            pools,
            bindings,
            meta=meta,
            detector=self.detector,
        )
        self._checkpoints_written += 1
        if self._m_checkpoint_timer is not None:
            self._m_checkpoint_timer.observe(perf_counter() - started)

    # ------------------------------------------------------------------
    # shard failure
    # ------------------------------------------------------------------

    def _fail(self, shard: _Shard, exc: BaseException) -> ShardError:
        """Fail ``shard`` for good with ``exc`` as the cause and refuse
        every live session on it; returns the shard's failure."""
        if shard.failure is None:
            detail = str(exc).strip().splitlines() or [""]
            failure = ShardError(
                f"shard {shard.index} failed: {type(exc).__name__}: {detail[-1]}"
            )
            failure.__cause__ = exc
            shard.failure = failure
            self._failures.append(failure)
            for session in list(self._live.values()):
                if session.shard is shard:
                    self._refuse(session, str(failure))
        return shard.failure

    def _refuse(self, session: _Session, message: str) -> None:
        """Send ``message`` as an ERROR frame in the session's dialect,
        write nothing after it, and close the connection."""
        session.send(session.adapter.frame_error(message), self.config.max_write_buffer)
        session.evicted = True
        session.writer.close()

    @property
    def failed_shards(self) -> list[dict[str, Any]]:
        """``{"shard": index, "error": message}`` of every failed shard,
        in shard order."""
        return [
            {"shard": shard.index, "error": str(shard.failure)}
            for shard in self._shards
            if shard.failure is not None
        ]

    # ------------------------------------------------------------------

    def _route_meta(self) -> dict[str, dict[str, Any]]:
        """Per-stream-key model provenance (checkpoint meta + stats)."""
        fallback = (self._model_info or {}).get("scenario")
        return {
            key: {
                "scenario": route.scenario if route.scenario is not None else fallback,
                "version": route.version,
                "protocol": route.protocol,
            }
            for key, route in self._bindings.items()
        }

    def stats(self) -> dict[str, Any]:
        """Serving counters: per-shard engine stats plus edge health.

        ``routes`` names, for every stream key, the scenario + artifact
        version of the model scoring its verdicts (plus shard, engine
        row and lifetime package count) — the audit trail a mixed fleet
        needs.  ``failed_shards`` lists the shards that stopped serving
        (:attr:`failed_shards`); a shard whose pool reports no engine (a
        dead worker) counts zeros in ``shards``.
        """
        pools = [shard.pool.stats() for shard in self._shards]
        routes: dict[str, dict[str, Any]] = {}
        fallback = (self._model_info or {}).get("scenario")
        for key, route in self._bindings.items():
            entry = pools[route.shard].get(route.label)
            seen = entry["streams"].get(str(route.stream_id), 0) if entry else 0
            routes[key] = {
                "scenario": (
                    route.scenario if route.scenario is not None else fallback
                ),
                "version": route.version,
                "protocol": route.protocol,
                "shard": route.shard,
                "stream_id": route.stream_id,
                "seq_base": route.seq_base,
                "packages": route.seq_base + seen,
            }
        stats: dict[str, Any] = {
            "mode": "single" if self._router is None else "registry",
            "processed": self._processed,
            "streams": len(self._bindings),
            "live_sessions": len(self._live),
            "crc_errors": self._crc_errors,
            "malformed": self._malformed,
            "bytes_discarded": self._bytes_discarded,
            "transport": {
                name: dict(counters)
                for name, counters in sorted(self._transport_stats.items())
            },
            "checkpoints_written": self._checkpoints_written,
            "peak_queue_depth": self._peak_queue_depth,
            "failed_shards": self.failed_shards,
            "routes": routes,
            "alerts": self.alerts.stats(),
        }
        if self.incidents is not None:
            stats["incidents"] = self.incidents.stats()
        if self.monitors is not None:
            stats["drift"] = self.monitors.stats()
        if self.tracer is not None:
            stats["tracing"] = self.tracer.stats()
        if self._router is None:
            stats["shards"] = [
                pool[SINGLE_LABEL]["stats"] if pool else asdict(EngineStats())
                for pool in pools
            ]
            if self._model_info:
                stats["model"] = dict(self._model_info)
        else:
            stats["shards"] = [
                {label: entry["stats"] for label, entry in sorted(pool.items())}
                for pool in pools
            ]
            stats["swaps_applied"] = self._swaps_applied
            stats["identified"] = self._identified
            stats["abstained"] = self._abstained
            stats["registry"] = self._router.stats()
        return stats


# ----------------------------------------------------------------------
# background-thread driver
# ----------------------------------------------------------------------


class GatewayHandle:
    """A gateway running on its own event-loop thread."""

    def __init__(self, gateway: DetectionGateway, runner: LoopThread) -> None:
        self.gateway = gateway
        self._runner = runner

    @property
    def address(self) -> tuple[str, int]:
        return self.gateway.address

    def promote(self, scenario: str) -> None:
        """Ask a routed gateway to hot-swap ``scenario`` to its active
        registry version (no-op when nothing changed)."""
        self.gateway.request_promote(scenario)

    def stop(self, checkpoint: bool = True, timeout: float = 10.0) -> None:
        """Stop the gateway and join its thread.

        ``checkpoint=False`` skips the shutdown snapshot — the
        fail-over drill: the next gateway must restart from the last
        *periodic* checkpoint, exactly like after a crash.
        """
        self._runner.stop(self.gateway.stop(checkpoint), timeout)

    def stats(self) -> dict[str, Any]:
        """The gateway's stats, covering every verdict sent so far."""
        self.gateway.settle()
        return self.gateway.stats()


def start_in_thread(
    detector: "CombinedDetector | None",
    config: GatewayConfig | None = None,
    alerts: AlertPipeline | None = None,
    gateway: DetectionGateway | None = None,
    metrics: "MetricsRegistry | None" = None,
    historian: "Historian | None" = None,
    tracer: "Tracer | None" = None,
) -> GatewayHandle:
    """Run a gateway on a daemon thread; returns once it is listening.

    Pass ``gateway`` to drive a pre-built instance (e.g. one restored
    via :meth:`DetectionGateway.from_checkpoint` or a registry-backed
    heterogeneous gateway).
    """
    if gateway is None:
        gateway = DetectionGateway(
            detector,
            config,
            alerts,
            metrics=metrics,
            historian=historian,
            tracer=tracer,
        )
    return GatewayHandle(gateway, LoopThread(gateway.start(), "repro-gateway"))
