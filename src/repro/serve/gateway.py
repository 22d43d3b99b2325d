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
- Each shard owns a pool of engines — one per *model route* — and one
  worker task.  Packages arriving on the shard's sessions accumulate in
  its bounded queue; the worker drains the queue and advances all
  waiting streams with **one batched LSTM step per engine per tick**,
  so inference stays batched under load exactly like the offline
  engine.
- Backpressure is end-to-end: a full shard queue suspends that
  session's reader coroutine, which stops draining the socket, which
  fills the client's TCP window.  A client that stops *reading* its
  verdicts past a high-water mark is evicted instead of wedging the
  shard.
- Because each stream's packages are processed strictly in sequence
  order on a single engine row, verdicts per stream are independent of
  shard count, batch composition of any tick, and connection timing —
  batching changes wall-clock, never decisions.
- ``GatewayConfig(worker_mode="process")`` moves each shard's engine
  pool into its own OS worker process (:mod:`repro.serve.workers`):
  batched feature rows cross a pickle-free pipe as fixed-layout binary
  records and verdicts flow back to the async side, so shard compute
  scales with cores instead of contending for one GIL.  The thread
  mode stays the reference backend — verdicts, checkpoints, hot-swaps
  and resume offsets are bit-identical between the two.

Heterogeneous serving
---------------------
A gateway built over a :class:`~repro.registry.ModelRegistry` (via
``registry=`` or a prebuilt :class:`~repro.registry.ScenarioRouter`)
serves a *mixed fleet*: every stream key is routed at OPEN time to a
versioned per-scenario detector —

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

Routed gateways checkpoint their complete route table (and every
engine pool) through :func:`repro.persistence.save_routed_gateway_checkpoint`;
restore resolves the exact ``(scenario, version)`` artifacts from the
registry, so fail-over stays bit-identical in heterogeneous mode too.

The module is std-lib asyncio only; :func:`start_in_thread` runs a
gateway on a background event loop for tests, benchmarks and notebooks.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.ics.modbus import CrcError
from repro.obs.incidents import IncidentCorrelator
from repro.obs.monitors import DriftMonitorBank
from repro.persistence import (
    ROUTED_GATEWAY_KIND,
    EngineStateView,
    RouteBinding,
    load_gateway_checkpoint,
    load_routed_gateway_checkpoint,
    route_label,
    save_gateway_checkpoint,
    save_routed_gateway_checkpoint,
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
    encode_stream_data,
)
from repro.serve.workers import (
    OP_SNAPSHOT,
    OP_STATS,
    SINGLE_LABEL,
    STATE_BLOB_KIND,
    WorkerError,
    WorkerHandle,
    decode_attach,
    decode_seen,
    decode_snapshot,
    decode_stats,
    decode_swap,
    decode_verdicts,
    encode_attach,
    encode_init,
    encode_observe,
    encode_seen,
    encode_swap,
    pool_label,
    pool_route,
)
from repro.utils.artifact import read_meta, state_to_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.combined import CombinedDetector
    from repro.core.stream_engine import StreamEngine
    from repro.ics.features import Package
    from repro.obs.historian import Historian
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer
    from repro.registry.store import ModelRegistry

#: Route key of the lone engine pool slot in single-detector mode.
_SINGLE_ROUTE: tuple[str | None, int | None] = (None, None)

#: Stream id placeholder acked to untagged streams awaiting
#: auto-identification (no engine row is assigned yet).
PENDING_STREAM_ID = 0xFFFFFFFF


def _engine_stats_entry(raw: dict[str, Any]) -> dict[str, int]:
    """Normalize one engine's stats to the canonical EngineStats shape.

    Thread mode reads ``asdict(engine.stats)`` directly; process mode
    gets the same dict JSON-round-tripped from the worker.  Pinning the
    key set and value type here keeps ``stats()`` schema-identical
    across worker modes (asserted by the cross-mode conformance test),
    even for a pool slot the worker has not populated yet.
    """
    from dataclasses import fields as dataclass_fields

    from repro.core.stream_engine import EngineStats

    return {
        field.name: int(raw.get(field.name, 0))
        for field in dataclass_fields(EngineStats)
    }


class ProtocolViolation(Exception):
    """Fatal per-connection protocol error; reported then disconnected."""


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
    #: Shard compute backend.  ``"thread"`` runs engines inline on the
    #: event loop (the reference backend: zero IPC, but every shard
    #: contends for one GIL).  ``"process"`` moves each shard's engine
    #: pool into its own OS worker process (see
    #: :mod:`repro.serve.workers`) so shards scale with cores; verdicts
    #: are bit-identical between the two.
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


class _Route:
    """One stream key's live binding: shard, model route, engine row.

    Mutable on purpose: a hot-swap rewrites ``version``/``stream_id``/
    ``seq_base`` in place, and every live session holding this object
    follows automatically.  ``seq_base`` counts packages judged by
    earlier versions, so ``seq_base + engine.packages_seen(stream_id)``
    is always the stream's next expected wire sequence number.
    """

    __slots__ = (
        "shard", "scenario", "version", "stream_id", "seq_base", "protocol"
    )

    def __init__(
        self,
        shard: int,
        scenario: str | None,
        version: int | None,
        stream_id: int,
        seq_base: int = 0,
        protocol: str = "modbus",
    ) -> None:
        self.shard = shard
        self.scenario = scenario
        self.version = version
        self.stream_id = stream_id
        self.seq_base = seq_base
        #: Wire dialect of the stream's last connection (refreshed on
        #: every OPEN — protocol is transport provenance, not routing
        #: identity, so a site may migrate dialects between connects).
        self.protocol = protocol

    @property
    def route_key(self) -> tuple[str | None, int | None]:
        return (self.scenario, self.version)


class _Session:
    """One live client connection."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.key: str | None = None
        self.shard: "_Shard | None" = None
        self.route: _Route | None = None
        self.probe: list[tuple[int, "Package"]] = []
        self.next_seq = 0
        self.evicted = False
        #: Wire dialect this connection speaks; Modbus until the
        #: sniffer says otherwise (also the error-framing fallback).
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


class _Shard:
    """One engine pool plus the worker that batches its streams' packages."""

    def __init__(self, gateway: "DetectionGateway", index: int,
                 max_pending: int) -> None:
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
                "One batched engine step (compute + delivery)",
                shard=label,
            )
            self._h_batch = metrics.histogram(
                "gateway_tick_batch_size",
                "Streams advanced per tick",
                DEFAULT_SIZE_BUCKETS,
                shard=label,
            )
            self._g_depth = metrics.gauge(
                "gateway_queue_depth",
                "Shard queue depth sampled at enqueue",
                shard=label,
            )
        #: model route -> engine; single-detector mode uses one pool
        #: slot keyed ``(None, None)``.
        self.engines: "dict[tuple[str | None, int | None], StreamEngine]" = {}
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        self.bound_streams = 0
        #: Process mode only: the shard's worker-process endpoint (set
        #: at :meth:`DetectionGateway.start`, after which ``engines``
        #: lives in the worker and the dict above stays empty).
        self.client: WorkerHandle | None = None
        #: Process mode only: serializes the read-routes-and-submit
        #: window of a tick against route mutations (hot-swap) and
        #: binding-table snapshots (checkpoint).  Pipe FIFO order then
        #: guarantees the worker observes the same serialization.
        self.lock = asyncio.Lock()

    def engine_for(
        self, route_key: tuple[str | None, int | None]
    ) -> "StreamEngine":
        """The pool engine for one model route, created on first use."""
        engine = self.engines.get(route_key)
        if engine is None:
            engine = self.gateway._detector_for(route_key).engine(0)
            self.engines[route_key] = engine
        return engine

    @staticmethod
    def _build_tick(pending: deque) -> tuple[dict, deque]:
        """Pick one package per stream for this tick; surplus waits.

        One tick advances each stream by at most one package; extra
        packages of the same stream wait for the next tick, preserving
        per-stream order.  Streams are keyed by (model route, engine
        row): ids are only unique within one engine of the pool.
        """
        tick: dict[tuple, tuple] = {}
        leftover: deque = deque()
        for item in pending:
            route = item[0].route
            slot = (route.scenario, route.version, route.stream_id)
            if slot in tick:
                leftover.append(item)
            else:
                tick[slot] = item
        return tick, leftover

    @staticmethod
    def _group_tick(tick: dict) -> dict[tuple, dict[int, tuple]]:
        """Group the tick by engine: heterogeneous shards run one
        batched LSTM step per *model*, homogeneous shards degenerate to
        exactly the old single-batch tick."""
        groups: dict[tuple, dict[int, tuple]] = {}
        for (scenario, version, stream_id), item in tick.items():
            groups.setdefault((scenario, version), {})[stream_id] = item
        return groups

    async def run(self) -> None:
        """Drain the queue forever, one batched tick at a time."""
        while True:
            items = [await self.queue.get()]
            while True:
                try:
                    items.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            pending = deque(items)
            while pending:
                if self.client is None:
                    pending = self._tick_inline(pending)
                else:
                    pending = await self._tick_process(pending)

    def _tick_inline(self, pending: deque) -> deque:
        """One tick on the in-process (thread-mode) engine pool."""
        started = perf_counter() if self._t_tick is not None else 0.0
        tick, leftover = self._build_tick(pending)
        tracing = self.gateway.tracer is not None
        if tracing:
            now = perf_counter()
            for item in tick.values():
                if item[3] is not None:
                    item[3].stages["queue"] = now - item[3].mark
        outputs = []
        for route_key, by_stream in self._group_tick(tick).items():
            engine = self.engines[route_key]
            batch = {
                stream_id: item[2]
                for stream_id, item in by_stream.items()
            }
            if tracing:
                group_started = perf_counter()
                verdicts, levels = engine.observe_batch(batch)
                group_seconds = perf_counter() - group_started
                for item in by_stream.values():
                    if item[3] is not None:
                        item[3].stages["tick"] = group_seconds
            else:
                verdicts, levels = engine.observe_batch(batch)
            outputs.append((list(by_stream.values()), verdicts, levels))
        # Account (and maybe checkpoint) before delivery: a write can
        # flush to the socket synchronously, so this ordering
        # guarantees a client can never observe a verdict the gateway's
        # own counters don't cover yet.  Checkpoints land between
        # ticks, where every stream's state and seen-count are mutually
        # consistent.
        self.gateway._after_work(len(tick))
        for items_out, verdicts, levels in outputs:
            self.gateway._deliver(items_out, verdicts, levels)
        if self._t_tick is not None:
            self._t_tick.observe(perf_counter() - started)
            self._h_batch.observe(len(tick))
        return leftover

    async def _tick_process(self, pending: deque) -> deque:
        """One tick round-tripped through the shard's worker process.

        The lock covers route reads *and* request submission, so a
        hot-swap (which holds the same lock while it mutates routes)
        can never interleave: worker-side, this tick's rows land either
        entirely before or entirely after the swap's re-attach ops.
        The response is awaited outside the lock — the worker is
        already committed to FIFO order by then.
        """
        client = self.client
        assert client is not None
        started = perf_counter() if self._t_tick is not None else 0.0
        tracing = self.gateway.tracer is not None
        async with self.lock:
            tick, leftover = self._build_tick(pending)
            wire: list[tuple[str, list[tuple[int, bytes]]]] = []
            flat_items: list[tuple] = []
            group_sizes: list[int] = []
            for route_key, by_stream in self._group_tick(tick).items():
                rows = []
                for stream_id, item in by_stream.items():
                    rows.append((stream_id, encode_stream_data(item[2], 0)))
                    flat_items.append(item)
                group_sizes.append(len(rows))
                wire.append((pool_label(*route_key), rows))
            submitted = 0.0
            if tracing:
                submitted = perf_counter()
                for item in flat_items:
                    if item[3] is not None:
                        item[3].stages["queue"] = submitted - item[3].mark
            future = client.submit(encode_observe(wire))
        results, group_seconds = decode_verdicts(
            await asyncio.wrap_future(future), len(flat_items)
        )
        if tracing:
            # The worker reports its per-group engine seconds; whatever
            # the round-trip spent beyond total compute is pipe/framing
            # overhead, shared by every row of this request.
            pipe = max(
                0.0, perf_counter() - submitted - sum(group_seconds)
            )
            index = 0
            for group, size in enumerate(group_sizes):
                for _ in range(size):
                    span = flat_items[index][3]
                    if span is not None:
                        span.stages["worker"] = group_seconds[group]
                        span.stages["pipe"] = pipe
                    index += 1
        # Same account-then-deliver ordering as the inline tick;
        # periodic checkpoints gather worker snapshots between ticks.
        self.gateway._after_work(len(tick), checkpoint=False)
        if self.gateway._checkpoint_due():
            await self.gateway._checkpoint_process()
        self.gateway._deliver(
            flat_items,
            [verdict for verdict, _ in results],
            [level for _, level in results],
        )
        if self._t_tick is not None:
            self._t_tick.observe(perf_counter() - started)
            self._h_batch.observe(len(tick))
        return leftover


class DetectionGateway:
    """Async Modbus/TCP server multiplexing sessions onto sharded engines.

    Built either over one trained ``detector`` (homogeneous: every
    stream is scored by that model) or over a model ``registry`` /
    ``router`` (heterogeneous: every stream is routed to its scenario's
    versioned artifact, with auto-identification and hot-swap).
    """

    def __init__(
        self,
        detector: "CombinedDetector | None" = None,
        config: GatewayConfig | None = None,
        alerts: AlertPipeline | None = None,
        *,
        registry: "ModelRegistry | None" = None,
        router: ScenarioRouter | None = None,
        model_info: dict[str, Any] | None = None,
        metrics: "MetricsRegistry | None" = None,
        historian: "Historian | None" = None,
        incidents: "IncidentCorrelator | bool | None" = None,
        monitors: "DriftMonitorBank | bool | None" = None,
        tracer: "Tracer | None" = None,
        _engines: "list[StreamEngine] | None" = None,
        _bindings: dict[str, tuple[int, int]] | None = None,
        _routed_shards: "list[dict[tuple[str, int], StreamEngine]] | None" = None,
        _routed_bindings: dict[str, RouteBinding] | None = None,
    ) -> None:
        self.config = (config or GatewayConfig()).validate()
        if router is None and registry is not None:
            router = ScenarioRouter(registry)
        if (detector is None) == (router is None):
            raise ValueError(
                "pass exactly one of detector= (homogeneous) or "
                "registry=/router= (heterogeneous)"
            )
        self.detector = detector
        self._router = router
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
        self._shards = [
            _Shard(self, i, self.config.max_pending)
            for i in range(self.config.num_shards)
        ]
        #: stream key -> live route; sticky across reconnects.
        self._bindings: dict[str, _Route] = {}
        if router is None:
            if _routed_shards is not None or _routed_bindings is not None:
                raise ValueError("routed state requires registry=/router=")
            if _engines is None:
                assert detector is not None
                _engines = [
                    detector.engine(0) for _ in range(self.config.num_shards)
                ]
            elif len(_engines) != self.config.num_shards:
                raise ValueError(
                    f"{len(_engines)} restored shards for config.num_shards="
                    f"{self.config.num_shards}"
                )
            for shard, engine in zip(self._shards, _engines):
                shard.engines[_SINGLE_ROUTE] = engine
            for key, (shard_index, stream_id) in (_bindings or {}).items():
                self._bindings[key] = _Route(shard_index, None, None, stream_id)
        else:
            if _engines is not None or _bindings is not None:
                raise ValueError(
                    "single-detector state cannot restore a routed gateway"
                )
            if _routed_shards is not None:
                if len(_routed_shards) != self.config.num_shards:
                    raise ValueError(
                        f"{len(_routed_shards)} restored shards for "
                        f"config.num_shards={self.config.num_shards}"
                    )
                for shard, pool in zip(self._shards, _routed_shards):
                    shard.engines.update(pool)
            for key, binding in (_routed_bindings or {}).items():
                self._bindings[key] = _Route(
                    binding.shard,
                    binding.scenario,
                    binding.version,
                    binding.stream_id,
                    binding.seq_base,
                    protocol=binding.protocol,
                )
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
        #: Process mode: serializes checkpoint writers (any shard's
        #: tick may trigger one) and re-checks dueness under the lock.
        self._checkpoint_lock = asyncio.Lock()
        #: Process mode: final per-shard worker stats, cached at stop
        #: so ``stats()`` keeps answering after the workers are gone.
        self._final_worker_stats: list[dict[str, Any]] | None = None

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
        router: ScenarioRouter | None = None,
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
        checkpoints *require* ``registry=`` (or a prebuilt ``router=``)
        to resolve the exact ``(scenario, version)`` artifacts their
        engine pools reference.  ``incidents``/``monitors`` mirror the
        constructor (pass ``False`` to keep a plane disabled on resume —
        checkpoint meta for a disabled plane is ignored, not lost).
        """
        meta = read_meta(path)
        kind = meta["kind"]
        if kind == ROUTED_GATEWAY_KIND:
            if router is None and registry is not None:
                router = ScenarioRouter(registry)
            if router is None:
                raise ValueError(
                    f"{path} is a routed gateway checkpoint; pass registry= "
                    "(or router=) so its model routes can be resolved"
                )
            restored = load_routed_gateway_checkpoint(path, router.load)
            config = replace(
                config or GatewayConfig(), num_shards=len(restored.shards)
            )
            gateway = cls(
                config=config,
                alerts=alerts,
                router=router,
                metrics=metrics,
                historian=historian,
                incidents=incidents,
                monitors=monitors,
                tracer=tracer,
                _routed_shards=restored.shards,
                _routed_bindings=restored.bindings,
            )
            gateway._restore_transport_stats(restored.meta)
            gateway._restore_obs_state(restored.meta)
            return gateway
        if registry is not None or router is not None:
            # A single-detector checkpoint cannot come up as a routed
            # gateway: refusing beats silently serving one embedded
            # model to an operator who asked for registry routing.
            raise ValueError(
                f"{path} is a single-detector checkpoint ({kind}); it cannot "
                "resume under registry=/router= — resume it with detector= "
                "(or start a fresh registry gateway)"
            )
        restored = load_gateway_checkpoint(path, detector)
        config = replace(
            config or GatewayConfig(), num_shards=len(restored.engines)
        )
        gateway = cls(
            restored.detector,
            config,
            alerts,
            model_info=model_info,
            metrics=metrics,
            historian=historian,
            incidents=incidents,
            monitors=monitors,
            tracer=tracer,
            _engines=restored.engines,
            _bindings=restored.bindings,
        )
        # The single-detector binding table has no protocol column; the
        # per-stream dialect rides the checkpoint meta instead.
        for key, entry in (restored.meta.get("routes") or {}).items():
            route = gateway._bindings.get(key)
            if route is not None and entry.get("protocol"):
                route.protocol = str(entry["protocol"])
        gateway._restore_transport_stats(restored.meta)
        gateway._restore_obs_state(restored.meta)
        return gateway

    def _obs_state_meta(self) -> dict[str, Any]:
        """Correlator + monitor state for checkpoint metadata."""
        meta: dict[str, Any] = {}
        if self.incidents is not None:
            meta["incidents"] = self.incidents.state_dict()
        if self.monitors is not None:
            meta["monitors"] = self.monitors.state_dict()
        return meta

    def _restore_obs_state(self, meta: dict[str, Any]) -> None:
        """Resume incident + drift state saved by :meth:`_obs_state_meta`."""
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

    def _process_active(self) -> bool:
        """True once shard compute lives in worker processes."""
        return self._shards[0].client is not None

    async def _start_worker_processes(self) -> None:
        """Spawn one worker per shard and hand each its engine pool.

        The gateway always *constructs* its engines in-process (fresh
        or checkpoint-restored) — at start they are serialized to the
        workers and the in-main pool is dropped, so the pre-start sync
        surface (``request_promote``, ``stats``) works unchanged.
        """
        if self._router is None:
            assert self.detector is not None
            detector_blob: bytes | None = state_to_bytes(
                self.detector.state_dict(), kind=STATE_BLOB_KIND
            )
            registry_root: str | None = None
        else:
            registry = getattr(self._router, "registry", None)
            root = getattr(registry, "root", None)
            if root is None:
                raise ValueError(
                    "worker_mode='process' requires a registry-backed "
                    "router: worker processes re-load model artifacts "
                    "from the registry root"
                )
            detector_blob = None
            registry_root = str(root)
        payloads = []
        for shard in self._shards:
            pool = {
                pool_label(*route_key): engine.state_dict()
                for route_key, engine in shard.engines.items()
            }
            payloads.append(
                encode_init(
                    detector_blob,
                    registry_root,
                    state_to_bytes(pool, kind=STATE_BLOB_KIND),
                )
            )
        handles: list[WorkerHandle] = []
        try:
            for shard in self._shards:
                handles.append(WorkerHandle(shard.index, metrics=self.metrics))
            await asyncio.gather(
                *(
                    handle.call(payload)
                    for handle, payload in zip(handles, payloads)
                )
            )
        except BaseException:
            await asyncio.to_thread(
                lambda: [handle.close(timeout=2.0) for handle in handles]
            )
            raise
        for shard, handle in zip(self._shards, handles):
            shard.client = handle
            shard.engines.clear()

    async def start(self) -> None:
        """Bind the listening socket and launch the shard workers."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        loop = asyncio.get_running_loop()
        self._loop = loop
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
            self._router.registry.subscribe(listener)
            if self.config.registry_poll_seconds > 0:
                self._workers.append(loop.create_task(self._watch_registry()))
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — read after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("gateway is not listening")
        return self._server.sockets[0].getsockname()[:2]

    async def wait_done(self) -> None:
        """Block until ``max_packages`` packages have been served."""
        await self._done.wait()

    async def stop(self, checkpoint: bool = True) -> None:
        """Graceful shutdown; ``checkpoint=False`` models a hard crash."""
        if self._stopped:
            return
        self._stopped = True
        if self._router is not None and self._registry_listener is not None:
            self._router.registry.unsubscribe(self._registry_listener)
            self._registry_listener = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
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
        if self._process_active():
            try:
                self._final_worker_stats = await self._gather_worker_stats()
                if checkpoint and self.config.checkpoint_path:
                    await self._write_checkpoint_process()
            finally:
                await asyncio.to_thread(self._close_worker_processes)
        elif checkpoint and self.config.checkpoint_path:
            self._write_checkpoint()
        self.alerts.close()
        if self.historian is not None:
            # Flush (not close): the verdict log must be durable once
            # the gateway is down, but the owner may keep querying it.
            self.historian.flush()

    async def _gather_worker_stats(self) -> list[dict[str, Any]]:
        futures = [shard.client.submit(OP_STATS) for shard in self._shards]
        return [
            decode_stats(await asyncio.wrap_future(future))
            for future in futures
        ]

    def _close_worker_processes(self) -> None:
        for shard in self._shards:
            if shard.client is not None:
                shard.client.close()
                shard.client = None

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
        # inspects the first bytes (shedding leading garbage) and hands
        # the locked-on buffer to that dialect's resyncing decoder.
        sniffer = ProtocolSniffer(self.config.protocols)
        decoder = None
        counters: dict[str, int] | None = None
        mirrors: dict[str, Any] | None = None
        marks = (0, 0, 0)  # decoder (frames, discarded, resyncs) seen so far
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                if decoder is None:
                    adapter = sniffer.feed(data)
                    if adapter is None:
                        continue  # dialect not determined yet
                    session.adapter = adapter
                    counters = self._transport_counters(adapter.name)
                    mirrors = self._transport_metrics(adapter.name)
                    counters["connections"] += 1
                    counters["bytes_discarded"] += sniffer.bytes_discarded
                    self._bytes_discarded += sniffer.bytes_discarded
                    if mirrors is not None:
                        mirrors["connections"].inc()
                        mirrors["bytes_discarded"].inc(sniffer.bytes_discarded)
                    decoder = adapter.decoder()
                    data = sniffer.pending
                frames = decoder.feed(data)
                assert counters is not None
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
            if decoder is None and sniffer.bytes_discarded:
                # Connection died (or closed) before any dialect locked
                # on: its junk still shows up in the edge counters.
                self._bytes_discarded += sniffer.bytes_discarded
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
            # A declared dialect that contradicts the sniffed framing is
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

    async def _route_packages_seen(self, shard: _Shard, route: _Route) -> int:
        """Lifetime package count of one route's current engine row."""
        if shard.client is None:
            return shard.engines[route.route_key].packages_seen(route.stream_id)
        async with shard.lock:
            future = shard.client.submit(
                encode_seen(pool_label(*route.route_key), route.stream_id)
            )
        return decode_seen(await asyncio.wrap_future(future))

    async def _bind(
        self,
        key: str,
        scenario_tag: str | None,
        identified: tuple[str, int] | None = None,
        protocol: str = "modbus",
    ) -> _Route:
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
        # Least-loaded shard (ties to the lowest index) keeps the
        # per-tick batches balanced as keys come and go.  The shard is
        # reserved before the ATTACH await, so OPENs binding concurrently
        # see each other's choice; a failed ATTACH gives it back.
        shard = min(self._shards, key=lambda s: (s.bound_streams, s.index))
        shard.bound_streams += 1
        try:
            if shard.client is None:
                engine = shard.engine_for((scenario, version))
                stream_id = engine.attach()
            else:
                future = shard.client.submit(
                    encode_attach(pool_label(scenario, version))
                )
                stream_id = decode_attach(await asyncio.wrap_future(future))
        except BaseException:
            shard.bound_streams -= 1
            raise
        route = _Route(shard.index, scenario, version, stream_id, protocol=protocol)
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

    def _detector_for(
        self, route_key: tuple[str | None, int | None]
    ) -> "CombinedDetector":
        """The trained framework behind one pool slot."""
        if self._router is None:
            assert self.detector is not None
            return self.detector
        scenario, version = route_key
        assert scenario is not None and version is not None
        return self._router.load(scenario, version)

    def request_promote(self, scenario: str) -> None:
        """Thread-safe: re-check a scenario's active version and hot-swap."""
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
        if self._process_active():
            assert self._loop is not None
            self._loop.create_task(self._apply_swap_process(scenario, version))
        else:
            self._apply_swap(scenario, version)

    def _apply_swap(self, scenario: str, version: int) -> None:
        """Drain-and-swap every stream of ``scenario`` onto ``version``.

        Runs as one event-loop callback, so it lands *between* shard
        ticks: packages already queued are simply scored by the new
        engine on the next tick — none are dropped, and the verdict
        sequence continues unbroken.  The old version's recurrent state
        does not transfer (architectures and vocabularies may differ);
        each swapped stream restarts from a fresh zero state exactly
        like offline ``detect()`` starting at the swap boundary.
        """
        swapped = 0
        for route in self._bindings.values():
            if route.scenario != scenario or route.version == version:
                continue
            shard = self._shards[route.shard]
            old_engine = shard.engines[(scenario, route.version)]
            new_engine = shard.engine_for((scenario, version))
            route.seq_base += old_engine.packages_seen(route.stream_id)
            old_engine.detach(route.stream_id)
            route.stream_id = new_engine.attach()
            route.version = version
            swapped += 1
        if not swapped:
            return
        for shard in self._shards:
            stale = [
                key
                for key, engine in shard.engines.items()
                if key[0] == scenario
                and key[1] != version
                and engine.num_streams == 0
            ]
            for key in stale:
                del shard.engines[key]
        self._swaps_applied += 1

    async def _apply_swap_process(self, scenario: str, version: int) -> None:
        """Drain-and-swap ``scenario`` streams inside the worker processes.

        Each shard's lock is held across its swap ops, so no tick can
        read a half-updated route table; pipe FIFO order makes the
        worker-side re-attach land between its ticks, exactly like the
        in-process swap lands between loop callbacks.  Route fields are
        re-checked under the lock, so concurrent swap tasks (subscribe
        callback racing the registry poll) stay idempotent.
        """
        swapped = 0
        try:
            for shard in self._shards:
                client = shard.client
                if client is None:
                    continue
                async with shard.lock:
                    for route in list(self._bindings.values()):
                        if (
                            route.shard != shard.index
                            or route.scenario != scenario
                            or route.version == version
                        ):
                            continue
                        future = client.submit(
                            encode_swap(
                                scenario, route.version, version,
                                route.stream_id,
                            )
                        )
                        new_id, old_seen = decode_swap(
                            await asyncio.wrap_future(future)
                        )
                        route.seq_base += old_seen
                        route.stream_id = new_id
                        route.version = version
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

    def _deliver(self, items, verdicts, levels) -> None:
        max_buffer = self.config.max_write_buffer
        historian = self.historian
        monitors = self.monitors
        tracer = self.tracer
        fallback = (self._model_info or {}).get("scenario")
        for (session, seq, package, span), verdict, level in zip(
            items, verdicts, levels
        ):
            deliver_started = perf_counter() if span is not None else 0.0
            session.send(
                session.adapter.frame_verdict(
                    seq, bool(verdict), int(level),
                    unit_id=package.address & 0xFF,
                ),
                max_buffer,
            )
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
                span.stages["deliver"] = perf_counter() - deliver_started
                tracer.finish(
                    span,
                    scenario=scenario,
                    version=version,
                    time=package.time,
                )

    def _after_work(self, count: int, checkpoint: bool = True) -> None:
        self._processed += count
        self._since_checkpoint += count
        if self._m_packages is not None:
            self._m_packages.inc(count)
        cfg = self.config
        if checkpoint and self._checkpoint_due():
            self._write_checkpoint()
        if cfg.max_packages is not None and self._processed >= cfg.max_packages:
            self._done.set()

    def _checkpoint_due(self) -> bool:
        cfg = self.config
        return bool(
            cfg.checkpoint_every
            and self._since_checkpoint >= cfg.checkpoint_every
        )

    async def _checkpoint_process(self) -> None:
        """Periodic checkpoint in process mode (any shard may trigger)."""
        async with self._checkpoint_lock:
            if self._checkpoint_due():  # another shard may have just written
                await self._write_checkpoint_process()

    async def _write_checkpoint_process(self) -> None:
        """Per-worker snapshot + atomic merge into the standard format.

        All shard locks are taken while the binding table is copied and
        the snapshot ops are submitted: no tick can be in its
        read-and-submit window and no swap can run, so each worker's
        snapshot lands between its ticks with the exact engine state
        the copied bindings describe.  The responses are awaited (and
        the merged artifact written, off-loop) after the locks drop —
        FIFO pipes mean later traffic cannot retroactively change what
        the snapshot ops observe.  The on-disk format is identical to
        thread mode's, so checkpoints are interchangeable across
        worker modes.
        """
        if not self.config.checkpoint_path:
            return
        from contextlib import AsyncExitStack

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
            if self._router is None:
                single_bindings = {
                    key: (route.shard, route.stream_id)
                    for key, route in self._bindings.items()
                }
                routed_bindings = None
            else:
                single_bindings = None
                routed_bindings = {
                    key: RouteBinding(
                        shard=route.shard,
                        scenario=route.scenario,
                        version=route.version,
                        stream_id=route.stream_id,
                        seq_base=route.seq_base,
                        protocol=route.protocol,
                    )
                    for key, route in self._bindings.items()
                    if route.scenario is not None and route.version is not None
                }
            futures = [
                shard.client.submit(OP_SNAPSHOT) for shard in self._shards
            ]
        pools = [
            decode_snapshot(await asyncio.wrap_future(future))
            for future in futures
        ]
        if self._router is None:
            assert self.detector is not None and single_bindings is not None
            await asyncio.to_thread(
                save_gateway_checkpoint,
                self.config.checkpoint_path,
                self.detector,
                [EngineStateView(pool[SINGLE_LABEL]) for pool in pools],
                single_bindings,
                meta=meta,
            )
        else:
            assert routed_bindings is not None
            await asyncio.to_thread(
                save_routed_gateway_checkpoint,
                self.config.checkpoint_path,
                [
                    {
                        pool_route(label): EngineStateView(state)
                        for label, state in pool.items()
                    }
                    for pool in pools
                ],
                routed_bindings,
                meta=meta,
            )
        self._since_checkpoint = 0
        self._checkpoints_written += 1
        if self._m_checkpoint_timer is not None:
            self._m_checkpoint_timer.observe(perf_counter() - started)

    def _write_checkpoint(self) -> None:
        # Deliberately synchronous on the loop: the engine states being
        # snapshotted must not advance mid-save, and handing the numpy
        # state arrays to a writer thread would race the next tick's
        # in-place updates.  The stall is one compressed .npz write per
        # checkpoint_every packages — size it accordingly.
        if not self.config.checkpoint_path:
            return
        started = perf_counter()
        meta = {
            "processed": self._processed,
            "routes": self._route_meta(),
            "transport": {
                name: dict(counters)
                for name, counters in sorted(self._transport_stats.items())
            },
            **self._obs_state_meta(),
        }
        if self._router is None:
            assert self.detector is not None
            save_gateway_checkpoint(
                self.config.checkpoint_path,
                self.detector,
                [shard.engines[_SINGLE_ROUTE] for shard in self._shards],
                {
                    key: (route.shard, route.stream_id)
                    for key, route in self._bindings.items()
                },
                meta=meta,
            )
        else:
            save_routed_gateway_checkpoint(
                self.config.checkpoint_path,
                [dict(shard.engines) for shard in self._shards],
                {
                    key: RouteBinding(
                        shard=route.shard,
                        scenario=route.scenario,
                        version=route.version,
                        stream_id=route.stream_id,
                        seq_base=route.seq_base,
                        protocol=route.protocol,
                    )
                    for key, route in self._bindings.items()
                    if route.scenario is not None and route.version is not None
                },
                meta=meta,
            )
        self._since_checkpoint = 0
        self._checkpoints_written += 1
        if self._m_checkpoint_timer is not None:
            self._m_checkpoint_timer.observe(perf_counter() - started)

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
        needs.
        """
        worker_stats = self._worker_stats_now()
        routes: dict[str, dict[str, Any]] = {}
        fallback = (self._model_info or {}).get("scenario")
        for key, route in self._bindings.items():
            if worker_stats is None:
                engine = self._shards[route.shard].engines[route.route_key]
                seen = engine.packages_seen(route.stream_id)
            else:
                entry = worker_stats[route.shard].get(
                    pool_label(*route.route_key), {}
                )
                seen = int(entry.get("streams", {}).get(str(route.stream_id), 0))
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
            if worker_stats is None:
                stats["shards"] = [
                    _engine_stats_entry(asdict(shard.engines[_SINGLE_ROUTE].stats))
                    for shard in self._shards
                ]
            else:
                stats["shards"] = [
                    _engine_stats_entry(ws.get(SINGLE_LABEL, {}).get("stats", {}))
                    for ws in worker_stats
                ]
            if self._model_info:
                stats["model"] = dict(self._model_info)
        else:
            if worker_stats is None:
                stats["shards"] = [
                    {
                        route_label(scenario, version): _engine_stats_entry(
                            asdict(engine.stats)
                        )
                        for (scenario, version), engine in sorted(
                            shard.engines.items()
                        )
                    }
                    for shard in self._shards
                ]
            else:
                stats["shards"] = [
                    {
                        label: _engine_stats_entry(entry.get("stats", {}))
                        for label, entry in sorted(ws.items())
                    }
                    for ws in worker_stats
                ]
            stats["swaps_applied"] = self._swaps_applied
            stats["identified"] = self._identified
            stats["abstained"] = self._abstained
            stats["registry"] = self._router.stats()
        return stats

    def _worker_stats_now(self) -> list[dict[str, Any]] | None:
        """Per-shard worker engine stats, or ``None`` in thread mode.

        While workers run, each shard is polled synchronously (safe
        cross-thread: requests ride the worker's I/O thread); after
        :meth:`stop`, the final poll cached at shutdown keeps
        ``stats()`` answering.
        """
        if self._final_worker_stats is not None:
            return self._final_worker_stats
        if not self._process_active():
            return None
        return [
            decode_stats(shard.client.call_sync(OP_STATS))
            for shard in self._shards
        ]


# ----------------------------------------------------------------------
# background-thread driver
# ----------------------------------------------------------------------


class GatewayHandle:
    """A gateway running on its own event-loop thread."""

    def __init__(self, gateway: DetectionGateway, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.gateway = gateway
        self._loop = loop
        self._thread = thread

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
        future = asyncio.run_coroutine_threadsafe(
            self.gateway.stop(checkpoint), self._loop
        )
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def stats(self) -> dict[str, Any]:
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
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(gateway.start())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name="repro-gateway", daemon=True)
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return GatewayHandle(gateway, loop, thread)
