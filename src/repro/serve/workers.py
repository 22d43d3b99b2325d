"""Shard engine pools, on the event loop or in worker OS processes.

Every gateway shard owns one :class:`EnginePool`: its streams' engines
keyed by route label (:func:`~repro.persistence.route_label`),
``scenario@version`` in a routed gateway and the single slot
:data:`SINGLE_LABEL` in a single-detector one.  The same label keys a
drain's groups, the pipe's frames and the pool's snapshots and stats;
only loading a detector parses it.  The gateway talks to every shard
through the pool's async interface, whatever the backend:

- ``worker_mode="thread"``: the shard awaits its :class:`EnginePool`
  directly on the event loop.  The pool's ops are coroutines that never
  suspend, so a drain, swap or snapshot has finished before its
  ``await`` returns and never yields to another task.
- ``worker_mode="process"``: :func:`_worker_main` runs the same
  :class:`EnginePool` in a worker process behind a byte codec
  (:func:`serve_request`), and :class:`WorkerPool` is its gateway-side
  stand-in with the same methods.  Thread-mode shards share one GIL; a
  worker process computes on its own core, at the price of one pipe
  round trip per op.  A gateway shard sends every tick of one queue
  drain in a single OBSERVE, so it pays one round trip per drain.

Either way the pool runs a drain as **one engine pass per engine**
(:meth:`~repro.core.stream_engine.StreamEngine.observe_ticks`): it
regroups the drain's ``(label, {stream_id: package})`` groups by label,
each engine takes its groups as successive ticks, and the results come
back in group order, with each group's engine seconds: its pass split
over the pass's groups by rows.

The channel is **pickle-free** and carries two frame shapes:

- OBSERVE, the per-package path, is hand-framed.  Feature rows cross as
  the fixed-layout :func:`~repro.serve.transport.encode_stream_data`
  records (the same dialect-neutral binary package record the wire
  protocols use); the reply holds two bytes per row plus each engine
  group's compute seconds.
- Every control op (INIT, ATTACH, SEEN, SWAP, SNAPSHOT, STATS) is one
  CALL frame: the opcode, then one length-prefixed artifact container
  (:func:`~repro.utils.artifact.state_to_bytes`) holding the op's name
  and arguments.  The reply has the same shape and holds the result.
  Detector and engine state ride these containers as arrays.

Every reply decoder checks the opcode and the exact length and raises
:class:`WorkerError` on anything else, a damaged container included.

:class:`WorkerHandle` owns the process: a dedicated I/O thread drives
the pipe so the event loop never blocks, and each request resolves a
future (awaitable via :meth:`WorkerHandle.call` or joined cross-thread
via :meth:`WorkerHandle.call_sync`).  Because the pipe is FIFO and the
worker is single-threaded, the observable op order *is* the submission
order.

Workers are started with the ``spawn`` context: the gateway often runs
on a background thread (:func:`~repro.serve.gateway.start_in_thread`),
and forking a threaded process is a deadlock lottery.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue
import struct
import threading
import traceback
from concurrent.futures import Future
from dataclasses import asdict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

# The route codec is shared with checkpoints; SINGLE_LABEL stays
# importable from here.
from repro.persistence import SINGLE_LABEL, parse_route_label, route_label
from repro.serve.transport import decode_stream_data, encode_stream_data
from repro.utils.artifact import ArtifactError, state_from_bytes, state_to_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.combined import CombinedDetector
    from repro.core.stream_engine import StreamEngine
    from repro.ics.features import Package
    from repro.obs.metrics import MetricsRegistry

# Request opcodes (first byte of every request frame); a reply carries
# its request's opcode in lower case.  OBSERVE is hand-framed, every
# other op is a CALL, and QUIT ends the worker.
OP_OBSERVE = b"O"
OP_CALL = b"C"
OP_QUIT = b"Q"

#: Response marker for a worker-side exception (body = traceback text).
OP_ERROR = b"!"

#: Kind tag of the artifact containers CALL frames and replies carry.
CALL_KIND = "worker-call"

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

#: Most engine groups one OBSERVE request carries (its U16 group count).
OBSERVE_MAX_GROUPS = 0xFFFF

#: Opcode -> metric label for pipe round-trip histograms.
_OP_NAMES = {OP_OBSERVE: "observe", OP_CALL: "call", OP_QUIT: "quit"}


class WorkerError(RuntimeError):
    """A shard worker failed a request, sent a malformed response, or its
    channel died."""


# ----------------------------------------------------------------------
# the engine pool
# ----------------------------------------------------------------------


class EnginePool:
    """One shard's engines, keyed by route label and created on first use.

    The ops are coroutines so that this pool and :class:`WorkerPool`
    share one interface, but none of them ever suspends: awaited on the
    event loop, each has finished before its ``await`` returns.
    """

    def __init__(
        self,
        detector_for: "Callable[[str], CombinedDetector]",
        engines: "dict[str, StreamEngine] | None" = None,
    ) -> None:
        self._detector_for = detector_for
        self.engines: "dict[str, StreamEngine]" = dict(engines or {})

    def _engine(self, label: str) -> "StreamEngine":
        engine = self.engines.get(label)
        if engine is None:
            engine = self.engines[label] = self._detector_for(label).engine(0)
        return engine

    async def observe(
        self, groups: "list[tuple[str, dict[int, Package]]]"
    ) -> tuple[list, list[float]]:
        """Run ``(label, {stream_id: package})`` groups, one pass per engine.

        The groups are successive ticks in list order, and a label may
        repeat: a later group of the same label is that engine's next
        tick.  Each engine runs its groups as one
        :meth:`~repro.core.stream_engine.StreamEngine.observe_ticks`
        pass; engines share no state, so only the order within a label
        matters.  Returns each group's ``(verdicts, levels)`` in group
        order and each group's engine seconds: its engine's pass split
        over the pass's groups by rows.
        """
        passes: "dict[str, list[int]]" = {}
        for index, (label, _) in enumerate(groups):
            passes.setdefault(label, []).append(index)
        engines = {label: self.engines[label] for label in passes}
        results: list = [None] * len(groups)
        seconds = [0.0] * len(groups)
        for label, indices in passes.items():
            started = perf_counter()
            answers = engines[label].observe_ticks([groups[i][1] for i in indices])
            elapsed = perf_counter() - started
            rows = sum(len(groups[i][1]) for i in indices) or 1
            for index, answer in zip(indices, answers):
                results[index] = answer
                seconds[index] = elapsed * len(groups[index][1]) / rows
        return results, seconds

    async def attach(self, label: str) -> int:
        """Attach a fresh stream to the label's engine; returns its id."""
        return self._engine(label).attach()

    async def seen(self, label: str, stream_id: int) -> int:
        """Lifetime package count of one stream."""
        return self.engines[label].packages_seen(stream_id)

    async def swap(
        self, scenario: str, old_version: int, new_version: int, stream_id: int
    ) -> tuple[int, int]:
        """Move one stream to another version of its scenario.

        Returns ``(new_stream_id, packages_seen_by_old_version)``.  The
        stream restarts from a fresh zero state; an old version's engine
        left without streams holds only dead recurrent state and is
        dropped.
        """
        old_label = route_label(scenario, old_version)
        old_engine = self.engines[old_label]
        # Load before detaching: a failed load leaves the stream in place.
        new_engine = self._engine(route_label(scenario, new_version))
        old_seen = old_engine.packages_seen(stream_id)
        old_engine.detach(stream_id)
        new_id = new_engine.attach()
        if old_engine.num_streams == 0:
            del self.engines[old_label]
        return new_id, old_seen

    async def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{pool label: engine state dict}``; the arrays are copies."""
        return {label: engine.state_dict() for label, engine in self.engines.items()}

    def stats(self) -> dict[str, dict[str, Any]]:
        """``{pool label: {"stats": EngineStats dict, "streams":
        {str(stream id): packages seen}}}`` — JSON-ready as it stands."""
        return {
            label: {
                "stats": asdict(engine.stats),
                "streams": {
                    str(sid): engine.packages_seen(sid)
                    for sid in engine.stream_ids
                },
            }
            for label, engine in self.engines.items()
        }

    async def close(self) -> None:
        """Nothing to release in-process."""


# ----------------------------------------------------------------------
# framing helpers (shared by both pipe ends)
# ----------------------------------------------------------------------


def _put_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    buf += _U16.pack(len(raw))
    buf += raw


def _get_str(view: memoryview, offset: int) -> tuple[str, int]:
    (size,) = _U16.unpack_from(view, offset)
    offset += _U16.size
    return bytes(view[offset : offset + size]).decode("utf-8"), offset + size


def _put_block(buf: bytearray, blob: bytes) -> None:
    buf += _U32.pack(len(blob))
    buf += blob


def _get_block(view: memoryview, offset: int) -> tuple[bytes, int]:
    (size,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    return bytes(view[offset : offset + size]), offset + size


def _body(frame: bytes, op: bytes) -> memoryview:
    """The body of a frame after checking that it starts with ``op``."""
    if frame[:1] != op:
        raise WorkerError(
            f"expected a {_OP_NAMES[op.upper()]} frame, got opcode "
            f"{bytes(frame[:1])!r}"
        )
    return memoryview(frame)[1:]


def _frame_call(op: bytes, state: dict[str, Any]) -> bytes:
    """A CALL request or reply: ``op``, then one length-prefixed container."""
    blob = state_to_bytes(state, kind=CALL_KIND)
    return op + _U32.pack(len(blob)) + blob


def _read_call(frame: bytes, op: bytes) -> dict[str, Any]:
    """The state dict of a CALL request or reply, checked end to end."""
    body = _body(frame, op)
    if len(body) < _U32.size or len(body) != _U32.size + _U32.unpack_from(body)[0]:
        raise WorkerError(
            f"call frame of {len(body)} bytes is not one length-prefixed "
            "container"
        )
    try:
        return state_from_bytes(bytes(body[_U32.size :]), kind=CALL_KIND)
    except ArtifactError as exc:
        raise WorkerError(f"corrupt call container: {exc}") from exc


def encode_call(op: str, **args: Any) -> bytes:
    """A control call: the op's name and its keyword arguments, which
    are state-dict leaves (scalars, flat lists, arrays or nested dicts).

    ``init`` opens every worker's pipe: exactly one of ``detector`` (a
    detector's state) or ``registry_root``, plus ``pool``, the shard's
    engines as ``{label: engine_state}``.  The pool ops follow it:
    ``attach(label)``, ``seen(label, stream_id)``, ``swap(scenario,
    old_version, new_version, stream_id)``, ``snapshot()`` and
    ``stats()``."""
    return _frame_call(OP_CALL, {"op": op, **args})


def decode_reply(resp: bytes) -> Any:
    """The result a worker sent back for one :func:`encode_call`."""
    reply = _read_call(resp, OP_CALL.lower())
    if set(reply) != {"result"}:
        raise WorkerError(f"call reply holds {sorted(reply)}, expected a result")
    return reply["result"]


def encode_observe(groups: "list[tuple[str, list[tuple[int, bytes]]]]") -> bytes:
    """OBSERVE: per engine group, its ``(stream_id, record)`` rows —
    records are :func:`~repro.serve.transport.encode_stream_data` bytes
    (seq field unused on this hop).

    The worker runs the groups in order and a label may repeat, so one
    request can carry several successive ticks; at most
    :data:`OBSERVE_MAX_GROUPS` groups fit the frame."""
    buf = bytearray(OP_OBSERVE)
    buf += _U16.pack(len(groups))
    for label, items in groups:
        _put_str(buf, label)
        buf += _U32.pack(len(items))
        for stream_id, record in items:
            buf += _U32.pack(stream_id)
            _put_block(buf, record)
    return bytes(buf)


def decode_verdicts(
    resp: bytes, count: int
) -> tuple[list[tuple[bool, int]], list[float]]:
    """Per-row ``(verdict, level)`` pairs in request order, plus each
    engine group's worker-side seconds, its rows' share of its engine's
    pass — the tracing plane subtracts these from the pipe round-trip
    to attribute worker compute separately from IPC."""
    body = _body(resp, OP_OBSERVE.lower())
    rows_end = 2 * count
    if len(body) < rows_end + _U16.size:
        raise WorkerError(
            f"verdict response holds {len(body) // 2} rows, expected {count}"
        )
    (n_groups,) = _U16.unpack_from(body, rows_end)
    timings_at = rows_end + _U16.size
    if len(body) != timings_at + 8 * n_groups:
        raise WorkerError(
            f"verdict response length mismatch ({len(body)} bytes for "
            f"{n_groups} groups), expected {count} rows"
        )
    verdicts = [(bool(body[2 * i]), int(body[2 * i + 1])) for i in range(count)]
    seconds = list(struct.unpack_from(f">{n_groups}d", body, timings_at))
    return verdicts, seconds


# ----------------------------------------------------------------------
# worker side of the codec
# ----------------------------------------------------------------------


def _complete(op: Any) -> Any:
    """Run one :class:`EnginePool` op to completion without an event
    loop: its coroutines never suspend."""
    try:
        op.send(None)
    except StopIteration as done:
        return done.value
    op.close()
    raise WorkerError("engine pool op suspended")


def _init_pool(msg: bytes) -> EnginePool:
    """Build the shard's pool from the INIT call that opens the pipe."""
    from repro.core.stream_engine import StreamEngine

    args = _read_call(msg, OP_CALL) if msg[:1] == OP_CALL else {}
    if args.get("op") != "init":
        raise WorkerError("worker received ops before INIT")
    detector_state, root = args.get("detector"), args.get("registry_root")
    if (detector_state is None) == (root is None):
        raise WorkerError("INIT takes exactly one of a detector or a registry root")
    if detector_state is not None:
        from repro.core.combined import CombinedDetector

        detector = CombinedDetector.from_state(detector_state)

        def detector_for(label: str) -> "CombinedDetector":
            return detector

    else:
        from repro.registry.store import ModelRegistry

        registry = ModelRegistry(root)

        def detector_for(label: str) -> "CombinedDetector":
            return registry.load(*parse_route_label(label))

    engines = {
        label: StreamEngine.from_state(detector_for(label), state)
        for label, state in args["pool"].items()
    }
    return EnginePool(detector_for, engines)


#: The control calls a worker serves on its pool, by name.  Each takes
#: the call's keyword arguments and returns a state-dict leaf.
_CALLS: dict[str, Callable[..., Any]] = {
    "attach": lambda pool, label: _complete(pool.attach(label)),
    "seen": lambda pool, label, stream_id: _complete(pool.seen(label, stream_id)),
    "swap": lambda pool, **args: list(_complete(pool.swap(**args))),
    "snapshot": lambda pool: _complete(pool.snapshot()),
    "stats": lambda pool: pool.stats(),
}


def serve_request(pool: EnginePool, msg: bytes) -> bytes:
    """Decode one OBSERVE or CALL request, run it on ``pool``, encode
    the reply; any other opcode or an unknown call is a :class:`WorkerError`."""
    op = msg[:1]
    if op == OP_OBSERVE:
        return _serve_observe(pool, memoryview(msg))
    if op != OP_CALL:
        raise WorkerError(f"unknown opcode {bytes(op)!r}")
    args = _read_call(msg, OP_CALL)
    name = args.pop("op", None)
    serve = _CALLS.get(name) if isinstance(name, str) else None
    if serve is None:
        raise WorkerError(f"unknown call {name!r}")
    return _frame_call(OP_CALL.lower(), {"result": serve(pool, **args)})


def _serve_observe(pool: EnginePool, msg: memoryview) -> bytes:
    (n_groups,) = _U16.unpack_from(msg, 1)
    offset = 1 + _U16.size
    groups = []
    for _ in range(n_groups):
        label, offset = _get_str(msg, offset)
        (n_items,) = _U32.unpack_from(msg, offset)
        offset += _U32.size
        batch: dict[int, Any] = {}
        for _ in range(n_items):
            (stream_id,) = _U32.unpack_from(msg, offset)
            offset += _U32.size
            record, offset = _get_block(msg, offset)
            batch[stream_id] = decode_stream_data(record).package
        groups.append((label, batch))
    results, seconds = _complete(pool.observe(groups))
    out = bytearray(OP_OBSERVE.lower())
    for verdicts, levels in results:
        for verdict, level in zip(verdicts, levels):
            out += bytes((1 if verdict else 0, int(level) & 0xFF))
    # Trailer: per-group engine seconds, so the gateway can split worker
    # compute from pipe round-trip in traces.
    out += _U16.pack(len(seconds))
    out += struct.pack(f">{len(seconds)}d", *seconds)
    return bytes(out)


def _worker_main(conn, index: int) -> None:
    """One shard worker: a strict FIFO request/response loop."""
    pool: EnginePool | None = None
    try:
        while True:
            try:
                msg = conn.recv_bytes()
            except (EOFError, OSError):
                break
            if msg[:1] == OP_QUIT:
                conn.send_bytes(OP_QUIT.lower())
                break
            try:
                if pool is None:
                    pool = _init_pool(msg)
                    resp = _frame_call(OP_CALL.lower(), {"result": None})
                else:
                    resp = serve_request(pool, msg)
            except Exception:  # noqa: BLE001 - reported to the gateway
                resp = OP_ERROR + traceback.format_exc().encode(
                    "utf-8", "replace"
                )
            conn.send_bytes(resp)
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# gateway side
# ----------------------------------------------------------------------


class WorkerHandle:
    """The gateway's end of one shard worker's pipe.

    All pipe traffic runs on a dedicated I/O thread so the event loop
    never blocks on a ``send_bytes``/``recv_bytes`` pair; each request
    resolves a :class:`concurrent.futures.Future` in submission order
    (the pipe is FIFO, the worker single-threaded).
    """

    def __init__(
        self, index: int, metrics: "MetricsRegistry | None" = None
    ) -> None:
        # Pre-resolve per-opcode round-trip histograms so the I/O loop
        # pays one dict probe per request, not a registry lookup.
        # OBSERVE round-trips are the per-worker batch latency; every
        # control op (a CALL) shares the ``op="call"`` label.
        self._timers = (
            None
            if metrics is None
            else {
                op: metrics.histogram(
                    "worker_pipe_roundtrip_seconds",
                    "Pipe send->recv round-trip per worker op",
                    op=name,
                    worker=str(index),
                )
                for op, name in _OP_NAMES.items()
            }
        )
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(child, index),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        self._process.start()
        child.close()
        self._requests: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._io = threading.Thread(
            target=self._io_loop, name=f"repro-worker-io-{index}", daemon=True
        )
        self._io.start()

    def submit(self, payload: bytes) -> "Future[bytes]":
        """Queue one request; the future resolves with the response.

        After :meth:`close`/:meth:`kill` the I/O thread is gone, so the
        future fails immediately instead of waiting on a dead queue.
        """
        future: "Future[bytes]" = Future()
        if self._closed:
            future.set_exception(
                WorkerError(
                    f"shard worker (pid {self._process.pid}) handle is closed"
                )
            )
            return future
        self._requests.put((payload, future))
        return future

    async def call(self, payload: bytes) -> bytes:
        return await asyncio.wrap_future(self.submit(payload))

    def call_sync(self, payload: bytes, timeout: float | None = 60.0) -> bytes:
        return self.submit(payload).result(timeout)

    def _io_loop(self) -> None:
        failure: str | None = None
        while True:
            item = self._requests.get()
            if item is None:
                break
            payload, future = item
            if not future.set_running_or_notify_cancel():
                continue
            if failure is not None:
                future.set_exception(WorkerError(failure))
                continue
            timer = (
                self._timers.get(payload[:1]) if self._timers else None
            )
            try:
                if timer is not None:
                    with timer.time():
                        self._conn.send_bytes(payload)
                        resp = self._conn.recv_bytes()
                else:
                    self._conn.send_bytes(payload)
                    resp = self._conn.recv_bytes()
            except (EOFError, OSError, ValueError) as exc:
                failure = (
                    f"shard worker (pid {self._process.pid}) channel "
                    f"failed: {exc!r}"
                )
                future.set_exception(WorkerError(failure))
                continue
            if resp[:1] == OP_ERROR:
                future.set_exception(
                    WorkerError(resp[1:].decode("utf-8", "replace"))
                )
            else:
                future.set_result(resp)
        try:
            self._conn.close()
        except OSError:
            pass

    def close(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: QUIT, join the I/O thread and the process."""
        if self._closed:
            return
        try:
            self.submit(OP_QUIT).result(timeout)
        except Exception:  # noqa: BLE001 - already going down
            pass
        self._closed = True
        self._requests.put(None)
        self._io.join(timeout)
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout)

    def kill(self) -> None:
        """Hard-kill the worker (crash drills); pending calls fail."""
        self._closed = True
        if self._process.is_alive():
            self._process.kill()
        self._requests.put(None)


class WorkerPool:
    """An :class:`EnginePool` running in a worker process.

    Same methods as the in-process pool; each op is one pipe round trip
    through the codec.  A worker that has died reports no engines.
    """

    def __init__(self, handle: WorkerHandle) -> None:
        self._handle = handle
        #: Stats cached by :meth:`close`, so ``stats()`` keeps answering.
        self._final_stats: dict[str, dict[str, Any]] | None = None

    async def observe(
        self, groups: "list[tuple[str, dict[int, Package]]]"
    ) -> tuple[list, list[float]]:
        """Same contract as :meth:`EnginePool.observe`; the seconds are
        the worker's, from the OBSERVE reply's trailer."""
        request = encode_observe(
            [
                (label, [(sid, encode_stream_data(pkg, 0)) for sid, pkg in batch.items()])
                for label, batch in groups
            ]
        )
        rows, seconds = decode_verdicts(
            await self._handle.call(request),
            sum(len(batch) for _, batch in groups),
        )
        results = []
        at = 0
        for _, batch in groups:
            chunk = rows[at : at + len(batch)]
            at += len(batch)
            results.append(
                ([verdict for verdict, _ in chunk], [level for _, level in chunk])
            )
        return results, seconds

    async def _call(self, op: str, **args: Any) -> Any:
        return decode_reply(await self._handle.call(encode_call(op, **args)))

    async def attach(self, label: str) -> int:
        return await self._call("attach", label=label)

    async def seen(self, label: str, stream_id: int) -> int:
        return await self._call("seen", label=label, stream_id=stream_id)

    async def swap(
        self, scenario: str, old_version: int, new_version: int, stream_id: int
    ) -> tuple[int, int]:
        new_id, old_seen = await self._call(
            "swap",
            scenario=scenario,
            old_version=old_version,
            new_version=new_version,
            stream_id=stream_id,
        )
        return new_id, old_seen

    async def snapshot(self) -> dict[str, dict[str, Any]]:
        return await self._call("snapshot")

    def stats(self) -> dict[str, dict[str, Any]]:
        """Engine stats polled over the pipe (safe from any thread)."""
        if self._final_stats is not None:
            return self._final_stats
        try:
            return decode_reply(self._handle.call_sync(encode_call("stats")))
        except WorkerError:
            return {}

    async def close(self) -> None:
        """Cache the final stats, then QUIT the worker and join it."""
        if self._final_stats is not None:
            return
        try:
            self._final_stats = await self._call("stats")
        except WorkerError:
            self._final_stats = {}
        await asyncio.to_thread(self._handle.close)
