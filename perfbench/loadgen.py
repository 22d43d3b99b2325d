"""Single-threaded load generator: every connection on one selector.

The generator is one process and one thread.  It holds at most
``CONNECTIONS`` sockets at a time; each connection is a *slot* that
streams one segment of one site's capture, closes, and hands the slot
to the next site of its rotation, which resumes from its ``OPEN_ACK``
offset.  Frames are built with the public ``repro.serve.protocols``
adapters.

One generator drives one gateway through a run of alternating slices,
and the sites' progress carries from slice to slice:

- **closed loop** — each connection keeps ``window`` packages in flight,
  so the backlog is bounded by construction; the slice reports the
  verdicts received in its measured interval;
- **open loop** — packages are due on a fixed schedule at the
  workload's offered rate whatever the gateway does; latency runs from
  each package's *due* time to its verdict, so a stall is charged to
  every package it delays, and the generator reports how late it sent.

Every slice ends by draining: no new package is sent, every verdict
still owed is awaited, and every connection closes, so the next slice
starts from fresh connections that resume through ``OPEN_ACK``.

While a slice is measured, the generator also runs a fixed piece of
pure-Python work every ``PROBE_EVERY`` seconds (about 1% of a core) and
times it in thread CPU time, which leaves out any wait for the CPU.
Its iterations per second are the host's speed during the slice, taken
at the same moments as the gateway's figures.  On the shared host the
benchmark was written on, the gateway's closed-loop rate moved with
this speed from slice to slice and run to run, so the run scales its
throughput and latency to a fixed reference speed.  The work uses no
code of the package under test, so a faster gateway does not move it.

The cyclic garbage collector is paused during a slice: a full pass over
the captures held here would stall the generator for tens of
milliseconds and be charged to the gateway as latency.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.ics.features import Package
from repro.serve.protocols import get_adapter
from repro.serve.transport import KIND_ERROR, KIND_OPEN_ACK, KIND_VERDICT

from workloads import CONNECTIONS, NOISE_BYTES, PROBE_WINDOW, Site, Workload

#: Seconds at the start of a slice left out of its figures (connections,
#: first ticks); still checked.
WARMUP = 0.25
#: A slice whose connections see no byte for this long is abandoned and
#: its outstanding packages are counted as timeouts.
STALL_SECONDS = 20.0
_FRAME_CHUNK = 256
#: Seconds between runs of the host-speed kernel in a measured slice.
PROBE_EVERY = 0.005
_PROBE_TABLE: dict[int, int] = {}


def _speed_kernel() -> int:
    """A fixed piece of pure-Python work; returns its iteration count."""
    table = _PROBE_TABLE
    for i in range(1024):
        key = i & 63
        table[key] = table.get(key, 0) + i
    return 1024


class WireCache:
    """Each site's frames, built once per run and shared by all slices."""

    def __init__(self, sites: tuple[Site, ...], captures: list[list[Package]]) -> None:
        self.sites = sites
        self.captures = captures
        self.frames: list[list[bytes]] = [[] for _ in sites]

    def upto(self, index: int, count: int) -> list[bytes]:
        """The site's frame list, extended to ``count`` frames if needed."""
        site, frames = self.sites[index], self.frames[index]
        packages = self.captures[index]
        count = min(count, len(packages))
        if count > len(frames):
            adapter = get_adapter(site.protocol)
            noise = b"\xff" * NOISE_BYTES
            for seq in range(len(frames), count):
                frame = adapter.frame_data(packages[seq], seq)
                if site.noise_every and seq % site.noise_every == 0:
                    frame = noise + frame
                frames.append(frame)
        return frames


@dataclass
class SiteRun:
    """One site's traffic against one gateway."""

    index: int
    site: Site
    sent: int = 0
    anomalies: list[bool] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)
    due: dict[int, float] = field(default_factory=dict)
    failure: str | None = None

    @property
    def judged(self) -> int:
        return len(self.anomalies)


@dataclass
class SliceResult:
    kind: str
    #: Wall time from the slice's start to the end of its drain.
    seconds: float
    #: Closed loop: verdicts received after the warm-up, and over how
    #: many seconds.
    verdicts: int
    measured: float
    #: Open loop: ``(due time, seconds from due time to verdict)`` of
    #: every package due after the warm-up.
    latencies: list[tuple[float, float]]
    #: Iterations of the host-speed kernel run in the measured
    #: interval, and the thread CPU seconds they took.
    probe_iterations: int = 0
    probe_seconds: float = 0.0


@contextmanager
def _paused_gc():
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


class _Conn:
    def __init__(self, sock: socket.socket, run: SiteRun, end: int) -> None:
        self.sock = sock
        self.run = run
        self.adapter = get_adapter(run.site.protocol)
        self.decoder = self.adapter.decoder()
        self.end = end  # first seq past this segment
        self.state = "ack"  # -> "stream" -> "drain" -> closed
        self.chunks: list[bytes] = []


class _Slot:
    def __init__(self, number: int, runs: list[SiteRun]) -> None:
        self.number = number
        self.runs = runs
        self.turn = 0
        self.conn: _Conn | None = None
        self.scheduled = 0  # open loop: packages this slot made due this slice
        self.done = False  # open loop: the slot has sent its share


class LoadGenerator:
    """Drive one gateway through a sequence of slices."""

    def __init__(
        self,
        workload: Workload,
        wire: WireCache,
        address: tuple[str, int],
        record_wire: bool = False,
    ) -> None:
        self.workload = workload
        self.wire = wire
        self.address = address
        self.record_wire = record_wire
        self.runs = [SiteRun(i, site) for i, site in enumerate(workload.sites)]
        self.slots = [
            _Slot(j, self.runs[j::CONNECTIONS]) for j in range(CONNECTIONS)
        ]
        self.selector = selectors.SelectSelector()  # microsecond timeouts
        self.bytes_sent = 0
        self.lags: list[float] = []
        #: Every chunk sent, per connection, by dialect (``record_wire``).
        self.recorded: dict[str, list[list[bytes]]] = {}
        self._verdicts = 0
        self._latencies: list[tuple[float, float]] = []
        self._measure_from = 0.0
        self._measure_to = float("inf")
        self._sending = True
        self._next_probe = 0.0
        self._probe_iterations = 0
        self._probe_ns = 0

    def close(self) -> None:
        for slot in self.slots:
            self._close(slot)
        self.selector.close()

    # -- connections -------------------------------------------------------

    def _opening(self) -> bool:
        """Whether a connection still awaits its ``OPEN_ACK``.

        Connections open one at a time: a gateway binds a new stream to
        its least-loaded shard, and two OPENs in flight together can both
        see the same shard as least loaded.
        """
        return any(slot.conn is not None and slot.conn.state == "ack" for slot in self.slots)

    def _next_run(self, slot: _Slot) -> SiteRun | None:
        for _ in range(len(slot.runs)):
            run = slot.runs[slot.turn % len(slot.runs)]
            slot.turn += 1
            if run.failure is None and run.sent < len(self.wire.captures[run.index]):
                return run
        return None

    def _connect(self, slot: _Slot, run: SiteRun) -> None:
        sock = socket.create_connection(self.address, timeout=STALL_SECONDS)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        segment = self.workload.segment
        limit = len(self.wire.captures[run.index])
        end = limit if segment is None else min(run.sent + segment, limit)
        slot.conn = _Conn(sock, run, end)
        self.selector.register(sock, selectors.EVENT_READ, slot)
        tag = (
            run.site.scenario
            if run.site.tagged and self.workload.serving == "registry"
            else None
        )
        self._send(slot, slot.conn.adapter.frame_open(run.site.key, tag))

    def _close(self, slot: _Slot) -> None:
        conn = slot.conn
        if conn is None:
            return
        self.selector.unregister(conn.sock)
        conn.sock.close()
        if self.record_wire and conn.chunks:
            self.recorded.setdefault(conn.run.site.protocol, []).append(conn.chunks)
        slot.conn = None

    def _fail(self, slot: _Slot, reason: str) -> None:
        assert slot.conn is not None
        slot.conn.run.failure = reason
        self._close(slot)

    def _send(self, slot: _Slot, payload: bytes) -> bool:
        conn = slot.conn
        assert conn is not None
        try:
            conn.sock.sendall(payload)
        except OSError as exc:
            self._fail(slot, f"send failed: {exc}")
            return False
        self.bytes_sent += len(payload)
        if self.record_wire:
            conn.chunks.append(payload)
        return True

    def _finish_segment(self, slot: _Slot) -> None:
        conn = slot.conn
        assert conn is not None
        conn.state = "drain"
        if conn.run.judged >= conn.run.sent:
            self._close(slot)

    # -- receive -----------------------------------------------------------

    def _on_readable(self, slot: _Slot, now: float) -> None:
        conn = slot.conn
        assert conn is not None
        try:
            data = conn.sock.recv(65536)
        except OSError as exc:
            self._fail(slot, f"connection lost: {exc}")
            return
        if not data:
            self._fail(slot, "gateway closed the connection")
            return
        run, adapter = conn.run, conn.adapter
        for frame in conn.decoder.feed(data):
            kind = frame.kind
            if kind == KIND_VERDICT:
                seq, anomaly, level = adapter.decode_verdict(frame.pdu)
                if seq != run.judged:
                    self._fail(slot, f"verdict seq {seq}, expected {run.judged}")
                    return
                run.anomalies.append(anomaly)
                run.levels.append(level)
                if self._measure_from <= now < self._measure_to:
                    self._verdicts += 1
                due = run.due.get(seq)
                if due is not None and due >= self._measure_from:
                    self._latencies.append((due, now - due))
            elif kind == KIND_OPEN_ACK and conn.state == "ack":
                _, start = adapter.decode_open_ack(frame.pdu)
                if start != run.judged or start != run.sent:
                    self._fail(
                        slot,
                        f"OPEN_ACK resumes at {start}, client holds "
                        f"{run.judged} verdicts for {run.sent} sent",
                    )
                    return
                conn.state = "stream" if self._sending else "drain"
            elif kind == KIND_ERROR:
                self._fail(slot, f"refused: {adapter.decode_error(frame.pdu)}")
                return
            else:
                self._fail(slot, f"unexpected frame kind {kind:#04x}")
                return
        if conn.state == "drain" and run.judged >= run.sent:
            self._close(slot)

    def _pump(self, timeout: float) -> bool:
        events = self.selector.select(timeout)
        now = time.perf_counter()
        for key, _ in events:
            slot = key.data
            if slot.conn is not None:
                self._on_readable(slot, now)
        return bool(events)

    # -- send --------------------------------------------------------------

    def _fill_closed(self, slot: _Slot) -> None:
        conn = slot.conn
        if conn is None or conn.state != "stream":
            return
        run = conn.run
        target = min(conn.end, run.judged + self.workload.window)
        if target > run.sent:
            frames = self.wire.frames[run.index]
            if target > len(frames):
                frames = self.wire.upto(run.index, target + _FRAME_CHUNK)
            if not self._send(slot, b"".join(frames[run.sent : target])):
                return
            run.sent = target
        if run.sent >= conn.end:
            self._finish_segment(slot)

    def _fill_open(
        self, slot: _Slot, now: float, t0: float, rate: float, share: int
    ) -> float:
        """Send every due package of the slot's segment; return next due.

        The slot is done once it has made ``share`` packages due, but
        never while its site has sent fewer than the router's probe
        window: an untagged site cut off inside it would wait for
        identification forever.
        """
        conn = slot.conn
        if conn is None or conn.state != "stream":
            return now + 0.0005
        run = conn.run
        frames = self.wire.frames[run.index]
        offset = slot.number / CONNECTIONS
        first = run.sent
        while run.sent < conn.end and (
            slot.scheduled < share or run.sent < PROBE_WINDOW
        ):
            due = t0 + (slot.scheduled + offset) / rate
            if due > now:
                break
            if run.sent >= len(frames):
                frames = self.wire.upto(run.index, run.sent + _FRAME_CHUNK)
            run.due[run.sent] = due
            if due >= self._measure_from:
                self.lags.append(now - due)
            run.sent += 1
            slot.scheduled += 1
        if run.sent > first and not self._send(slot, b"".join(frames[first : run.sent])):
            return now
        if slot.scheduled >= share and run.sent >= PROBE_WINDOW:
            slot.done = True
            self._finish_segment(slot)
            return now
        if run.sent >= conn.end:
            self._finish_segment(slot)
            return now
        return t0 + (slot.scheduled + offset) / rate

    # -- slices ------------------------------------------------------------

    def _begin(self, measure_from: float, measure_to: float) -> None:
        self._sending = True
        self._verdicts = 0
        self._latencies = []
        self._measure_from = measure_from
        self._measure_to = measure_to
        self._next_probe = measure_from
        self._probe_iterations = 0
        self._probe_ns = 0

    def _probe(self, now: float) -> None:
        """Run the host-speed kernel if it is due, timed in thread CPU time."""
        if now < self._next_probe or now >= self._measure_to:
            return
        self._next_probe = now + PROBE_EVERY
        cpu = time.thread_time_ns()
        self._probe_iterations += _speed_kernel()
        self._probe_ns += time.thread_time_ns() - cpu

    def _drain(self) -> None:
        """Wait for every open connection's outstanding verdicts."""
        self._sending = False
        for slot in self.slots:
            if slot.conn is not None and slot.conn.state == "stream":
                self._finish_segment(slot)
        last_progress = time.perf_counter()
        while any(slot.conn is not None for slot in self.slots):
            if self._pump(0.05):
                last_progress = time.perf_counter()
            elif time.perf_counter() - last_progress > STALL_SECONDS:
                break
        for slot in self.slots:
            if slot.conn is not None:
                self._fail(slot, "timed out waiting for verdicts")

    def _result(self, kind: str, started: float) -> SliceResult:
        measured = 0.0
        if self._measure_to != float("inf"):
            measured = self._measure_to - self._measure_from
        return SliceResult(
            kind=kind,
            seconds=time.perf_counter() - started,
            verdicts=self._verdicts,
            measured=measured,
            latencies=self._latencies,
            probe_iterations=self._probe_iterations,
            probe_seconds=self._probe_ns / 1e9,
        )

    def closed_loop(self, seconds: float, warmup: float = WARMUP) -> SliceResult:
        with _paused_gc():
            return self._closed_loop(seconds, warmup)

    def _closed_loop(self, seconds: float, warmup: float) -> SliceResult:
        started = time.perf_counter()
        self._begin(started + warmup, started + seconds)
        last_progress = started
        while True:
            now = time.perf_counter()
            if now >= self._measure_to:
                break
            for slot in self.slots:
                if slot.conn is None and not self._opening():
                    run = self._next_run(slot)
                    if run is not None:
                        self._connect(slot, run)
                self._fill_closed(slot)
            self._probe(now)
            if self._pump(min(0.05, max(0.0, self._measure_to - now))):
                last_progress = time.perf_counter()
            elif time.perf_counter() - last_progress > STALL_SECONDS:
                break
        self._drain()
        return self._result("closed", started)

    def open_loop(
        self, seconds: float, rate: float, warmup: float = WARMUP
    ) -> SliceResult:
        """Send at ``rate`` packages/s in total for about ``seconds`` seconds."""
        per_slot = rate / CONNECTIONS
        share = int(per_slot * seconds)
        ahead = share + (self.workload.segment or 0) + PROBE_WINDOW
        for run in self.runs:  # frame what falls due before timing starts
            self.wire.upto(run.index, run.sent + ahead)
        for slot in self.slots:
            slot.scheduled = 0
            slot.done = False
        with _paused_gc():
            return self._open_loop(share, per_slot, warmup)

    def _open_loop(self, share: int, per_slot: float, warmup: float) -> SliceResult:
        started = time.perf_counter()
        t0 = started + 0.05
        self._begin(t0 + warmup, float("inf"))
        last_progress = started
        while not all(slot.done for slot in self.slots):
            now = time.perf_counter()
            next_due = float("inf")
            for slot in self.slots:
                if slot.done:
                    continue
                if slot.conn is None:
                    if self._opening():
                        continue
                    run = self._next_run(slot)
                    if run is None:
                        slot.done = True  # every site failed or ran dry
                        continue
                    self._connect(slot, run)
                next_due = min(next_due, self._fill_open(slot, now, t0, per_slot, share))
            self._probe(now)
            wait = min(0.05, max(0.0, next_due - time.perf_counter()))
            if self._pump(wait):
                last_progress = time.perf_counter()
            elif time.perf_counter() - last_progress > STALL_SECONDS:
                break
        self._drain()
        return self._result("open", started)
