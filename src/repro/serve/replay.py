"""Replay client: stream a recorded capture at a live gateway.

The load-generation and fail-over-drill counterpart of the gateway: it
plays a :class:`~repro.ics.dataset.GasPipelineDataset` capture (or an
ARFF interchange file) over a real TCP socket, package by package, with
a bounded in-flight window, and collects the gateway's verdicts.

Replay is resume-aware: the OPEN_ACK tells the client how many packages
the gateway has already judged on this stream key, and the client
starts there — after a gateway fail-over, simply replay the same
capture again and only the unjudged tail crosses the wire.

``noise_every`` injects bursts of ``0xFF`` filler bytes between frames
(idle-line noise on a serial tap); the gateway's incremental decoder
must discard them and stay frame-synchronized, changing no decision.

``protocol`` selects the wire dialect (see
:mod:`repro.serve.protocols`): the client frames its stream through
that adapter and the gateway negotiates the dialect from the first
whole frame — no server-side coordination is required.

The client can time each package from send to verdict
(``record_latency=True``) for p50/p99 latency benchmarking.  A fleet
runs one client per site, each on its own OS thread (see
:mod:`repro.serve.fleet`).
"""

from __future__ import annotations

import os
import socket
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from repro.ics.arff import read_arff
from repro.ics.features import Package
from repro.serve.protocols import get_adapter
from repro.serve.transport import (
    KIND_ERROR,
    KIND_OPEN_ACK,
    KIND_VERDICT,
    FrameDecoder,
)


class ReplayError(RuntimeError):
    """The gateway rejected the session or the link failed mid-replay."""


@dataclass
class ReplayResult:
    """Verdicts collected by one replay run.

    ``start`` is the resume offset the gateway assigned: decision
    arrays cover ``packages[start:]`` and align index-for-index with
    that slice.  ``latencies`` (seconds, same alignment) is populated
    only when the client was built with ``record_latency=True``.
    """

    stream_key: str
    start: int
    anomalies: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    levels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    complete: bool = True
    latencies: np.ndarray | None = None

    @property
    def judged(self) -> int:
        """Packages judged during this run."""
        return len(self.anomalies)

    @property
    def alerts(self) -> int:
        return int(self.anomalies.sum())


class ReplayClient:
    """Blocking-socket client replaying packages through a gateway."""

    def __init__(
        self,
        host: str,
        port: int,
        stream_key: str = "replay",
        window: int = 32,
        timeout: float = 30.0,
        noise_every: int = 0,
        noise_bytes: int = 16,
        scenario: str | None = None,
        protocol: str = "modbus",
        record_latency: bool = False,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if noise_every < 0:
            raise ValueError(f"noise_every must be >= 0, got {noise_every}")
        self.host = host
        self.port = port
        self.stream_key = stream_key
        self.window = window
        self.timeout = timeout
        self.noise_every = noise_every
        self.noise_bytes = noise_bytes
        #: Wire dialect to speak (see :mod:`repro.serve.protocols`); the
        #: gateway negotiates it from the first frame, so no gateway-side
        #: flag is needed.
        self.adapter = get_adapter(protocol)
        #: Optional scenario tag sent in the OPEN frame.  A
        #: registry-backed gateway routes a tagged stream straight to
        #: that scenario's active detector; untagged streams are
        #: auto-identified from their first probe window (keep
        #: ``window`` at or above the gateway's probe window or the
        #: replay stalls waiting for verdicts that cannot come yet).
        self.scenario = scenario
        #: Time every package from socket flush to verdict receipt.
        self.record_latency = record_latency

    def replay(self, packages: Sequence[Package]) -> ReplayResult:
        """Stream ``packages`` and gather verdicts for the unjudged tail.

        Keeps at most ``window`` packages in flight and accepts verdicts
        strictly in sequence order.  With ``record_latency`` every
        package is timed from the moment its DATA frame was flushed to
        the socket until its verdict arrived.  Returns a partial result
        (``complete=False``) if the gateway goes away mid-replay — the
        fail-over path: reconnect later and replay the same capture;
        already-judged packages are skipped.
        """
        anomalies: list[bool] = []
        levels: list[int] = []
        latencies: list[float] | None = [] if self.record_latency else None
        sent_at: dict[int, float] = {}
        complete = True
        with socket.create_connection((self.host, self.port), self.timeout) as sock:
            sock.settimeout(self.timeout)
            decoder = self.adapter.decoder()
            sock.sendall(self.adapter.frame_open(self.stream_key, self.scenario))
            start = self._await_open_ack(sock, decoder)
            if start > len(packages):
                raise ReplayError(
                    f"gateway has judged {start} packages on stream "
                    f"{self.stream_key!r}, but the capture holds only "
                    f"{len(packages)}"
                )
            next_send = start
            while start + len(anomalies) < len(packages):
                payload, sent_to = self._fill_window(
                    packages, next_send, start, len(anomalies)
                )
                if payload:
                    sock.sendall(payload)
                    if latencies is not None:
                        now = time.perf_counter()
                        for seq in range(next_send, sent_to):
                            sent_at[seq] = now
                    next_send = sent_to
                try:
                    data = sock.recv(65536)
                except (TimeoutError, ConnectionError):
                    complete = False
                    break
                if not data:
                    complete = False
                    break
                for frame in decoder.feed(data):
                    if frame.kind != KIND_VERDICT:
                        self._refuse(frame)
                    seq, anomaly, level = self.adapter.decode_verdict(frame.pdu)
                    expected = start + len(anomalies)
                    if seq != expected:
                        raise ReplayError(
                            f"verdict out of order: expected seq {expected}, "
                            f"got {seq}"
                        )
                    if latencies is not None:
                        latencies.append(time.perf_counter() - sent_at.pop(seq))
                    anomalies.append(anomaly)
                    levels.append(level)
        return ReplayResult(
            stream_key=self.stream_key,
            start=start,
            anomalies=np.array(anomalies, dtype=bool),
            levels=np.array(levels, dtype=np.int64),
            complete=complete,
            latencies=(
                None
                if latencies is None
                else np.array(latencies, dtype=np.float64)
            ),
        )

    def _fill_window(
        self,
        packages: Sequence[Package],
        next_send: int,
        start: int,
        judged: int,
    ) -> tuple[bytearray, int]:
        """Frame as many packages as the in-flight window allows."""
        payload = bytearray()
        while (
            next_send < len(packages)
            and next_send - start - judged < self.window
        ):
            if self.noise_every and next_send % self.noise_every == 0:
                payload.extend(b"\xff" * self.noise_bytes)
            payload.extend(
                self.adapter.frame_data(packages[next_send], next_send)
            )
            next_send += 1
        return payload, next_send

    def _await_open_ack(self, sock: socket.socket, decoder: FrameDecoder) -> int:
        while True:
            try:
                data = sock.recv(65536)
            except (TimeoutError, ConnectionError) as exc:
                raise ReplayError(f"no OPEN_ACK from gateway: {exc}") from exc
            if not data:
                raise ReplayError("gateway closed the connection before OPEN_ACK")
            for frame in decoder.feed(data):
                if frame.kind != KIND_OPEN_ACK:
                    self._refuse(frame)
                _, packages_seen = self.adapter.decode_open_ack(frame.pdu)
                return packages_seen

    def _refuse(self, frame) -> NoReturn:
        """Fail the replay on a frame the session does not expect."""
        if frame.kind == KIND_ERROR:
            raise ReplayError(
                f"gateway error: {self.adapter.decode_error(frame.pdu)}"
            )
        raise ReplayError(f"unexpected frame kind {frame.kind:#04x}")


def replay_arff(
    path: str | os.PathLike, host: str, port: int, **kwargs
) -> ReplayResult:
    """Replay an ARFF interchange capture through a gateway."""
    return ReplayClient(host, port, **kwargs).replay(read_arff(path))
