"""OPEN negotiation over a real socket, under hypothesis-drawn first bytes.

A connection's first bytes are junk (idle-line filler or arbitrary
bytes) and then an OPEN in one dialect's framing whose body is drawn
freely: bad UTF-8, an empty key, too many NUL fields, an oversize body
or a protocol tag that contradicts the framing.  Whatever arrives, a
single-model gateway and a routed one must each answer with an
OPEN_ACK or one ERROR frame, or close once the client half-closes —
never hang, never crash the connection task with a traceback.
"""

from __future__ import annotations

import logging
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry import ModelRegistry
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.protocols import PROTOCOL_NAMES, ProtocolSniffer, get_adapter
from repro.serve.transport import (
    KIND_ERROR,
    KIND_OPEN,
    KIND_OPEN_ACK,
    MAX_FRAME_BODY,
    TransportError,
    decode_open,
    wrap_pdu,
)

#: Seconds the client waits for the gateway's answer, then for its close.
ANSWER_SECONDS = 0.5
CLOSE_SECONDS = 10.0


class _Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(scope="module")
def asyncio_log():
    handler = _Records()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)


@pytest.fixture(scope="module")
def gateways(detector, scenario_detectors, tmp_path_factory, asyncio_log):
    registry = ModelRegistry(tmp_path_factory.mktemp("negotiation") / "registry")
    registry.publish(scenario_detectors["gas_pipeline"], "gas_pipeline")
    registry.publish(scenario_detectors["water_tank"], "water_tank")
    handles = {
        "single": start_in_thread(detector, GatewayConfig()),
        "routed": start_in_thread(
            None,
            gateway=DetectionGateway(
                config=GatewayConfig(registry_poll_seconds=0), registry=registry
            ),
        ),
    }
    try:
        yield handles
    finally:
        for handle in handles.values():
            handle.stop()


def frame(dialect: str, pdu: bytes) -> bytes:
    """``pdu`` in ``dialect``'s link framing, whatever its contents."""
    if dialect == "modbus":
        return wrap_pdu(pdu, transaction_id=1)
    return get_adapter(dialect)._frame(pdu)


_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=12,
)

open_bodies = st.one_of(
    # Well-formed: a key, maybe a scenario tag, maybe a protocol tag
    # (which may contradict the framing).
    st.tuples(
        _text,
        st.none() | st.sampled_from(["gas_pipeline", "water_tank", "steel_mill"]),
        st.none() | st.sampled_from([*PROTOCOL_NAMES, "profibus"]),
    ).map(
        lambda f: f[0].encode()
        + (b"" if f[1] is None and f[2] is None else b"\x00" + (f[1] or "").encode())
        + (b"" if f[2] is None else b"\x00" + f[2].encode())
    ),
    st.just(b""),  # empty key
    st.binary(min_size=1, max_size=40).map(lambda b: b"\xff\xfe" + b),  # bad UTF-8
    st.integers(3, 9).map(lambda n: b"k" + b"\x00x" * n),  # too many fields
    st.integers(256, MAX_FRAME_BODY - 2).map(lambda n: b"k" * n),  # oversize
    st.binary(max_size=64),
)

junk = st.one_of(
    st.integers(0, 40).map(lambda n: b"\xff" * n),  # idle-line filler
    st.binary(max_size=48),
)


def _recv(sock: socket.socket, seconds: float) -> bytes | None:
    """Bytes from ``sock`` within ``seconds``; ``b""`` once the peer has
    closed, ``None`` on a timeout."""
    sock.settimeout(seconds)
    try:
        return sock.recv(65536)
    except socket.timeout:
        return None
    except ConnectionResetError:
        return b""


def exchange(address, wire: bytes) -> tuple[list, bool, bool]:
    """Send ``wire``; returns the frames received, whether any arrived
    before the client half-closed, and whether the gateway then closed."""
    decoder = ProtocolSniffer()
    with socket.create_connection(address, timeout=CLOSE_SECONDS) as sock:
        sock.sendall(wire)
        data = _recv(sock, ANSWER_SECONDS)
        frames = decoder.feed(data or b"")
        answered = bool(frames)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the gateway already closed
        deadline = time.monotonic() + CLOSE_SECONDS
        while data != b"" and time.monotonic() < deadline:
            data = _recv(sock, max(deadline - time.monotonic(), 0.01))
            frames += decoder.feed(data or b"")
    return frames, answered, data == b""


class TestOpenNegotiation:
    @pytest.mark.parametrize("kind", ["single", "routed"])
    @given(
        prefix=junk,
        dialect=st.sampled_from(PROTOCOL_NAMES),
        body=open_bodies,
    )
    @settings(max_examples=75, deadline=None)
    def test_any_first_bytes_get_an_answer_or_a_close(
        self, gateways, asyncio_log, kind, prefix, dialect, body
    ):
        wire = prefix + frame(dialect, bytes([KIND_OPEN]) + body)
        frames, answered, closed = exchange(gateways[kind].address, wire)
        assert closed, "gateway kept the connection open after the half-close"
        kinds = [f.kind for f in frames]
        assert kinds.count(KIND_OPEN_ACK) <= 1 and kinds.count(KIND_ERROR) <= 1
        assert set(kinds) <= {KIND_OPEN_ACK, KIND_ERROR}
        if KIND_ERROR in kinds:
            assert kinds[-1] == KIND_ERROR  # nothing after an ERROR
        if prefix.strip(b"\xff") == b"":
            # Idle-line junk cannot hide the OPEN: the answer comes
            # without waiting for the client to give up.
            assert answered and len(frames) == 1
        tracebacks = [
            record.getMessage()
            for record in asyncio_log
            if record.exc_info or "Traceback" in record.getMessage()
        ]
        assert tracebacks == []

    @given(st.binary(max_size=300) | st.binary(max_size=300).map(lambda b: b"\x41" + b))
    @settings(max_examples=300, deadline=None)
    def test_decode_open_raises_only_transport_error(self, pdu):
        try:
            key, scenario, protocol = decode_open(pdu)
        except TransportError:
            return
        assert key and isinstance(key, str)
        assert scenario is None or scenario
        assert protocol is None or protocol
