"""Protocol adapters: pluggable wire dialects for the detection gateway.

Real ICS fleets are protocol-heterogeneous — one site's tap speaks
Modbus/TCP, the next IEC-104, the next DNP3 — while the detection stack
only ever wants the normalized 17-feature :class:`~repro.ics.features.
Package` rows.  A :class:`ProtocolAdapter` owns everything between wire
bytes and those rows for one dialect:

- **framing** — how control PDUs and telemetry records are wrapped on
  the socket (header layout, length fields, integrity check),
- **decode + resync** — a subclass of the one incremental
  :class:`~repro.serve.transport.FrameDecoder`, which survives partial
  reads and resynchronizes after garbage, with the same observability
  counters (``frames_decoded`` / ``bytes_discarded`` / ``resyncs``) on
  every dialect,
- **register semantics** — how a captured package (including auxiliary
  read-block registers) is serialized and recovered losslessly.

Three dialects ship in-tree:

``modbus``
    The reference adapter: MBAP framing over the telemetry-plus-RTU
    DATA record of :mod:`repro.serve.transport`.  Byte-for-byte
    identical to the pre-adapter gateway wire format.
``iec104``
    A simplified IEC-104-style APDU: start byte ``0x68``, big-endian
    body length, body, additive checksum, stop byte ``0x16``.
``dnp3``
    A DNP3-lite link frame: magic ``0x05 0x64``, big-endian body
    length, body, CRC-16/DNP trailer (little-endian, like real DNP3).

All dialects share the *PDU vocabulary* of :mod:`repro.serve.transport`
(OPEN/OPEN_ACK/DATA/VERDICT/ERROR with the same payload encodings); the
non-Modbus dialects carry the dialect-neutral stream DATA record
(explicit aux doubles) instead of an embedded RTU frame, since their
link layer already provides integrity checking.

:class:`ProtocolSniffer` is the decoder of a connection whose dialect
is not known yet: a dialect wins when a whole frame of it parses at the
head of the connection, using that dialect's own decoder, so one
gateway port serves a mixed fleet without prior configuration and
negotiation can never disagree with decoding.  The OPEN frame can
additionally *declare* a protocol (see
:func:`~repro.serve.transport.encode_open`), which the gateway
cross-checks against the negotiated dialect.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

from repro.ics.features import Package
from repro.serve import transport
from repro.serve.transport import (
    KNOWN_KINDS,
    MAX_FRAME_BODY,
    DataFrame,
    FrameDecoder,
    MbapDecoder,
    TransportError,
    wrap_pdu,
)

__all__ = [
    "AdapterFrame",
    "Dnp3Adapter",
    "FrameDecoder",
    "Iec104Adapter",
    "ModbusAdapter",
    "PROTOCOL_NAMES",
    "ProtocolAdapter",
    "ProtocolSniffer",
    "SNIFF_ORDER",
    "crc16_dnp",
    "get_adapter",
]

#: IEC-104-style framing constants.
IEC104_START = 0x68
IEC104_STOP = 0x16

#: DNP3-lite link-layer magic (the real DNP3 sync words).
DNP3_MAGIC = b"\x05\x64"

_LEN16 = struct.Struct(">H")


def _crc16_dnp_table() -> tuple[int, ...]:
    """The CRC of every byte value through 8 steps of the bit loop."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xA6BC if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC16_DNP_TABLE = _crc16_dnp_table()


def crc16_dnp(data: bytes) -> int:
    """CRC-16/DNP — reflected poly 0x3D65, init 0, output inverted.

    ``crc16_dnp(b"123456789") == 0xEA82`` (the standard check value).
    One table lookup per byte; equal to the bit-at-a-time loop for
    every input.
    """
    crc = 0x0000
    table = _CRC16_DNP_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFF


@dataclass(frozen=True)
class AdapterFrame:
    """One decoded link frame: just the application PDU.

    Dialects with richer headers (MBAP) return their own frame type;
    consumers rely only on ``pdu`` and ``kind``, which every frame type
    provides.
    """

    pdu: bytes

    @property
    def kind(self) -> int:
        """First PDU byte — one of the transport ``KIND_*`` tags."""
        if not self.pdu:
            raise TransportError("empty PDU has no kind")
        return self.pdu[0]


class _Iec104Decoder(FrameDecoder):
    """Incremental decoder for the IEC-104-style APDU framing."""

    min_header = 4  # start byte, 2-byte length, first body byte (kind)

    def _parse_at_start(self, buffer: bytearray):
        if buffer[0] != IEC104_START:
            return "shed"
        (length,) = _LEN16.unpack_from(buffer, 1)
        if not 1 <= length <= MAX_FRAME_BODY:
            return "shed"
        if buffer[3] not in KNOWN_KINDS:
            return "shed"
        total = 3 + length + 2  # header + body + checksum + stop byte
        if len(buffer) < total:
            return None
        body = bytes(buffer[3 : 3 + length])
        if buffer[3 + length] != sum(body) & 0xFF:
            return "shed"
        if buffer[4 + length] != IEC104_STOP:
            return "shed"
        return AdapterFrame(body), total


class _Dnp3Decoder(FrameDecoder):
    """Incremental decoder for the DNP3-lite link framing."""

    min_header = 5  # magic(2), length(2), first body byte (kind)

    def _parse_at_start(self, buffer: bytearray):
        if buffer[0] != DNP3_MAGIC[0]:
            return "shed"
        if buffer[1] != DNP3_MAGIC[1]:
            return "shed"
        (length,) = _LEN16.unpack_from(buffer, 2)
        if not 1 <= length <= MAX_FRAME_BODY:
            return "shed"
        if buffer[4] not in KNOWN_KINDS:
            return "shed"
        total = 4 + length + 2  # header + body + CRC trailer
        if len(buffer) < total:
            return None
        body = bytes(buffer[4 : 4 + length])
        (crc,) = struct.unpack_from("<H", buffer, 4 + length)
        if crc != crc16_dnp(body):
            return "shed"
        return AdapterFrame(body), total


class ProtocolAdapter(ABC):
    """One wire dialect: framing, resyncing decode, package semantics.

    Adapters are stateless singletons (per-connection state lives in
    the decoder); both the gateway and clients use the same instance.
    """

    #: Dialect slug — wire-visible in OPEN protocol tags and stats.
    name: ClassVar[str]

    @abstractmethod
    def decoder(self) -> FrameDecoder:
        """A fresh per-connection incremental decoder."""

    # -- client → gateway ------------------------------------------------

    @abstractmethod
    def frame_open(self, stream_key: str, scenario: str | None = None) -> bytes:
        """Frame an OPEN binding the connection to ``stream_key``."""

    @abstractmethod
    def frame_data(self, package: Package, seq: int) -> bytes:
        """Frame one captured package."""

    # -- gateway → client ------------------------------------------------

    @abstractmethod
    def frame_open_ack(self, stream_id: int, packages_seen: int) -> bytes:
        """Frame the OPEN acknowledgement (resume offset included)."""

    @abstractmethod
    def frame_verdict(
        self, seq: int, is_anomaly: bool, level: int, unit_id: int = 0
    ) -> bytes:
        """Frame the per-package verdict (``unit_id`` is Modbus-only)."""

    @abstractmethod
    def frame_error(self, message: str) -> bytes:
        """Frame a fatal protocol-violation report."""

    # -- PDU decode (shared vocabulary) ----------------------------------

    def decode_open(self, pdu: bytes) -> tuple[str, str | None, str | None]:
        return transport.decode_open(pdu)

    def decode_open_ack(self, pdu: bytes) -> tuple[int, int]:
        return transport.decode_open_ack(pdu)

    def decode_verdict(self, pdu: bytes) -> tuple[int, bool, int]:
        return transport.decode_verdict(pdu)

    def decode_error(self, pdu: bytes) -> str:
        return transport.decode_error(pdu)

    @abstractmethod
    def decode_data(self, pdu: bytes) -> DataFrame:
        """Recover the package (aux included) from a DATA PDU."""


class ModbusAdapter(ProtocolAdapter):
    """The reference dialect: MBAP framing + telemetry-and-RTU records.

    Byte-for-byte identical to the hardwired pre-adapter gateway wire
    format, untagged OPEN included — existing captures and clients keep
    working unchanged.
    """

    name = "modbus"

    def decoder(self) -> MbapDecoder:
        return MbapDecoder()

    def frame_open(self, stream_key: str, scenario: str | None = None) -> bytes:
        # No protocol tag: the untagged/scenario-tagged forms stay
        # byte-identical to the legacy wire format.
        return wrap_pdu(
            transport.encode_open(stream_key, scenario), transaction_id=1
        )

    def frame_data(self, package: Package, seq: int) -> bytes:
        return wrap_pdu(
            transport.encode_data(package, seq),
            transaction_id=(seq % 0xFFFF) + 1,
            unit_id=package.address & 0xFF,
        )

    def frame_open_ack(self, stream_id: int, packages_seen: int) -> bytes:
        return wrap_pdu(
            transport.encode_open_ack(stream_id, packages_seen), transaction_id=0
        )

    def frame_verdict(
        self, seq: int, is_anomaly: bool, level: int, unit_id: int = 0
    ) -> bytes:
        return wrap_pdu(
            transport.encode_verdict(seq, is_anomaly, level),
            transaction_id=(seq % 0xFFFF) + 1,
            unit_id=unit_id,
        )

    def frame_error(self, message: str) -> bytes:
        return wrap_pdu(transport.encode_error(message), transaction_id=0)

    def decode_data(self, pdu: bytes) -> DataFrame:
        return transport.decode_data(pdu)


class _FramedAdapter(ProtocolAdapter):
    """Shared behaviour of the non-Modbus dialects.

    They frame the same PDU vocabulary in their own link layer, declare
    their protocol in the OPEN tag (self-describing streams), and carry
    the dialect-neutral stream DATA record.
    """

    def _frame(self, pdu: bytes) -> bytes:
        raise NotImplementedError

    def frame_open(self, stream_key: str, scenario: str | None = None) -> bytes:
        return self._frame(
            transport.encode_open(stream_key, scenario, protocol=self.name)
        )

    def frame_data(self, package: Package, seq: int) -> bytes:
        return self._frame(transport.encode_stream_data(package, seq))

    def frame_open_ack(self, stream_id: int, packages_seen: int) -> bytes:
        return self._frame(transport.encode_open_ack(stream_id, packages_seen))

    def frame_verdict(
        self, seq: int, is_anomaly: bool, level: int, unit_id: int = 0
    ) -> bytes:
        return self._frame(transport.encode_verdict(seq, is_anomaly, level))

    def frame_error(self, message: str) -> bytes:
        return self._frame(transport.encode_error(message))

    def decode_data(self, pdu: bytes) -> DataFrame:
        return transport.decode_stream_data(pdu)


class Iec104Adapter(_FramedAdapter):
    """Simplified IEC-104-style APDU framing (start/length/checksum/stop)."""

    name = "iec104"

    def decoder(self) -> _Iec104Decoder:
        return _Iec104Decoder()

    def _frame(self, pdu: bytes) -> bytes:
        if not pdu:
            raise TransportError("refusing to frame an empty PDU")
        if len(pdu) > MAX_FRAME_BODY:
            raise TransportError(f"PDU too large: {len(pdu)} bytes")
        return (
            bytes([IEC104_START])
            + _LEN16.pack(len(pdu))
            + pdu
            + bytes([sum(pdu) & 0xFF, IEC104_STOP])
        )


class Dnp3Adapter(_FramedAdapter):
    """DNP3-lite link framing (sync magic, length, CRC-16/DNP trailer)."""

    name = "dnp3"

    def decoder(self) -> _Dnp3Decoder:
        return _Dnp3Decoder()

    def _frame(self, pdu: bytes) -> bytes:
        if not pdu:
            raise TransportError("refusing to frame an empty PDU")
        if len(pdu) > MAX_FRAME_BODY:
            raise TransportError(f"PDU too large: {len(pdu)} bytes")
        return DNP3_MAGIC + _LEN16.pack(len(pdu)) + pdu + struct.pack(
            "<H", crc16_dnp(pdu)
        )


MODBUS = ModbusAdapter()
IEC104 = Iec104Adapter()
DNP3 = Dnp3Adapter()

_ADAPTERS: dict[str, ProtocolAdapter] = {
    adapter.name: adapter for adapter in (MODBUS, IEC104, DNP3)
}

#: All dialect slugs, sorted.
PROTOCOL_NAMES: tuple[str, ...] = tuple(sorted(_ADAPTERS))

#: Negotiation precedence: the order in which :class:`ProtocolSniffer`
#: offers a connection's head to each dialect's parser.  The specific
#: magics go first: an MBAP header whose transaction id happens to be
#: 0x0564 is rejected by the DNP3 length check (it would read the zero
#: MBAP protocol id), and a 0x68-leading MBAP header fails the IEC-104
#: kind check — but keeping the order deterministic costs nothing.
SNIFF_ORDER: tuple[str, ...] = ("dnp3", "iec104", "modbus")


def get_adapter(name: str) -> ProtocolAdapter:
    """Look up a protocol adapter by dialect slug."""
    try:
        return _ADAPTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: {sorted(_ADAPTERS)}"
        ) from None


class ProtocolSniffer(FrameDecoder):
    """A new connection's decoder: it negotiates the dialect, then decodes it.

    Until the first frame, the buffer head is offered to each allowed
    dialect's own decoder (its ``_parse_at_start``) in
    :data:`SNIFF_ORDER`, and the first dialect that parses a whole frame
    there wins.  From then on the sniffer decodes that dialect alone;
    :attr:`adapter` names it.  A head no dialect can start a frame with
    is shed like any other junk, so a noisy link still self-identifies;
    junk before the first frame is not counted as a resync.
    """

    def __init__(self, protocols: tuple[str, ...] = ()) -> None:
        super().__init__()
        order = protocols or SNIFF_ORDER
        unknown = set(order) - set(_ADAPTERS)
        if unknown:
            raise KeyError(
                f"unknown protocols: {sorted(unknown)}; "
                f"available: {sorted(_ADAPTERS)}"
            )
        self._candidates = [
            (_ADAPTERS[name], _ADAPTERS[name].decoder())
            for name in SNIFF_ORDER
            if name in order
        ]
        #: The dialect of the first whole frame; ``None`` until then.
        self.adapter: ProtocolAdapter | None = None
        self.min_header = min(d.min_header for _, d in self._candidates)
        self._synced = False

    def _parse_at_start(self, buffer: bytearray):
        undecided = False
        for adapter, decoder in self._candidates:
            result = (
                decoder._parse_at_start(buffer)
                if len(buffer) >= decoder.min_header
                else None
            )
            if result is None:
                undecided = True
            elif result != "shed":
                # Locked: feed() calls this dialect's parser directly.
                self.adapter = adapter
                self.min_header = decoder.min_header
                self._parse_at_start = decoder._parse_at_start
                return result
        return None if undecided else "shed"
