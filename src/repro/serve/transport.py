"""Modbus/TCP (MBAP) framing for the online detection gateway.

The paper's detector taps a serial Modbus RTU link; a deployed gateway
instead terminates **Modbus/TCP**: each message is an MBAP header
(transaction id, protocol id, length, unit id) followed by a PDU.  This
module layers that framing over the existing RTU codec
(:mod:`repro.ics.modbus`) and defines the gateway's application PDUs:

- ``OPEN`` / ``OPEN_ACK`` — a client binds its connection to a named
  *stream key*; the ack returns the stream id and how many packages the
  gateway has already seen on that stream (the resume offset after a
  fail-over).
- ``DATA`` — one captured package: the link tap's full-precision
  telemetry record (timestamp, CRC-error rate, analog values, ground
  truth label) followed by the embedded RTU frame bytes exactly as they
  crossed the serial link, CRC included.  The telemetry row is
  authoritative for the Table-I features (fixed-point registers cannot
  carry the tap's float64 log losslessly); the RTU frame is CRC-checked
  on receipt so line corruption is caught at the gateway edge.
- ``VERDICT`` — the gateway's per-package decision (anomaly flag plus
  which detection level fired), echoing the package sequence number.
- ``ERROR`` — fatal protocol violation, human-readable reason.

:class:`FrameDecoder` is the incremental parser every wire dialect
shares, built for a hostile wire: it survives partial reads (any split
of the byte stream yields the same frames) and resynchronizes after
garbage bytes by sliding one byte at a time until a plausible header
lines up again, counting every byte it had to discard.  Its ``feed``
holds the only such loop: each dialect supplies just the head parser.
:class:`MbapDecoder` is its Modbus/TCP subclass: protocol id 0, sane
length, known PDU kind.  A connection whose dialect is not known yet
is decoded by :class:`~repro.serve.protocols.ProtocolSniffer`, a
subclass that asks each dialect's head parser in turn until one
parses a whole frame.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import ClassVar

from repro.ics import modbus
from repro.ics.features import FEATURE_NAMES, Package
from repro.ics.modbus import FunctionCode, ModbusFrame, Register

#: MBAP protocol identifier — 0 means Modbus.
PROTOCOL_MODBUS = 0

#: MBAP header: transaction id, protocol id, length, unit id.
_MBAP = struct.Struct(">HHHB")

#: Largest body (unit id + PDU) the decoder will buffer for one frame.
#: Stream keys and telemetry records are small; anything bigger is noise.
MAX_FRAME_BODY = 4096

# Gateway PDU kinds (first PDU byte).  Values stay clear of real Modbus
# function codes so a stray RTU frame fed to the decoder cannot alias a
# control message.
KIND_OPEN = 0x41
KIND_OPEN_ACK = 0x42
KIND_DATA = 0x43
KIND_VERDICT = 0x44
KIND_ERROR = 0x45

KNOWN_KINDS = frozenset(
    {KIND_OPEN, KIND_OPEN_ACK, KIND_DATA, KIND_VERDICT, KIND_ERROR}
)

#: Telemetry record: ground-truth label byte + the 17 Table-I features
#: as IEEE-754 doubles (lossless, ``NaN`` marks inapplicable fields).
_RECORD = struct.Struct(f">B{len(FEATURE_NAMES)}d")

_OPEN_ACK = struct.Struct(">II")
_VERDICT = struct.Struct(">IBB")
_SEQ = struct.Struct(">I")


class TransportError(ValueError):
    """A structurally invalid gateway PDU."""


@dataclass(frozen=True)
class MbapFrame:
    """One decoded Modbus/TCP message."""

    transaction_id: int
    unit_id: int
    pdu: bytes

    @property
    def kind(self) -> int:
        """First PDU byte — one of the ``KIND_*`` tags."""
        if not self.pdu:
            raise TransportError("empty PDU has no kind")
        return self.pdu[0]


def wrap_pdu(pdu: bytes, transaction_id: int, unit_id: int = 0) -> bytes:
    """Frame a PDU with an MBAP header."""
    if not pdu:
        raise TransportError("refusing to frame an empty PDU")
    if len(pdu) + 1 > MAX_FRAME_BODY:
        raise TransportError(f"PDU too large: {len(pdu)} bytes")
    if not 0 <= transaction_id <= 0xFFFF:
        raise TransportError(f"transaction id out of range: {transaction_id}")
    if not 0 <= unit_id <= 0xFF:
        raise TransportError(f"unit id out of range: {unit_id}")
    header = _MBAP.pack(transaction_id, PROTOCOL_MODBUS, len(pdu) + 1, unit_id)
    return header + pdu


class FrameDecoder:
    """Incremental frame decoder with garbage resynchronization.

    Feed arbitrary byte chunks; complete frames come out in order no
    matter how the stream was split.  Bytes that cannot start a
    plausible frame are discarded one at a time until the decoder locks
    back onto a frame boundary — the behaviour a field gateway needs on
    a link that also carries line noise and unrelated chatter.

    Each dialect subclasses this and implements :meth:`_parse_at_start`,
    which inspects the buffer head and returns one of: a
    ``(frame, consumed)`` pair, the string ``"shed"`` (the head cannot
    start a frame), or ``None`` (more bytes needed).
    """

    #: Fewest buffered bytes worth inspecting.
    min_header: ClassVar[int] = 1

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_discarded = 0
        #: Number of times the decoder *lost* sync — runs of discarded
        #: bytes, not individual bytes (one burst of noise counts once).
        self.resyncs = 0
        self._synced = True

    @property
    def buffered(self) -> int:
        """Bytes currently awaiting a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list:
        """Absorb ``data``; return every frame completed by it."""
        buffer = self._buffer
        buffer.extend(data)
        frames = []
        while len(buffer) >= self.min_header:
            result = self._parse_at_start(buffer)
            if result is None:
                break
            if result == "shed":
                del buffer[0]
                self.bytes_discarded += 1
                if self._synced:
                    self.resyncs += 1
                    self._synced = False
                continue
            frame, consumed = result
            del buffer[:consumed]
            self.frames_decoded += 1
            self._synced = True
            frames.append(frame)
        return frames

    def _parse_at_start(self, buffer: bytearray):
        raise NotImplementedError


class MbapDecoder(FrameDecoder):
    """Incremental MBAP frame decoder.

    As soon as a 7-byte header is buffered, a wrong protocol id or an
    absurd length sheds a byte; otherwise the decoder waits for the
    kind byte, and an unknown PDU kind sheds a byte.
    """

    min_header = _MBAP.size

    def _parse_at_start(self, buffer: bytearray):
        transaction_id, protocol_id, length, unit_id = _MBAP.unpack_from(buffer)
        if protocol_id != PROTOCOL_MODBUS or not 2 <= length <= MAX_FRAME_BODY:
            return "shed"
        if len(buffer) == _MBAP.size:
            return None  # kind byte not here yet — wait for more
        if buffer[_MBAP.size] not in KNOWN_KINDS:
            return "shed"
        end = _MBAP.size + length - 1  # length counts unit id + PDU
        if len(buffer) < end:
            return None
        pdu = bytes(buffer[_MBAP.size : end])
        return MbapFrame(transaction_id, unit_id, pdu), end


# ----------------------------------------------------------------------
# application PDUs
# ----------------------------------------------------------------------


#: Largest OPEN body (key + optional tags) any dialect accepts.
MAX_OPEN_BODY = 255


def _open_field(value: str, what: str) -> bytes:
    raw = value.encode("utf-8")
    if not raw:
        raise TransportError(f"{what} must be non-empty")
    if b"\x00" in raw:
        raise TransportError(f"{what} must not contain NUL")
    return raw


def encode_open(
    stream_key: str,
    scenario: str | None = None,
    protocol: str | None = None,
) -> bytes:
    """Client → gateway: bind this connection to ``stream_key``.

    ``scenario`` optionally tags the stream with its plant scenario so a
    registry-backed gateway routes it to that scenario's detector
    without probing; ``protocol`` optionally declares the wire dialect
    the client speaks (see :mod:`repro.serve.protocols`), which the
    gateway cross-checks against the dialect it negotiated.  The tags
    ride after NUL separators (all fields are NUL-free UTF-8); a
    protocol with no scenario leaves the middle field empty
    (``key\\x00\\x00protocol``).  Untagged OPENs are byte-identical to
    the pre-registry wire format.
    """
    raw = _open_field(stream_key, "stream key")
    if protocol is not None:
        scenario_raw = (
            b"" if scenario is None else _open_field(scenario, "scenario tag")
        )
        raw = raw + b"\x00" + scenario_raw + b"\x00" + _open_field(
            protocol, "protocol tag"
        )
    elif scenario is not None:
        raw = raw + b"\x00" + _open_field(scenario, "scenario tag")
    if len(raw) > MAX_OPEN_BODY:
        raise TransportError(f"stream key too long: {len(raw)} bytes")
    return bytes([KIND_OPEN]) + raw


def decode_open(pdu: bytes) -> tuple[str, str | None, str | None]:
    """Returns ``(stream_key, scenario_tag, protocol_tag)``.

    Strict by design: an oversized body or any NUL pattern other than
    the documented one/two/three-field forms is a clean
    :class:`TransportError`, never a silently truncated tag.
    """
    if len(pdu) < 2 or pdu[0] != KIND_OPEN:
        raise TransportError("not an OPEN PDU")
    if len(pdu) - 1 > MAX_OPEN_BODY:
        raise TransportError(f"OPEN body too large: {len(pdu) - 1} bytes")
    try:
        body = pdu[1:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TransportError(f"stream key is not valid UTF-8: {exc}") from exc
    fields = body.split("\x00")
    if len(fields) > 3:
        raise TransportError(
            f"OPEN carries {len(fields)} NUL-separated fields, at most 3 allowed"
        )
    key = fields[0]
    if not key:
        raise TransportError("stream key must be non-empty")
    scenario: str | None = None
    protocol: str | None = None
    if len(fields) == 2:
        if not fields[1]:
            raise TransportError(f"malformed scenario tag on stream {key!r}")
        scenario = fields[1]
    elif len(fields) == 3:
        # The middle (scenario) field may be empty — protocol-only OPEN.
        scenario = fields[1] or None
        if not fields[2]:
            raise TransportError(f"malformed protocol tag on stream {key!r}")
        protocol = fields[2]
    return key, scenario, protocol


def encode_open_ack(stream_id: int, packages_seen: int) -> bytes:
    """Gateway → client: stream bound; resume sending at ``packages_seen``."""
    return bytes([KIND_OPEN_ACK]) + _OPEN_ACK.pack(stream_id, packages_seen)


def decode_open_ack(pdu: bytes) -> tuple[int, int]:
    if len(pdu) != 1 + _OPEN_ACK.size or pdu[0] != KIND_OPEN_ACK:
        raise TransportError("not an OPEN_ACK PDU")
    stream_id, packages_seen = _OPEN_ACK.unpack(pdu[1:])
    return stream_id, packages_seen


def encode_verdict(seq: int, is_anomaly: bool, level: int) -> bytes:
    """Gateway → client: decision for the package numbered ``seq``."""
    return bytes([KIND_VERDICT]) + _VERDICT.pack(seq, int(is_anomaly), level)


def decode_verdict(pdu: bytes) -> tuple[int, bool, int]:
    if len(pdu) != 1 + _VERDICT.size or pdu[0] != KIND_VERDICT:
        raise TransportError("not a VERDICT PDU")
    seq, anomaly, level = _VERDICT.unpack(pdu[1:])
    return seq, bool(anomaly), level


def encode_error(message: str) -> bytes:
    """Gateway → client: fatal protocol violation; connection will close."""
    return bytes([KIND_ERROR]) + message.encode("utf-8")[:1024]


def decode_error(pdu: bytes) -> str:
    if not pdu or pdu[0] != KIND_ERROR:
        raise TransportError("not an ERROR PDU")
    return pdu[1:].decode("utf-8", errors="replace")


# ----------------------------------------------------------------------
# DATA: telemetry record + embedded RTU frame
# ----------------------------------------------------------------------


def rtu_frame_for(package: Package) -> ModbusFrame:
    """Rebuild the on-wire RTU frame a package corresponds to.

    Inverse of how the simulator fabricates packages: the transaction
    type (function code × direction) selects the PDU shape, continuous
    values ride as ×100 fixed-point register words.  Unknown function
    codes (the MFCI attack repertoire) become bare frames — real
    diagnostics payloads vary by vendor and carry no Table-I features.
    """
    def fixed(value: float | None) -> int:
        return modbus.encode_fixed(0.0 if value is None else float(value))

    def word(value: int | None) -> int:
        # Attack-altered packages may carry out-of-range values; the
        # wire encoder clamps rather than refusing to forward them.
        return max(0, min(0xFFFF, int(value or 0)))

    address = package.address & 0xFF
    if package.function == FunctionCode.WRITE_MULTIPLE_REGISTERS:
        if package.is_command:
            words = [
                fixed(package.setpoint),
                fixed(package.gain),
                fixed(package.reset_rate),
                fixed(package.deadband),
                fixed(package.cycle_time),
                fixed(package.rate),
                word(package.system_mode),
                word(package.control_scheme),
                word(package.pump),
                word(package.solenoid),
            ]
            return modbus.build_write_request(address, Register.SETPOINT, words)
        return modbus.build_write_response(
            address, Register.SETPOINT, modbus.CONTROL_BLOCK_SIZE
        )
    if package.function == FunctionCode.READ_HOLDING_REGISTERS:
        if package.is_command:
            # The read request's register count is not recoverable from
            # the package (aux readings ride responses only); the fixed
            # 8-byte request length matches regardless of count.
            return modbus.build_read_request(address, Register.SYSTEM_MODE, 5)
        words = [
            word(package.system_mode),
            word(package.control_scheme),
            word(package.pump),
            word(package.solenoid),
            fixed(package.pressure_measurement),
            *(fixed(value) for value in package.aux),
        ]
        return modbus.build_read_response(address, words)
    return ModbusFrame(address, package.function & 0xFF, b"")


def _check_data_header(package: Package, seq: int) -> None:
    if not 0 <= seq <= 0xFFFFFFFF:
        raise TransportError(f"sequence number out of range: {seq}")
    if not 0 <= package.label <= 0xFF:
        raise TransportError(f"label out of range: {package.label}")


def encode_data(package: Package, seq: int) -> bytes:
    """One captured package as a DATA PDU (telemetry + RTU bytes).

    Auxiliary readings ride the embedded RTU frame as extra read-block
    words — only read responses carry them, matching the simulator.
    """
    _check_data_header(package, seq)
    if package.aux and not (
        package.function == FunctionCode.READ_HOLDING_REGISTERS
        and package.command_response == 0
    ):
        raise TransportError(
            "aux readings ride read responses only; "
            f"got function {package.function} on a "
            f"{'command' if package.is_command else 'response'}"
        )
    record = _RECORD.pack(package.label, *package.to_row())
    frame = rtu_frame_for(package).encode()
    return bytes([KIND_DATA]) + _SEQ.pack(seq) + record + frame


@dataclass(frozen=True)
class DataFrame:
    """A decoded DATA PDU.

    ``rtu`` is the embedded Modbus RTU frame; ``None`` on dialects that
    carry the telemetry record without one (see
    :func:`decode_stream_data`).
    """

    seq: int
    package: Package
    rtu: ModbusFrame | None


#: Features a record cannot leave out (NaN marks a missing feature): the
#: verdict frame echoes the address, and the interval channel measures
#: from the time.
_REQUIRED_FEATURES = tuple(
    (FEATURE_NAMES.index(name), name) for name in ("address", "time")
)


def _unpack_record(pdu: bytes, offset: int) -> Package:
    """Decode + validate the label byte and 17-double telemetry row."""
    fields = _RECORD.unpack_from(pdu, offset)
    label, row = int(fields[0]), list(fields[1:])
    for index, name in _REQUIRED_FEATURES:
        if math.isnan(row[index]):
            raise TransportError(f"feature {name} is missing")
    for index, name in enumerate(FEATURE_NAMES):
        # Integer-typed features must survive from_row's int() cast.
        if name in ("setpoint", "gain", "reset_rate", "deadband", "cycle_time",
                    "rate", "pressure_measurement", "crc_rate", "time"):
            continue
        value = row[index]
        if math.isnan(value):
            continue
        if math.isinf(value) or value != int(value):
            raise TransportError(f"feature {name} must be integral, got {value}")
    try:
        return Package.from_row(row, label=label)
    except (TypeError, ValueError) as exc:
        raise TransportError(f"bad telemetry record: {exc}") from exc


def _aux_from_rtu(package: Package, rtu: ModbusFrame) -> tuple[float, ...]:
    """Recover auxiliary readings from a read-response frame's words."""
    if not (
        package.command_response == 0
        and rtu.function == FunctionCode.READ_HOLDING_REGISTERS
    ):
        return ()
    try:
        words = modbus.parse_read_response_registers(rtu)
    except ValueError:
        # Attack-mangled responses need not parse; they carry no aux.
        return ()
    if len(words) <= 5:
        return ()
    return tuple(modbus.decode_fixed(word) for word in words[5:])


def decode_data(pdu: bytes) -> DataFrame:
    """Parse a DATA PDU; CRC-checks the embedded RTU frame.

    Raises :class:`TransportError` on structural problems and lets
    :class:`~repro.ics.modbus.CrcError` from the embedded frame
    propagate, so the gateway can count line corruption separately from
    protocol violations.  Auxiliary read-block words beyond the five
    canonical state registers are decoded back onto ``package.aux``.
    """
    header = 1 + _SEQ.size + _RECORD.size
    if len(pdu) < header or pdu[0] != KIND_DATA:
        raise TransportError("not a DATA PDU (or truncated telemetry record)")
    (seq,) = _SEQ.unpack_from(pdu, 1)
    package = _unpack_record(pdu, 1 + _SEQ.size)
    rtu = modbus.parse_frame(pdu[header:])
    aux = _aux_from_rtu(package, rtu)
    if aux:
        package = package.replace(aux=aux)
    return DataFrame(seq=seq, package=package, rtu=rtu)


# ----------------------------------------------------------------------
# protocol-neutral DATA record (non-Modbus dialects)
# ----------------------------------------------------------------------

#: Caps the aux-count byte of stream DATA records; mirrors
#: :data:`repro.ics.registers.MAX_AUX_REGISTERS`.
MAX_STREAM_AUX = 32

_AUX_DOUBLE = struct.Struct(">d")


def encode_stream_data(package: Package, seq: int) -> bytes:
    """One captured package as a dialect-neutral DATA record.

    Same telemetry row as :func:`encode_data`, but instead of an
    embedded RTU frame the auxiliary readings follow explicitly: one
    count byte then one IEEE-754 double per reading.  Dialects that do
    not re-frame Modbus (IEC-104-style, DNP3-lite) wrap this record in
    their own link layer, which already provides integrity checking.
    """
    _check_data_header(package, seq)
    if len(package.aux) > MAX_STREAM_AUX:
        raise TransportError(
            f"too many aux readings: {len(package.aux)} > {MAX_STREAM_AUX}"
        )
    for index, value in enumerate(package.aux):
        if math.isnan(float(value)) or math.isinf(float(value)):
            raise TransportError(f"aux reading {index} is not finite: {value}")
    record = _RECORD.pack(package.label, *package.to_row())
    aux = bytes([len(package.aux)]) + b"".join(
        _AUX_DOUBLE.pack(float(value)) for value in package.aux
    )
    return bytes([KIND_DATA]) + _SEQ.pack(seq) + record + aux


def decode_stream_data(pdu: bytes) -> DataFrame:
    """Parse a dialect-neutral DATA record (no embedded RTU frame)."""
    header = 1 + _SEQ.size + _RECORD.size
    if len(pdu) < header + 1 or pdu[0] != KIND_DATA:
        raise TransportError("not a stream DATA record (or truncated)")
    (seq,) = _SEQ.unpack_from(pdu, 1)
    package = _unpack_record(pdu, 1 + _SEQ.size)
    n_aux = pdu[header]
    if n_aux > MAX_STREAM_AUX:
        raise TransportError(f"too many aux readings: {n_aux} > {MAX_STREAM_AUX}")
    expected = header + 1 + n_aux * _AUX_DOUBLE.size
    if len(pdu) != expected:
        raise TransportError(
            f"stream DATA record length {len(pdu)} != expected {expected}"
        )
    aux = []
    for index in range(n_aux):
        (value,) = _AUX_DOUBLE.unpack_from(pdu, header + 1 + index * _AUX_DOUBLE.size)
        if math.isnan(value) or math.isinf(value):
            raise TransportError(f"aux reading {index} is not finite: {value}")
        aux.append(value)
    if aux:
        package = package.replace(aux=tuple(aux))
    return DataFrame(seq=seq, package=package, rtu=None)
