"""Modbus RTU framing for the gas pipeline SCADA link.

The testbed speaks the Modbus application-layer protocol (paper §VII).
This module implements the pieces of the protocol the simulator needs:
CRC-16/MODBUS, frame construction/parsing for the register reads and
writes the master issues every polling cycle, and the register map of
the pipeline PLC.

Register values are encoded as 16-bit words; continuous quantities use
fixed-point scaling (×100) like common PLC firmware.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class FunctionCode(IntEnum):
    """Modbus function codes used (or abused) on the pipeline link."""

    READ_HOLDING_REGISTERS = 3
    WRITE_MULTIPLE_REGISTERS = 16
    # Codes that only ever appear in MFCI attacks:
    DIAGNOSTICS = 8
    READ_EXCEPTION_STATUS = 7
    ENCAPSULATED_TRANSPORT = 43


class Register(IntEnum):
    """Holding-register map of the pipeline PLC."""

    SETPOINT = 0
    GAIN = 1
    RESET_RATE = 2
    DEADBAND = 3
    CYCLE_TIME = 4
    RATE = 5
    SYSTEM_MODE = 6
    CONTROL_SCHEME = 7
    PUMP = 8
    SOLENOID = 9
    PRESSURE = 10


#: Fixed-point scale for continuous registers.
FIXED_POINT_SCALE = 100.0

#: Number of registers in the control block written each cycle.
CONTROL_BLOCK_SIZE = 10


def _crc16_modbus_table() -> tuple[int, ...]:
    """The CRC of every byte value through 8 steps of the bit loop."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xA001 if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC16_MODBUS_TABLE = _crc16_modbus_table()


def crc16_modbus(data: bytes) -> int:
    """CRC-16/MODBUS of ``data`` (poly 0x8005 reflected → 0xA001).

    Initial value 0xFFFF, no final XOR, little-endian transmission
    order; ``crc16_modbus(b"123456789") == 0x4B37`` (the standard check
    value).  One table lookup per byte; equal to the bit-at-a-time loop
    for every input.
    """
    crc = 0xFFFF
    table = _CRC16_MODBUS_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc


def encode_fixed(value: float) -> int:
    """Encode a continuous value as an unsigned 16-bit fixed-point word."""
    word = int(round(value * FIXED_POINT_SCALE))
    return max(0, min(0xFFFF, word))


def decode_fixed(word: int) -> float:
    """Inverse of :func:`encode_fixed`."""
    return word / FIXED_POINT_SCALE


@dataclass(frozen=True)
class ModbusFrame:
    """A parsed Modbus RTU frame.

    ``payload`` is the PDU body after the function code (register
    addresses, counts and data words), already validated against the CRC
    when produced by :func:`parse_frame`.
    """

    address: int
    function: int
    payload: bytes

    def encode(self) -> bytes:
        """Serialize with a correct CRC appended (little-endian)."""
        if not 0 <= self.address <= 0xFF:
            raise ValueError(f"address must fit one byte, got {self.address}")
        if not 0 <= self.function <= 0xFF:
            raise ValueError(f"function must fit one byte, got {self.function}")
        body = bytes([self.address, self.function]) + self.payload
        crc = crc16_modbus(body)
        return body + bytes([crc & 0xFF, crc >> 8])

    @property
    def length(self) -> int:
        """Total frame length in bytes (header + payload + CRC)."""
        return 2 + len(self.payload) + 2


class CrcError(ValueError):
    """Raised by :func:`parse_frame` when the frame checksum is invalid."""


def parse_frame(raw: bytes) -> ModbusFrame:
    """Parse and CRC-check a raw RTU frame.

    Raises :class:`CrcError` on checksum mismatch and ``ValueError`` on
    frames too short to contain a header and CRC.  Any byte string is
    safe to feed — truncated or garbage input never escapes as an
    ``IndexError``, which matters once frames arrive from a network
    socket instead of the simulator.
    """
    if not isinstance(raw, (bytes, bytearray, memoryview)):
        raise TypeError(f"expected bytes, got {type(raw).__name__}")
    raw = bytes(raw)
    if len(raw) < 4:
        raise ValueError(f"frame too short: {len(raw)} bytes")
    body, crc_bytes = raw[:-2], raw[-2:]
    expected = crc16_modbus(body)
    received = crc_bytes[0] | (crc_bytes[1] << 8)
    if expected != received:
        raise CrcError(f"CRC mismatch: computed {expected:#06x}, frame has {received:#06x}")
    return ModbusFrame(address=body[0], function=body[1], payload=body[2:])


def corrupt_frame(raw: bytes, bit_index: int) -> bytes:
    """Flip one bit — models line noise / DoS garbage on the serial link."""
    if not 0 <= bit_index < len(raw) * 8:
        raise ValueError(f"bit_index {bit_index} out of range for {len(raw)} bytes")
    byte_index, bit = divmod(bit_index, 8)
    corrupted = bytearray(raw)
    corrupted[byte_index] ^= 1 << bit
    return bytes(corrupted)


# ----------------------------------------------------------------------
# PDU builders for the pipeline transactions
# ----------------------------------------------------------------------


def build_read_request(address: int, start: int = 0, count: int = CONTROL_BLOCK_SIZE + 1) -> ModbusFrame:
    """Master → slave: read ``count`` holding registers from ``start``."""
    payload = start.to_bytes(2, "big") + count.to_bytes(2, "big")
    return ModbusFrame(address, FunctionCode.READ_HOLDING_REGISTERS, payload)


def build_read_response(address: int, registers: list[int]) -> ModbusFrame:
    """Slave → master: register values answering a read request."""
    data = b"".join(r.to_bytes(2, "big") for r in registers)
    payload = bytes([len(data)]) + data
    return ModbusFrame(address, FunctionCode.READ_HOLDING_REGISTERS, payload)


def build_write_request(address: int, start: int, values: list[int]) -> ModbusFrame:
    """Master → slave: write multiple holding registers."""
    data = b"".join(v.to_bytes(2, "big") for v in values)
    payload = (
        start.to_bytes(2, "big")
        + len(values).to_bytes(2, "big")
        + bytes([len(data)])
        + data
    )
    return ModbusFrame(address, FunctionCode.WRITE_MULTIPLE_REGISTERS, payload)


def build_write_response(address: int, start: int, count: int) -> ModbusFrame:
    """Slave → master: acknowledge a multiple-register write."""
    payload = start.to_bytes(2, "big") + count.to_bytes(2, "big")
    return ModbusFrame(address, FunctionCode.WRITE_MULTIPLE_REGISTERS, payload)


def parse_read_response_registers(frame: ModbusFrame) -> list[int]:
    """Extract register words from a read response PDU.

    Raises ``ValueError`` on any malformed payload, including an empty
    or truncated one (a CRC-valid frame can still carry a bad PDU).
    """
    if frame.function != FunctionCode.READ_HOLDING_REGISTERS:
        raise ValueError(f"not a read response (function {frame.function})")
    if len(frame.payload) < 1:
        raise ValueError("read response payload missing byte count")
    byte_count = frame.payload[0]
    data = frame.payload[1 : 1 + byte_count]
    if len(frame.payload) != 1 + byte_count or byte_count % 2 != 0:
        raise ValueError("malformed read response payload")
    return [int.from_bytes(data[i : i + 2], "big") for i in range(0, byte_count, 2)]


def parse_write_request_values(frame: ModbusFrame) -> tuple[int, list[int]]:
    """Extract ``(start_register, values)`` from a write request PDU.

    Raises ``ValueError`` on any malformed payload, including one too
    short to hold the address/count/byte-count header.
    """
    if frame.function != FunctionCode.WRITE_MULTIPLE_REGISTERS:
        raise ValueError(f"not a write request (function {frame.function})")
    if len(frame.payload) < 5:
        raise ValueError("write request payload shorter than its header")
    start = int.from_bytes(frame.payload[0:2], "big")
    count = int.from_bytes(frame.payload[2:4], "big")
    byte_count = frame.payload[4]
    data = frame.payload[5 : 5 + byte_count]
    if byte_count != 2 * count or len(frame.payload) != 5 + byte_count:
        raise ValueError("malformed write request payload")
    values = [int.from_bytes(data[i : i + 2], "big") for i in range(0, byte_count, 2)]
    return start, values
