"""Tests for Modbus framing and CRC-16."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ics import modbus
from repro.ics.modbus import (
    CrcError,
    FunctionCode,
    ModbusFrame,
    build_read_request,
    build_read_response,
    build_write_request,
    build_write_response,
    corrupt_frame,
    crc16_modbus,
    decode_fixed,
    encode_fixed,
    parse_frame,
    parse_read_response_registers,
    parse_write_request_values,
)


def crc16_modbus_bitwise(data: bytes) -> int:
    """Reference CRC-16/MODBUS: eight shift-and-xor steps per byte."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xA001 if crc & 1 else crc >> 1
    return crc


class TestCrc16:
    def test_known_vector(self):
        # Canonical CRC-16/MODBUS check value for "123456789".
        assert crc16_modbus(b"123456789") == 0x4B37
        assert crc16_modbus_bitwise(b"123456789") == 0x4B37

    @settings(max_examples=500)
    @given(st.binary(max_size=300))
    def test_table_matches_bit_loop(self, data):
        assert crc16_modbus(data) == crc16_modbus_bitwise(data)

    def test_table_matches_bit_loop_on_every_byte(self):
        for value in range(256):
            for prefix in (b"", b"\x00", b"\xff\x01"):
                data = prefix + bytes([value])
                assert crc16_modbus(data) == crc16_modbus_bitwise(data)

    def test_empty(self):
        assert crc16_modbus(b"") == 0xFFFF

    @given(st.binary(min_size=1, max_size=64))
    def test_single_bit_flip_detected(self, data):
        crc = crc16_modbus(data)
        flipped = bytearray(data)
        flipped[0] ^= 0x01
        assert crc16_modbus(bytes(flipped)) != crc


class TestFrameRoundTrip:
    @given(
        st.integers(0, 255),
        st.integers(0, 255),
        st.binary(min_size=0, max_size=40),
    )
    def test_encode_parse_roundtrip(self, address, function, payload):
        frame = ModbusFrame(address, function, payload)
        parsed = parse_frame(frame.encode())
        assert parsed == frame

    def test_length_property(self):
        frame = ModbusFrame(1, 3, b"\x00\x01")
        assert frame.length == len(frame.encode())

    def test_bad_crc_rejected(self):
        raw = ModbusFrame(1, 3, b"\x00").encode()
        tampered = raw[:-1] + bytes([raw[-1] ^ 0xFF])
        with pytest.raises(CrcError):
            parse_frame(tampered)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            parse_frame(b"\x01\x02\x03")

    def test_address_range_validated(self):
        with pytest.raises(ValueError):
            ModbusFrame(256, 3, b"").encode()

    @given(st.binary(min_size=4, max_size=32), st.integers(0, 255))
    def test_corrupt_frame_fails_crc(self, payload, bit_seed):
        frame = ModbusFrame(1, 3, payload)
        raw = frame.encode()
        bit = bit_seed % (len(raw) * 8)
        corrupted = corrupt_frame(raw, bit)
        with pytest.raises((CrcError, ValueError)):
            parse_frame(corrupted)
            # A flip in the CRC bytes themselves also breaks the check, so
            # any single-bit corruption must raise.

    def test_corrupt_frame_range_checked(self):
        with pytest.raises(ValueError):
            corrupt_frame(b"\x00", 8)


class TestPduBuilders:
    def test_read_request_shape(self):
        frame = build_read_request(4, start=0, count=11)
        assert frame.function == FunctionCode.READ_HOLDING_REGISTERS
        assert frame.payload == b"\x00\x00\x00\x0b"

    def test_read_response_roundtrip(self):
        registers = [0, 1, 1000, 65535]
        frame = build_read_response(4, registers)
        assert parse_read_response_registers(frame) == registers

    def test_read_response_wrong_function_rejected(self):
        frame = build_write_response(4, 0, 10)
        with pytest.raises(ValueError):
            parse_read_response_registers(frame)

    def test_write_request_roundtrip(self):
        values = [100, 0, 30000]
        frame = build_write_request(4, 5, values)
        start, parsed = parse_write_request_values(frame)
        assert start == 5
        assert parsed == values

    def test_write_request_wrong_function_rejected(self):
        frame = build_read_request(4)
        with pytest.raises(ValueError):
            parse_write_request_values(frame)

    def test_malformed_write_payload_rejected(self):
        frame = ModbusFrame(4, FunctionCode.WRITE_MULTIPLE_REGISTERS, b"\x00\x00\x00\x02\x03\x00")
        with pytest.raises(ValueError):
            parse_write_request_values(frame)


class TestAdversarialBytes:
    """Wire-exposure hardening: no input may escape as ``IndexError``.

    The online gateway feeds socket bytes straight into these parsers,
    so truncated, bit-flipped and garbage inputs must all fail with
    clean ``ValueError``/``CrcError`` — never an internal crash.
    """

    FRAMES = [
        build_read_request(4),
        build_read_response(4, [2, 0, 1, 0, 1034]),
        build_write_request(4, 0, [1000, 80, 20, 100, 100, 10, 2, 0, 0, 0]),
        build_write_response(4, 0, 10),
        ModbusFrame(4, 8, b"\x00\x00"),
    ]

    def test_truncation_at_every_prefix_length(self):
        for frame in self.FRAMES:
            raw = frame.encode()
            for cut in range(len(raw)):
                with pytest.raises(ValueError):  # CrcError is a ValueError
                    parse_frame(raw[:cut])

    def test_every_single_bit_flip_rejected(self):
        """Exhaustive CRC fuzz via corrupt_frame: all bits of all frames."""
        for frame in self.FRAMES:
            raw = frame.encode()
            for bit in range(len(raw) * 8):
                with pytest.raises(ValueError):
                    parse_frame(corrupt_frame(raw, bit))

    @given(st.binary(min_size=0, max_size=64))
    def test_arbitrary_bytes_never_crash_parse_frame(self, raw):
        try:
            frame = parse_frame(raw)
        except ValueError:
            return
        # The astronomically rare CRC-valid blob must round-trip.
        assert frame.encode() == raw

    def test_non_bytes_input_rejected(self):
        with pytest.raises(TypeError):
            parse_frame("01 02 03 04")

    @given(st.binary(min_size=0, max_size=40))
    def test_read_response_parser_survives_any_payload(self, payload):
        frame = ModbusFrame(4, FunctionCode.READ_HOLDING_REGISTERS, payload)
        try:
            registers = parse_read_response_registers(frame)
        except ValueError:
            return
        assert parse_read_response_registers(build_read_response(4, registers)) == registers

    @given(st.binary(min_size=0, max_size=40))
    def test_write_request_parser_survives_any_payload(self, payload):
        frame = ModbusFrame(4, FunctionCode.WRITE_MULTIPLE_REGISTERS, payload)
        try:
            start, values = parse_write_request_values(frame)
        except ValueError:
            return
        assert parse_write_request_values(build_write_request(4, start, values)) == (
            start,
            values,
        )

    def test_empty_payload_read_response_rejected(self):
        frame = ModbusFrame(4, FunctionCode.READ_HOLDING_REGISTERS, b"")
        with pytest.raises(ValueError):
            parse_read_response_registers(frame)

    def test_short_payload_write_request_rejected(self):
        for size in range(5):
            frame = ModbusFrame(4, FunctionCode.WRITE_MULTIPLE_REGISTERS, bytes(size))
            with pytest.raises(ValueError):
                parse_write_request_values(frame)

    @given(st.lists(st.integers(0, 0xFFFF), min_size=0, max_size=16))
    def test_read_response_roundtrip_property(self, registers):
        assert parse_read_response_registers(build_read_response(4, registers)) == registers

    @given(
        st.integers(0, 0xFFFF),
        st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=12),
    )
    def test_write_request_roundtrip_property(self, start, values):
        parsed = parse_write_request_values(build_write_request(4, start, values))
        assert parsed == (start, values)

    def test_wire_roundtrip_through_encode(self):
        """encode -> parse_frame is the identity for every frame shape."""
        for frame in self.FRAMES:
            assert parse_frame(frame.encode()) == frame


class TestFixedPoint:
    @given(st.floats(min_value=0.0, max_value=600.0, allow_nan=False))
    def test_roundtrip_within_resolution(self, value):
        # Half the fixed-point resolution, plus float rounding headroom.
        assert abs(decode_fixed(encode_fixed(value)) - value) <= 0.005 + 1e-9

    def test_clamps_at_bounds(self):
        assert encode_fixed(-5.0) == 0
        assert encode_fixed(1e9) == 0xFFFF
