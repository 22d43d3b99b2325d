"""Tests for MBAP framing, the incremental decoder and package records."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ics import modbus
from repro.ics.dataset import DatasetConfig, generate_dataset
from repro.ics.features import FEATURE_NAMES, Package
from repro.serve import transport
from repro.serve.transport import (
    KIND_DATA,
    KIND_OPEN,
    MbapDecoder,
    TransportError,
    decode_data,
    decode_error,
    decode_open,
    decode_open_ack,
    decode_verdict,
    encode_data,
    encode_error,
    encode_open,
    encode_open_ack,
    encode_verdict,
    rtu_frame_for,
    wrap_pdu,
)


def make_package(**overrides) -> Package:
    base = dict(
        address=4,
        crc_rate=0.003,
        function=16,
        length=29,
        setpoint=10.0,
        gain=0.8,
        reset_rate=0.2,
        deadband=1.0,
        cycle_time=1.0,
        rate=0.1,
        system_mode=2,
        control_scheme=0,
        pump=0,
        solenoid=0,
        pressure_measurement=None,
        command_response=1,
        time=12.5,
        label=0,
    )
    base.update(overrides)
    return Package(**base)


class TestMbapFraming:
    def test_wrap_and_decode_roundtrip(self):
        payload = wrap_pdu(encode_open("plant-1"), transaction_id=7, unit_id=4)
        frames = MbapDecoder().feed(payload)
        assert len(frames) == 1
        assert frames[0].transaction_id == 7
        assert frames[0].unit_id == 4
        assert frames[0].kind == KIND_OPEN
        assert decode_open(frames[0].pdu) == ("plant-1", None, None)

    def test_rejects_empty_and_oversized_pdus(self):
        with pytest.raises(TransportError):
            wrap_pdu(b"", 0)
        with pytest.raises(TransportError):
            wrap_pdu(bytes(transport.MAX_FRAME_BODY), 0)
        with pytest.raises(TransportError):
            wrap_pdu(b"\x41x", transaction_id=1 << 16)

    def test_byte_at_a_time_feeding(self):
        stream = b"".join(
            wrap_pdu(encode_verdict(i, bool(i % 2), i % 3), i + 1)
            for i in range(5)
        )
        decoder = MbapDecoder()
        frames = []
        for i in range(len(stream)):
            frames.extend(decoder.feed(stream[i : i + 1]))
        assert [decode_verdict(f.pdu)[0] for f in frames] == list(range(5))
        assert decoder.bytes_discarded == 0

    @given(st.lists(st.integers(0, 400), min_size=0, max_size=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_any_chunking_yields_same_frames(self, cuts, seed_bits):
        stream = b"".join(
            wrap_pdu(encode_verdict(seed_bits % 1000 + i, True, 1), i + 1)
            for i in range(3)
        )
        decoder = MbapDecoder()
        frames = []
        position = 0
        for cut in sorted(c % (len(stream) + 1) for c in cuts):
            frames.extend(decoder.feed(stream[position:cut]))
            position = cut
        frames.extend(decoder.feed(stream[position:]))
        assert len(frames) == 3
        assert decoder.bytes_discarded == 0

    def test_resync_after_garbage(self):
        good = wrap_pdu(encode_open("k"), 3)
        noise = b"\xff" * 23
        decoder = MbapDecoder()
        frames = decoder.feed(noise + good + noise + good)
        assert len(frames) == 2
        assert all(decode_open(f.pdu) == ("k", None, None) for f in frames)
        assert decoder.bytes_discarded == len(noise) * 2

    def test_resync_after_truncated_frame(self):
        # A torn frame has a valid header, so the bytes that follow are
        # consumed as its body — indistinguishable from a complete frame
        # with garbage content (upper layers reject it).  The decoder
        # must stay synchronized and still deliver the next real frame.
        good = wrap_pdu(encode_error("hello"), 2)
        torn = good[: len(good) - 3]
        decoder = MbapDecoder()
        assert decoder.feed(torn) == []
        frames = decoder.feed(b"\xff" * 40 + good)
        assert decode_error(frames[-1].pdu) == "hello"


class TestControlPdus:
    def test_open_ack_roundtrip(self):
        pdu = encode_open_ack(9, 1234)
        assert decode_open_ack(pdu) == (9, 1234)

    def test_verdict_roundtrip(self):
        pdu = encode_verdict(77, True, 2)
        assert decode_verdict(pdu) == (77, True, 2)

    def test_error_roundtrip(self):
        assert decode_error(encode_error("boom")) == "boom"

    def test_decoders_reject_wrong_kind(self):
        with pytest.raises(TransportError):
            decode_open_ack(encode_verdict(0, False, 0))
        with pytest.raises(TransportError):
            decode_verdict(encode_open_ack(0, 0))
        with pytest.raises(TransportError):
            decode_open(b"")

    def test_open_rejects_empty_and_huge_keys(self):
        with pytest.raises(TransportError):
            encode_open("")
        with pytest.raises(TransportError):
            encode_open("x" * 300)

    def test_open_scenario_tag_roundtrip(self):
        assert decode_open(encode_open("site-7", "water_tank")) == (
            "site-7",
            "water_tank",
            None,
        )
        # Untagged OPENs keep the pre-registry wire format byte for byte.
        assert encode_open("site-7") == b"\x41site-7"

    def test_open_protocol_tag_roundtrip(self):
        assert decode_open(encode_open("site-7", "water_tank", "iec104")) == (
            "site-7",
            "water_tank",
            "iec104",
        )
        # A protocol without a scenario leaves the middle field empty.
        pdu = encode_open("site-7", protocol="dnp3")
        assert pdu == b"\x41site-7\x00\x00dnp3"
        assert decode_open(pdu) == ("site-7", None, "dnp3")

    def test_open_rejects_bad_protocol_tags(self):
        with pytest.raises(TransportError):
            encode_open("k", protocol="")
        with pytest.raises(TransportError):
            encode_open("k", protocol="a\x00b")
        with pytest.raises(TransportError):
            encode_open("k", "s" * 120, "p" * 200)  # over MAX_OPEN_BODY
        # Extra NUL-separated fields are malformed, not future-proofing.
        with pytest.raises(TransportError):
            decode_open(b"\x41k\x00s\x00p\x00x")
        # A trailing NUL (empty protocol field) is malformed too.
        with pytest.raises(TransportError):
            decode_open(b"\x41k\x00s\x00")

    def test_open_rejects_bad_scenario_tags(self):
        with pytest.raises(TransportError):
            encode_open("k", "")
        with pytest.raises(TransportError):
            encode_open("k", "a\x00b")
        with pytest.raises(TransportError):
            encode_open("a\x00b", "water_tank")
        with pytest.raises(TransportError):
            encode_open("k", "x" * 300)
        # A NUL with nothing after it is a malformed tag, not "no tag".
        with pytest.raises(TransportError):
            decode_open(b"\x41key\x00")


class TestDataRecords:
    def test_roundtrip_write_command(self):
        package = make_package()
        frame = decode_data(encode_data(package, 42))
        assert frame.seq == 42
        assert frame.package == package
        assert frame.rtu.function == 16

    def test_roundtrip_preserves_none_fields(self):
        package = make_package(
            function=3,
            command_response=0,
            setpoint=None,
            gain=None,
            reset_rate=None,
            deadband=None,
            cycle_time=None,
            rate=None,
            pressure_measurement=9.873214,
        )
        assert decode_data(encode_data(package, 0)).package == package

    def test_roundtrip_full_capture_is_lossless(self):
        """Every simulator package — attacks included — survives the wire."""
        dataset = generate_dataset(DatasetConfig(num_cycles=120), seed=11)
        for seq, package in enumerate(dataset.all_packages):
            decoded = decode_data(encode_data(package, seq))
            assert decoded.package == package, f"package {seq} mangled"
            assert decoded.seq == seq

    def test_embedded_rtu_matches_logged_length_on_normal_traffic(self):
        """The rebuilt RTU frame is byte-faithful to the logged length."""
        dataset = generate_dataset(DatasetConfig(num_cycles=60), seed=5)
        normal = [p for p in dataset.all_packages if p.label == 0]
        assert normal
        for package in normal:
            assert rtu_frame_for(package).length == package.length

    def test_corrupt_embedded_frame_raises_crc_error(self):
        pdu = bytearray(encode_data(make_package(), 0))
        pdu[-1] ^= 0x40  # flip a CRC bit of the embedded RTU frame
        with pytest.raises(modbus.CrcError):
            decode_data(bytes(pdu))

    def test_truncated_record_rejected(self):
        pdu = encode_data(make_package(), 0)
        with pytest.raises(TransportError):
            decode_data(pdu[:40])
        with pytest.raises(TransportError):
            decode_data(bytes([KIND_DATA]))

    def test_non_integral_integer_feature_rejected(self):
        pdu = bytearray(encode_data(make_package(), 0))
        # Overwrite the 'function' feature double with 3.5.
        offset = 1 + 4 + 1 + FEATURE_NAMES.index("function") * 8
        pdu[offset : offset + 8] = struct.pack(">d", 3.5)
        with pytest.raises(TransportError):
            decode_data(bytes(pdu))

    @pytest.mark.parametrize("name", ["address", "time"])
    @pytest.mark.parametrize("encode, decode", [
        (encode_data, decode_data),
        (transport.encode_stream_data, transport.decode_stream_data),
    ])
    def test_missing_address_or_time_rejected(self, name, encode, decode):
        """NaN is a missing feature, but the verdict frame needs the
        address and the interval channel the time: without either the
        record is malformed, not a package with ``None`` in it."""
        pdu = bytearray(encode(make_package(), 0))
        offset = 1 + 4 + 1 + FEATURE_NAMES.index(name) * 8
        pdu[offset : offset + 8] = struct.pack(">d", math.nan)
        with pytest.raises(TransportError, match=name):
            decode(bytes(pdu))

    @pytest.mark.parametrize("evil", [float("inf"), float("-inf")])
    def test_infinite_integer_feature_rejected_cleanly(self, evil):
        """±inf in an integer slot must fail as TransportError, not
        escape as OverflowError past the gateway's malformed handling."""
        pdu = bytearray(encode_data(make_package(), 0))
        offset = 1 + 4 + 1 + FEATURE_NAMES.index("address") * 8
        pdu[offset : offset + 8] = struct.pack(">d", evil)
        with pytest.raises(TransportError):
            decode_data(bytes(pdu))

    def test_seq_and_label_range_checked(self):
        with pytest.raises(TransportError):
            encode_data(make_package(), -1)
        with pytest.raises(TransportError):
            encode_data(make_package(label=300), 0)

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(0, 7),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, pressure, label, time):
        package = make_package(
            function=3,
            command_response=0,
            setpoint=None,
            gain=None,
            reset_rate=None,
            deadband=None,
            cycle_time=None,
            rate=None,
            pressure_measurement=pressure,
            time=time,
            label=label,
        )
        decoded = decode_data(encode_data(package, 1)).package
        assert decoded == package
        assert math.isclose(decoded.pressure_measurement, pressure, rel_tol=0.0)
