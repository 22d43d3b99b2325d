"""Protocol adapters: framing, resync, negotiation and adversarial decode.

Every dialect must satisfy one conformance contract: lossless PDU
round-trips, byte-at-a-time and arbitrarily-chunked feeding, recovery
after line garbage, and — for the checksummed framings — rejection of
*every* single-bit corruption.  The suite is parametrized over all
registered adapters so a new dialect inherits the whole battery.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ics.features import FEATURE_NAMES, Package
from repro.serve.protocols import (
    DNP3,
    IEC104,
    MODBUS,
    PROTOCOL_NAMES,
    SNIFF_ORDER,
    ProtocolSniffer,
    crc16_dnp,
    get_adapter,
)
from repro.serve.transport import (
    KIND_DATA,
    KIND_OPEN,
    KIND_VERDICT,
    TransportError,
    decode_stream_data,
    encode_stream_data,
)

ALL = [get_adapter(name) for name in PROTOCOL_NAMES]
FRAMED = [IEC104, DNP3]  # dialects with checksummed link layers


def make_package(**overrides) -> Package:
    base = dict(
        address=13,
        crc_rate=0.002,
        function=3,
        length=29,
        setpoint=2.0,
        gain=0.4,
        reset_rate=0.02,
        deadband=0.5,
        cycle_time=1.0,
        rate=0.2,
        system_mode=2,
        control_scheme=0,
        pump=1,
        solenoid=0,
        pressure_measurement=2.31,
        command_response=0,
        time=1.5,
        label=0,
    )
    base.update(overrides)
    return Package(**base)


def crc16_dnp_bitwise(data: bytes) -> int:
    """Reference CRC-16/DNP: eight shift-and-xor steps per byte."""
    crc = 0x0000
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xA6BC if crc & 1 else crc >> 1
    return crc ^ 0xFFFF


class TestCrc16Dnp:
    def test_standard_check_value(self):
        assert crc16_dnp(b"123456789") == 0xEA82
        assert crc16_dnp_bitwise(b"123456789") == 0xEA82

    @settings(max_examples=500)
    @given(st.binary(max_size=300))
    def test_table_matches_bit_loop(self, data):
        assert crc16_dnp(data) == crc16_dnp_bitwise(data)

    def test_table_matches_bit_loop_on_every_byte(self):
        for value in range(256):
            for prefix in (b"", b"\x00", b"\xff\x64"):
                data = prefix + bytes([value])
                assert crc16_dnp(data) == crc16_dnp_bitwise(data)

    def test_detects_any_single_bit_flip(self):
        data = bytearray(b"\x00\x01\x02\x03hello")
        reference = crc16_dnp(bytes(data))
        for i in range(len(data) * 8):
            flipped = bytearray(data)
            flipped[i // 8] ^= 1 << (i % 8)
            assert crc16_dnp(bytes(flipped)) != reference


class TestRegistryLookup:
    def test_known_names(self):
        assert PROTOCOL_NAMES == ("dnp3", "iec104", "modbus")
        assert set(SNIFF_ORDER) == set(PROTOCOL_NAMES)
        for name in PROTOCOL_NAMES:
            assert get_adapter(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            get_adapter("profibus")


@pytest.mark.parametrize("adapter", ALL, ids=lambda a: a.name)
class TestAdapterConformance:
    def test_control_pdu_roundtrips(self, adapter):
        decoder = adapter.decoder()
        wire = (
            adapter.frame_open("site-9", "water_tank")
            + adapter.frame_open_ack(7, 1234)
            + adapter.frame_verdict(42, True, 2, unit_id=13)
            + adapter.frame_error("boom")
        )
        frames = decoder.feed(wire)
        assert len(frames) == 4
        key, scenario, protocol = adapter.decode_open(frames[0].pdu)
        assert (key, scenario) == ("site-9", "water_tank")
        # Non-Modbus streams self-describe their dialect in the OPEN.
        assert protocol == (None if adapter is MODBUS else adapter.name)
        assert adapter.decode_open_ack(frames[1].pdu) == (7, 1234)
        assert adapter.decode_verdict(frames[2].pdu) == (42, True, 2)
        assert adapter.decode_error(frames[3].pdu) == "boom"
        assert decoder.bytes_discarded == 0
        assert decoder.resyncs == 0

    def test_data_roundtrip_preserves_package_and_aux(self, adapter):
        package = make_package(aux=(19.25, 0.5))
        wire = adapter.frame_data(package, 77)
        frames = adapter.decoder().feed(wire)
        assert len(frames) == 1
        assert frames[0].kind == KIND_DATA
        data = adapter.decode_data(frames[0].pdu)
        assert data.seq == 77
        assert data.package.to_row() == package.to_row()
        assert data.package.aux == (19.25, 0.5)

    def test_byte_at_a_time_feeding(self, adapter):
        wire = b"".join(
            adapter.frame_verdict(i, bool(i % 2), i % 3) for i in range(5)
        )
        decoder = adapter.decoder()
        frames = []
        for i in range(len(wire)):
            frames.extend(decoder.feed(wire[i : i + 1]))
        assert [adapter.decode_verdict(f.pdu)[0] for f in frames] == list(range(5))
        assert decoder.bytes_discarded == 0

    @given(cuts=st.lists(st.integers(0, 500), min_size=0, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_any_chunking_yields_same_frames(self, adapter, cuts):
        wire = b"".join(adapter.frame_verdict(i, True, 1) for i in range(3))
        decoder = adapter.decoder()
        frames = []
        position = 0
        for cut in sorted(c % (len(wire) + 1) for c in cuts):
            frames.extend(decoder.feed(wire[position:cut]))
            position = cut
        frames.extend(decoder.feed(wire[position:]))
        assert [adapter.decode_verdict(f.pdu)[0] for f in frames] == [0, 1, 2]
        assert decoder.bytes_discarded == 0

    def test_resync_after_garbage_and_counter_semantics(self, adapter):
        good = adapter.frame_open("k")
        noise = b"\xff" * 23
        decoder = adapter.decoder()
        frames = decoder.feed(noise + good + noise + good)
        assert len(frames) == 2
        assert all(adapter.decode_open(f.pdu)[0] == "k" for f in frames)
        assert decoder.bytes_discarded == len(noise) * 2
        # Two separate noise *runs* = exactly two sync-loss events.
        assert decoder.resyncs == 2

    def test_every_prefix_truncation_then_completion(self, adapter):
        # Cutting a frame at every possible byte boundary must never
        # desynchronize the decoder: the remainder completes the frame.
        whole = adapter.frame_verdict(99, True, 1)
        for cut in range(len(whole) + 1):
            decoder = adapter.decoder()
            frames = decoder.feed(whole[:cut])
            frames += decoder.feed(whole[cut:])
            assert len(frames) == 1, f"cut at {cut}"
            assert adapter.decode_verdict(frames[0].pdu) == (99, True, 1)
            assert decoder.bytes_discarded == 0

    def test_sniffer_locks_onto_own_frames(self, adapter):
        sniffer = ProtocolSniffer()
        assert sniffer.adapter is None
        frames = sniffer.feed(adapter.frame_open("site"))
        assert sniffer.adapter is adapter
        assert [adapter.decode_open(f.pdu)[0] for f in frames] == ["site"]

    def test_sniffer_sheds_leading_garbage(self, adapter):
        sniffer = ProtocolSniffer()
        wire = b"\xff\x00\xfe" + adapter.frame_open("site")
        frames = sniffer.feed(wire)
        assert sniffer.adapter is adapter
        assert sniffer.bytes_discarded == 3
        assert sniffer.resyncs == 0  # junk before the first frame
        # The sniffer is the connection's decoder: no byte is lost.
        assert adapter.decode_open(frames[0].pdu)[0] == "site"
        frames = sniffer.feed(adapter.frame_verdict(4, True, 1))
        assert [adapter.decode_verdict(f.pdu) for f in frames] == [(4, True, 1)]

    @given(
        junk=st.integers(0, 40),
        noise_every=st.integers(0, 4),
        cuts=st.lists(st.integers(0, 2000), max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_sniffer_decodes_like_the_dialect_decoder(
        self, adapter, junk, noise_every, cuts
    ):
        """Idle-line junk, an OPEN, then DATA frames with 0xFF noise in
        between, cut anywhere: the sniffer yields the dialect decoder's
        frames and counters, less the resync its leading junk costs."""
        wire = b"\xff" * junk + adapter.frame_open("site")
        for seq in range(6):
            if noise_every and seq % noise_every == 0:
                wire += b"\xff" * 9
            wire += adapter.frame_data(make_package(time=float(seq)), seq)
        reference = adapter.decoder()
        expected = reference.feed(wire)
        sniffer = ProtocolSniffer()
        frames, position = [], 0
        for cut in sorted(c % (len(wire) + 1) for c in cuts) + [len(wire)]:
            frames.extend(sniffer.feed(wire[position:cut]))
            position = cut
        assert sniffer.adapter is adapter
        assert [f.pdu for f in frames] == [f.pdu for f in expected]
        assert sniffer.frames_decoded == reference.frames_decoded == 7
        assert sniffer.bytes_discarded == reference.bytes_discarded
        assert sniffer.resyncs == reference.resyncs - (1 if junk else 0)


@pytest.mark.parametrize("adapter", FRAMED, ids=lambda a: a.name)
class TestChecksummedFraming:
    def test_exhaustive_single_bit_flip_never_decodes(self, adapter):
        # Flip every bit of a framed DATA record, one at a time: the
        # decoder must never hand a corrupted frame upstream as valid.
        package = make_package(aux=(20.0,))
        whole = bytearray(adapter.frame_data(package, 5))
        reference = adapter.decoder().feed(bytes(whole))[0].pdu
        for i in range(len(whole) * 8):
            mutated = bytearray(whole)
            mutated[i // 8] ^= 1 << (i % 8)
            decoder = adapter.decoder()
            for frame in decoder.feed(bytes(mutated)):
                # A frame surviving a flip may only be the original if
                # the flip landed outside what the framing protects —
                # which for these dialects is nothing.
                assert frame.pdu != reference, f"bit {i} undetected"

    def test_flipped_frame_does_not_poison_the_stream(self, adapter):
        good = adapter.frame_verdict(3, False, 0)
        corrupted = bytearray(adapter.frame_verdict(2, True, 1))
        corrupted[-3] ^= 0x10  # damage the body/trailer
        decoder = adapter.decoder()
        frames = decoder.feed(bytes(corrupted) + good)
        assert [adapter.decode_verdict(f.pdu) for f in frames] == [(3, False, 0)]
        assert decoder.resyncs >= 1

    def test_oversized_pdu_refused_at_framing(self, adapter):
        with pytest.raises(TransportError):
            adapter._frame(b"\x41" + bytes(5000))
        with pytest.raises(TransportError):
            adapter._frame(b"")


class TestStreamDataRecord:
    def test_roundtrip_without_aux(self):
        package = make_package()
        seq, decoded = (lambda d: (d.seq, d.package))(
            decode_stream_data(encode_stream_data(package, 9))
        )
        assert seq == 9
        assert decoded.to_row() == package.to_row()
        assert decoded.aux == ()

    def test_aux_is_exact_float64(self):
        package = make_package(aux=(0.1, 1e-9, 12345.6789))
        decoded = decode_stream_data(encode_stream_data(package, 0)).package
        assert decoded.aux == (0.1, 1e-9, 12345.6789)

    def test_rejects_trailing_or_missing_bytes(self):
        pdu = encode_stream_data(make_package(aux=(1.0,)), 4)
        with pytest.raises(TransportError):
            decode_stream_data(pdu + b"\x00")
        with pytest.raises(TransportError):
            decode_stream_data(pdu[:-1])

    def test_rejects_wrong_kind_and_nonfinite_aux(self):
        with pytest.raises(TransportError):
            decode_stream_data(b"\x41nope")
        with pytest.raises(TransportError):
            encode_stream_data(make_package(aux=(float("nan"),)), 0)
        with pytest.raises(TransportError):
            encode_stream_data(make_package(aux=tuple([1.0] * 33)), 0)


class TestSniffDisambiguation:
    def test_modbus_txid_0x0564_is_not_dnp3(self):
        # An MBAP header whose transaction id equals the DNP3 magic must
        # still sniff as Modbus (the DNP3 parse reads MBAP's zero
        # protocol-id field as an invalid length).
        from repro.serve.transport import encode_open, wrap_pdu

        wire = wrap_pdu(encode_open("k"), transaction_id=0x0564)
        sniffer = ProtocolSniffer()
        assert len(sniffer.feed(wire)) == 1
        assert sniffer.adapter is MODBUS

    def test_sniffer_respects_protocol_allowlist(self):
        wire = DNP3.frame_open("k")
        sniffer = ProtocolSniffer(protocols=("modbus", "iec104"))
        # DNP3 frames are just garbage to a gateway not accepting dnp3.
        assert sniffer.feed(wire) == []
        assert sniffer.adapter is None
        assert sniffer.bytes_discarded > 0
        assert len(sniffer.feed(IEC104.frame_open("k"))) == 1
        assert sniffer.adapter is IEC104

    def test_sniffer_rejects_unknown_protocol_names(self):
        with pytest.raises(KeyError, match="unknown protocols"):
            ProtocolSniffer(protocols=("modbus", "profibus"))

    def test_iec104_header_is_not_modbus(self):
        wire = IEC104.frame_open("k")
        assert MODBUS.decoder().feed(wire) == []
        sniffer = ProtocolSniffer()
        assert len(sniffer.feed(wire)) == 1
        assert sniffer.adapter is IEC104

    @pytest.mark.parametrize(
        "fake,real",
        [(fake, real) for fake in FRAMED for real in ALL if fake is not real],
        ids=lambda a: a.name,
    )
    def test_checksummed_foreign_head_does_not_capture_the_stream(
        self, fake, real
    ):
        """A foreign checksummed dialect's header in front of the real
        OPEN wins only if its whole frame checks out, so a damaged one
        is shed as junk and the connection locks onto its own dialect."""
        damaged = bytearray(fake.frame_open("ghost"))
        damaged[-3] ^= 0x01  # a body byte: the checksum no longer holds
        wire = bytes(damaged) + real.frame_open("site")
        wire += b"".join(real.frame_verdict(i, False, 0) for i in range(400))
        sniffer = ProtocolSniffer()
        frames = sniffer.feed(wire)
        assert sniffer.adapter is real
        assert real.decode_open(frames[0].pdu)[0] == "site"
        assert len(frames) == 401
        assert sniffer.bytes_discarded == len(damaged)
        assert sniffer.resyncs == 0

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_random_garbage_never_crashes_the_sniffer(self, junk):
        sniffer = ProtocolSniffer()
        sniffer.feed(junk)
        # Whatever the junk, a real frame stream afterwards still locks
        # on once every frame the junk's head claims can be complete.
        if sniffer.adapter is None:
            sniffer.feed(DNP3.frame_open("k") * 320)
            assert sniffer.adapter is not None


class TestModbusBitIdentity:
    """The reference adapter must equal the legacy hardwired framing."""

    def test_open_matches_legacy_wire_format(self):
        from repro.serve.transport import encode_open, wrap_pdu

        assert MODBUS.frame_open("site-7") == wrap_pdu(
            encode_open("site-7"), transaction_id=1
        )
        assert MODBUS.frame_open("s", "water_tank") == wrap_pdu(
            encode_open("s", "water_tank"), transaction_id=1
        )

    def test_data_matches_legacy_wire_format(self):
        from repro.serve.transport import encode_data, wrap_pdu

        package = make_package()
        for seq in (0, 1, 0xFFFE, 0xFFFF, 123456):
            assert MODBUS.frame_data(package, seq) == wrap_pdu(
                encode_data(package, seq),
                transaction_id=(seq % 0xFFFF) + 1,
                unit_id=package.address & 0xFF,
            )

    def test_verdict_and_error_match_legacy_wire_format(self):
        from repro.serve.transport import encode_error, encode_verdict, wrap_pdu

        assert MODBUS.frame_verdict(9, True, 2, unit_id=13) == wrap_pdu(
            encode_verdict(9, True, 2), transaction_id=10, unit_id=13
        )
        assert MODBUS.frame_error("bad") == wrap_pdu(
            encode_error("bad"), transaction_id=0
        )
