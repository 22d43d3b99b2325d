"""One gateway checkpoint format, read back from every layout.

- Files of the old single-detector kind (``gateway-checkpoint``) still
  resume, in both worker modes, at the right offsets and dialects.
- Gateways of more than ten shards resume.
- Damaged checkpoint files (truncated, single-bit flips, missing keys)
  either load or raise :class:`ArtifactError`, whatever the layout.
- A seq base the OPEN_ACK's unsigned 32-bit resume offset cannot carry
  is an :class:`ArtifactError` at load.
- A single-model gateway's provenance survives a resume that names no
  model.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.obs import Historian
from repro.persistence import (
    SINGLE_LABEL,
    RouteBinding,
    load_gateway_checkpoint,
    save_gateway_checkpoint,
)
from repro.registry import ModelRegistry
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient
from repro.utils.artifact import ArtifactError, load_artifact, read_meta, save_artifact


def replay(handle, key, capture, **kwargs):
    host, port = handle.address
    result = ReplayClient(host, port, stream_key=key, **kwargs).replay(capture)
    assert result.complete
    return result


def write_old_single_layout(path, detector, capture, prefixes, protocols):
    """The single-detector layout written before single-model gateways
    became one-route gateways: one engine per shard, one stream per
    shard here.  Returns each stream's verdicts over its prefix."""
    engines, first = [], {}
    for key, prefix in prefixes.items():
        engine = detector.engine(0)
        stream_id = engine.attach()
        verdicts = [
            engine.observe_batch({stream_id: package})[0][0]
            for package in capture[:prefix]
        ]
        first[key] = np.array(verdicts, dtype=bool)
        engines.append((engine, stream_id))
    keys = sorted(prefixes)
    state = {
        "detector": detector.state_dict(),
        "num_shards": len(engines),
        "shards": {str(i): engine.state_dict() for i, (engine, _) in enumerate(engines)},
        "binding_shards": np.arange(len(keys), dtype=np.int64),
        "binding_streams": np.array([sid for _, sid in engines], dtype=np.int64),
    }
    meta = {
        "processed": sum(prefixes.values()),
        "routes": {
            key: {"scenario": None, "version": None, "protocol": protocols[key]}
            for key in keys
        },
        "transport": {},
        "stream_keys": keys,
    }
    save_artifact(state, path, kind="gateway-checkpoint", meta=meta)
    return first


class TestOldSingleDetectorLayout:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_old_file_resumes_in_both_modes(self, mode, detector, capture, tmp_path):
        path = tmp_path / "old.npz"
        prefixes = {"a": 50, "b": 30}
        protocols = {"a": "modbus", "b": "dnp3"}
        first = write_old_single_layout(path, detector, capture, prefixes, protocols)
        offline = detector.detect(capture)

        gateway = DetectionGateway.from_checkpoint(
            str(path), GatewayConfig(worker_mode=mode)
        )
        routes = gateway.stats()["routes"]
        for key, prefix in prefixes.items():
            assert routes[key]["protocol"] == protocols[key]
            assert routes[key]["packages"] == prefix
            assert routes[key]["seq_base"] == 0
        handle = start_in_thread(None, gateway=gateway)
        try:
            for key, prefix in prefixes.items():
                second = replay(handle, key, capture, protocol=protocols[key])
                assert second.start == prefix
                stitched = np.concatenate([first[key], second.anomalies])
                assert np.array_equal(stitched, offline.is_anomaly), key
            assert handle.stats()["streams"] == 2
        finally:
            handle.stop()


def test_eleven_or_more_shards_round_trip(detector, tmp_path):
    """Shard names sort as strings ("10" < "2"); the loader must not care."""
    path = tmp_path / "wide.npz"
    engines = [detector.engine(1) for _ in range(12)]
    save_gateway_checkpoint(
        path,
        [{SINGLE_LABEL: engine.state_dict()} for engine in engines],
        {"k": RouteBinding(11, None, None, engines[11].stream_ids[0])},
        detector=detector,
    )
    restored = load_gateway_checkpoint(path)
    assert len(restored.pools) == 12
    assert restored.bindings["k"].shard == 11


# ----------------------------------------------------------------------
# damaged files
# ----------------------------------------------------------------------


def damaged_copies(blob, seed, flips=200, truncations=50):
    """Seeded ``(truncated, bytes)`` copies of ``blob``: single-bit
    flips, then cuts."""
    rng = random.Random(seed)
    for _ in range(flips):
        bit = rng.randrange(len(blob) * 8)
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        yield False, bytes(damaged)
    for size in rng.sample(range(len(blob)), truncations):
        yield True, blob[:size]


def drop_key(path, out, key):
    """A header-valid copy of the checkpoint at ``path`` without ``key``."""
    header = read_meta(path)
    state = load_artifact(path, kind=header["kind"])
    del state[key]
    save_artifact(state, out, kind=header["kind"], meta=header["meta"])


class TestCheckpointDamage:
    @pytest.fixture()
    def layouts(self, tmp_path, detector, capture, scenario_detectors):
        """One small checkpoint per layout, with the loader for each."""
        single = tmp_path / "single.npz"
        handle = start_in_thread(detector, GatewayConfig(checkpoint_path=str(single)))
        try:
            replay(handle, "a", capture[:20])
        finally:
            handle.stop()

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(scenario_detectors["gas_pipeline"], "gas_pipeline")
        routed = tmp_path / "routed.npz"
        gateway = DetectionGateway(
            config=GatewayConfig(
                checkpoint_path=str(routed), registry_poll_seconds=0
            ),
            registry=registry,
        )
        handle = start_in_thread(None, gateway=gateway)
        try:
            replay(handle, "a", capture[:20], scenario="gas_pipeline")
        finally:
            handle.stop()

        old = tmp_path / "old.npz"
        write_old_single_layout(old, detector, capture, {"a": 20}, {"a": "iec104"})
        return {
            "single": (single, {}),
            "routed": (routed, {"registry": registry}),
            "old-single": (old, {}),
        }

    def test_every_damaged_copy_loads_or_raises_artifact_error(
        self, layouts, tmp_path
    ):
        for seed, (name, (path, kwargs)) in enumerate(layouts.items()):
            DetectionGateway.from_checkpoint(str(path), **kwargs)  # intact
            bad = tmp_path / f"bad-{name}.npz"
            for truncated, damaged in damaged_copies(path.read_bytes(), seed):
                bad.write_bytes(damaged)
                try:
                    DetectionGateway.from_checkpoint(str(bad), **kwargs)
                except ArtifactError:
                    continue
                # Flips in fields the zip reader ignores load intact
                # state (members are CRC-checked); a cut never does.
                assert not truncated, (name, len(damaged))

    @pytest.mark.parametrize(
        "layout,key",
        [
            ("single", "detector"),
            ("single", "binding_seq_bases"),
            ("routed", "shards"),
            ("routed", "binding_streams"),
            ("old-single", "detector"),
            ("old-single", "num_shards"),
        ],
    )
    def test_missing_key_is_an_artifact_error(self, layouts, layout, key, tmp_path):
        path, kwargs = layouts[layout]
        bad = tmp_path / "missing.npz"
        drop_key(path, bad, key)
        with pytest.raises(ArtifactError):
            DetectionGateway.from_checkpoint(str(bad), **kwargs)


# ----------------------------------------------------------------------
# resume offsets on the wire
# ----------------------------------------------------------------------


class TestResumeOffsets:
    """A stream resumes at ``seq_base + packages_seen``, which its next
    OPEN_ACK carries in an unsigned 32-bit field."""

    def checkpoint(self, detector, capture, tmp_path, seq_base):
        """A one-stream gateway checkpoint, 20 packages in, whose binding
        holds ``seq_base`` (written past the saver, which refuses a
        negative one)."""
        engine = detector.engine(1)
        engine.observe_stream(engine.stream_ids[0], capture[:20])
        path = tmp_path / "gw.npz"
        binding = RouteBinding(0, None, None, engine.stream_ids[0])
        save_gateway_checkpoint(
            path, [{SINGLE_LABEL: engine.state_dict()}], {"a": binding},
            detector=detector,
        )
        header = read_meta(path)
        state = load_artifact(path, kind=header["kind"])
        state["binding_seq_bases"] = np.array([seq_base], dtype=np.int64)
        save_artifact(state, path, kind=header["kind"], meta=header["meta"])
        return path

    @pytest.mark.parametrize(
        "seq_base", [-50, 2**32 - 20], ids=["negative", "offset-past-u32"]
    )
    def test_offsets_the_open_ack_cannot_carry_are_artifact_errors(
        self, detector, capture, tmp_path, seq_base
    ):
        path = self.checkpoint(detector, capture, tmp_path, seq_base)
        with pytest.raises(ArtifactError, match="resumes at offset"):
            DetectionGateway.from_checkpoint(str(path))

    def test_the_largest_offset_loads(self, detector, capture, tmp_path):
        path = self.checkpoint(detector, capture, tmp_path, 2**32 - 21)
        restored = load_gateway_checkpoint(path)
        assert restored.bindings["a"].seq_base == 2**32 - 21


# ----------------------------------------------------------------------
# single-model provenance
# ----------------------------------------------------------------------


class TestModelProvenance:
    def test_resume_without_model_info_keeps_the_scenario(
        self, detector, capture, tmp_path
    ):
        path = tmp_path / "gw.npz"
        historian = Historian(tmp_path / "hist")
        try:
            handle = start_in_thread(
                None,
                gateway=DetectionGateway(
                    detector,
                    GatewayConfig(checkpoint_path=str(path)),
                    model_info={"scenario": "gas_pipeline"},
                    historian=historian,
                ),
            )
            try:
                assert replay(handle, "plant", capture[:60]).judged == 60
            finally:
                handle.stop()

            gateway = DetectionGateway.from_checkpoint(
                str(path), historian=historian
            )
            handle = start_in_thread(None, gateway=gateway)
            try:
                assert replay(handle, "plant", capture).start == 60
                stats = handle.stats()
            finally:
                handle.stop()
            assert stats["routes"]["plant"]["scenario"] == "gas_pipeline"
            assert stats["model"] == {"scenario": "gas_pipeline"}
            records = historian.query(stream_key="plant")
            assert len(records) == len(capture)
            assert {record.scenario for record in records} == {"gas_pipeline"}

            # A caller's model_info still wins over the checkpointed one.
            override = DetectionGateway.from_checkpoint(
                str(path), model_info={"scenario": "water_tank"}
            )
            assert override.stats()["routes"]["plant"]["scenario"] == "water_tank"
        finally:
            historian.close()
