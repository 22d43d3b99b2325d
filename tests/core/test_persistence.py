"""Tests for the unified persistence layer.

The two headline properties the layer guarantees:

- a trained :class:`CombinedDetector` saved and re-loaded produces
  ``detect()`` output bit-identical to the in-memory original,
- a :class:`StreamEngine` checkpointed mid-stream and resumed produces
  bit-identical verdicts to an uninterrupted run.

Trained detectors store their network weights in float32 and serve in
that dtype; a file holding float64 weights (written before that) loads,
serves and resumes in float64.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.core.bloom import BloomFilter
from repro.core.combined import CombinedDetector, DetectorConfig
from repro.core.discretization import FeatureDiscretizer
from repro.core.signatures import SignatureVocabulary
from repro.core.stream_engine import StreamEngine
from repro.core.timeseries_detector import TimeSeriesDetectorConfig
from repro.ics.dataset import DatasetConfig, generate_dataset
from repro.nn import dense, lstm
from repro.persistence import (
    checkpoint_meta,
    load_checkpoint,
    load_detector,
    save_checkpoint,
    save_detector,
)
from repro.utils import artifact
from repro.utils.artifact import (
    ARTIFACT_VERSION,
    ArtifactError,
    load_artifact,
    read_meta,
    save_artifact,
    state_from_bytes,
    state_to_bytes,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DatasetConfig(num_cycles=200), seed=3)


@pytest.fixture(scope="module")
def detector(dataset):
    trained, _ = CombinedDetector.train(
        dataset.train_fragments,
        dataset.validation_fragments,
        DetectorConfig(
            timeseries=TimeSeriesDetectorConfig(hidden_sizes=(12,), epochs=2)
        ),
        rng=3,
    )
    return trained


class TestArtifactContainer:
    def test_nested_round_trip(self, tmp_path):
        state = {
            "scalar": 3,
            "pi": 0.1 + 0.2,  # not exactly representable; must round-trip
            "flag": True,
            "nothing": None,
            "name": "hello",
            "values": [1, 2.5, "x"],
            "array": np.arange(6, dtype=np.float64).reshape(2, 3),
            "nested": {"deep": {"bits": np.array([1, 0, 1], dtype=np.uint8)}},
        }
        path = tmp_path / "artifact.npz"
        save_artifact(state, path, kind="test")
        restored = load_artifact(path, kind="test")
        assert restored["scalar"] == 3
        assert restored["pi"] == 0.1 + 0.2  # bit-exact
        assert restored["flag"] is True
        assert restored["nothing"] is None
        assert restored["name"] == "hello"
        assert restored["values"] == [1, 2.5, "x"]
        np.testing.assert_array_equal(restored["array"], state["array"])
        np.testing.assert_array_equal(
            restored["nested"]["deep"]["bits"], state["nested"]["deep"]["bits"]
        )

    def test_meta_readable_without_arrays(self, tmp_path):
        path = tmp_path / "artifact.npz"
        save_artifact({"x": np.zeros(4)}, path, kind="test", meta={"seed": 7})
        header = read_meta(path)
        assert header["kind"] == "test"
        assert header["version"] == ARTIFACT_VERSION
        assert header["meta"] == {"seed": 7}

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "artifact.npz"
        save_artifact({"x": 1}, path, kind="one-thing")
        with pytest.raises(ArtifactError, match="expected a 'another'"):
            load_artifact(path, kind="another")

    def test_not_an_artifact(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ArtifactError, match="missing"):
            load_artifact(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "torn.npz"
        save_artifact({"x": np.zeros(64)}, path, kind="test")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError, match="unreadable|missing|corrupt"):
            load_artifact(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "nope.npz")

    def test_slash_keys_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="/-free"):
            save_artifact({"a/b": 1}, tmp_path / "x.npz", kind="test")

    def test_unsupported_leaf_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="unsupported"):
            save_artifact({"f": object()}, tmp_path / "x.npz", kind="test")

    def test_other_schema_version_rejected_on_disk_and_in_memory(
        self, tmp_path, monkeypatch
    ):
        state = {"x": np.arange(3), "name": "old"}
        path = tmp_path / "old.npz"
        with monkeypatch.context() as patch:
            patch.setattr(artifact, "ARTIFACT_VERSION", ARTIFACT_VERSION + 1)
            save_artifact(state, path, kind="test")
            blob = state_to_bytes(state, kind="test")
        assert read_meta(path)["version"] == ARTIFACT_VERSION + 1
        with pytest.raises(ArtifactError, match="schema version"):
            load_artifact(path, kind="test")
        with pytest.raises(ArtifactError, match="schema version"):
            state_from_bytes(blob, kind="test")

    def test_members_are_stored_uncompressed(self, tmp_path):
        path = tmp_path / "artifact.npz"
        save_artifact({"x": np.zeros(64)}, path, kind="test")
        with zipfile.ZipFile(path) as archive:
            kinds = {info.compress_type for info in archive.infolist()}
        assert kinds == {zipfile.ZIP_STORED}

    def test_compressed_detector_and_checkpoint_still_load(
        self, dataset, detector, tmp_path
    ):
        """Containers written with deflated members, as every artifact
        and checkpoint was before members were stored, load to the same
        state and serve the same verdicts."""
        engine = detector.engine(1)
        for package in dataset.test_packages[:20]:
            engine.observe_batch([package])
        stored = {"detector": tmp_path / "detector.npz", "engine": tmp_path / "ckpt.npz"}
        save_detector(detector, stored["detector"])
        save_checkpoint(engine, stored["engine"], meta={"offset": 20})
        deflated = {}
        for name, path in stored.items():
            deflated[name] = tmp_path / f"deflated-{path.name}"
            with np.load(path) as archive:
                members = {key: archive[key] for key in archive.files}
            np.savez_compressed(deflated[name], **members)
            with zipfile.ZipFile(deflated[name]) as archive:
                kinds = {info.compress_type for info in archive.infolist()}
            assert kinds == {zipfile.ZIP_DEFLATED}
        assert checkpoint_meta(deflated["engine"]) == {"offset": 20}
        restored = load_detector(deflated["detector"])
        want = detector.detect(dataset.test_packages)
        got = restored.detect(dataset.test_packages)
        np.testing.assert_array_equal(got.is_anomaly, want.is_anomaly)
        np.testing.assert_array_equal(got.level, want.level)
        resumed = load_checkpoint(deflated["engine"])
        for package in dataset.test_packages[20:60]:
            np.testing.assert_array_equal(
                resumed.observe_batch([package])[0],
                engine.observe_batch([package])[0],
            )
        assert resumed.state_dict()["streams"]["lstm"]["layer0"]["h"].tobytes() == (
            engine.state_dict()["streams"]["lstm"]["layer0"]["h"].tobytes()
        )

    def test_in_memory_container_makes_the_file_checks(self, tmp_path):
        state = {"x": np.arange(3), "nested": {"flag": True}}
        path = tmp_path / "same.npz"
        save_artifact(state, path, kind="test")
        blob = state_to_bytes(state, kind="test")
        for restored in (load_artifact(path, kind="test"), state_from_bytes(blob, "test")):
            np.testing.assert_array_equal(restored["x"], state["x"])
            assert restored["nested"] == {"flag": True}
        with pytest.raises(ArtifactError, match="expected a 'other' artifact"):
            state_from_bytes(blob, kind="other")
        with pytest.raises(ArtifactError):
            state_from_bytes(b"this is not a zip archive")
        with pytest.raises(ArtifactError):
            state_from_bytes(blob[: len(blob) // 2])


class TestComponentRoundTrips:
    def test_discretizer_transform_identical(self, dataset, detector):
        restored = FeatureDiscretizer.from_state(detector.discretizer.state_dict())
        packages = dataset.test_packages[:64]
        assert restored.cardinalities == detector.discretizer.cardinalities
        assert restored.transform_sequence(packages) == (
            detector.discretizer.transform_sequence(packages)
        )

    def test_vocabulary_identical(self, detector):
        vocabulary = detector.vocabulary
        restored = SignatureVocabulary.from_state(vocabulary.state_dict())
        assert restored.signatures == vocabulary.signatures
        assert len(restored) == len(vocabulary)
        for signature in vocabulary.signatures:
            assert restored.id_of(signature) == vocabulary.id_of(signature)
            assert restored.count(signature) == vocabulary.count(signature)

    def test_bloom_state_protocol(self):
        bloom = BloomFilter.for_capacity(64, 0.01)
        bloom.update(f"sig-{i}" for i in range(40))
        restored = BloomFilter.from_state(bloom.state_dict())
        np.testing.assert_array_equal(restored._bits, bloom._bits)
        assert len(restored) == len(bloom)
        assert all(f"sig-{i}" in restored for i in range(40))

    def test_timeseries_keeps_shared_vocabulary(self, detector):
        rebuilt = CombinedDetector.from_state(detector.state_dict())
        assert rebuilt.timeseries.vocabulary is rebuilt.package_detector.vocabulary

    def test_chosen_k_survives(self, detector):
        rebuilt = CombinedDetector.from_state(detector.state_dict())
        assert rebuilt.k == detector.k


class TestDetectorRoundTrip:
    def test_detect_bit_identical(self, dataset, detector, tmp_path):
        path = tmp_path / "detector.npz"
        save_detector(detector, path)
        restored = load_detector(path)
        original = detector.detect(dataset.test_packages)
        loaded = restored.detect(dataset.test_packages)
        np.testing.assert_array_equal(original.is_anomaly, loaded.is_anomaly)
        np.testing.assert_array_equal(original.level, loaded.level)

    def test_memory_footprint_preserved(self, detector, tmp_path):
        path = tmp_path / "detector.npz"
        save_detector(detector, path)
        assert load_detector(path).memory_bytes() == detector.memory_bytes()

    def test_detector_artifact_meta(self, detector, tmp_path):
        path = tmp_path / "detector.npz"
        save_detector(detector, path, meta={"profile": "ci", "seed": 3})
        assert read_meta(path)["meta"] == {"profile": "ci", "seed": 3}

    def test_checkpoint_is_not_a_detector(self, detector, tmp_path):
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(detector.engine(1), path)
        with pytest.raises(ArtifactError, match="combined-detector"):
            load_detector(path)

    def test_corrupted_detector_artifact(self, detector, tmp_path):
        path = tmp_path / "detector.npz"
        state = detector.state_dict()
        del state["timeseries"]["model"]
        save_artifact(state, path, kind="combined-detector")
        with pytest.raises((ArtifactError, KeyError)):
            load_detector(path)


class TestEngineCheckpoint:
    def _streams(self, dataset, num_streams, ticks):
        packages = dataset.test_packages
        return [
            [packages[(i * 31 + t) % len(packages)] for t in range(ticks)]
            for i in range(num_streams)
        ]

    def test_resume_bit_identical_mid_stream(self, dataset, detector, tmp_path):
        ticks, split = 40, 17
        streams = self._streams(dataset, 3, ticks)

        uninterrupted = detector.engine(3)
        expected = [
            uninterrupted.observe_batch([s[t] for s in streams])
            for t in range(ticks)
        ]

        engine = detector.engine(3)
        for t in range(split):
            engine.observe_batch([s[t] for s in streams])
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(engine, path, meta={"offset": split})

        resumed = load_checkpoint(path)
        assert checkpoint_meta(path) == {"offset": split}
        assert resumed.stream_ids == engine.stream_ids
        for t in range(split, ticks):
            verdicts, levels = resumed.observe_batch([s[t] for s in streams])
            np.testing.assert_array_equal(verdicts, expected[t][0])
            np.testing.assert_array_equal(levels, expected[t][1])

    def test_resume_against_preloaded_detector(self, dataset, detector, tmp_path):
        streams = self._streams(dataset, 2, 10)
        engine = detector.engine(2)
        for t in range(5):
            engine.observe_batch([s[t] for s in streams])
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(engine, path)
        resumed = load_checkpoint(path, detector=detector)
        assert resumed.detector is detector
        np.testing.assert_array_equal(
            resumed.observe_batch([s[5] for s in streams])[0],
            engine.observe_batch([s[5] for s in streams])[0],
        )

    def test_checkpoint_preserves_lifecycle(self, dataset, detector, tmp_path):
        engine = detector.engine(2)
        engine.detach(engine.stream_ids[0])
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(engine, path)
        resumed = load_checkpoint(path)
        assert resumed.stream_ids == engine.stream_ids
        # New attachments must not collide with ids handed out pre-checkpoint.
        assert resumed.attach() == 2

    def test_packages_seen_survive(self, dataset, detector, tmp_path):
        streams = self._streams(dataset, 2, 8)
        engine = detector.engine(2)
        for t in range(8):
            engine.observe_batch([s[t] for s in streams])
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(engine, path)
        resumed = load_checkpoint(path)
        for stream_id in engine.stream_ids:
            assert resumed.packages_seen(stream_id) == 8

    def test_corrupt_engine_state_rejected(self, detector):
        engine = detector.engine(2)
        state = engine.state_dict()
        state["stream_ids"] = np.array([0], dtype=np.int64)  # row-count mismatch
        with pytest.raises(ArtifactError, match="disagree"):
            StreamEngine.from_state(detector, state)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("streams/last_probs", np.array(0.5, dtype=np.float32)),
            ("streams/last_probs", np.zeros(2, dtype=np.float32)),
            ("streams/has_probs", np.ones((2, 1), dtype=bool)),
            ("streams/packages_seen", np.ones((2, 1), dtype=np.int64)),
            ("stream_ids", np.array([[0], [1]], dtype=np.int64)),
            ("stream_ids", np.array([[0, 1], [2, 3]], dtype=np.int64)),
            ("prev_times", np.zeros((2, 1))),
            ("prev_known", np.ones((2, 1), dtype=bool)),
        ],
        ids=[
            "last_probs-0d", "last_probs-1d", "has_probs-2d", "packages_seen-2d",
            "stream_ids-column", "stream_ids-2d", "prev_times-2d", "prev_known-2d",
        ],
    )
    def test_state_arrays_of_the_wrong_rank_are_artifact_errors(
        self, dataset, detector, tmp_path, field, value
    ):
        """A well-formed container whose engine state holds an array of
        the wrong rank is refused with a typed error, not a traceback or
        a silent load."""
        engine = detector.engine(2)
        engine.observe_batch(dataset.test_packages[:2])
        state = {"detector": detector.state_dict(), "engine": engine.state_dict()}
        *parents, leaf = field.split("/")
        node = state["engine"]
        for name in parents:
            node = node[name]
        node[leaf] = value
        path = tmp_path / "checkpoint.npz"
        save_artifact(state, path, kind="stream-checkpoint")
        with pytest.raises(ArtifactError, match=f"stored {leaf} has shape"):
            load_checkpoint(path)

    def test_mismatched_detector_rejected_at_load(
        self, dataset, detector, tmp_path
    ):
        """Resuming against the wrong architecture fails at load time."""
        other, _ = CombinedDetector.train(
            dataset.train_fragments,
            dataset.validation_fragments,
            DetectorConfig(
                timeseries=TimeSeriesDetectorConfig(hidden_sizes=(8,), epochs=1)
            ),
            rng=3,
        )
        engine = detector.engine(1)
        engine.observe_batch([dataset.test_packages[0]])
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(engine, path)
        with pytest.raises(ArtifactError, match="architecture"):
            load_checkpoint(path, detector=other)


def engine_state_bytes(engine):
    streams = engine.state_dict()["streams"]
    arrays = [streams["last_probs"]]
    for layer in streams["lstm"].values():
        arrays += [layer["h"], layer["c"]]
    return [(array.dtype, array.tobytes()) for array in arrays]


class TestWeightDtypes:
    def test_trained_weights_are_float32(self, detector):
        params = detector.timeseries.model.parameters()
        assert {array.dtype for array in params.values()} == {np.dtype(np.float32)}
        assert detector.timeseries.memory_bytes() == 4 * sum(
            array.size for array in params.values()
        )

    def test_float64_artifact_and_checkpoint_stay_float64(
        self, dataset, detector, weights_as, tmp_path
    ):
        wide = weights_as(detector, np.float64)
        path = tmp_path / "detector.npz"
        save_detector(wide, path)
        loaded = load_detector(path)
        assert loaded.timeseries.model.dtype == np.float64
        packages = dataset.test_packages
        want = wide.detect(packages)
        got = loaded.detect(packages)
        np.testing.assert_array_equal(got.is_anomaly, want.is_anomaly)
        np.testing.assert_array_equal(got.level, want.level)

        uninterrupted = wide.engine(2)
        engine = loaded.engine(2)
        pairs = [[packages[t], packages[-1 - t]] for t in range(60)]
        for pair in pairs[:25]:
            uninterrupted.observe_batch(pair)
            engine.observe_batch(pair)
        checkpoint = tmp_path / "checkpoint.npz"
        save_checkpoint(engine, checkpoint)
        resumed = load_checkpoint(checkpoint)
        assert resumed.detector.timeseries.model.dtype == np.float64
        for pair in pairs[25:]:
            verdicts, levels = resumed.observe_batch(pair)
            want_verdicts, want_levels = uninterrupted.observe_batch(pair)
            np.testing.assert_array_equal(verdicts, want_verdicts)
            np.testing.assert_array_equal(levels, want_levels)
        assert engine_state_bytes(resumed) == engine_state_bytes(uninterrupted)
        assert {dtype for dtype, _ in engine_state_bytes(resumed)} == {
            np.dtype(np.float64)
        }

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128])
    def test_other_stored_dtypes_are_artifact_errors(self, detector, dtype, tmp_path):
        state = detector.state_dict()
        params = state["timeseries"]["model"]["params"]
        for layer in params.values():
            for name, array in layer.items():
                layer[name] = array.astype(dtype)
        path = tmp_path / "detector.npz"
        save_artifact(state, path, kind="combined-detector")
        with pytest.raises(ArtifactError, match="float32 or float64"):
            load_detector(path)

    def test_mixed_weight_dtypes_are_artifact_errors(self, detector, tmp_path):
        state = detector.state_dict()
        out = state["timeseries"]["model"]["params"]["out"]
        out["W"] = out["W"].astype(np.float64)
        path = tmp_path / "detector.npz"
        save_artifact(state, path, kind="combined-detector")
        with pytest.raises(ArtifactError, match="mix dtypes"):
            load_detector(path)

    def test_shape_checks_hold_without_initial_weights(self, detector, tmp_path):
        state = detector.state_dict()
        params = state["timeseries"]["model"]["params"]
        params["lstm0"]["U"] = params["lstm0"]["U"][:, :-1]
        path = tmp_path / "detector.npz"
        save_artifact(state, path, kind="combined-detector")
        with pytest.raises(ArtifactError, match="shape mismatch for lstm0/U"):
            load_detector(path)
        del params["lstm0"]["U"]
        save_artifact(state, path, kind="combined-detector")
        with pytest.raises(ArtifactError, match="missing parameter 'lstm0/U'"):
            load_detector(path)

    def test_load_draws_no_initial_weights(
        self, dataset, detector, monkeypatch, tmp_path
    ):
        path = tmp_path / "detector.npz"
        save_detector(detector, path)

        def refuse(*args, **kwargs):
            raise AssertionError("a load drew initial weights")

        for module, name in (
            (lstm, "glorot_uniform"),
            (lstm, "orthogonal"),
            (dense, "glorot_uniform"),
        ):
            monkeypatch.setattr(module, name, refuse)
        loaded = load_detector(path)
        packages = dataset.test_packages[:200]
        np.testing.assert_array_equal(
            loaded.detect(packages).level, detector.detect(packages).level
        )
