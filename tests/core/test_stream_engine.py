"""Tests for the batched multi-stream :class:`StreamEngine`.

The load-bearing property is equivalence: a 1-stream engine must be
bit-identical to the paper's Fig.-3 data path as the reference seams of
``test_exactness`` compute it (``ReferenceEngine``), in every verdict,
level and recurrent-state byte, and every stream of an N-stream engine
must report the same verdicts as an independent monitor fed the same
packages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.combined import (
    CombinedDetector,
    DetectorConfig,
    LEVEL_NONE,
    LEVEL_PACKAGE,
    LEVEL_TIMESERIES,
)
from repro.core.stream_engine import StreamEngine
from repro.core.timeseries_detector import BatchStreamState, TimeSeriesDetectorConfig
from repro.ics.dataset import DatasetConfig, generate_dataset
from tests.core.test_exactness import ReferenceEngine, assert_same_state_bytes

TS_CONFIG = TimeSeriesDetectorConfig(hidden_sizes=(16,), epochs=4, k=3)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DatasetConfig(num_cycles=700), seed=5)


@pytest.fixture(scope="module")
def detector(dataset):
    built, _ = CombinedDetector.train(
        dataset.train_fragments,
        dataset.validation_fragments,
        DetectorConfig(timeseries=TS_CONFIG),
        rng=0,
    )
    return built


def reference_observe(detector, packages):
    """One stream's packages as one-row ``ReferenceEngine`` ticks: the
    ``(verdict, level)`` of each, and the reference holding the final
    state."""
    reference = ReferenceEngine(detector, 1)
    results = []
    for package in packages:
        verdicts, levels = reference.tick([0], [package])
        results.append((bool(verdicts[0]), int(levels[0])))
    return results, reference


def tick_results(anomalies, levels):
    return list(zip(anomalies.tolist(), levels.tolist()))


class TestSingleStreamEquivalence:
    def test_n1_bit_identical_to_legacy_path(self, detector, dataset):
        """Engine at N=1 matches the reference path bit-for-bit."""
        packages = dataset.test_packages[:550]
        assert len(packages) >= 500
        expected, reference = reference_observe(detector, packages)

        engine = detector.engine(1)
        got = []
        for package in packages:
            got += tick_results(*engine.observe_batch([package]))
        assert got == expected

        # The recurrent state itself must be bitwise identical, not just
        # the verdicts: any float drift would compound over a long run.
        assert_same_state_bytes(engine, reference)

    def test_stream_monitor_is_engine_backed(self, detector, dataset):
        packages = dataset.test_packages[:200]
        expected, reference = reference_observe(detector, packages)
        monitor = detector.stream()
        got = [monitor.observe(p) for p in packages]
        assert got == expected
        assert_same_state_bytes(monitor._engine, reference)


class TestMultiStream:
    def test_streams_match_independent_monitors(self, detector, dataset):
        count, length = 4, 120
        slices = [
            dataset.test_packages[i * length : (i + 1) * length] for i in range(count)
        ]
        engine = detector.engine(count)
        reference = ReferenceEngine(detector, count)
        per_stream = [[] for _ in range(count)]
        for t in range(length):
            batch = [s[t] for s in slices]
            anomalies, levels = engine.observe_batch(batch)
            want = reference.tick(list(range(count)), batch)
            assert tick_results(anomalies, levels) == tick_results(*want), t
            for i in range(count):
                per_stream[i].append((bool(anomalies[i]), int(levels[i])))
        assert_same_state_bytes(engine, reference)
        for i in range(count):
            expected, _ = reference_observe(detector, slices[i])
            assert per_stream[i] == expected

    def test_levels_consistent_with_verdicts(self, detector, dataset):
        engine = detector.engine(8)
        packages = dataset.test_packages
        for t in range(40):
            batch = [packages[(i * 53 + t) % len(packages)] for i in range(8)]
            anomalies, levels = engine.observe_batch(batch)
            assert anomalies.shape == levels.shape == (8,)
            np.testing.assert_array_equal(levels != LEVEL_NONE, anomalies)
            assert set(np.unique(levels)) <= {
                LEVEL_NONE,
                LEVEL_PACKAGE,
                LEVEL_TIMESERIES,
            }

    def test_batch_size_mismatch_rejected(self, detector, dataset):
        engine = detector.engine(2)
        with pytest.raises(ValueError):
            engine.observe_batch([dataset.test_packages[0]])

    def test_empty_engine_tick(self, detector):
        engine = detector.engine(0)
        anomalies, levels = engine.observe_batch([])
        assert anomalies.shape == (0,)
        assert levels.shape == (0,)


class TestAttachDetach:
    def test_detach_preserves_other_streams(self, detector, dataset):
        """Compacting one row must not disturb the surviving streams."""
        length = 60
        slices = [
            dataset.test_packages[i * length : (i + 1) * length] for i in range(3)
        ]
        engine = detector.engine(3)
        # The reference keeps the detached stream's row and stops
        # ticking it.
        reference = ReferenceEngine(detector, 3)
        first, second, third = engine.stream_ids
        survivors = [[], []]
        for t in range(length // 2):
            batch = [s[t] for s in slices]
            anomalies, levels = engine.observe_batch(batch)
            want = reference.tick([0, 1, 2], batch)
            assert tick_results(anomalies, levels) == tick_results(*want), t
            survivors[0].append((bool(anomalies[0]), int(levels[0])))
            survivors[1].append((bool(anomalies[2]), int(levels[2])))
        engine.detach(second)
        assert engine.stream_ids == (first, third)
        for t in range(length // 2, length):
            batch = [slices[0][t], slices[2][t]]
            anomalies, levels = engine.observe_batch(batch)
            want = reference.tick([0, 2], batch)
            assert tick_results(anomalies, levels) == tick_results(*want), t
            survivors[0].append((bool(anomalies[0]), int(levels[0])))
            survivors[1].append((bool(anomalies[1]), int(levels[1])))
        reference.state = reference.state.select([0, 2])
        assert_same_state_bytes(engine, reference)
        for verdicts, packages in zip(survivors, [slices[0], slices[2]]):
            expected, _ = reference_observe(detector, packages)
            assert verdicts == expected

    def test_attached_stream_starts_fresh(self, detector, dataset):
        packages = dataset.test_packages[:80]
        engine = detector.engine(1)
        # The late stream's reference row is fresh until its first tick.
        reference = ReferenceEngine(detector, 2)
        for package in packages[:40]:
            got = engine.observe_batch([package])
            assert tick_results(*got) == tick_results(*reference.tick([0], [package]))
        late = engine.attach()
        verdicts = []
        for t in range(40):
            batch = [packages[40 + t], packages[t]]
            anomalies, levels = engine.observe_batch(
                {engine.stream_ids[0]: batch[0], late: batch[1]}
            )
            want = reference.tick([0, 1], batch)
            assert tick_results(anomalies, levels) == tick_results(*want), t
            verdicts.append((bool(anomalies[1]), int(levels[1])))
        assert_same_state_bytes(engine, reference)
        expected, _ = reference_observe(detector, packages[:40])
        assert verdicts == expected

    def test_partial_tick_leaves_others_untouched(self, detector, dataset):
        engine = detector.engine(2)
        idle, busy = engine.stream_ids
        for t in range(5):
            is_anomaly, level = engine.observe(busy, dataset.test_packages[t])
            assert isinstance(is_anomaly, bool) and isinstance(level, int)
        assert engine.packages_seen(busy) == 5
        assert engine.packages_seen(idle) == 0

    def test_detach_unknown_stream_rejected(self, detector):
        engine = detector.engine(1)
        with pytest.raises(KeyError):
            engine.detach(999)
        with pytest.raises(KeyError):
            engine.observe(999, None)

    def test_snapshot_hands_stream_off_to_scalar_path(self, detector, dataset):
        """A snapshot row handed to a fresh engine continues bit-identically."""
        packages = dataset.test_packages[:60]
        engine = detector.engine(2)
        stream_id = engine.stream_ids[1]
        for package in packages[:30]:
            engine.observe(stream_id, package)
        state = engine.snapshot(stream_id)
        assert state.batch_size == 1
        assert state.has_probs.tolist() == [True]
        assert state.packages_seen.tolist() == [30]

        handed_off = StreamEngine.from_state(
            detector,
            {
                "stream_ids": np.array([0]),
                "next_id": 1,
                "prev_times": np.array([packages[29].time]),
                "prev_known": np.array([True]),
                "streams": state.state_dict(),
            },
        )
        _, reference = reference_observe(detector, packages[:30])
        for package in packages[30:]:
            stayed = engine.observe(stream_id, package)
            moved = handed_off.observe(0, package)
            want = reference.tick([0], [package])
            assert stayed == moved == (bool(want[0][0]), int(want[1][0]))
        assert_same_state_bytes(handed_off, reference)
        # The engine's idle stream 0 keeps its fresh row.
        reference.state = BatchStreamState.concat(
            [detector.timeseries.new_stream_batch(1), reference.state]
        )
        assert_same_state_bytes(engine, reference)
        # The snapshot is a copy: the engine ran on without touching it.
        assert state.packages_seen.tolist() == [30]

    def test_snapshot_before_first_package_has_no_probs(self, detector):
        engine = detector.engine(1)
        state = engine.snapshot(engine.stream_ids[0])
        assert state.batch_size == 1
        assert not state.has_probs[0]
        assert state.packages_seen.tolist() == [0]

    def test_attach_many_bulk_pads_batch(self, detector):
        engine = StreamEngine(detector)
        ids = engine.attach_many(5)
        assert engine.stream_ids == tuple(ids)
        assert engine.num_streams == 5
        assert engine.attach_many(0) == []
        with pytest.raises(ValueError):
            engine.attach_many(-1)

    def test_stream_ids_are_stable(self, detector):
        engine = StreamEngine(detector)
        first = engine.attach()
        second = engine.attach()
        engine.detach(first)
        third = engine.attach()
        assert first not in engine.stream_ids
        assert engine.stream_ids == (second, third)
        assert len({first, second, third}) == 3


class TestStats:
    def test_counters_track_observed_traffic(self, detector, dataset):
        engine = detector.engine(2)
        packages = dataset.test_packages[:40]
        alerts = 0
        for t in range(20):
            verdicts, levels = engine.observe_batch(
                [packages[2 * t], packages[2 * t + 1]]
            )
            alerts += int(verdicts.sum())
        stats = engine.stats
        assert stats.ticks == 20
        assert stats.packages == 40
        assert stats.alerts == alerts
        assert stats.package_level + stats.timeseries_level == stats.alerts

    def test_counters_survive_checkpoint_resume(self, detector, dataset):
        engine = detector.engine(1)
        for package in dataset.test_packages[:10]:
            engine.observe_batch([package])
        before = engine.stats
        resumed = StreamEngine.from_state(detector, engine.state_dict())
        assert resumed.stats == before
        resumed.observe_batch([dataset.test_packages[10]])
        assert resumed.stats.packages == before.packages + 1

    def test_pre_stats_checkpoints_resume_with_zeroed_counters(
        self, detector, dataset
    ):
        engine = detector.engine(1)
        engine.observe_batch([dataset.test_packages[0]])
        state = engine.state_dict()
        del state["stats"]  # a checkpoint written before the stats schema
        resumed = StreamEngine.from_state(detector, state)
        assert resumed.stats.packages == 0
        # The recurrent state itself still resumes bit-identically.
        verdicts_a, _ = engine.observe_batch([dataset.test_packages[1]])
        verdicts_b, _ = resumed.observe_batch([dataset.test_packages[1]])
        assert np.array_equal(verdicts_a, verdicts_b)
