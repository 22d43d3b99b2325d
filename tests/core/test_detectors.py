"""Tests for the package-level, time-series and combined detectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bloom import BloomFilter
from repro.core.combined import (
    CombinedDetector,
    DetectorConfig,
    LEVEL_NONE,
    LEVEL_PACKAGE,
    LEVEL_TIMESERIES,
    choose_k_from_curve,
)
from repro.core.discretization import FeatureDiscretizer
from repro.core.package_detector import PackageLevelDetector
from repro.core.signatures import SignatureVocabulary, signature_of
from repro.core.timeseries_detector import (
    CodeEncoder,
    TimeSeriesDetector,
    TimeSeriesDetectorConfig,
)
from repro.ics.dataset import DatasetConfig, generate_dataset
from tests.core.test_exactness import ReferenceEngine, assert_same_state_bytes

TS_CONFIG = TimeSeriesDetectorConfig(hidden_sizes=(16,), epochs=4, k=3)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DatasetConfig(num_cycles=700), seed=5)


@pytest.fixture(scope="module")
def trained(dataset):
    config = DetectorConfig(timeseries=TS_CONFIG)
    return CombinedDetector.train(
        dataset.train_fragments, dataset.validation_fragments, config, rng=0
    )


class TestPackageLevelDetector:
    @pytest.fixture(scope="class")
    def fitted(self, dataset):
        discretizer = FeatureDiscretizer(rng=0).fit(dataset.train_fragments)
        return PackageLevelDetector(discretizer).fit(dataset.train_fragments)

    def test_training_data_never_flagged(self, fitted, dataset):
        """Bloom filters have no false negatives: training packages pass."""
        for fragment in dataset.train_fragments[:5]:
            marks = fitted.classify_sequence(fragment)
            assert not marks.any()

    def test_validation_error_low(self, fitted, dataset):
        # The CI-size dataset undersamples the signature space, so the
        # bound here is loose; benchmark-scale runs assert the paper's
        # theta = 0.03 regime.
        error = fitted.validation_error(dataset.validation_fragments)
        assert 0.0 <= error < 0.5

    def test_foreign_address_flagged(self, fitted, dataset):
        package = dataset.train_fragments[0][0].replace(address=99)
        marks = fitted.classify_sequence([package])
        assert marks[0]

    def test_unfitted_raises(self, dataset):
        discretizer = FeatureDiscretizer(rng=0).fit(dataset.train_fragments)
        detector = PackageLevelDetector(discretizer)
        with pytest.raises(RuntimeError):
            detector.classify_sequence(dataset.train_fragments[0])

    def test_fit_empty_rejected(self, fitted):
        with pytest.raises(ValueError):
            PackageLevelDetector(fitted.discretizer).fit([])

    def test_memory_reported(self, fitted):
        assert fitted.memory_bytes() > 0


class TestCodeEncoder:
    def test_one_hot_layout(self):
        encoder = CodeEncoder((3, 4))
        assert encoder.input_size == 8  # 3 + 4 + noise bit
        (row,) = encoder.encode_sequence([(2, 0)], [True])
        np.testing.assert_array_equal(row, [0, 0, 1, 1, 0, 0, 0, 1])

    def test_rejects_out_of_range_codes(self):
        encoder = CodeEncoder((3, 4))
        with pytest.raises(ValueError):
            encoder.encode_sequence([(3, 0)])

    def test_rejects_wrong_channel_count(self):
        encoder = CodeEncoder((3, 4))
        with pytest.raises(ValueError):
            encoder.encode_sequence([(1, 1, 1)])

    def test_empty_sequence(self):
        encoder = CodeEncoder((2, 2))
        assert encoder.encode_sequence([]).shape == (0, 5)


class TestTimeSeriesDetector:
    @pytest.fixture(scope="class")
    def fitted(self, dataset):
        discretizer = FeatureDiscretizer(rng=0).fit(dataset.train_fragments)
        codes = [discretizer.transform_sequence(f) for f in dataset.train_fragments]
        vocab = SignatureVocabulary.from_code_vectors(
            [c for fragment in codes for c in fragment]
        )
        detector = TimeSeriesDetector(vocab, discretizer.cardinalities, TS_CONFIG, rng=0)
        detector.fit(codes)
        return detector, codes

    def test_top_k_errors_monotone(self, fitted):
        detector, codes = fitted
        errors = detector.top_k_errors(codes[:10], [1, 2, 4, 8])
        values = [errors[k] for k in sorted(errors)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_first_package_never_flagged(self, trained, dataset):
        """A stream's first package has no history to be judged by: only
        the package level can flag it."""
        detector, _ = trained
        first = dataset.test_packages[:64]
        anomalies, levels = detector.engine(len(first)).observe_batch(first)
        assert LEVEL_TIMESERIES not in levels.tolist()
        np.testing.assert_array_equal(anomalies, levels == LEVEL_PACKAGE)
        assert not detector.detect(dataset.train_fragments[0][:1]).is_anomaly[0]

    def test_observe_forced_verdict(self, trained, dataset):
        """A Bloom-flagged first package is anomalous at the package
        level, and feeds the history with its noise bit set."""
        detector, _ = trained
        package = dataset.train_fragments[0][0].replace(address=99)
        monitor = detector.stream()
        assert monitor.observe(package) == (True, LEVEL_PACKAGE)
        reference = ReferenceEngine(detector, 1)
        verdicts, levels = reference.tick([0], [package])
        assert verdicts.tolist() == [True] and levels.tolist() == [LEVEL_PACKAGE]
        assert_same_state_bytes(monitor._engine, reference)

    def test_classify_sequence_shape(self, trained, dataset):
        detector, _ = trained
        result = detector.detect(dataset.train_fragments[0][:20])
        assert result.is_anomaly.shape == result.level.shape == (20,)

    def test_unseen_signature_flagged_after_warmup(self, trained, dataset):
        """A signature outside the vocabulary that the Bloom filter lets
        through is flagged at the time-series level once the stream has
        a history."""
        detector, _ = trained
        packages = list(dataset.train_fragments[0][:5])
        packages.append(dataset.train_fragments[0][5].replace(address=99))
        codes = detector.discretizer.transform_sequence(packages)
        alien = signature_of(codes[-1])
        assert alien not in detector.vocabulary
        assert detector.detect(packages).level[-1] == LEVEL_PACKAGE

        original = detector.package_detector.bloom
        bloom = BloomFilter(original.num_bits, original.num_hashes)
        bloom.update([*detector.vocabulary.signatures, alien])
        state = detector.state_dict()
        state["package_detector"]["bloom"] = bloom.state_dict()
        result = CombinedDetector.from_state(state).detect(packages)
        assert result.is_anomaly[-1]
        assert result.level[-1] == LEVEL_TIMESERIES

    def test_requires_vocabulary_of_two(self, fitted):
        vocab = SignatureVocabulary()
        vocab.add("only")
        with pytest.raises(ValueError):
            TimeSeriesDetector(vocab, (3, 3), TS_CONFIG)

    def test_training_rejects_out_of_vocab_targets(self, fitted):
        detector, codes = fitted
        cardinalities = detector.encoder.cardinalities
        alien = tuple(c - 1 for c in cardinalities)
        with pytest.raises(ValueError):
            detector.fit([[alien, alien, alien]])


class TestCombinedDetector:
    def test_training_artifacts(self, trained):
        detector, artifacts = trained
        assert artifacts.vocabulary_size == len(detector.vocabulary)
        assert 1 <= artifacts.chosen_k <= 10
        assert artifacts.package_validation_error < 0.5
        assert artifacts.timeseries_report.history.losses

    def test_detect_shapes_and_levels(self, trained, dataset):
        detector, _ = trained
        result = detector.detect(dataset.test_packages[:400])
        assert len(result) == 400
        assert set(np.unique(result.level)) <= {
            LEVEL_NONE,
            LEVEL_PACKAGE,
            LEVEL_TIMESERIES,
        }
        # Levels are consistent with verdicts.
        assert np.all((result.level != LEVEL_NONE) == result.is_anomaly)

    def test_streaming_matches_batch(self, trained, dataset):
        detector, _ = trained
        packages = dataset.test_packages[:150]
        batch = detector.detect(packages)
        monitor = detector.stream()
        for i, package in enumerate(packages):
            verdict, _ = monitor.observe(package)
            assert verdict == batch.is_anomaly[i]

    def test_detects_some_attacks(self, trained, dataset):
        detector, _ = trained
        result = detector.detect(dataset.test_packages)
        labels = np.array([p.label for p in dataset.test_packages])
        attack_recall = result.is_anomaly[labels != 0].mean()
        assert attack_recall > 0.5

    def test_k_setter_validated(self, trained):
        detector, _ = trained
        with pytest.raises(ValueError):
            detector.k = 0
        detector.k = 5
        assert detector.k == 5

    def test_memory_accounting(self, trained):
        detector, _ = trained
        assert detector.memory_bytes() > 1000

    def test_signature_inspection(self, trained, dataset):
        detector, _ = trained
        signature = detector.signature_of_package(dataset.test_packages[0])
        assert "|" in signature

    def test_train_requires_fragments(self, dataset):
        with pytest.raises(ValueError):
            CombinedDetector.train([], dataset.validation_fragments)
        with pytest.raises(ValueError):
            CombinedDetector.train(dataset.train_fragments, [])


class TestChooseKFromCurve:
    def test_picks_smallest_below_theta(self):
        curve = {1: 0.4, 2: 0.1, 3: 0.04, 4: 0.01}
        assert choose_k_from_curve(curve, 0.05) == 3

    def test_falls_back_to_max(self):
        curve = {1: 0.5, 2: 0.4}
        assert choose_k_from_curve(curve, 0.05) == 2
