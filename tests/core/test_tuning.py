"""Tests for granularity search (Fig 5) and choosing k (Fig 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.combined import DetectorConfig, choose_k_from_curve
from repro.core.discretization import FeatureDiscretizer
from repro.core.signatures import SignatureVocabulary
from repro.core.timeseries_detector import TimeSeriesDetector, TimeSeriesDetectorConfig
from repro.core.tuning import granularity_search
from repro.ics.dataset import DatasetConfig, generate_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DatasetConfig(num_cycles=600), seed=11)


class TestGranularitySearch:
    @pytest.fixture(scope="class")
    def result(self, dataset):
        return granularity_search(
            dataset.train_fragments,
            dataset.validation_fragments,
            pressure_grid=(5, 10, 20),
            setpoint_grid=(5, 10),
            theta=0.2,
            rng=0,
        )

    def test_grid_shape(self, result):
        assert result.errors.shape == (3, 2)
        assert result.pressure_grid == (5, 10, 20)
        assert result.setpoint_grid == (5, 10)

    def test_errors_in_unit_interval(self, result):
        assert np.all(result.errors >= 0.0)
        assert np.all(result.errors <= 1.0)

    def test_error_weakly_increases_with_granularity(self, result):
        # Finer partitions can only split signatures further.
        column = result.errors[:, 0]
        assert column[-1] >= column[0] - 1e-9

    def test_best_point_feasible_when_possible(self, result):
        if np.any(result.errors < result.theta):
            assert (
                result.error_at(result.best_pressure_bins, result.best_setpoint_bins)
                < result.theta
            )

    def test_best_maximizes_weighted_granularity(self, dataset):
        result = granularity_search(
            dataset.train_fragments,
            dataset.validation_fragments,
            pressure_grid=(5, 10),
            setpoint_grid=(5,),
            theta=0.99,  # everything feasible
            rng=0,
        )
        assert result.best_pressure_bins == 10  # finest feasible wins

    def test_as_rows(self, result):
        rows = result.as_rows()
        assert len(rows) == 6
        assert all(len(r) == 3 for r in rows)

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            granularity_search(
                dataset.train_fragments,
                dataset.validation_fragments,
                theta=0.0,
            )
        with pytest.raises(ValueError):
            granularity_search(
                dataset.train_fragments,
                dataset.validation_fragments,
                pressure_grid=(),
            )


class TestChooseK:
    @pytest.fixture(scope="class")
    def detector(self, dataset):
        discretizer = FeatureDiscretizer(rng=0).fit(dataset.train_fragments)
        codes = [discretizer.transform_sequence(f) for f in dataset.train_fragments]
        vocab = SignatureVocabulary.from_code_vectors(
            [c for fragment in codes for c in fragment]
        )
        ts = TimeSeriesDetector(
            vocab,
            discretizer.cardinalities,
            TimeSeriesDetectorConfig(hidden_sizes=(12,), epochs=3),
            rng=0,
        )
        ts.fit(codes)
        val_codes = [
            discretizer.transform_sequence(f) for f in dataset.validation_fragments
        ]
        return ts, val_codes

    def test_returns_curve_and_k(self, detector):
        ts, val_codes = detector
        curve = ts.top_k_errors(val_codes, list(range(1, 7)))
        k = choose_k_from_curve(curve, 0.5)
        assert 1 <= k <= 6
        assert set(curve) == {1, 2, 3, 4, 5, 6}
        # k is the smallest below theta, or max_k.
        below = [kk for kk in sorted(curve) if curve[kk] < 0.5]
        assert k == (below[0] if below else 6)

    def test_validation(self):
        # train() takes theta and max_k from its config, which refuses
        # a theta outside (0, 1) and an empty k range.
        with pytest.raises(ValueError, match="theta_timeseries"):
            DetectorConfig(theta_timeseries=1.5).validate()
        with pytest.raises(ValueError, match="max_k"):
            DetectorConfig(max_k=0).validate()
