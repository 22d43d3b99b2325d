"""The combined two-level detection framework (paper Section VI, Fig. 3).

A package is first checked by the Bloom filter: an unknown signature is
an anomaly outright (no need to consult the LSTM — an unknown signature
can never be in the predicted top-k).  Packages that pass are judged by
the time-series detector.  Every package — whatever its verdict — feeds
the recurrent history, with the noise-indicator bit carrying its own
classification, so the model stays calibrated across attack bursts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.discretization import DiscretizationConfig, FeatureDiscretizer
from repro.core.package_detector import PackageLevelDetector
from repro.core.signatures import SignatureVocabulary, signature_of
from repro.core.stream_engine import (
    LEVEL_NAMES,
    LEVEL_NONE,
    LEVEL_PACKAGE,
    LEVEL_TIMESERIES,
    StreamEngine,
)
from repro.core.timeseries_detector import (
    TimeSeriesDetector,
    TimeSeriesDetectorConfig,
    TimeSeriesTrainingReport,
)
from repro.ics.features import Package
from repro.utils.rng import SeedLike, spawn_generators

#: The dtype :meth:`CombinedDetector.train` publishes the network's
#: weights in.  Training and the ``err_k`` curve run in float64; the
#: cast comes after ``k`` is chosen.
SERVING_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True)
class DetectorConfig:
    """End-to-end configuration of the combined framework."""

    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)
    timeseries: TimeSeriesDetectorConfig = field(
        default_factory=TimeSeriesDetectorConfig
    )
    bloom_false_positive_rate: float = 1e-3
    theta_timeseries: float = 0.05  # acceptable err_k (Fig 6)
    max_k: int = 10

    def validate(self) -> "DetectorConfig":
        self.discretization.validate()
        self.timeseries.validate()
        if not 0 < self.bloom_false_positive_rate < 1:
            raise ValueError(
                "bloom_false_positive_rate must be in (0, 1), got "
                f"{self.bloom_false_positive_rate}"
            )
        if not 0 < self.theta_timeseries < 1:
            raise ValueError(
                f"theta_timeseries must be in (0, 1), got {self.theta_timeseries}"
            )
        if self.max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {self.max_k}")
        return self


@dataclass
class TrainedArtifacts:
    """Diagnostics captured while training the combined framework."""

    package_validation_error: float
    vocabulary_size: int
    chosen_k: int
    top_k_validation_errors: dict[int, float]
    timeseries_report: TimeSeriesTrainingReport


@dataclass
class DetectionResult:
    """Vectorized detection output for a package stream."""

    is_anomaly: np.ndarray  # bool (N,)
    level: np.ndarray  # int (N,), LEVEL_* tags

    def __len__(self) -> int:
        return len(self.is_anomaly)

    @property
    def package_level_count(self) -> int:
        return int((self.level == LEVEL_PACKAGE).sum())

    @property
    def timeseries_level_count(self) -> int:
        return int((self.level == LEVEL_TIMESERIES).sum())


class StreamMonitor:
    """Stateful one-package-at-a-time detector (Fig. 3 data path).

    A thin view over a single-stream :class:`StreamEngine`, so the
    streaming path and the batched multi-stream path share one
    implementation (and stay bit-identical).
    """

    def __init__(self, detector: "CombinedDetector") -> None:
        self._engine = StreamEngine(detector)
        self._stream_id = self._engine.attach()

    def observe(self, package: Package) -> tuple[bool, int]:
        """Classify one package; returns ``(is_anomaly, level)``."""
        return self._engine.observe(self._stream_id, package)


class CombinedDetector:
    """The full two-level anomaly detection framework.

    Build with :meth:`train`; then either call :meth:`detect` on a
    recorded stream or open a :meth:`stream` monitor for live traffic.
    """

    def __init__(
        self,
        discretizer: FeatureDiscretizer,
        package_detector: PackageLevelDetector,
        timeseries: TimeSeriesDetector,
    ) -> None:
        self.discretizer = discretizer
        self.package_detector = package_detector
        self.timeseries = timeseries

    # ------------------------------------------------------------------
    # training pipeline
    # ------------------------------------------------------------------

    @classmethod
    def train(
        cls,
        train_fragments: Sequence[Sequence[Package]],
        validation_fragments: Sequence[Sequence[Package]],
        config: DetectorConfig | None = None,
        rng: SeedLike = 0,
        verbose: bool = False,
    ) -> tuple["CombinedDetector", TrainedArtifacts]:
        """Fit both levels from anomaly-free traffic (paper Section VIII-A).

        Returns the detector plus diagnostics: the package-level
        validation error (Fig 5 operating point), the ``err_k`` curve and
        the chosen ``k`` (Fig 6).  The network trains and yields the
        curve in float64; its weights are then stored as
        :data:`SERVING_DTYPE`, in which the detector serves.
        """
        config = (config or DetectorConfig()).validate()
        if not train_fragments:
            raise ValueError("no training fragments supplied")
        if not validation_fragments:
            raise ValueError("no validation fragments supplied")
        discretizer_rng, ts_rng = spawn_generators(rng, 2)

        discretizer = FeatureDiscretizer(config.discretization, rng=discretizer_rng)
        discretizer.fit(train_fragments)

        package_detector = PackageLevelDetector(
            discretizer, config.bloom_false_positive_rate
        ).fit(train_fragments)
        package_validation_error = package_detector.validation_error(
            validation_fragments
        )

        assert package_detector.vocabulary is not None
        vocabulary = package_detector.vocabulary
        train_codes = [
            discretizer.transform_sequence(fragment) for fragment in train_fragments
        ]
        validation_codes = [
            discretizer.transform_sequence(fragment)
            for fragment in validation_fragments
        ]

        timeseries = TimeSeriesDetector(
            vocabulary, discretizer.cardinalities, config.timeseries, rng=ts_rng
        )
        report = timeseries.fit(train_codes, verbose=verbose)

        ks = list(range(1, config.max_k + 1))
        err_curve = timeseries.top_k_errors(validation_codes, ks)
        chosen_k = choose_k_from_curve(err_curve, config.theta_timeseries)
        timeseries.k = chosen_k
        timeseries.model.cast(SERVING_DTYPE)

        artifacts = TrainedArtifacts(
            package_validation_error=package_validation_error,
            vocabulary_size=len(vocabulary),
            chosen_k=chosen_k,
            top_k_validation_errors=err_curve,
            timeseries_report=report,
        )
        return cls(discretizer, package_detector, timeseries), artifacts

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """The whole trained framework as one nested state dict.

        The signature vocabulary is stored once (inside the package
        detector's state) and shared with the time-series level on
        restore, mirroring how :meth:`train` wires the two levels.
        """
        return {
            "discretizer": self.discretizer.state_dict(),
            "package_detector": self.package_detector.state_dict(),
            "timeseries": self.timeseries.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "CombinedDetector":
        """Rebuild a trained framework from :meth:`state_dict` output."""
        discretizer = FeatureDiscretizer.from_state(state["discretizer"])
        package_detector = PackageLevelDetector.from_state(
            state["package_detector"], discretizer
        )
        assert package_detector.vocabulary is not None
        timeseries = TimeSeriesDetector.from_state(
            state["timeseries"], package_detector.vocabulary
        )
        return cls(discretizer, package_detector, timeseries)

    def save(self, path: str | os.PathLike) -> None:
        """Persist the trained framework to a single ``.npz`` artifact."""
        from repro.persistence import save_detector

        save_detector(self, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CombinedDetector":
        """Restore a framework saved with :meth:`save`."""
        from repro.persistence import load_detector

        return load_detector(path)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def stream(self) -> StreamMonitor:
        """Open a stateful monitor for live traffic."""
        return StreamMonitor(self)

    def engine(self, num_streams: int = 0) -> StreamEngine:
        """Open a batched engine monitoring ``num_streams`` streams.

        Further streams can be attached (and detached) at any time.
        """
        engine = StreamEngine(self)
        engine.attach_many(num_streams)
        return engine

    def detect(self, packages: Iterable[Package]) -> DetectionResult:
        """Classify a recorded stream package by package.

        One fresh stream takes the packages as one-row ticks, in engine
        passes of bounded length; the verdicts are those of a
        :meth:`stream` monitor fed the same packages.
        """
        engine = self.engine(1)
        anomalies, levels = engine.observe_stream(engine.stream_ids[0], packages)
        return DetectionResult(is_anomaly=anomalies, level=levels)

    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> SignatureVocabulary:
        assert self.package_detector.vocabulary is not None
        return self.package_detector.vocabulary

    @property
    def k(self) -> int:
        """The top-k threshold in force for ``F_t``."""
        return self.timeseries.k

    @k.setter
    def k(self, value: int) -> None:
        if value < 1:
            raise ValueError(f"k must be >= 1, got {value}")
        self.timeseries.k = value

    def memory_bytes(self) -> int:
        """Total model footprint: Bloom filter plus the network's weights
        in their stored dtype, float32 after :meth:`train` (paper
        §VIII-A2 reports 684 KB)."""
        return self.package_detector.memory_bytes() + self.timeseries.memory_bytes()

    def signature_of_package(
        self, package: Package, prev_time: float | None = None
    ) -> str:
        """The signature string of one package (inspection helper)."""
        return signature_of(self.discretizer.transform_package(package, prev_time))


def choose_k_from_curve(err_curve: dict[int, float], theta: float) -> int:
    """Smallest ``k`` with ``err_k < θ`` (paper Section V-2).

    Falls back to the largest evaluated ``k`` when no value meets the
    threshold (the paper's rule presumes one exists).
    """
    for k in sorted(err_curve):
        if err_curve[k] < theta:
            return k
    return max(err_curve)
