"""Data series behind the paper's figures 4–7.

These return plain arrays/dicts (no plotting dependency); benchmarks
print them as text tables, and downstream users can plot them with any
tool.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.combined import SERVING_DTYPE, CombinedDetector
from repro.core.discretization import intervals_of
from repro.core.metrics import DetectionMetrics, evaluate_detection
from repro.core.timeseries_detector import TimeSeriesDetector, TimeSeriesDetectorConfig
from repro.core.tuning import GranularitySearchResult, granularity_search
from repro.core.signatures import SignatureVocabulary
from repro.experiments.pipeline import PipelineResult, run_pipeline
from repro.ics.dataset import GasPipelineDataset
from repro.ics.features import Package
from repro.utils.rng import spawn_generators

# ----------------------------------------------------------------------
# Figure 4: histograms of the continuous features
# ----------------------------------------------------------------------


def fig4_histograms(
    dataset: GasPipelineDataset, bins: int = 200
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """200-bin histograms of the four unclustered continuous features.

    Returns ``{feature: (counts, bin_edges)}`` for the time interval,
    crc rate, pressure measurement and setpoint over normal traffic —
    the paper uses these (its Fig. 4) to decide which features have
    natural clusters.
    """
    normal = [p for p in dataset.all_packages if not p.is_attack]
    intervals = [v for v in intervals_of(normal) if v is not None]
    columns: dict[str, list[float]] = {
        "time_interval": intervals,
        "crc_rate": [p.crc_rate for p in normal],
        "pressure_measurement": [
            p.pressure_measurement
            for p in normal
            if p.pressure_measurement is not None
        ],
        "setpoint": [p.setpoint for p in normal if p.setpoint is not None],
    }
    return {
        name: np.histogram(np.asarray(values), bins=bins)
        for name, values in columns.items()
    }


# ----------------------------------------------------------------------
# Figure 5: validation error vs discretization granularity
# ----------------------------------------------------------------------


def fig5_granularity(
    dataset: GasPipelineDataset,
    pressure_grid: Sequence[int] = (5, 10, 15, 20, 25, 30),
    setpoint_grid: Sequence[int] = (5, 10, 15, 20),
    theta: float = 0.03,
    rng: int = 0,
) -> GranularitySearchResult:
    """The Fig.-5 grid: validation error per granularity combination."""
    return granularity_search(
        dataset.train_fragments,
        dataset.validation_fragments,
        pressure_grid=pressure_grid,
        setpoint_grid=setpoint_grid,
        theta=theta,
        rng=rng,
    )


# ----------------------------------------------------------------------
# Figure 6: top-k error with and without probabilistic noise
# ----------------------------------------------------------------------


@dataclass
class TopKCurves:
    """Fig.-6 series: err_k on train/validation × noise on/off."""

    ks: list[int]
    train_with_noise: dict[int, float]
    validation_with_noise: dict[int, float]
    train_without_noise: dict[int, float]
    validation_without_noise: dict[int, float]


def fig6_topk_curves(
    pipeline: PipelineResult, max_k: int = 10, train_eval_fragments: int = 40
) -> TopKCurves:
    """Train a second (noise-free) model and compute all four curves.

    The noise-trained model is taken from the pipeline; the comparison
    model repeats training with ``use_noise=False`` and the same seed,
    and is evaluated in the same :data:`SERVING_DTYPE`.
    """
    detector = pipeline.detector
    dataset = pipeline.dataset
    discretizer = detector.discretizer
    train_codes = [
        discretizer.transform_sequence(f) for f in dataset.train_fragments
    ]
    val_codes = [
        discretizer.transform_sequence(f) for f in dataset.validation_fragments
    ]

    base_config = pipeline.profile.detector.timeseries
    noise_free = TimeSeriesDetector(
        detector.vocabulary,
        discretizer.cardinalities,
        TimeSeriesDetectorConfig(
            hidden_sizes=base_config.hidden_sizes,
            epochs=base_config.epochs,
            batch_size=base_config.batch_size,
            bptt_len=base_config.bptt_len,
            learning_rate=base_config.learning_rate,
            k=base_config.k,
            use_noise=False,
        ),
        rng=spawn_generators(pipeline.profile.seed, 2)[1],
    )
    noise_free.fit(train_codes)
    noise_free.model.cast(SERVING_DTYPE)

    ks = list(range(1, max_k + 1))
    train_sample = train_codes[:train_eval_fragments]
    return TopKCurves(
        ks=ks,
        train_with_noise=detector.timeseries.top_k_errors(train_sample, ks),
        validation_with_noise=detector.timeseries.top_k_errors(val_codes, ks),
        train_without_noise=noise_free.top_k_errors(train_sample, ks),
        validation_without_noise=noise_free.top_k_errors(val_codes, ks),
    )


# ----------------------------------------------------------------------
# Figure 7: combined-framework metrics vs k
# ----------------------------------------------------------------------


def _detect_metrics_at_k(
    detector: CombinedDetector, packages: Sequence[Package], labels: np.ndarray, k: int
) -> DetectionMetrics:
    original_k = detector.k
    try:
        detector.k = k
        result = detector.detect(packages)
    finally:
        detector.k = original_k
    return evaluate_detection(labels, result.is_anomaly)


@dataclass
class MetricsVsK:
    """Fig.-7 series: the four metrics against k for one model."""

    ks: list[int]
    metrics: list[DetectionMetrics]

    def series(self, name: str) -> list[float]:
        """One metric as a list, e.g. ``series('f1_score')``."""
        return [getattr(m, name) for m in self.metrics]


def fig7_metrics_vs_k(
    pipeline: PipelineResult, ks: Sequence[int] = (1, 2, 3, 4, 5, 6, 8, 10)
) -> MetricsVsK:
    """Sweep ``k`` on the test set with the noise-trained framework."""
    metrics = [
        _detect_metrics_at_k(
            pipeline.detector, pipeline.dataset.test_packages, pipeline.labels, k
        )
        for k in ks
    ]
    return MetricsVsK(ks=list(ks), metrics=metrics)
