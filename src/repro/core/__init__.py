"""The paper's contribution: two-level anomaly detection.

- :mod:`repro.core.kmeans` — Lloyd's algorithm with k-means++ seeding
  (used to discretize naturally clustered continuous features),
- :mod:`repro.core.discretization` — per-feature discretizers and the
  :class:`FeatureDiscretizer` implementing paper Table III,
- :mod:`repro.core.signatures` — the generating function ``g(·)`` and the
  signature vocabulary,
- :mod:`repro.core.bloom` — the Bloom filter storing the signature
  database (paper Section IV-C),
- :mod:`repro.core.package_detector` — package content level detection
  ``F_p`` (Section IV),
- :mod:`repro.core.noise` — probabilistic noise training (Section V-3),
- :mod:`repro.core.timeseries_detector` — the stacked-LSTM top-k
  detector ``F_t`` (Section V),
- :mod:`repro.core.combined` — the combined framework (Section VI, Fig 3)
  and its choice of ``k`` (Fig 6),
- :mod:`repro.core.stream_engine` — the batched multi-stream engine
  (N concurrent streams, one LSTM step per tick),
- :mod:`repro.core.tuning` — granularity search (Fig 5),
- :mod:`repro.core.metrics` — precision/recall/accuracy/F1 and
  per-attack detected ratios (Tables IV and V).
"""

from repro.core.bloom import BloomFilter
from repro.core.combined import CombinedDetector, DetectorConfig, TrainedArtifacts
from repro.core.discretization import (
    DiscretizationConfig,
    EvenIntervalDiscretizer,
    FeatureDiscretizer,
    IdentityDiscretizer,
    KMeans1DDiscretizer,
    KMeansNDDiscretizer,
)
from repro.core.kmeans import KMeansResult, kmeans
from repro.core.metrics import (
    DetectionMetrics,
    confusion_counts,
    evaluate_detection,
    per_attack_recall,
)
from repro.core.noise import ProbabilisticNoiser
from repro.core.package_detector import PackageLevelDetector
from repro.core.signatures import SignatureVocabulary, signature_of
from repro.core.stream_engine import LEVEL_NAMES, StreamEngine
from repro.core.timeseries_detector import TimeSeriesDetector, TimeSeriesDetectorConfig
from repro.core.tuning import GranularitySearchResult, granularity_search

__all__ = [
    "BloomFilter",
    "CombinedDetector",
    "DetectorConfig",
    "TrainedArtifacts",
    "DiscretizationConfig",
    "EvenIntervalDiscretizer",
    "FeatureDiscretizer",
    "IdentityDiscretizer",
    "KMeans1DDiscretizer",
    "KMeansNDDiscretizer",
    "KMeansResult",
    "kmeans",
    "DetectionMetrics",
    "confusion_counts",
    "evaluate_detection",
    "per_attack_recall",
    "ProbabilisticNoiser",
    "PackageLevelDetector",
    "SignatureVocabulary",
    "signature_of",
    "LEVEL_NAMES",
    "StreamEngine",
    "TimeSeriesDetector",
    "TimeSeriesDetectorConfig",
    "GranularitySearchResult",
    "granularity_search",
]
