"""repro — Multi-level anomaly detection in industrial control systems.

A complete, from-scratch reproduction of Feng, Li & Chana, *"Multi-level
Anomaly Detection in Industrial Control Systems via Package Signatures
and LSTM networks"* (DSN 2017):

- :mod:`repro.core` — the two-level detection framework: package
  signatures, Bloom-filter package-level detection, stacked-LSTM
  time-series detection, the combined framework, tuning and metrics.
- :mod:`repro.ics` — the gas pipeline SCADA substrate: plant physics,
  PID control, Modbus framing, the 4-package polling loop, the seven
  attack types and ARFF dataset assembly.
- :mod:`repro.nn` — a pure-numpy neural substrate (LSTM + BPTT, Adam).
- :mod:`repro.baselines` — the Table-IV comparators (BF, BN, SVDD, IF,
  GMM, PCA-SVD) on 4-package command-response windows.
- :mod:`repro.experiments` — harnesses regenerating every table and
  figure of the paper's evaluation.
- :mod:`repro.persistence` — train-once artifacts and live-stream
  checkpoints (one versioned ``.npz`` per trained framework); the
  ``repro`` CLI drives train / detect / resume / serve from the shell.
- :mod:`repro.scenarios` — pluggable simulation scenarios (gas
  pipeline, water storage tank, power distribution feeder, HVAC
  chiller loop): per-process plant physics, SCADA parameterizations and
  attack catalogs behind one package schema, so a single detection
  stack covers every plant.
- :mod:`repro.registry` — the versioned per-scenario model registry:
  publish/resolve/promote detector artifacts, auto-identify which
  registered scenario an unlabeled stream belongs to, and route
  heterogeneous fleets to their own models.
- :mod:`repro.serve` — the online detection gateway: Modbus/TCP
  transport, sharded stream-engine serving with backpressure and
  bit-identical checkpoint fail-over, per-scenario model routing with
  hot-swap, the alert pipeline, a replay client for load generation and
  fail-over drills, and the multi-scenario fleet runner.

Quickstart::

    from repro import CombinedDetector, DetectorConfig, generate_dataset

    dataset = generate_dataset(seed=0)
    detector, artifacts = CombinedDetector.train(
        dataset.train_fragments, dataset.validation_fragments
    )
    result = detector.detect(dataset.test_packages)
"""

from repro.core import (
    BloomFilter,
    CombinedDetector,
    DetectionMetrics,
    DetectorConfig,
    DiscretizationConfig,
    FeatureDiscretizer,
    PackageLevelDetector,
    SignatureVocabulary,
    StreamEngine,
    TimeSeriesDetector,
    TimeSeriesDetectorConfig,
    evaluate_detection,
    granularity_search,
    per_attack_recall,
    signature_of,
)
from repro.ics import (
    ATTACK_NAMES,
    AttackConfig,
    DatasetConfig,
    GasPipelineDataset,
    Package,
    ScadaConfig,
    ScadaSimulator,
    generate_dataset,
)
from repro.persistence import (
    load_checkpoint,
    load_detector,
    load_gateway_checkpoint,
    save_checkpoint,
    save_detector,
    save_gateway_checkpoint,
)
from repro.registry import (
    ModelRegistry,
    RegistryEntry,
    RegistryError,
    ScenarioIdentifier,
    ScenarioRouter,
)
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.serve import (
    AlertPipeline,
    DetectionGateway,
    FleetConfig,
    FleetRunner,
    GatewayConfig,
    ReplayClient,
)
from repro.utils.artifact import ArtifactError

__version__ = "1.0.0"

__all__ = [
    "BloomFilter",
    "CombinedDetector",
    "DetectionMetrics",
    "DetectorConfig",
    "DiscretizationConfig",
    "FeatureDiscretizer",
    "PackageLevelDetector",
    "SignatureVocabulary",
    "StreamEngine",
    "TimeSeriesDetector",
    "TimeSeriesDetectorConfig",
    "evaluate_detection",
    "granularity_search",
    "per_attack_recall",
    "signature_of",
    "ATTACK_NAMES",
    "AttackConfig",
    "DatasetConfig",
    "GasPipelineDataset",
    "Package",
    "ScadaConfig",
    "ScadaSimulator",
    "generate_dataset",
    "ArtifactError",
    "load_checkpoint",
    "load_detector",
    "load_gateway_checkpoint",
    "save_checkpoint",
    "save_detector",
    "save_gateway_checkpoint",
    "ModelRegistry",
    "RegistryEntry",
    "RegistryError",
    "ScenarioIdentifier",
    "ScenarioRouter",
    "SCENARIOS",
    "Scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "AlertPipeline",
    "DetectionGateway",
    "FleetConfig",
    "FleetRunner",
    "GatewayConfig",
    "ReplayClient",
    "__version__",
]
