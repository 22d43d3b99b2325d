"""End-to-end pipeline: generate → train → detect, with two-layer caching.

Several tables/figures share one trained framework, and benchmark files
run as separate processes — so pipeline runs are memoized twice:

- **in process**: a dict keyed on ``(profile name, seed)`` returning the
  very same :class:`PipelineResult` object,
- **on disk**: the trained detector, its diagnostics and the detection
  output are packed into one artifact under the cache directory
  (``REPRO_CACHE_DIR``, default ``~/.cache/repro``), so the *next
  process* skips training entirely and only regenerates the (cheap,
  deterministic) dataset.

Disk entries are keyed on the profile's full configuration, the dtype
trained detectors serve in and the artifact schema version — editing a
profile, changing :data:`~repro.core.combined.SERVING_DTYPE` or bumping
:data:`~repro.utils.artifact.ARTIFACT_VERSION` silently invalidates
stale entries.  Set ``REPRO_PIPELINE_CACHE=0`` to disable the disk
layer (e.g. for timing cold runs).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.combined import (
    SERVING_DTYPE,
    CombinedDetector,
    DetectionResult,
    TrainedArtifacts,
)
from repro.core.metrics import DetectionMetrics, evaluate_detection, per_attack_recall
from repro.core.timeseries_detector import TimeSeriesTrainingReport
from repro.experiments.profiles import Profile, get_profile
from repro.ics.dataset import GasPipelineDataset, generate_dataset
from repro.nn.network import TrainingHistory
from repro.utils.artifact import (
    ARTIFACT_VERSION,
    ArtifactError,
    load_artifact,
    save_artifact,
)

_PIPELINE_KIND = "pipeline-cache"


@dataclass
class PipelineResult:
    """Everything downstream analyses need from one full run."""

    profile: Profile
    dataset: GasPipelineDataset
    detector: CombinedDetector
    artifacts: TrainedArtifacts
    detection: DetectionResult
    labels: np.ndarray
    metrics: DetectionMetrics
    attack_recalls: dict[int, float]
    train_seconds: float
    detect_seconds: float
    from_cache: bool = False

    @property
    def per_package_ms(self) -> float:
        """Mean classification latency (paper §VIII-A2 reports 0.03 ms)."""
        if len(self.detection) == 0:
            return 0.0
        return 1000.0 * self.detect_seconds / len(self.detection)


def _run(profile: Profile, verbose: bool = False) -> PipelineResult:
    dataset = generate_dataset(profile.dataset, seed=profile.seed)
    start = time.perf_counter()
    detector, artifacts = CombinedDetector.train(
        dataset.train_fragments,
        dataset.validation_fragments,
        profile.detector,
        rng=profile.seed,
        verbose=verbose,
    )
    train_seconds = time.perf_counter() - start

    start = time.perf_counter()
    detection = detector.detect(dataset.test_packages)
    detect_seconds = time.perf_counter() - start

    labels = np.array([p.label for p in dataset.test_packages])
    return PipelineResult(
        profile=profile,
        dataset=dataset,
        detector=detector,
        artifacts=artifacts,
        detection=detection,
        labels=labels,
        metrics=evaluate_detection(labels, detection.is_anomaly),
        attack_recalls=per_attack_recall(labels, detection.is_anomaly),
        train_seconds=train_seconds,
        detect_seconds=detect_seconds,
    )


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------


def cache_dir() -> Path:
    """Directory holding cross-process pipeline cache artifacts."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def disk_cache_enabled() -> bool:
    return os.environ.get("REPRO_PIPELINE_CACHE", "1") != "0"


def _cache_path(profile: Profile) -> Path:
    """One file per (profile config, seed, serving dtype, schema version).

    The fingerprint hashes the *full* profile configuration (dataset,
    detector, seed), so editing a profile definition is an automatic
    cache miss.  The serving dtype in the name keeps an entry trained
    under another one (float64 detectors of earlier builds) from being
    handed out, and the schema version invalidates everything older on
    a format bump.
    """
    fingerprint = hashlib.sha256(repr(profile).encode("utf-8")).hexdigest()[:12]
    return cache_dir() / (
        f"pipeline-{profile.name}-seed{profile.seed}"
        f"-{fingerprint}-{SERVING_DTYPE.name}-v{ARTIFACT_VERSION}.npz"
    )


def _diagnostics_state(artifacts: TrainedArtifacts) -> dict:
    curve = artifacts.top_k_validation_errors
    ks = sorted(curve)
    history = artifacts.timeseries_report.history
    return {
        "package_validation_error": artifacts.package_validation_error,
        "vocabulary_size": artifacts.vocabulary_size,
        "chosen_k": artifacts.chosen_k,
        "top_k_ks": np.array(ks, dtype=np.int64),
        "top_k_errors": np.array([curve[k] for k in ks], dtype=np.float64),
        "losses": np.array(history.losses, dtype=np.float64),
        "validation_errors": np.array(history.validation_errors, dtype=np.float64),
        "input_size": artifacts.timeseries_report.input_size,
        "num_classes": artifacts.timeseries_report.num_classes,
    }


def _diagnostics_from_state(state: dict) -> TrainedArtifacts:
    ks = np.asarray(state["top_k_ks"], dtype=np.int64)
    errors = np.asarray(state["top_k_errors"], dtype=np.float64)
    return TrainedArtifacts(
        package_validation_error=float(state["package_validation_error"]),
        vocabulary_size=int(state["vocabulary_size"]),
        chosen_k=int(state["chosen_k"]),
        top_k_validation_errors={
            int(k): float(e) for k, e in zip(ks, errors)
        },
        timeseries_report=TimeSeriesTrainingReport(
            history=TrainingHistory(
                losses=[float(v) for v in np.asarray(state["losses"])],
                validation_errors=[
                    float(v) for v in np.asarray(state["validation_errors"])
                ],
            ),
            input_size=int(state["input_size"]),
            num_classes=int(state["num_classes"]),
        ),
    )


def _store_on_disk(result: PipelineResult) -> None:
    path = _cache_path(result.profile)
    state = {
        "detector": result.detector.state_dict(),
        "diagnostics": _diagnostics_state(result.artifacts),
        "detection": {
            "is_anomaly": result.detection.is_anomaly,
            "level": result.detection.level,
        },
        "timings": {
            "train_seconds": result.train_seconds,
            "detect_seconds": result.detect_seconds,
        },
    }
    meta = {"profile": result.profile.name, "seed": result.profile.seed}
    # Write-then-rename so a crashed writer never leaves a torn cache
    # entry for other processes to trip over.  An unwritable cache dir
    # (read-only HOME, sandboxed CI) degrades to "no disk cache" — the
    # freshly trained result in hand must never be lost to an OSError.
    temporary = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_artifact(state, temporary, kind=_PIPELINE_KIND, meta=meta)
        os.replace(temporary, path)
    except OSError:
        pass
    finally:
        try:
            temporary.unlink(missing_ok=True)
        except OSError:
            pass


def _load_from_disk(profile: Profile) -> PipelineResult | None:
    path = _cache_path(profile)
    if not path.exists():
        return None
    try:
        state = load_artifact(path, kind=_PIPELINE_KIND)
        detector = CombinedDetector.from_state(state["detector"])
        artifacts = _diagnostics_from_state(state["diagnostics"])
    except (ArtifactError, KeyError, TypeError, ValueError):
        # Corrupt/stale entry: drop it and retrain.
        path.unlink(missing_ok=True)
        return None
    dataset = generate_dataset(profile.dataset, seed=profile.seed)
    detection = DetectionResult(
        is_anomaly=np.asarray(state["detection"]["is_anomaly"], dtype=bool),
        level=np.asarray(state["detection"]["level"], dtype=np.int64),
    )
    if len(detection) != len(dataset.test_packages):
        path.unlink(missing_ok=True)
        return None
    labels = np.array([p.label for p in dataset.test_packages])
    return PipelineResult(
        profile=profile,
        dataset=dataset,
        detector=detector,
        artifacts=artifacts,
        detection=detection,
        labels=labels,
        metrics=evaluate_detection(labels, detection.is_anomaly),
        attack_recalls=per_attack_recall(labels, detection.is_anomaly),
        train_seconds=float(state["timings"]["train_seconds"]),
        detect_seconds=float(state["timings"]["detect_seconds"]),
        from_cache=True,
    )


# ----------------------------------------------------------------------
# two-layer memoization
# ----------------------------------------------------------------------

_MEMORY_CACHE: dict[tuple[str, int], PipelineResult] = {}

#: In-process entries kept (matches the old ``lru_cache(maxsize=4)``);
#: evicted results remain on disk, so re-fetching them stays cheap.
_MEMORY_CACHE_SIZE = 4


def clear_pipeline_cache(disk: bool = False) -> None:
    """Drop the in-process cache (and, with ``disk=True``, disk entries)."""
    _MEMORY_CACHE.clear()
    if disk and cache_dir().exists():
        for entry in cache_dir().glob("pipeline-*.npz"):
            entry.unlink(missing_ok=True)


def _run_cached(profile_name: str, seed: int) -> PipelineResult:
    key = (profile_name, seed)
    cached = _MEMORY_CACHE.pop(key, None)
    if cached is not None:
        # A hit moves to the back, so eviction drops the least recently
        # used entry, as ``lru_cache`` did.
        _MEMORY_CACHE[key] = cached
        return cached
    profile = get_profile(profile_name).with_seed(seed)
    result = None
    if disk_cache_enabled():
        result = _load_from_disk(profile)
    if result is None:
        result = _run(profile)
        if disk_cache_enabled():
            _store_on_disk(result)
    _MEMORY_CACHE[key] = result
    while len(_MEMORY_CACHE) > _MEMORY_CACHE_SIZE:
        _MEMORY_CACHE.pop(next(iter(_MEMORY_CACHE)))
    return result


def run_pipeline(
    profile: str | Profile = "default", seed: int | None = None, verbose: bool = False
) -> PipelineResult:
    """Run (or fetch the cached) full pipeline for a profile.

    Named profiles are memoized per ``(profile, seed)`` — in process and
    on disk, so separate benchmark invocations share one training run.
    Custom :class:`Profile` objects always run fresh.
    """
    if isinstance(profile, str):
        resolved = get_profile(profile)
        effective_seed = resolved.seed if seed is None else seed
        # Memoize under the *resolved* name: scenario-qualified aliases
        # that collapse to a base profile (``ci@gas_pipeline`` -> ``ci``)
        # share one cache entry instead of retraining.
        return _run_cached(resolved.name, effective_seed)
    if seed is not None:
        profile = profile.with_seed(seed)
    return _run(profile, verbose=verbose)
