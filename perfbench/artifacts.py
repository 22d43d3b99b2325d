"""Model artifacts, seeded site captures and offline reference verdicts.

Models are trained once per checkout with the checkout's own code, from
the fixed ``TRAINING_SEED``, and kept under the cache directory, so
training time stays out of every metric: the 2x256 gas_pipeline
detector (the ``ci`` recipe at the paper's LSTM width) and the five
``ci``-size scenario models published to a registry.  A run's
``--seed`` picks its traffic only.  Models trained per run seed made
the per-package cost differ from seed to seed, and cost every fresh
seed 8 s of training.  The cache is keyed by a digest of ``src/`` and of
this file, so two commits never share artifacts.  The model directory
is built under a temporary name and renamed into place, so an
interrupted build is never mistaken for a finished one.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.combined import CombinedDetector
from repro.experiments.profiles import Profile, get_profile
from repro.ics.dataset import generate_dataset, generate_stream
from repro.ics.features import Package
from repro.persistence import profile_provenance, save_detector
from repro.registry import ModelRegistry
from repro.scenarios import scenario_names

from workloads import Site

#: The paper's LSTM architecture (§VIII-A2).
PAPER_HIDDEN = (256, 256)
#: Seed of every model's training data and initial weights.
TRAINING_SEED = 0


def source_digest(root: Path) -> str:
    """Digest of the code that trains and serves: ``src/`` plus this file."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _train(profile: Profile) -> CombinedDetector:
    dataset = generate_dataset(profile.dataset, seed=profile.seed)
    detector, _ = CombinedDetector.train(
        dataset.train_fragments,
        dataset.validation_fragments,
        profile.detector,
        rng=profile.seed,
    )
    return detector


def _paper_profile(seed: int) -> Profile:
    profile = get_profile("ci@gas_pipeline").with_seed(seed)
    timeseries = replace(profile.detector.timeseries, hidden_sizes=PAPER_HIDDEN)
    return replace(
        profile,
        name="ci-2x256@gas_pipeline",
        detector=replace(profile.detector, timeseries=timeseries),
    )


def ensure_artifacts(cache: Path) -> Path:
    """The model directory under ``cache``, trained on first use."""
    seed = TRAINING_SEED
    final = cache / f"models-seed-{seed}"
    if final.is_dir():
        return final
    building = final.with_name(f"{final.name}.building-{os.getpid()}")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    try:
        paper = _paper_profile(seed)
        save_detector(
            _train(paper), building / "paper-2x256.npz",
            meta=profile_provenance(paper),
        )
        registry = ModelRegistry(building / "registry")
        for scenario in scenario_names():
            profile = get_profile(f"ci@{scenario}").with_seed(seed)
            registry.publish(
                _train(profile), scenario, meta=profile_provenance(profile)
            )
        os.rename(building, final)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    return final


def capture(site_index: int, site: Site, seed: int, packages: int) -> list[Package]:
    """At least ``packages`` packages of one site's live traffic.

    Site seeds are offset from the training seed, so no site replays
    the capture its model was trained on.
    """
    cycles = packages // 4 + 1  # every polling cycle emits >= 4 packages
    return generate_stream(site.scenario, cycles, 10_000 + 100 * seed + site_index)


def offline_verdicts(
    models: Path, name: str, detector: CombinedDetector,
    packages: list[Package], needed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``detect()`` of at least the first ``needed`` packages, memoised.

    Detection is causal, so a stored longer prefix answers any shorter
    one.
    """
    path = models / "offline" / f"{name}.npz"
    if path.is_file():
        with np.load(path) as stored:
            if len(stored["is_anomaly"]) >= needed:
                return stored["is_anomaly"], stored["level"]
    result = detector.detect(packages[:needed])
    path.parent.mkdir(exist_ok=True)
    partial = path.with_name(f"{path.stem}.{os.getpid()}.npz")
    np.savez(partial, is_anomaly=result.is_anomaly, level=result.level)
    os.replace(partial, path)
    return result.is_anomaly, result.level
