"""Shared test configuration.

The tier-1 suite must never read pipeline-cache entries written by a
previous run of possibly different code — a stale entry would make the
suite validate old behaviour.  Benchmarks (which *want* cross-process
sharing of one trained framework) keep the real cache directory via
their own conftest; tests get a throwaway one per session.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_pipeline_cache(tmp_path_factory):
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("pipeline-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def scenario_detectors():
    """One micro trained framework per registered scenario.

    Model quality is irrelevant to registry/routing semantics, but the
    *signature databases* must be real — they are what identification
    and cross-scenario routing discriminate on — so each detector is
    trained on its own scenario's capture.
    """
    from repro.core.combined import CombinedDetector, DetectorConfig
    from repro.core.timeseries_detector import TimeSeriesDetectorConfig
    from repro.ics.dataset import generate_dataset
    from repro.scenarios import get_scenario, scenario_names

    config = DetectorConfig(
        timeseries=TimeSeriesDetectorConfig(hidden_sizes=(8,), epochs=1)
    )
    detectors = {}
    for name in scenario_names():
        dataset = generate_dataset(
            get_scenario(name).dataset_config(num_cycles=250), seed=3
        )
        detectors[name], _ = CombinedDetector.train(
            dataset.train_fragments,
            dataset.validation_fragments,
            config,
            rng=3,
        )
    return detectors


@pytest.fixture(scope="session")
def registry_root(tmp_path_factory, scenario_detectors):
    """A populated registry (v1 of every scenario) shared read-only.

    Tests that publish/promote must build their own registry root —
    this one is session-shared.
    """
    from repro.registry import ModelRegistry

    root = tmp_path_factory.mktemp("model-registry")
    registry = ModelRegistry(root)
    for name, detector in scenario_detectors.items():
        registry.publish(detector, name, meta={"profile": "micro", "seed": 3})
    return root


@pytest.fixture()
def registry(registry_root):
    """A fresh read view over the shared populated registry."""
    from repro.registry import ModelRegistry

    return ModelRegistry(registry_root)


def _with_weights_as(detector, dtype):
    from repro.core.combined import CombinedDetector

    state = detector.state_dict()
    for layer in state["timeseries"]["model"]["params"].values():
        for name, array in layer.items():
            layer[name] = array.astype(dtype)
    return CombinedDetector.from_state(state)


@pytest.fixture(scope="session")
def weights_as():
    """``weights_as(detector, dtype)``: a copy of ``detector`` whose
    network weights are stored as ``dtype``.

    Trained detectors are published in float32; a float64 copy of the
    same weights stands for an artifact written before that, and is the
    reference the float32 verdicts are held to.
    """
    return _with_weights_as
