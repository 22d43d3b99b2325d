"""Tests for the disk-backed pipeline cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import pipeline
from repro.experiments.pipeline import (
    _cache_path,
    clear_pipeline_cache,
    run_pipeline,
)
from repro.experiments.profiles import get_profile
from repro.utils.artifact import ARTIFACT_VERSION


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point both cache layers at fresh state for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_PIPELINE_CACHE", raising=False)
    clear_pipeline_cache()
    yield
    clear_pipeline_cache()


def test_disk_entry_written_and_hit():
    first = run_pipeline("ci")
    assert not first.from_cache
    path = _cache_path(get_profile("ci"))
    assert path.exists()

    # A fresh in-process layer (as a new process would have) hits disk.
    clear_pipeline_cache()
    second = run_pipeline("ci")
    assert second.from_cache
    assert second is not first
    np.testing.assert_array_equal(
        second.detection.is_anomaly, first.detection.is_anomaly
    )
    np.testing.assert_array_equal(second.detection.level, first.detection.level)
    assert second.metrics == first.metrics
    assert second.artifacts.chosen_k == first.artifacts.chosen_k
    assert (
        second.artifacts.top_k_validation_errors
        == first.artifacts.top_k_validation_errors
    )


def test_cached_detector_behaves_identically():
    first = run_pipeline("ci")
    clear_pipeline_cache()
    second = run_pipeline("ci")
    packages = second.dataset.test_packages[:60]
    np.testing.assert_array_equal(
        second.detector.detect(packages).is_anomaly,
        first.detector.detect(packages).is_anomaly,
    )


def test_memory_layer_returns_same_object():
    first = run_pipeline("ci")
    assert run_pipeline("ci") is first


def test_memory_layer_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setenv("REPRO_PIPELINE_CACHE", "0")
    monkeypatch.setattr(pipeline, "_run", lambda profile, verbose=False: object())
    first = run_pipeline("ci", seed=0)
    second = run_pipeline("ci", seed=1)
    run_pipeline("ci", seed=2)
    run_pipeline("ci", seed=3)
    assert run_pipeline("ci", seed=0) is first  # a hit makes it the newest
    run_pipeline("ci", seed=4)  # the fifth entry evicts seed 1
    assert run_pipeline("ci", seed=0) is first
    assert run_pipeline("ci", seed=1) is not second


def test_seeds_cached_separately():
    default = run_pipeline("ci")
    other = run_pipeline("ci", seed=123)
    assert other is not default
    assert _cache_path(get_profile("ci")) != _cache_path(
        get_profile("ci").with_seed(123)
    )


def test_version_bump_invalidates(monkeypatch):
    run_pipeline("ci")
    old_path = _cache_path(get_profile("ci"))
    assert old_path.exists()
    clear_pipeline_cache()
    monkeypatch.setattr(pipeline, "ARTIFACT_VERSION", ARTIFACT_VERSION + 1)
    # The stale entry's filename no longer matches: clean miss, retrain.
    assert _cache_path(get_profile("ci")) != old_path
    result = run_pipeline("ci")
    assert not result.from_cache


def test_serving_dtype_keys_the_entry(monkeypatch):
    """An entry trained under another serving dtype (a float64 detector
    of an earlier build) is never handed out."""
    run_pipeline("ci")
    path = _cache_path(get_profile("ci"))
    assert "float32" in path.name
    clear_pipeline_cache()
    monkeypatch.setattr(pipeline, "SERVING_DTYPE", np.dtype(np.float64))
    assert _cache_path(get_profile("ci")) != path
    assert not run_pipeline("ci").from_cache


def test_corrupt_entry_retrains():
    run_pipeline("ci")
    path = _cache_path(get_profile("ci"))
    path.write_bytes(b"garbage")
    clear_pipeline_cache()
    result = run_pipeline("ci")
    assert not result.from_cache
    assert path.exists()  # rewritten with a good entry


def test_disk_layer_can_be_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_PIPELINE_CACHE", "0")
    run_pipeline("ci")
    assert not _cache_path(get_profile("ci")).exists()
