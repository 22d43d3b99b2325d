"""A drain run as one engine pass equals its ticks run one at a time.

:meth:`~repro.core.stream_engine.StreamEngine.observe_ticks` runs the
Fig. 3 seams without recurrence once over a whole drain and only the
recurrent part tick by tick; :meth:`~repro.serve.workers.EnginePool.observe`
runs one such pass per engine.  Every tick's LSTM, dense and top-k
operands keep the shapes and values they have when the tick runs alone,
so on random drains the verdicts, levels, every recurrent-state byte
and the :class:`~repro.core.stream_engine.EngineStats` must equal the
same ticks run one call at a time, and the reference seams of
``test_exactness``.

The drains hold 1 to 32 ticks: partial ticks of 1, 2 and 3 rows in
random row order, full ticks in slot order, several routes interleaved,
and attached streams that never take traffic.  They run at ci width and
on a random 2×256 float32 network, the paper model's width.

BLAS may round differently under another thread count, but only a
change of operand shape moves a row's bits, so a pass matches one tick
at a time under any count: CI runs this module a second time with
``OPENBLAS_NUM_THREADS=2``.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.combined import CombinedDetector
from repro.core.stream_engine import STREAM_CHUNK
from repro.core.timeseries_detector import TimeSeriesDetector, TimeSeriesDetectorConfig
from repro.experiments.pipeline import run_pipeline
from repro.serve.workers import EnginePool
from tests.core.test_exactness import ReferenceEngine, assert_same_state_bytes

GAS, WATER, SOLO = "gas_pipeline@1", "water_tank@1", "gas_pipeline@2"

#: Route label -> (streams attached, streams that take traffic).  GAS keeps an
#: idle stream, WATER has none (so full ticks in slot order occur), and
#: SOLO is the one-stream engine of a closed-loop client.
LAYOUT = {GAS: (4, 3), WATER: (3, 3), SOLO: (1, 1)}


@pytest.fixture(scope="module")
def ci_runs():
    return {
        scenario: run_pipeline(f"ci@{scenario}")
        for scenario in ("gas_pipeline", "water_tank")
    }


def paper_width(detector, seed=11):
    """``detector``'s discretizer and signature database under a random
    2×256 float32 network."""
    timeseries = detector.timeseries
    wide = TimeSeriesDetector(
        timeseries.vocabulary,
        timeseries.encoder.cardinalities,
        TimeSeriesDetectorConfig(hidden_sizes=(256, 256), k=timeseries.k),
        rng=seed,
    )
    wide.model.cast(np.float32)
    return CombinedDetector(detector.discretizer, detector.package_detector, wide)


class Traffic:
    """Random drains over the routes of :data:`LAYOUT`; each stream reads
    its own stretch of its route's capture."""

    def __init__(self, captures, seed):
        self.rng = np.random.default_rng(seed)
        self.captures = captures
        self.cursor = {
            route: [97 * i for i in range(LAYOUT[route][0])] for route in captures
        }

    def _next(self, route, row):
        capture = self.captures[route]
        package = capture[self.cursor[route][row] % len(capture)]
        self.cursor[route][row] += 1
        return package

    def drain(self):
        """``[(route, {stream_id: package})]``: 1–32 ticks, routes in
        random order within each tick."""
        rng = self.rng
        routes = list(self.captures)
        groups = []
        for _ in range(int(rng.integers(1, 33))):
            present = rng.permutation(len(routes))[: int(rng.integers(1, len(routes) + 1))]
            for index in present:
                route = routes[index]
                attached, active = LAYOUT[route]
                if attached == active and attached > 1 and rng.random() < 0.25:
                    rows = list(range(attached))  # a full tick in slot order
                else:
                    size = min(active, int(rng.integers(1, 4)))
                    rows = [int(r) for r in rng.permutation(active)[:size]]
                groups.append((route, {row: self._next(route, row) for row in rows}))
        return groups


def state_bytes(engine):
    """Every array of an engine's state, as bytes, plus its scalars."""
    state = engine.state_dict()
    out = {
        "stream_ids": state["stream_ids"].tobytes(),
        "prev_times": state["prev_times"].tobytes(),
        "prev_known": state["prev_known"].tobytes(),
        "stats": state["stats"],
    }
    streams = state["streams"]
    for name, layer in streams["lstm"].items():
        out[f"{name}.h"] = (layer["h"].dtype, layer["h"].tobytes())
        out[f"{name}.c"] = (layer["c"].dtype, layer["c"].tobytes())
    for name in ("last_probs", "has_probs", "packages_seen"):
        out[name] = (streams[name].dtype, streams[name].tobytes())
    return out


def run_drains(detectors, captures, seed, drains):
    """Drive a pool one pass per engine per drain and reference engines
    one tick per call; compare every tick, and all state at the end.
    Returns the rows served."""
    pool = EnginePool(lambda route: detectors[route])
    for route, (attached, _) in LAYOUT.items():
        if route in detectors:
            for _ in range(attached):
                pool.engines.setdefault(route, detectors[route].engine(0)).attach()
    reference = {route: detectors[route].engine(LAYOUT[route][0]) for route in detectors}
    traffic = Traffic(captures, seed)
    rows = 0
    for number in range(drains):
        groups = traffic.drain()
        coroutine = pool.observe(groups)
        started = time.perf_counter()
        try:
            coroutine.send(None)
        except StopIteration as done:
            results, seconds = done.value
        else:  # pragma: no cover - the pool never suspends
            raise AssertionError("pool.observe suspended")
        elapsed = time.perf_counter() - started
        assert len(results) == len(groups)
        # Each pass's seconds are split over its groups by rows, so the
        # groups' seconds add up to no more than the call.
        assert len(seconds) == len(groups)
        assert all(second >= 0.0 for second in seconds)
        assert sum(seconds) <= elapsed
        for (route, batch), (verdicts, levels) in zip(groups, results):
            want_verdicts, want_levels = reference[route].observe_batch(batch)
            assert verdicts.dtype == want_verdicts.dtype
            assert levels.dtype == want_levels.dtype
            assert np.array_equal(verdicts, want_verdicts), (number, route)
            assert np.array_equal(levels, want_levels), (number, route)
            rows += len(batch)
    for route, engine in reference.items():
        assert state_bytes(pool.engines[route]) == state_bytes(engine), route
        assert asdict(pool.engines[route].stats) == asdict(engine.stats), route
    return rows


class TestRandomDrains:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ci_width(self, ci_runs, seed):
        gas, water = ci_runs["gas_pipeline"], ci_runs["water_tank"]
        detectors = {GAS: gas.detector, WATER: water.detector, SOLO: gas.detector}
        captures = {
            GAS: gas.dataset.test_packages,
            WATER: water.dataset.test_packages,
            SOLO: gas.dataset.test_packages[::-1],
        }
        assert run_drains(detectors, captures, seed, drains=50) > 1500

    def test_paper_width(self, ci_runs):
        gas, water = ci_runs["gas_pipeline"], ci_runs["water_tank"]
        wide = paper_width(gas.detector)
        assert wide.timeseries.model.dtype == np.float32
        detectors = {GAS: wide, WATER: paper_width(water.detector, seed=12), SOLO: wide}
        captures = {
            GAS: gas.dataset.test_packages,
            WATER: water.dataset.test_packages,
            SOLO: gas.dataset.test_packages[::-1],
        }
        assert run_drains(detectors, captures, seed=4, drains=30) > 800

    def test_float64_weights(self, ci_runs, weights_as):
        """Artifacts written before float32 serving pass the same check."""
        gas = ci_runs["gas_pipeline"]
        wide = weights_as(gas.detector, np.float64)
        detectors = {GAS: wide, SOLO: wide}
        captures = {GAS: gas.dataset.test_packages, SOLO: gas.dataset.test_packages}
        assert run_drains(detectors, captures, seed=5, drains=20) > 200


class TestAgainstReferenceSeams:
    """One engine's drains against the reference Fig. 3 seams, which
    share no code with the pass."""

    @pytest.mark.parametrize("width", ["ci", "paper"])
    def test_random_drains(self, ci_runs, width):
        run = ci_runs["gas_pipeline"]
        detector = run.detector if width == "ci" else paper_width(run.detector)
        captures = {GAS: run.dataset.test_packages}
        traffic = Traffic(captures, seed=6)
        engine = detector.engine(LAYOUT[GAS][0])
        reference = ReferenceEngine(detector, LAYOUT[GAS][0])
        for number in range(12):
            ticks = [batch for _, batch in traffic.drain()]
            for (verdicts, levels), batch in zip(engine.observe_ticks(ticks), ticks):
                rows = [engine.stream_ids.index(sid) for sid in batch]
                want_verdicts, want_levels = reference.tick(rows, list(batch.values()))
                assert np.array_equal(verdicts, want_verdicts), number
                assert np.array_equal(levels, want_levels), number
            assert_same_state_bytes(engine, reference)


class TestPassContract:
    def test_recorded_stream_matches_one_package_at_a_time(self, ci_runs):
        """``observe_stream`` (offline ``detect()``) runs passes of
        :data:`STREAM_CHUNK` one-row ticks; across chunk boundaries its
        verdicts and state equal a monitor fed one package per call."""
        run = ci_runs["gas_pipeline"]
        detector = run.detector
        capture = list(run.dataset.test_packages) * 2
        assert len(capture) > 2 * STREAM_CHUNK
        engine = detector.engine(1)
        got = engine.observe_stream(engine.stream_ids[0], iter(capture))
        stepped = detector.engine(1)
        want = [stepped.observe_batch([package]) for package in capture]
        assert np.array_equal(got[0], np.concatenate([v for v, _ in want]))
        assert np.array_equal(got[1], np.concatenate([lv for _, lv in want]))
        assert state_bytes(engine) == state_bytes(stepped)
        result = detector.detect(capture)
        assert np.array_equal(result.is_anomaly, got[0])
        assert np.array_equal(result.level, got[1])
        assert engine.stats.ticks == len(capture)

    def test_empty_ticks_are_skipped_and_not_counted(self, ci_runs):
        run = ci_runs["gas_pipeline"]
        packages = run.dataset.test_packages
        engine = run.detector.engine(2)
        a, b = engine.stream_ids
        results = engine.observe_ticks([{}, {a: packages[0]}, {}, {b: packages[1], a: packages[2]}])
        assert [len(verdicts) for verdicts, _ in results] == [0, 1, 0, 2]
        assert engine.stats.ticks == 2 and engine.stats.packages == 3
        assert engine.observe_ticks([]) == []
        assert [len(v) for v, _ in engine.observe_ticks([{}, {}])] == [0, 0]
        assert engine.stats.ticks == 2

    def test_rejected_drain_changes_nothing(self, ci_runs):
        """An unknown stream in the last tick rejects the whole drain
        before any state, clock or counter moves."""
        run = ci_runs["gas_pipeline"]
        packages = run.dataset.test_packages
        engine = run.detector.engine(2)
        a, b = engine.stream_ids
        engine.observe_ticks([{a: packages[0], b: packages[1]}])
        before = state_bytes(engine)
        with pytest.raises(KeyError, match="no attached stream"):
            engine.observe_ticks([{a: packages[2]}, {b: packages[3]}, {99: packages[4]}])
        assert state_bytes(engine) == before

    def test_detached_stream_is_unknown_and_others_keep_their_rows(self, ci_runs):
        run = ci_runs["gas_pipeline"]
        packages = run.dataset.test_packages
        engine = run.detector.engine(3)
        reference = run.detector.engine(3)
        a, b, c = engine.stream_ids
        for number in range(3):
            tick = {a: packages[number], c: packages[50 + number]}
            engine.observe_ticks([tick])
            reference.observe_batch(tick)
        engine.detach(b)
        reference.detach(b)
        with pytest.raises(KeyError):
            engine.observe_ticks([{b: packages[9]}])
        ticks = [{c: packages[60 + i], a: packages[10 + i]} for i in range(5)]
        for (verdicts, _), tick in zip(engine.observe_ticks(ticks), ticks):
            assert np.array_equal(verdicts, reference.observe_batch(tick)[0])
        assert state_bytes(engine) == state_bytes(reference)
