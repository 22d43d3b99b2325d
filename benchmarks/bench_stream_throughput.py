"""Throughput of the batched StreamEngine vs sequential StreamMonitors.

The combined detector of the paper monitors one package stream with
batch-size-1 LSTM steps; a SCADA front-end terminating N field-bus
links would need N sequential monitors.  :class:`StreamEngine` instead
advances all N streams with one batched LSTM step per tick.  This
benchmark measures packages/sec for N ∈ {1, 8, 32}, sequential vs
batched, over :data:`REPS` alternating reps per N, prints every rep,
and asserts the ≥5× batching win at N=32 on the median of the reps'
ratios (pkg/s columns are medians too).

Training quality is irrelevant here (the data path does identical work
whatever the weights), so the detector is trained briefly; the model
*size* follows the profile since matmul width dominates the step cost.

Run:  REPRO_PROFILE=ci pytest benchmarks/bench_stream_throughput.py -s
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import emit_json, emit_report
from repro.core.combined import CombinedDetector, DetectorConfig
from repro.core.timeseries_detector import TimeSeriesDetectorConfig
from repro.ics.dataset import DatasetConfig, generate_dataset

STREAM_COUNTS = (1, 8, 32)
#: Alternating sequential/batched timings per stream count.  The gate
#: reads the median of their ratios: the fastest of two runs per side
#: swung between 4.6x and 7.3x on unchanged code.
REPS = 5

#: profile -> (dataset cycles, hidden sizes, packages per stream)
SIZES = {
    "ci": (900, (24,), 120),
    "default": (2000, (64, 64), 200),
    "paper": (5000, (256, 256), 200),
}


def _train_detector(profile: str):
    cycles, hidden_sizes, ticks = SIZES.get(profile, SIZES["default"])
    dataset = generate_dataset(DatasetConfig(num_cycles=cycles), seed=7)
    detector, _ = CombinedDetector.train(
        dataset.train_fragments,
        dataset.validation_fragments,
        DetectorConfig(
            timeseries=TimeSeriesDetectorConfig(hidden_sizes=hidden_sizes, epochs=2)
        ),
        rng=7,
    )
    return detector, dataset, ticks


def _stream_slices(dataset, num_streams: int, ticks: int):
    """Per-stream package sequences, strided so streams differ."""
    packages = dataset.test_packages
    return [
        [packages[(i * 37 + t) % len(packages)] for t in range(ticks)]
        for i in range(num_streams)
    ]


def test_stream_throughput(profile):
    detector, dataset, ticks = _train_detector(profile)

    def timed(make_run) -> float:
        run = make_run()
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    rows = []
    reps = []
    results = {"profile": profile, "ticks_per_stream": ticks, "streams": {}}
    for num_streams in STREAM_COUNTS:
        streams = _stream_slices(dataset, num_streams, ticks)
        total = num_streams * ticks

        def sequential_run():
            monitors = [detector.stream() for _ in range(num_streams)]

            def run():
                for t in range(ticks):
                    for i, monitor in enumerate(monitors):
                        monitor.observe(streams[i][t])

            return run

        def batched_run():
            engine = detector.engine(num_streams)

            def run():
                for t in range(ticks):
                    engine.observe_batch([streams[i][t] for i in range(num_streams)])

            return run

        # Alternate which side runs first, so a slow spell of the host
        # falls on both; each rep's ratio compares neighbouring runs.
        sequential_s, batched_s = [], []
        for rep in range(REPS):
            if rep % 2 == 0:
                sequential_s.append(timed(sequential_run))
                batched_s.append(timed(batched_run))
            else:
                batched_s.append(timed(batched_run))
                sequential_s.append(timed(sequential_run))
            reps.append(
                f"{num_streams:>8}{rep + 1:>6}{sequential_s[-1]:>12.4f}"
                f"{batched_s[-1]:>12.4f}{sequential_s[-1] / batched_s[-1]:>10.2f}x"
            )
        ratios = [s / b for s, b in zip(sequential_s, batched_s)]
        speedup = statistics.median(ratios)
        sequential_pps = total / statistics.median(sequential_s)
        batched_pps = total / statistics.median(batched_s)
        rows.append(
            f"{num_streams:>8}{sequential_pps:>16.0f}{batched_pps:>14.0f}"
            f"{speedup:>10.2f}x"
        )
        results["streams"][str(num_streams)] = {
            "sequential_packages_per_sec": sequential_pps,
            "batched_packages_per_sec": batched_pps,
            "speedup": speedup,
            "sequential_s": sequential_s,
            "batched_s": batched_s,
            "speedups": ratios,
        }

    table = "\n".join(
        [f"{'streams':>8}{'seq pkg/s':>16}{'batch pkg/s':>14}{'speedup':>11}"]
        + rows
        + ["", f"{'streams':>8}{'rep':>6}{'seq s':>12}{'batch s':>12}{'ratio':>11}"]
        + reps
    )
    emit_report("stream_throughput", table)
    emit_json("stream_throughput", results)

    # The batching win the engine exists for: ≥5× at N=32, on the median
    # of the alternating reps' ratios.
    assert results["streams"]["32"]["speedup"] >= 5.0, table
