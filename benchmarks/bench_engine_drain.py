"""One engine pass per drain vs one engine call per tick.

A gateway shard hands its engine pool every tick queued for it in one
call, and the engine runs those ticks as one pass: discretization, the
signature-table lookup, the one-hot rows and the state select/scatter
run once over the drain's rows, and only the LSTM steps tick by tick.
The serving benchmark (``perfbench``) replays the engine one tick per
call, so it cannot show what a pass saves across a drain; this
benchmark does.

One stream takes a ci test capture as one-row ticks, the shape of a
closed-loop client's window, in drains of 1, 8 and 32 ticks
(``observe_ticks``) and one tick per call (``observe_batch``).  The two
alternate, rep after rep, on fresh engines; every rep's verdicts,
levels and recurrent-state bytes must be equal, else the benchmark
fails.  It runs on the ci gas_pipeline model and on a random 2×256
float32 network over the same signature database (the paper model's
width), and reports µs per package: median and quartiles over reps,
and the median of the per-rep ratio.  There is no timing gate, since
short timings on a shared host spread too far to decide one.

``observe_batch`` is itself a one-tick pass, so the 1-tick row times
the same code on both sides: it is the comparison's noise floor, not
evidence that one-tick calls got cheaper or dearer.  Comparing the
one-tick path against an earlier engine needs that engine's code
alongside this one, which this benchmark does not load.

Run:  REPRO_PROFILE=ci pytest benchmarks/bench_engine_drain.py -s
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import emit_json, emit_report
from repro.core.combined import CombinedDetector
from repro.core.timeseries_detector import TimeSeriesDetector, TimeSeriesDetectorConfig
from repro.experiments.pipeline import run_pipeline

#: Ticks per drain; 1 is the same-code noise floor (see above).
DRAIN_TICKS = (1, 8, 32)

#: Alternating reps per drain size and width.
REPS = 11


def paper_width(detector: CombinedDetector) -> CombinedDetector:
    """The ci detector's discretizer and signatures under a random 2×256
    float32 network."""
    timeseries = detector.timeseries
    wide = TimeSeriesDetector(
        timeseries.vocabulary,
        timeseries.encoder.cardinalities,
        TimeSeriesDetectorConfig(hidden_sizes=(256, 256), k=timeseries.k),
        rng=11,
    )
    wide.model.cast(np.float32)
    return CombinedDetector(detector.discretizer, detector.package_detector, wide)


def per_tick(detector, capture):
    """One ``observe_batch`` call per package; returns (seconds, engine,
    verdicts, levels)."""
    engine = detector.engine(1)
    (stream,) = engine.stream_ids
    verdicts, levels = [], []
    started = time.perf_counter()
    for package in capture:
        got, tags = engine.observe_batch({stream: package})
        verdicts.append(got)
        levels.append(tags)
    seconds = time.perf_counter() - started
    return seconds, engine, np.concatenate(verdicts), np.concatenate(levels)


def per_drain(detector, capture, ticks):
    """``observe_ticks`` over drains of ``ticks`` one-row ticks."""
    engine = detector.engine(1)
    (stream,) = engine.stream_ids
    drains = [
        [{stream: package} for package in capture[at : at + ticks]]
        for at in range(0, len(capture), ticks)
    ]
    verdicts, levels = [], []
    started = time.perf_counter()
    for drain in drains:
        for got, tags in engine.observe_ticks(drain):
            verdicts.append(got)
            levels.append(tags)
    seconds = time.perf_counter() - started
    return seconds, engine, np.concatenate(verdicts), np.concatenate(levels)


def state_bytes(engine) -> list[bytes]:
    streams = engine.state_dict()["streams"]
    arrays = [streams[name] for name in ("last_probs", "has_probs", "packages_seen")]
    for layer in streams["lstm"].values():
        arrays += [layer["h"], layer["c"]]
    return [array.tobytes() for array in arrays]


def quartiles(values) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def measure(detector, capture, ticks) -> dict:
    """Alternating reps of one tick per call and drains of ``ticks``."""
    count = len(capture)
    tick_us, drain_us = [], []
    for rep in range(REPS):
        runs = {}
        order = ("tick", "drain") if rep % 2 == 0 else ("drain", "tick")
        for mode in order:
            runs[mode] = (
                per_tick(detector, capture)
                if mode == "tick"
                else per_drain(detector, capture, ticks)
            )
        (t_s, t_engine, t_v, t_l), (d_s, d_engine, d_v, d_l) = runs["tick"], runs["drain"]
        assert np.array_equal(t_v, d_v) and np.array_equal(t_l, d_l), (ticks, rep)
        assert state_bytes(t_engine) == state_bytes(d_engine), (ticks, rep)
        tick_us.append(1e6 * t_s / count)
        drain_us.append(1e6 * d_s / count)
    ratios = [d / t for d, t in zip(drain_us, tick_us)]
    return {
        "ticks_per_drain": ticks,
        "packages": count,
        "reps": REPS,
        "per_tick_us": quartiles(tick_us),
        "per_drain_us": quartiles(drain_us),
        "ratio_median": float(np.median(ratios)),
        "drain_faster_reps": int(sum(d < t for d, t in zip(drain_us, tick_us))),
        "same_code": ticks == 1,
        "bit_identical": True,
    }


def test_engine_drain(profile):
    run = run_pipeline("ci@gas_pipeline")
    capture = list(run.dataset.test_packages)
    widths = {
        "ci": run.detector,
        "paper_2x256_float32": paper_width(run.detector),
    }
    results: dict = {"profile": profile, "widths": {}}
    rows = [
        f"{'width':<22}{'ticks':>6}{'per tick us':>20}{'per drain us':>20}"
        f"{'ratio':>8}{'faster':>8}"
    ]
    for name, detector in widths.items():
        hidden = detector.timeseries.config.hidden_sizes
        entries = []
        for ticks in DRAIN_TICKS:
            entry = measure(detector, capture, ticks)
            entries.append(entry)
            tick, drain = entry["per_tick_us"], entry["per_drain_us"]
            rows.append(
                f"{name:<22}{ticks:>6}"
                f"{tick['median']:>9.1f} [{tick['q1']:.1f}, {tick['q3']:.1f}]"
                f"{drain['median']:>9.1f} [{drain['q1']:.1f}, {drain['q3']:.1f}]"
                f"{entry['ratio_median']:>8.2f}"
                f"{entry['drain_faster_reps']:>5}/{entry['reps']}"
                + ("  same code" if entry["same_code"] else "")
            )
        results["widths"][name] = {"hidden_sizes": list(hidden), "drains": entries}
    table = "\n".join(
        rows
        + [
            "",
            "us per package, median [q1, q3] over alternating reps; ratio is",
            "the median per-rep drain/tick ratio; faster counts reps where the",
            "drain pass won.  Every rep's verdicts, levels and state bytes matched.",
            "At 1 tick per drain both sides run the same one-tick pass, so that",
            "row is the noise floor, not a comparison of two code paths.",
        ]
    )
    emit_report("engine_drain", table)
    emit_json("engine_drain", results)
