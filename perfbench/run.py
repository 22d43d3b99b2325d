"""Serving benchmark: ``python -m repro serve`` driven over loopback sockets.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mixed-fleet --seed 1 --seconds 30 --trace 0

Each run trains (or reuses) the checkout's models, generates the seed's
site captures, and starts a fresh gateway as its own process.  The
gateway then serves ``ROUNDS`` rounds, each a closed-loop slice followed
by an open-loop slice at the workload's fixed offered rate, with the
sites' traffic carrying on from slice to slice; while it serves, it,
its shard workers and this process share one CPU (``Bench.placement``
says why).  The host this was
written on is shared and its speed swings by up to 2x in spells of a
few seconds to minutes, so every end-to-end figure pools many short
slices spread over the whole run rather than one stretch of it, and the
two timing figures are scaled to a reference host speed:

- ``throughput_pkg_s``: verdicts received in the closed-loop slices
  after their warm-up, per second of that measured time, times
  ``REFERENCE_SPEED`` over the host speed the load generator measured
  in those same seconds (see ``loadgen``);
- ``latency_p50_ms``: median due-to-verdict latency of every open-loop
  package due after its slice's warm-up, times the open-loop slices'
  host speed over ``REFERENCE_SPEED`` (the unscaled figures, the host
  speed, and the p90 and p99 are reported with the per-layer metrics,
  which carry no bound);
- ``setup_s``: with ``--trace 0`` a gateway that is only started and
  stopped follows every second round, so ``setup_s`` is the median of
  ``1 + ROUNDS // 2`` start-ups spread over the run;
- ``peak_rss_mb``: the gateway's high-water mark after the last round.

With ``--trace 1`` a second, traced gateway serves one more
closed-loop slice in every round, so traced and untraced throughput
sample the same stretches of the run; then the in-process layer
replays run.  Together they give the per-layer metrics.

Every verdict is checked against offline ``detect()`` of its site's
capture with its route's model; ``correct_share`` is the share of
attempted packages whose verdict arrived and matched.  The last line of
stdout is the JSON result.  Gateways are torn down on every exit path,
and the run ends only once ``/proc`` shows none of their processes.
"""

from __future__ import annotations

import os

# One BLAS thread per process, here and in every gateway and shard
# worker (they inherit the environment): on two cores, OpenBLAS pools
# in several processes spin against each other and against the load
# generator, and process-mode start-up swung between 0.8 s and 8.4 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Workload  # noqa: E402

#: Closed-loop plus open-loop rounds per run, on one gateway.  Short
#: rounds sample more of the host's speed spells than long ones.
ROUNDS = 8
#: Warm-up of a gateway's first slice: fresh connections, registry cold
#: loads, identification of untagged sites.
FIRST_WARMUP = 1.0
#: Packages the engine replay advances, split over the sites.
REPLAY_PACKAGES = 2000
#: Host speed, in iterations per second of the load generator's speed
#: kernel, at which throughput and latency are reported: about what the
#: kernel ran at on the host the benchmark was written on.
REFERENCE_SPEED = 7.0e6


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


_STARTED = time.perf_counter()


def _say(message: str) -> None:
    print(f"perfbench: {time.perf_counter() - _STARTED:6.1f}s {message}", flush=True)


def http_get(address: tuple[str, int], path: str) -> bytes:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return body
    finally:
        conn.close()


_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[tuple[str, dict[str, str], float]]:
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            name, labels, value = match.groups()
            samples.append((name, dict(_LABEL.findall(labels or "")), float(value)))
    return samples


def histogram(samples, name: str, **want: str) -> tuple[list[tuple[float, float]], float]:
    """Merged cumulative buckets and sum of one histogram family."""
    buckets: dict[float, float] = {}
    total = 0.0
    for sample, labels, value in samples:
        if any(labels.get(k) != v for k, v in want.items()):
            continue
        if sample == f"{name}_bucket":
            bound = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
            buckets[bound] = buckets.get(bound, 0.0) + value
        elif sample == f"{name}_sum":
            total += value
    return sorted(buckets.items()), total


def histogram_quantile(buckets: list[tuple[float, float]], q: float) -> float:
    """Prometheus-style quantile: linear interpolation inside a bucket."""
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_bound = lower_count = 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if bound == float("inf"):
                return lower_bound
            share = (rank - lower_count) / max(cumulative - lower_count, 1e-12)
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, cumulative
    return lower_bound


def histogram_max(buckets: list[tuple[float, float]]) -> float:
    """Upper bound of the highest non-empty finite bucket."""
    previous = 0.0
    top = 0.0
    for bound, cumulative in buckets:
        if cumulative > previous and bound != float("inf"):
            top = bound
        previous = cumulative
    return top


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def throughput(slices) -> float:
    """Verdicts per second over the measured part of closed-loop slices."""
    return sum(piece.verdicts for piece in slices) / sum(piece.measured for piece in slices)


def host_speed(slices) -> float:
    """Host-speed kernel iterations per thread CPU second over the slices."""
    return (
        sum(piece.probe_iterations for piece in slices)
        / sum(piece.probe_seconds for piece in slices)
    )


class Bench:
    """One benchmark run: its gateways, slices and checks."""

    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float) -> None:
        from artifacts import capture, ensure_artifacts, source_digest
        from loadgen import WireCache

        self.src = root / "src"
        self.cache = root / ".perfbench-cache"
        self.workload = workload
        self.seed = seed
        self.slice_seconds = seconds / (2 * ROUNDS)
        self.tmp = self.cache / "tmp" / f"run-{os.getpid()}"
        self.cpus = os.sched_getaffinity(0)
        self.gateways = []
        self.setup_samples: list[float] = []
        self.models = ensure_artifacts(self.cache / source_digest(root))
        per_site = int(workload.capture_rate * seconds / 2)
        self.captures = [
            capture(i, site, seed, per_site) for i, site in enumerate(workload.sites)
        ]
        self.wire = WireCache(workload.sites, self.captures)

    # -- gateways ------------------------------------------------------------

    def start_gateway(self, traced: bool = False):
        from procs import Gateway

        workdir = self.tmp / f"gateway-{len(self.gateways)}"
        args = self.workload.gateway_args()
        if self.workload.serving == "model":
            args += ["--model", str(self.models / "paper-2x256.npz")]
        else:
            args += ["--registry", str(self.models / "registry")]
        if self.workload.historian:
            args += ["--historian", str(workdir / "historian")]
        if self.workload.checkpoint_every:
            args += [
                "--checkpoint", str(workdir / "checkpoint.npz"),
                "--checkpoint-every", str(self.workload.checkpoint_every),
            ]
        if traced:
            args += ["--trace-sample", "1", "--trace-export", str(workdir / "spans.jsonl")]
        gateway = Gateway(args, workdir, self.src, self.cpus)
        self.gateways.append(gateway)
        self.setup_samples.append(gateway.start())
        return gateway

    def placement(self) -> set[int]:
        """The one CPU the gateway, its shard workers and the generator share.

        On the two-vCPU host the benchmark was written on, what ran on
        one vCPU changed the speed of the other: a BLAS product the size
        of a shard worker's LSTM step ran 3.5 times slower, and swung by
        2x from one half second to the next, while a Python loop ran on
        the other vCPU.  Left to the scheduler, process-mode throughput
        spread 0.15-0.29 (quartile distance over median, five seeds); on
        one CPU it spread 0.02-0.04.  One CPU also puts the generator's
        host-speed probe on the gateway's own CPU.
        """
        return {min(self.cpus)}

    def stop_gateway(self, gateway) -> None:
        gateway.stop()
        shutil.rmtree(gateway.workdir, ignore_errors=True)

    def teardown(self) -> None:
        """Stop every gateway (whatever state it is in), then check /proc."""
        from procs import GatewayError, descendants, group_members, reap_children

        errors = []
        for gateway in self.gateways:
            pgid = gateway.proc.pid if gateway.proc is not None else None
            try:
                gateway.stop()
            except GatewayError as exc:
                errors.append(str(exc))
            if pgid is not None and group_members(pgid):
                errors.append(f"gateway group {pgid} survived teardown")
        shutil.rmtree(self.tmp, ignore_errors=True)
        reap_children()
        survivors = descendants(os.getpid())
        if survivors:
            errors.append(f"processes survived teardown: {survivors}")
        if errors:
            raise RuntimeError("; ".join(errors))

    def observe(self, gateway) -> tuple[dict, list]:
        stats = json.loads(http_get(gateway.http_address, "/stats"))
        metrics = parse_prometheus(http_get(gateway.http_address, "/metrics").decode())
        return stats, metrics

    def engine_counts(self, gateway) -> tuple[int, int]:
        """``(packages, ticks)`` summed over the gateway's engines so far."""
        engines = json.loads(http_get(gateway.http_address, "/stats"))["shards"]
        if self.workload.serving == "registry":
            engines = [entry for shard in engines for entry in shard.values()]
        return (
            sum(engine["packages"] for engine in engines),
            sum(engine["ticks"] for engine in engines),
        )

    # -- correctness -----------------------------------------------------------

    def reference_models(self) -> dict[str, object]:
        from repro.persistence import load_detector
        from repro.registry import ModelRegistry

        if self.workload.serving == "model":
            detector = load_detector(self.models / "paper-2x256.npz")
            return {site.scenario: detector for site in self.workload.sites}
        registry = ModelRegistry(self.models / "registry")
        return {
            scenario: registry.resolve(scenario)[0] for scenario in registry.scenarios()
        }

    def check(self, served: list[tuple[str, list, dict]]) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` over every gateway's sites.

        ``served`` holds each gateway's label, site runs and final
        ``/stats``.  A package fails when its verdict is missing
        (refusal, timeout, lost connection), differs from offline
        ``detect()`` with the site's own scenario model, or came from a
        route to another scenario.  Offline detection is causal, so one
        pass over the longest prefix any gateway judged serves them all.
        """
        from artifacts import offline_verdicts

        models = self.reference_models()
        longest = [0] * len(self.workload.sites)
        for _, runs, _ in served:
            for run in runs:
                longest[run.index] = max(longest[run.index], run.judged)
        offline = [
            offline_verdicts(
                self.models,
                f"seed{self.seed}-{site.key}-{site.scenario}-{len(self.captures[i])}",
                models[site.scenario], self.captures[i], longest[i],
            )
            for i, site in enumerate(self.workload.sites)
        ]
        attempted = failed = 0
        problems: list[str] = []
        for label, runs, stats in served:
            routes = stats.get("routes", {})
            for run in runs:
                attempted += run.sent
                failed += run.sent - run.judged
                if run.failure is not None:
                    problems.append(f"{label} {run.site.key}: {run.failure}")
                if not run.judged:
                    continue
                route = routes.get(run.site.key, {}).get("scenario")
                if self.workload.serving == "registry" and route != run.site.scenario:
                    failed += run.judged
                    problems.append(
                        f"{label} {run.site.key}: routed to {route}, "
                        f"is {run.site.scenario}"
                    )
                    continue
                anomalies, levels = offline[run.index]
                wrong = int(
                    (
                        (anomalies[: run.judged] != np.array(run.anomalies))
                        | (levels[: run.judged] != np.array(run.levels))
                    ).sum()
                )
                if wrong:
                    failed += wrong
                    problems.append(f"{label} {run.site.key}: {wrong} wrong verdicts")
        return attempted, failed, problems


def replay_layers(bench: Bench, generator, stats: dict, rows_per_tick: float, spans) -> dict:
    """Every in-process layer replay on this run's own inputs."""
    import layers

    workload = bench.workload
    runs = generator.runs
    routes = stats.get("routes", {})
    models = bench.reference_models()
    # One engine per (shard, scenario), as the gateway pools them.
    groups: dict[tuple[int, str], list[int]] = {}
    for i, site in enumerate(workload.sites):
        shard = routes.get(site.key, {}).get("shard", 0)
        groups.setdefault((shard, site.scenario), []).append(i)
    per_stream = REPLAY_PACKAGES // len(workload.sites)
    totals: dict[str, float] = {}
    packages = 0
    identical = True
    codec = [0.0, 0.0]
    for (shard, scenario), members in sorted(groups.items()):
        captures = [bench.captures[i][:per_stream] for i in members]
        plan = layers.tick_plan(rows_per_tick, len(members), per_stream * len(members))
        seam_totals, count, same = layers.replay_engine(
            models[scenario], captures, plan, spans, f"engine:{shard}:{scenario}"
        )
        for name, seconds in seam_totals.items():
            totals[name] = totals.get(name, 0.0) + seconds
        packages += count
        identical = identical and same
        if workload.worker_mode == "process":
            judged = min(per_stream, *(runs[i].judged for i in members))
            verdicts = [list(zip(runs[i].anomalies, runs[i].levels)) for i in members]
            encode_us, decode_us = layers.replay_worker_codec(
                captures, verdicts,
                layers.tick_plan(rows_per_tick, len(members), judged * len(members)),
                spans,
            )
            codec[0] += encode_us / len(groups)
            codec[1] += decode_us / len(groups)

    # The run's verdict stream, interleaved across sites by seq.
    fallback = "gas_pipeline" if workload.serving == "model" else None
    items = []
    longest = max(run.judged for run in runs)
    for seq in range(longest):
        for run in runs:
            if seq < run.judged:
                route = routes.get(run.site.key, {})
                items.append((
                    run.site.key, seq, bench.captures[run.index][seq],
                    run.anomalies[seq], run.levels[seq],
                    route.get("scenario") or fallback, route.get("version"),
                ))
    registry = (0.0, 0.0)
    if workload.serving == "registry":
        probes = [
            (bench.captures[i], site.protocol)
            for i, site in enumerate(workload.sites) if not site.tagged
        ]
        registry = layers.replay_registry(bench.models / "registry", probes, spans)
    return {
        "engine": {"totals": totals, "packages": packages, "identical": identical},
        "decode": layers.replay_decode(generator.recorded, spans),
        "frame_verdict": layers.replay_frame_verdict(
            items, {site.key: site.protocol for site in workload.sites}, spans
        ),
        "delivery": layers.replay_delivery(
            items, bench.tmp / "replay-historian" if workload.historian else None, spans
        ),
        "registry": registry,
        "workers": tuple(codec),
    }


def per_layer(
    generator, stats: dict, metrics: list, served: dict, stages: dict, replay: dict,
) -> dict:
    """The per-layer block; ``served`` holds the run's load figures."""
    import layers

    out: dict[str, tuple[float, str]] = {}
    for dialect in ("modbus", "iec104", "dnp3"):
        out[f"protocols.decode_us.{dialect}"] = (replay["decode"].get(dialect, 0.0), "us")
    out["protocols.frame_verdict_us"] = (replay["frame_verdict"], "us")
    discarded = sum(c["bytes_discarded"] for c in stats["transport"].values())
    out["protocols.junk_share"] = (discarded / max(generator.bytes_sent, 1), "ratio")

    out["gateway.rows_per_tick"] = (served["rows_per_tick"], "rows/tick")
    _, tick_seconds = histogram(metrics, "gateway_tick_seconds")
    out["gateway.tick_busy_share"] = (tick_seconds / served["loaded_seconds"], "ratio")
    out["gateway.queue_peak"] = (float(stats["peak_queue_depth"]), "count")
    for stage in ("decode", "route", "queue", "tick", "deliver"):
        for q in ("p50", "p99"):
            value = stages.get(stage, {}).get(f"{q}_seconds", 0.0) * 1e3
            out[f"gateway.stage_ms.{stage}.{q}"] = (value, "ms")

    engine = replay["engine"]
    per_package = {
        name: seconds / engine["packages"] * 1e6
        for name, seconds in engine["totals"].items()
    }
    observe_us = per_package.pop("engine.observe_batch")
    out["engine.observe_batch_us"] = (observe_us, "us")
    out["engine.glue_us"] = (observe_us - sum(per_package.values()), "us")
    for seam, metric in layers.SEAMS.items():
        out[metric] = (per_package.get(seam, 0.0), "us")

    for layer in ("alerts.submit", "historian.append", "monitors.observe", "incidents.observe"):
        out[f"{layer}_us"] = (replay["delivery"][layer], "us")
    out["alerts.emitted"] = (float(stats["alerts"]["emitted"]), "count")
    out["alerts.suppressed"] = (float(stats["alerts"]["suppressed"]), "count")
    verdicts = [a for run in generator.runs for a in run.anomalies]
    out["verdicts.anomaly_share"] = (sum(verdicts) / max(len(verdicts), 1), "ratio")

    out["registry.identify_ms"] = (replay["registry"][0], "ms")
    out["registry.load_cold_ms"] = (replay["registry"][1], "ms")
    out["registry.identified"] = (float(stats.get("identified", 0)), "count")
    out["registry.abstained"] = (float(stats.get("abstained", 0)), "count")

    buckets, _ = histogram(metrics, "gateway_checkpoint_seconds")
    out["persistence.checkpoint_ms.p50"] = (histogram_quantile(buckets, 0.5) * 1e3, "ms")
    out["persistence.checkpoint_ms.max"] = (histogram_max(buckets) * 1e3, "ms")
    out["persistence.checkpoints"] = (float(stats["checkpoints_written"]), "count")

    for stage in ("worker", "pipe"):
        value = stages.get(stage, {}).get("p50_seconds", 0.0) * 1e3
        out[f"workers.stage_ms.{stage}.p50"] = (value, "ms")
    buckets, _ = histogram(metrics, "worker_pipe_roundtrip_seconds", op="observe")
    out["workers.pipe_roundtrip_ms.p50"] = (histogram_quantile(buckets, 0.5) * 1e3, "ms")
    out["workers.encode_observe_us"] = (replay["workers"][0], "us")
    out["workers.decode_verdicts_us"] = (replay["workers"][1], "us")

    # Each gateway's throughput at the host speed of its own slices.
    untraced = served["throughput"] / served["closed_speed"]
    traced = served["traced_throughput"] / served["traced_speed"]
    out["tracing.overhead_share"] = ((untraced - traced) / untraced, "ratio")
    out["host.speed"] = (served["closed_speed"] / 1e6, "Mit/s")
    out["throughput_unscaled_pkg_s"] = (served["throughput"], "pkg/s")
    out["latency_p50_unscaled_ms"] = (percentile(served["latencies"], 50) * 1e3, "ms")
    out["latency_p90_ms"] = (percentile(served["latencies"], 90) * 1e3, "ms")
    out["latency_p99_ms"] = (percentile(served["latencies"], 99) * 1e3, "ms")
    out["loadgen.lag_p99_ms"] = (percentile([x * 1e3 for x in generator.lags], 99), "ms")
    return out


def serve_rounds(bench: Bench, gateway, generator, traced_generator=None) -> dict:
    """Every round on the run's gateway(s); returns the load figures.

    With a ``traced_generator`` (``--trace 1``) each round ends with a
    closed-loop slice on the traced gateway; without one, every second
    round ends with a gateway that is only started and stopped.
    """
    from loadgen import WARMUP

    workload = bench.workload
    closed, open_, traced = [], [], []
    packages = ticks = 0
    for k in range(ROUNDS):
        warmup = FIRST_WARMUP if k == 0 else WARMUP
        before = bench.engine_counts(gateway)
        _say(f"round {k + 1}/{ROUNDS}: closed-loop slice ({bench.slice_seconds:g}s)")
        closed.append(generator.closed_loop(bench.slice_seconds, warmup))
        after = bench.engine_counts(gateway)
        packages += after[0] - before[0]
        ticks += after[1] - before[1]
        _say(
            f"round {k + 1}/{ROUNDS}: open-loop slice "
            f"({bench.slice_seconds:g}s at {workload.offered_rate:g} pkg/s)"
        )
        open_.append(generator.open_loop(bench.slice_seconds, workload.offered_rate))
        if traced_generator is not None:
            _say(f"round {k + 1}/{ROUNDS}: traced closed-loop slice")
            traced.append(traced_generator.closed_loop(bench.slice_seconds, warmup))
        elif k % 2 == 1:
            bench.stop_gateway(bench.start_gateway())
    latencies = [latency for piece in open_ for _, latency in piece.latencies]
    served = {
        "throughput": throughput(closed),
        "closed_speed": host_speed(closed),
        "traced_throughput": throughput(traced) if traced else None,
        "traced_speed": host_speed(traced) if traced else None,
        "latencies": latencies,
        "open_speed": host_speed(open_),
        "rows_per_tick": packages / max(ticks, 1),
        "loaded_seconds": sum(piece.seconds for piece in closed + open_),
    }
    _say(
        f"closed loop: {served['throughput']:.1f} pkg/s, "
        f"{served['rows_per_tick']:.3f} rows/tick, "
        f"host speed {served['closed_speed'] / 1e6:.3f}M/s"
        + (f"; traced {served['traced_throughput']:.1f} pkg/s" if traced else "")
    )
    _say("closed-loop slices (pkg/s at host speed M/s): " + " ".join(
        f"{throughput([piece]):.0f}@{host_speed([piece]) / 1e6:.2f}" for piece in closed
    ))
    _say(
        f"open loop: {len(latencies)} latency samples, "
        f"host speed {served['open_speed'] / 1e6:.3f}M/s"
    )
    return served


def run(bench: Bench, trace: bool) -> tuple[dict, int, int, bool]:
    """The run's gateways, checks and metrics; returns metrics, attempted, failed, correct."""
    from layers import SpanLog
    from loadgen import LoadGenerator
    from repro.obs.tracing import aggregate_spans, load_spans

    workload = bench.workload
    _say("models and captures ready")
    gateway = bench.start_gateway()
    generator = LoadGenerator(workload, bench.wire, gateway.address, record_wire=trace)
    traced = traced_generator = None
    if trace:
        traced = bench.start_gateway(traced=True)
        traced_generator = LoadGenerator(workload, bench.wire, traced.address)
    placement = bench.placement()
    for serving in (gateway, traced):
        if serving is not None:
            serving.pin(placement)
    os.sched_setaffinity(0, placement)
    try:
        served = serve_rounds(bench, gateway, generator, traced_generator)
    finally:
        os.sched_setaffinity(0, bench.cpus)
        generator.close()
        if traced_generator is not None:
            traced_generator.close()
    stats, metrics = bench.observe(gateway)
    rss_mb = gateway.peak_rss_mb()
    bench.stop_gateway(gateway)
    checked = [("served", generator.runs, stats)]

    stages: dict = {}
    if traced is not None:
        traced_stats, _ = bench.observe(traced)
        traced.stop()
        stages = aggregate_spans(load_spans(traced.workdir / "spans.jsonl"))["stages"]
        checked.append(("traced", traced_generator.runs, traced_stats))
        bench.stop_gateway(traced)

    _say("checking verdicts")
    attempted, failed, problems = bench.check(checked)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = failed == 0
    _say(f"{attempted} packages attempted, {failed} failed")
    if not trace:
        return {
            "throughput_pkg_s": (
                served["throughput"] * REFERENCE_SPEED / served["closed_speed"], "pkg/s"
            ),
            "latency_p50_ms": (
                percentile(served["latencies"], 50) * 1e3
                * served["open_speed"] / REFERENCE_SPEED, "ms",
            ),
            "correct_share": (1.0 - failed / max(attempted, 1), "ratio"),
            "setup_s": (statistics.median(bench.setup_samples), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }, attempted, failed, correct

    _say("layer replays")
    spans = SpanLog()
    replay = replay_layers(bench, generator, stats, served["rows_per_tick"], spans)
    spans.write(bench.cache / "spans" / f"{workload.name}-seed{bench.seed}.jsonl")
    if not replay["engine"]["identical"]:
        print("perfbench: FAILED replayed seams disagree with observe_batch", file=sys.stderr)
        correct = False
    metrics_out = per_layer(generator, stats, metrics, served, stages, replay)
    return metrics_out, attempted, failed, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    from procs import become_subreaper

    become_subreaper()
    signal.signal(signal.SIGTERM, _interrupt)
    bench = None
    try:
        bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds)
        metrics, attempted, failed, correct = run(bench, bool(args.trace))
    finally:
        # A second signal must not cut the teardown short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if bench is not None:
            bench.teardown()
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

