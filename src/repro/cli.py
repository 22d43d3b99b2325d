"""The ``repro`` command — train, deploy, serve and replay from the shell.

Installed as a console script (``repro``) and runnable as ``python -m
repro``.  Drives the persistence and serving layers end to end against
the gas-pipeline simulator:

- ``train``   — fit the combined framework on a profile's anomaly-free
  traffic and save it as one ``.npz`` artifact,
- ``detect``  — load an artifact and monitor the profile's test stream,
  optionally stopping early and writing a live-stream checkpoint,
- ``resume``  — reload a checkpoint and finish the stream exactly where
  ``detect`` stopped, bit-identical to an uninterrupted run,
- ``serve``   — run the online detection gateway: terminate Modbus/TCP
  sessions, shard them across batched stream engines, emit alerts, and
  checkpoint periodically for bit-identical fail-over,
- ``replay``  — stream a capture (generated profile or ARFF file) at a
  live gateway over real sockets and report its verdicts,
- ``scenarios`` — list the registered simulation scenarios (plants,
  actuators, per-scenario attack reinterpretations),
- ``fleet``   — spin up N simulated sites across scenarios and stream
  them concurrently through one sharded gateway, optionally verifying
  every site's verdicts bit-for-bit against offline detection;
  ``--heterogeneous`` serves every site with its own scenario's
  registry artifact instead of one shared model,
- ``registry`` — manage the versioned per-scenario model registry:
  ``publish`` a trained artifact as a scenario's next version, ``list``
  the published lineages, ``promote`` (or roll back to) a version —
  a live ``repro serve --registry`` gateway hot-swaps on promotion,
- ``trace``   — aggregate trace spans exported by ``serve``/``fleet``
  (``--trace-sample``/``--trace-export``) into a per-stage latency
  attribution table (p50/p99, critical-path share),
- ``info``    — inspect any artifact's kind, schema version and
  provenance without loading its arrays.

Profiles select a scenario with ``--scenario`` or the qualified
``--profile ci@water_tank`` form.  The trained artifact records its
profile/scenario/seed provenance, so ``detect`` and ``resume``
regenerate the matching package stream without repeating the flags
given to ``train``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from collections.abc import Awaitable
from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.combined import CombinedDetector
from repro.core.metrics import evaluate_detection
from repro.core.stream_engine import LEVEL_NAMES
from repro.experiments.profiles import PROFILES, Profile, get_profile
from repro.ics.dataset import generate_dataset
from repro.persistence import (
    checkpoint_meta,
    load_checkpoint,
    load_detector,
    profile_provenance,
    save_checkpoint,
    save_detector,
)
from repro.ics.arff import read_arff
from repro.obs import (
    CorrelatorConfig,
    Historian,
    IncidentCorrelator,
    MetricsRegistry,
    ObsServer,
    TraceConfig,
    Tracer,
)
from repro.obs.tracing import STAGE_ORDER, aggregate_spans, load_spans
from repro.registry import ModelRegistry, RegistryError
from repro.scenarios import get_scenario, scenario_names
from repro.serve.alerts import (
    AlertPipeline,
    JsonlSink,
    RecentAlertsBuffer,
    stdout_sink,
)
from repro.serve.fleet import FleetConfig, FleetRunner, ObsBindError
from repro.serve.gateway import DetectionGateway, GatewayConfig, ShardError
from repro.serve.replay import ReplayClient, ReplayError
from repro.utils.artifact import ArtifactError, read_meta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Train, deploy, serve and replay multi-level ICS anomaly "
            "detectors (also runnable as `python -m repro`)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train", help="train the combined framework and save one artifact"
    )
    _add_profile_options(train)
    train.add_argument("--out", required=True, help="artifact path (.npz)")
    train.add_argument("--verbose", action="store_true")

    detect = commands.add_parser(
        "detect", help="monitor the profile's test stream with a saved artifact"
    )
    detect.add_argument("--model", required=True, help="artifact from `train`")
    _add_profile_options(detect, optional=True)
    detect.add_argument(
        "--limit", type=int, default=None, help="only the first N test packages"
    )
    detect.add_argument(
        "--stop-after",
        type=int,
        default=None,
        help="stop after N packages and write --checkpoint",
    )
    detect.add_argument(
        "--checkpoint", default=None, help="checkpoint path for --stop-after"
    )
    detect.add_argument("--json", dest="json_out", default=None)

    resume = commands.add_parser(
        "resume", help="continue a checkpointed stream to the end"
    )
    resume.add_argument("--checkpoint", required=True)
    _add_profile_options(resume, optional=True)
    resume.add_argument("--limit", type=int, default=None)
    resume.add_argument("--json", dest="json_out", default=None)

    serve = commands.add_parser(
        "serve", help="run the online detection gateway on a trained artifact"
    )
    serve.add_argument("--model", default=None, help="artifact from `train`")
    serve.add_argument(
        "--registry",
        default=None,
        help="serve heterogeneously from this model registry directory "
        "(per-scenario routing, auto-identification, hot-swap)",
    )
    serve.add_argument(
        "--registry-poll",
        type=float,
        default=1.0,
        help="seconds between hot-swap polls of --registry (0 = off)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=5020)
    serve.add_argument(
        "--shards", type=int, default=1, help="stream-engine worker pool size"
    )
    serve.add_argument(
        "--worker-mode",
        choices=("thread", "process"),
        default="thread",
        help="run shard engines inline on the event loop (thread) or in "
        "one OS process per shard (process; scales past one core)",
    )
    serve.add_argument(
        "--checkpoint", default=None, help="gateway checkpoint path (fail-over)"
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="packages between periodic checkpoints (0 = only on shutdown)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore the gateway from --checkpoint before serving",
    )
    serve.add_argument(
        "--alerts-jsonl", default=None, help="append alerts to this JSONL file"
    )
    serve.add_argument(
        "--quiet", action="store_true", help="no per-alert stdout lines"
    )
    serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound `host port` here once listening (for scripts)",
    )
    serve.add_argument(
        "--max-packages",
        type=int,
        default=None,
        help="stop after serving N packages (smoke tests / drills)",
    )
    serve.add_argument(
        "--protocol",
        default=None,
        help="comma-separated wire dialects to accept "
        "(default: all; e.g. modbus,iec104,dnp3)",
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="serve the read-only observability HTTP API (dashboard, "
        "/metrics, /stats, /historian/query) on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--historian",
        default=None,
        help="append per-package verdict records to this historian "
        "directory (queryable over --http-port and `repro` tooling)",
    )
    serve.add_argument(
        "--alerts-buffer",
        type=int,
        default=256,
        help="recent-alerts ring capacity served over /alerts/recent",
    )
    _add_trace_options(serve)

    replay_cmd = commands.add_parser(
        "replay", help="stream a capture at a live gateway over real sockets"
    )
    replay_cmd.add_argument("--host", default="127.0.0.1")
    replay_cmd.add_argument("--port", type=int, default=5020)
    replay_cmd.add_argument(
        "--arff", default=None, help="replay this ARFF capture instead of a profile"
    )
    _add_profile_options(replay_cmd)
    replay_cmd.add_argument("--limit", type=int, default=None)
    replay_cmd.add_argument(
        "--key", default="replay", help="stream key (session identity on the gateway)"
    )
    replay_cmd.add_argument(
        "--window", type=int, default=32, help="max packages in flight"
    )
    replay_cmd.add_argument(
        "--noise-every",
        type=int,
        default=0,
        help="inject line-noise bytes before every Nth frame (0 = off)",
    )
    replay_cmd.add_argument(
        "--protocol",
        default="modbus",
        help="wire dialect to speak (modbus, iec104 or dnp3)",
    )
    replay_cmd.add_argument("--json", dest="json_out", default=None)

    scenarios_cmd = commands.add_parser(
        "scenarios", help="list the registered simulation scenarios"
    )
    scenarios_cmd.add_argument(
        "--json", dest="json_out", default=None, help="write full details here"
    )
    scenarios_cmd.add_argument(
        "--verbose", action="store_true", help="print attack reinterpretations"
    )

    fleet = commands.add_parser(
        "fleet",
        help="stream a multi-scenario site fleet through one gateway",
    )
    fleet.add_argument("--model", default=None, help="artifact from `train`")
    fleet.add_argument(
        "--profile",
        default="ci",
        help="train/load via the pipeline cache when no --model is given "
        "(accepts profile[@scenario])",
    )
    fleet.add_argument("--sites", type=int, default=4)
    fleet.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names cycled across sites "
        "(default: all registered)",
    )
    fleet.add_argument(
        "--cycles", type=int, default=60, help="polling cycles per site"
    )
    fleet.add_argument(
        "--shards", type=int, default=2, help="gateway engine worker pool size"
    )
    fleet.add_argument(
        "--worker-mode",
        choices=("thread", "process"),
        default="thread",
        help="gateway shard backend: inline engines (thread) or one OS "
        "process per shard (process)",
    )
    fleet.add_argument(
        "--seed", type=int, default=0, help="base seed for site captures"
    )
    fleet.add_argument(
        "--window", type=int, default=32, help="per-site packages in flight"
    )
    fleet.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the offline bit-identity check on every site",
    )
    fleet.add_argument(
        "--heterogeneous",
        action="store_true",
        help="route every site to its own scenario's registry artifact "
        "(training and publishing any missing scenario models first)",
    )
    fleet.add_argument(
        "--registry",
        default=None,
        help="model registry directory for --heterogeneous "
        "(default: <cache dir>/registry)",
    )
    fleet.add_argument(
        "--no-tag",
        action="store_true",
        help="omit scenario tags from OPEN frames so the gateway must "
        "auto-identify every site (--heterogeneous only)",
    )
    fleet.add_argument(
        "--protocols",
        default=None,
        help="comma-separated wire dialects cycled across sites "
        "(default: each site speaks its scenario's declared dialect)",
    )
    fleet.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="serve the read-only observability HTTP API for the duration "
        "of the run (0 = ephemeral)",
    )
    fleet.add_argument(
        "--alerts-buffer",
        type=int,
        default=256,
        help="recent-alerts ring capacity served over /alerts/recent",
    )
    _add_trace_options(fleet)
    fleet.add_argument("--json", dest="json_out", default=None)

    registry_cmd = commands.add_parser(
        "registry", help="manage the versioned per-scenario model registry"
    )
    registry_sub = registry_cmd.add_subparsers(
        dest="registry_command", required=True
    )
    publish = registry_sub.add_parser(
        "publish", help="publish a trained artifact as a scenario's next version"
    )
    publish.add_argument("--registry", required=True, help="registry directory")
    publish.add_argument("--model", required=True, help="artifact from `train`")
    publish.add_argument(
        "--scenario",
        default=None,
        help="override the scenario recorded in the artifact's provenance",
    )
    publish.add_argument(
        "--no-activate",
        action="store_true",
        help="publish dark: the currently active version keeps serving",
    )
    listing = registry_sub.add_parser(
        "list", help="list published scenario model lineages"
    )
    listing.add_argument("--registry", required=True, help="registry directory")
    listing.add_argument("--scenario", default=None, help="one scenario only")
    listing.add_argument("--json", dest="json_out", default=None)
    promote = registry_sub.add_parser(
        "promote",
        help="pin a scenario to a published version (rollout or rollback)",
    )
    promote.add_argument("--registry", required=True, help="registry directory")
    promote.add_argument("--scenario", required=True)
    promote.add_argument("--version", type=int, required=True)

    incidents_cmd = commands.add_parser(
        "incidents",
        help="reconstruct incidents offline from a JSONL alert log "
        "(post-mortem: same correlator the live gateway runs, replayed)",
    )
    incidents_cmd.add_argument(
        "--alerts-jsonl",
        required=True,
        help="JSONL alert log written by `repro serve --alerts-jsonl`",
    )
    incidents_cmd.add_argument(
        "--historian",
        default=None,
        help="historian directory: enrich each incident with per-stream "
        "package/anomaly counts over its time span",
    )
    incidents_cmd.add_argument(
        "--window",
        type=float,
        default=30.0,
        help="sliding join window in stream-clock seconds "
        "(must match the live correlator for identical incident sets)",
    )
    incidents_cmd.add_argument(
        "--resolve-after",
        type=float,
        default=60.0,
        help="quiet stream-clock seconds before an incident resolves",
    )
    incidents_cmd.add_argument(
        "--group-prefix-parts",
        type=int,
        default=0,
        help="leading '-'-separated stream-key tokens in the correlation "
        "key (0 = correlate all streams of one scenario@version)",
    )
    incidents_cmd.add_argument("--json", dest="json_out", default=None)

    trace_cmd = commands.add_parser(
        "trace",
        help="aggregate exported trace spans offline into a per-stage "
        "latency attribution table (p50/p99, critical-path share)",
    )
    trace_cmd.add_argument(
        "--spans",
        required=True,
        help="JSONL span export written by `repro serve --trace-export`",
    )
    trace_cmd.add_argument(
        "--scenario", default=None, help="only spans judged by this scenario"
    )
    trace_cmd.add_argument("--json", dest="json_out", default=None)

    info = commands.add_parser("info", help="inspect an artifact header")
    info.add_argument("path")
    return parser


def _add_profile_options(
    parser: argparse.ArgumentParser, optional: bool = False
) -> None:
    default = None if optional else "ci"
    parser.add_argument(
        "--profile",
        default=default,
        metavar="NAME[@SCENARIO]",
        help=f"experiment size profile ({', '.join(sorted(PROFILES))}), "
        "optionally scenario-qualified, e.g. ci@water_tank"
        + (" (default: from artifact)" if optional else ""),
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="simulation scenario (see `repro scenarios`)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--cycles", type=int, default=None, help="override dataset cycles"
    )
    parser.add_argument(
        "--epochs", type=int, default=None, help="override training epochs"
    )
    parser.add_argument(
        "--hidden", default=None, help="override LSTM widths, e.g. 64,64"
    )


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        metavar="N",
        help="trace every Nth package per stream through the serving "
        "path (0 = tracing off); sampling is seeded from the stream "
        "clock, so replays select the same packages",
    )
    parser.add_argument(
        "--trace-export",
        default=None,
        metavar="PATH",
        help="append finished spans to this JSONL file (aggregate "
        "offline with `repro trace --spans PATH`)",
    )


def _build_tracer(
    args: argparse.Namespace, metrics: MetricsRegistry | None
) -> Tracer | None:
    """Tracer from --trace-sample/--trace-export, or None when off."""
    if args.trace_sample <= 0:
        if args.trace_export:
            raise SystemExit(
                "error: --trace-export needs --trace-sample >= 1"
            )
        return None
    try:
        config = TraceConfig(
            sample_every=args.trace_sample, export_path=args.trace_export
        ).validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    return Tracer(config, metrics=metrics)


def _resolve_profile(
    name: str,
    seed: int | None,
    cycles: int | None,
    epochs: int | None,
    hidden: str | None,
    scenario: str | None = None,
) -> Profile:
    try:
        profile = get_profile(name)
        if scenario is not None:
            profile = profile.with_scenario(scenario)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from exc
    if seed is not None:
        profile = profile.with_seed(seed)
    if cycles is not None:
        profile = replace(profile, dataset=replace(profile.dataset, num_cycles=cycles))
    timeseries = profile.detector.timeseries
    if epochs is not None:
        timeseries = replace(timeseries, epochs=epochs)
    if hidden is not None:
        widths = tuple(int(h) for h in hidden.split(",") if h)
        timeseries = replace(timeseries, hidden_sizes=widths)
    if timeseries is not profile.detector.timeseries:
        profile = replace(
            profile, detector=replace(profile.detector, timeseries=timeseries)
        )
    # Surface bad size/split combinations (e.g. a --cycles value whose
    # split cannot hold one test fragment) as a clean CLI error at parse
    # time, not as a traceback from deep inside dataset generation.
    try:
        profile.dataset.validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    return profile


def _provenance(profile: Profile) -> dict[str, Any]:
    """Meta recorded in artifacts so later commands can rebuild the stream."""
    return profile_provenance(profile)


def _profile_from_args_and_meta(args: argparse.Namespace, meta: dict[str, Any]) -> Profile:
    """Profile for detect/resume: explicit flags win over stored provenance."""
    name = args.profile or meta.get("profile")
    if name is None:
        raise SystemExit(
            "artifact carries no provenance; pass --profile (and --seed/--cycles)"
        )
    return _resolve_profile(
        name,
        args.seed if args.seed is not None else meta.get("seed"),
        args.cycles if args.cycles is not None else meta.get("cycles"),
        args.epochs if args.epochs is not None else meta.get("epochs"),
        args.hidden if args.hidden is not None else meta.get("hidden"),
        args.scenario if args.scenario is not None else meta.get("scenario"),
    )


def _refuse_negative_counts(args: argparse.Namespace, *flags: str) -> None:
    """A negative package count would slice from the end of the capture."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < 0:
            raise SystemExit(f"error: {flag} must be >= 0, got {value}")


def _report(
    title: str,
    packages,
    anomalies: np.ndarray,
    levels: np.ndarray,
    seconds: float,
    json_out: str | None,
    extra: dict[str, Any] | None = None,
) -> None:
    labels = np.array([p.label for p in packages])
    metrics = evaluate_detection(labels, anomalies)
    by_level = {
        LEVEL_NAMES[tag]: int((levels[anomalies] == tag).sum())
        for tag in sorted(LEVEL_NAMES)
        if tag != 0
    }
    print(f"{title}: {len(packages)} packages in {seconds:.2f}s")
    print(
        f"  alerts: {int(anomalies.sum())} "
        f"(package-level {by_level.get('package', 0)}, "
        f"time-series {by_level.get('time-series', 0)})"
    )
    print(
        f"  precision {metrics.precision:.3f}  recall {metrics.recall:.3f}  "
        f"accuracy {metrics.accuracy:.3f}  F1 {metrics.f1_score:.3f}"
    )
    if json_out:
        payload = {
            "packages": len(packages),
            "seconds": seconds,
            "alerts": int(anomalies.sum()),
            "alerts_by_level": by_level,
            "precision": metrics.precision,
            "recall": metrics.recall,
            "accuracy": metrics.accuracy,
            "f1": metrics.f1_score,
            **(extra or {}),
        }
        with open(json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"  wrote {json_out}")


def _cmd_train(args: argparse.Namespace) -> int:
    profile = _resolve_profile(
        args.profile, args.seed, args.cycles, args.epochs, args.hidden,
        args.scenario,
    )
    print(
        f"generating {profile.dataset.scenario} dataset "
        f"({profile.dataset.num_cycles} cycles) ..."
    )
    dataset = generate_dataset(profile.dataset, seed=profile.seed)
    print(
        f"training on {sum(len(f) for f in dataset.train_fragments)} packages ..."
    )
    started = time.perf_counter()
    detector, artifacts = CombinedDetector.train(
        dataset.train_fragments,
        dataset.validation_fragments,
        profile.detector,
        rng=profile.seed,
        verbose=args.verbose,
    )
    train_seconds = time.perf_counter() - started
    save_detector(detector, args.out, meta=_provenance(profile))
    print(
        f"trained in {train_seconds:.1f}s: |S|={artifacts.vocabulary_size}, "
        f"k={artifacts.chosen_k}, "
        f"model {detector.memory_bytes() / 1024:.0f} KB "
        f"({detector.timeseries.model.dtype} weights)"
    )
    print(f"saved {args.out}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    if (args.stop_after is None) != (args.checkpoint is None):
        raise SystemExit("--stop-after and --checkpoint must be given together")
    _refuse_negative_counts(args, "--limit", "--stop-after")
    detector = load_detector(args.model)
    meta = read_meta(args.model)["meta"]
    profile = _profile_from_args_and_meta(args, meta)
    dataset = generate_dataset(profile.dataset, seed=profile.seed)
    packages = dataset.test_packages
    if args.limit is not None:
        packages = packages[: args.limit]
    if args.stop_after is not None:
        packages = packages[: args.stop_after]

    engine = detector.engine(1)
    started = time.perf_counter()
    anomalies, levels = engine.observe_stream(engine.stream_ids[0], packages)
    seconds = time.perf_counter() - started

    extra: dict[str, Any] = {"offset": 0}
    if args.stop_after is not None:
        save_checkpoint(
            engine,
            args.checkpoint,
            meta={**_provenance(profile), "offset": len(packages)},
        )
        print(f"checkpointed after {len(packages)} packages -> {args.checkpoint}")
        extra["checkpoint"] = args.checkpoint
        extra["stopped_at"] = len(packages)
    _report("detect", packages, anomalies, levels, seconds, args.json_out, extra)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    _refuse_negative_counts(args, "--limit")
    meta = checkpoint_meta(args.checkpoint)
    engine = load_checkpoint(args.checkpoint)
    offset = int(meta.get("offset", 0))
    profile = _profile_from_args_and_meta(args, meta)
    dataset = generate_dataset(profile.dataset, seed=profile.seed)
    packages = dataset.test_packages[offset:]
    if args.limit is not None:
        packages = packages[: args.limit]
    print(f"resuming at package {offset} ({len(packages)} remaining)")

    started = time.perf_counter()
    anomalies, levels = engine.observe_stream(engine.stream_ids[0], packages)
    seconds = time.perf_counter() - started
    _report(
        "resume", packages, anomalies, levels, seconds, args.json_out,
        {"offset": offset},
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.model and args.registry:
        raise SystemExit("serve takes --model or --registry, not both")
    if (
        args.model is None
        and args.registry is None
        and not (args.resume and args.checkpoint)
    ):
        raise SystemExit(
            "serve needs --model or --registry (or --resume with --checkpoint)"
        )
    protocols: tuple[str, ...] = ()
    if args.protocol:
        protocols = tuple(p for p in args.protocol.split(",") if p)
    try:
        config = GatewayConfig(
            host=args.host,
            port=args.port,
            num_shards=args.shards,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            max_packages=args.max_packages,
            registry_poll_seconds=args.registry_poll,
            protocols=protocols,
            worker_mode=args.worker_mode,
        ).validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    try:
        recent = RecentAlertsBuffer(args.alerts_buffer)
    except ValueError as exc:
        raise SystemExit(f"error: --alerts-buffer: {exc}") from exc
    metrics = MetricsRegistry()
    tracer = _build_tracer(args, metrics)
    historian = (
        Historian(args.historian, metrics=metrics) if args.historian else None
    )
    sinks = [recent] if args.quiet else [recent, stdout_sink]
    if args.alerts_jsonl:
        sinks.append(JsonlSink(args.alerts_jsonl))
    pipeline = AlertPipeline(sinks, metrics=metrics)

    registry = ModelRegistry(args.registry) if args.registry else None
    detector = load_detector(args.model) if args.model else None
    model_info = read_meta(args.model)["meta"] if args.model else None
    if args.resume and args.checkpoint and os.path.exists(args.checkpoint):
        try:
            gateway = DetectionGateway.from_checkpoint(
                args.checkpoint, config, pipeline, detector,
                registry=registry, model_info=model_info,
                metrics=metrics, historian=historian, tracer=tracer,
            )
        except ValueError as exc:
            # Checkpoint kind / serving mode mismatch (e.g. a routed
            # checkpoint without --registry) or a model version the
            # registry no longer holds: a clean message, not a traceback.
            raise SystemExit(f"error: {exc}") from exc
        print(f"resumed gateway from {args.checkpoint}")
    elif registry is not None:
        if not registry.scenarios():
            raise SystemExit(
                f"error: registry {args.registry} has no published models; "
                "run `repro registry publish` first"
            )
        gateway = DetectionGateway(
            config=config, alerts=pipeline, registry=registry,
            metrics=metrics, historian=historian, tracer=tracer,
        )
        print(
            f"serving heterogeneously from {args.registry} "
            f"({', '.join(registry.scenarios())})"
        )
    else:
        if detector is None:
            raise SystemExit(f"no checkpoint at {args.checkpoint}; pass --model")
        gateway = DetectionGateway(
            detector, config, pipeline, model_info=model_info,
            metrics=metrics, historian=historian, tracer=tracer,
        )

    async def bind(start: Awaitable[None]) -> None:
        # A taken --port or --http-port is a one-line error; run()'s
        # finally still stops the gateway and its workers.
        try:
            await start
        except OSError as exc:
            raise SystemExit(f"error: {exc}") from exc

    async def run() -> None:
        obs = None
        waits: list[asyncio.Future] = []
        try:
            await bind(gateway.start())
            host, port = gateway.address
            # gateway.config, not the local one: a resumed checkpoint's
            # shard topology overrides --shards.
            print(
                f"gateway listening on {host}:{port} "
                f"({gateway.config.num_shards} shard(s))"
            )
            if args.http_port is not None:
                obs = ObsServer(
                    gateway=gateway,
                    metrics=metrics,
                    historian=historian,
                    recent_alerts=recent,
                    host=args.host,
                    port=args.http_port,
                )
                await bind(obs.start())
                obs_host, obs_port = obs.address
                print(f"observability API on http://{obs_host}:{obs_port}/")
            if args.port_file:
                with open(args.port_file, "w") as handle:
                    handle.write(f"{host} {port}\n")
                    if obs is not None:
                        handle.write("http {} {}\n".format(*obs.address))
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or exotic platform: rely on max_packages
            waits.append(asyncio.ensure_future(stop.wait()))
            if config.max_packages is not None:
                waits.append(asyncio.ensure_future(gateway.wait_done()))
            await asyncio.wait(waits, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for w in waits:
                w.cancel()
            if obs is not None:
                await obs.stop()
            await gateway.stop(checkpoint=True)

    try:
        asyncio.run(run())
        _print_serve_summary(gateway.stats())
        if tracer is not None and args.trace_export:
            print(
                f"traces: exported {tracer.stats()['spans_exported']} "
                f"span(s) to {args.trace_export}"
            )
        if historian is not None:
            hstats = historian.stats()
            print(
                f"historian: {hstats['appended']} records in "
                f"{hstats['segments']} segment(s) at {hstats['root']}"
            )
    finally:
        if tracer is not None:
            tracer.close()
        if historian is not None:
            historian.close()
    return 0


def _print_serve_summary(stats: dict[str, Any]) -> None:
    """The gateway's shutdown summary (never exit silently)."""
    print(
        f"served {stats['processed']} packages on {stats['streams']} stream(s); "
        f"alerts emitted {stats['alerts']['emitted']} "
        f"(suppressed {stats['alerts']['suppressed']}), "
        f"checkpoints {stats['checkpoints_written']}, "
        f"peak queue depth {stats['peak_queue_depth']}"
    )
    incidents = stats.get("incidents")
    if incidents is not None:
        drift = stats.get("drift", {})
        print(
            f"incidents: {incidents['open']} open, "
            f"{incidents['resolved_total']} resolved "
            f"({incidents['alerts_absorbed']} alerts absorbed), "
            f"drift alerts {drift.get('drift_alerts', 0)}"
        )
    tracing = stats.get("tracing")
    if tracing is not None:
        stages = ", ".join(
            f"{stage} p50 {tracing['stages'][stage]['p50_seconds'] * 1e3:.2f}ms"
            for stage in STAGE_ORDER
            if stage in tracing["stages"]
        )
        print(
            f"tracing: {tracing['spans_finished']} span(s) at "
            f"1/{tracing['sample_every']} sampling"
            + (f" ({stages})" if stages else "")
        )
    for name, counters in sorted(stats["transport"].items()):
        print(
            f"  {name:<8} {counters['connections']} connection(s), "
            f"{counters['frames_decoded']} frames, "
            f"{counters['bytes_discarded']} junk bytes, "
            f"{counters['resyncs']} resync(s)"
        )
    if stats["mode"] == "registry":
        print(
            f"routes: identified {stats['identified']}, abstained "
            f"{stats['abstained']}, hot-swaps {stats['swaps_applied']}"
        )
        for key, route in sorted(stats["routes"].items()):
            print(
                f"  {key:<24} -> {route['scenario']}@{route['version']} "
                f"({route['packages']} pkgs)"
            )


def _cmd_replay(args: argparse.Namespace) -> int:
    _refuse_negative_counts(args, "--limit")
    if args.arff:
        packages = read_arff(args.arff)
    else:
        profile = _resolve_profile(
            args.profile, args.seed, args.cycles, args.epochs, args.hidden,
            args.scenario,
        )
        packages = generate_dataset(profile.dataset, seed=profile.seed).test_packages
    if args.limit is not None:
        packages = packages[: args.limit]

    try:
        client = ReplayClient(
            args.host,
            args.port,
            stream_key=args.key,
            window=args.window,
            noise_every=args.noise_every,
            protocol=args.protocol,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}") from exc
    started = time.perf_counter()
    result = client.replay(packages)
    seconds = time.perf_counter() - started
    judged = packages[result.start : result.start + result.judged]
    _report(
        "replay", judged, result.anomalies, result.levels, seconds, args.json_out,
        {"offset": result.start, "complete": result.complete},
    )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    details = []
    for name in scenario_names():
        scenario = get_scenario(name)
        details.append(scenario.describe())
        drive, relief = scenario.actuators
        print(f"{name}: {scenario.title}")
        print(
            f"  process variable: {scenario.process_variable} "
            f"({scenario.process_unit}), station address "
            f"{scenario.scada.station_address}, protocol {scenario.protocol}"
        )
        print(f"  actuators: drive={drive}, relief={relief}")
        if scenario.registers.n_aux:
            print(
                "  auxiliary registers: "
                + ", ".join(scenario.registers.aux_names)
            )
        if args.verbose:
            for attack, note in details[-1]["attack_notes"].items():
                print(f"    {attack:<6} {note}")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(details, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    return 0


def _fleet_registry(args: argparse.Namespace, scenarios: tuple[str, ...]) -> ModelRegistry:
    """Open (and, if needed, populate) the registry for --heterogeneous."""
    from repro.experiments.pipeline import cache_dir, run_pipeline
    from repro.persistence import profile_provenance

    root = args.registry or str(cache_dir() / "registry")
    registry = ModelRegistry(root)
    base_profile = (args.profile or "ci").split("@", 1)[0]
    for name in scenarios or scenario_names():
        if registry.versions(name):
            continue
        print(f"registry has no {name!r} model; training {base_profile}@{name} ...")
        try:
            pipeline = run_pipeline(f"{base_profile}@{name}")
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from exc
        entry = registry.publish(
            pipeline.detector, name, meta=profile_provenance(pipeline.profile)
        )
        print(f"  published {entry.label}")
    return registry


def _cmd_fleet(args: argparse.Namespace) -> int:
    scenarios: tuple[str, ...] = ()
    if args.scenarios:
        scenarios = tuple(s for s in args.scenarios.split(",") if s)
        for name in scenarios:
            try:
                get_scenario(name)
            except KeyError as exc:
                raise SystemExit(f"error: {exc.args[0]}") from exc

    registry = None
    detector = None
    if args.heterogeneous:
        if args.model:
            raise SystemExit("--heterogeneous routes per scenario; drop --model")
        registry = _fleet_registry(args, scenarios)
    elif args.model:
        detector = load_detector(args.model)
    else:
        from repro.experiments.pipeline import run_pipeline

        print(f"resolving detector for profile {args.profile!r} ...")
        try:
            detector = run_pipeline(args.profile).detector
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from exc

    try:
        config = FleetConfig(
            num_sites=args.sites,
            scenarios=scenarios,
            cycles_per_site=args.cycles,
            num_shards=args.shards,
            base_seed=args.seed,
            window=args.window,
            verify_offline=not args.no_verify,
            tag_streams=not args.no_tag,
            worker_mode=args.worker_mode,
            protocols=(
                tuple(p for p in args.protocols.split(",") if p)
                if args.protocols
                else ()
            ),
            alerts_buffer=args.alerts_buffer,
        ).validate()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}") from exc

    metrics = MetricsRegistry() if args.http_port is not None else None
    tracer = _build_tracer(args, metrics)
    runner = FleetRunner(
        detector,
        config,
        registry=registry,
        metrics=metrics,
        tracer=tracer,
        http_port=args.http_port,
    )
    if args.http_port is not None:
        # Print the observability address as soon as the run exposes it.
        import threading as _threading

        def announce() -> None:
            for _ in range(100):
                if runner.http_address is not None:
                    print(
                        "observability API on http://{}:{}/".format(
                            *runner.http_address
                        )
                    )
                    return
                time.sleep(0.1)

        _threading.Thread(target=announce, daemon=True).start()
    try:
        result = runner.run()
    except ObsBindError as exc:
        raise SystemExit(f"error: {exc}") from exc
    finally:
        if tracer is not None:
            tracer.close()

    for site in result.sites:
        verified = (
            ""
            if site.matches_offline is None
            else ("  offline-match" if site.matches_offline else "  MISMATCH")
        )
        status = "ok" if site.complete else "INCOMPLETE"
        model = (
            f"  [{site.route_scenario}@{site.route_version}]"
            if result.heterogeneous and site.route_scenario is not None
            else ""
        )
        print(
            f"{site.spec.name:<28}{site.packages:>7} pkgs"
            f"{int(site.anomalies.sum()):>7} alerts  "
            f"recall {site.metrics.recall:.2f}  {status}{verified}{model}"
        )
    print(
        f"fleet: {len(result.sites)} sites / "
        f"{len(result.scenarios_streamed)} scenarios "
        f"({', '.join(result.scenarios_streamed)}) through "
        f"{config.num_shards} {config.worker_mode} shard(s)"
        + (" [heterogeneous]" if result.heterogeneous else "")
    )
    print(
        f"  streamed {result.total_packages} packages in "
        f"{result.seconds:.2f}s ({result.packages_per_second:.0f} pkg/s)"
    )
    incident_counts = result.incident_counts
    if incident_counts:
        print(
            f"  incidents: {incident_counts.get('open', 0)} open, "
            f"{incident_counts.get('resolved_total', 0)} resolved "
            f"({incident_counts.get('alerts_absorbed', 0)} alerts absorbed)"
        )
    drift_counts = result.drift_counts
    if drift_counts:
        by_kind = ", ".join(
            f"{kind} {count}" for kind, count in sorted(drift_counts.items())
        )
        print(
            f"  drift alerts: {sum(drift_counts.values())} ({by_kind})"
        )
    if tracer is not None:
        tstats = tracer.stats()
        print(
            f"  traces: {tstats['spans_finished']} span(s) at "
            f"1/{tstats['sample_every']} sampling"
            + (
                f", exported to {args.trace_export}"
                if args.trace_export
                else ""
            )
        )
    if not args.no_verify:
        print(
            "  per-stream verdicts bit-identical to offline detect(): "
            + ("yes" if result.all_match_offline else "NO")
        )
    if args.json_out:
        payload = {
            "sites": [
                {
                    "name": site.spec.name,
                    "scenario": site.spec.scenario,
                    "seed": site.spec.seed,
                    "packages": site.packages,
                    "alerts": int(site.anomalies.sum()),
                    "recall": site.metrics.recall,
                    "precision": site.metrics.precision,
                    "complete": site.complete,
                    "matches_offline": site.matches_offline,
                    "route_scenario": site.route_scenario,
                    "route_version": site.route_version,
                    "protocol": site.route_protocol,
                }
                for site in result.sites
            ],
            "scenarios": list(result.scenarios_streamed),
            "heterogeneous": result.heterogeneous,
            "shards": config.num_shards,
            "worker_mode": config.worker_mode,
            "total_packages": result.total_packages,
            "seconds": result.seconds,
            "packages_per_second": result.packages_per_second,
            "incidents": result.incident_counts,
            "drift": result.drift_counts,
            # null when verification was skipped — a vacuous true would
            # let CI gates "pass" a drill that never ran.
            "all_match_offline": (
                None if args.no_verify else result.all_match_offline
            ),
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json_out}")
    if not result.all_complete:
        return 1
    return 0 if (args.no_verify or result.all_match_offline) else 1


def _cmd_registry(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    if args.registry_command == "publish":
        entry = registry.publish_path(
            args.model, scenario=args.scenario, activate=not args.no_activate
        )
        state = "active" if entry.active else "dark"
        print(f"published {entry.label} ({state}) -> {entry.path}")
        return 0
    if args.registry_command == "promote":
        entry = registry.promote(args.scenario, args.version)
        print(f"promoted {entry.label} to active")
        return 0
    # list
    entries = registry.entries(args.scenario)
    if not entries:
        print("registry is empty")
    for entry in entries:
        marker = "*" if entry.active else " "
        profile = entry.meta.get("profile", "-")
        seed = entry.meta.get("seed", "-")
        print(
            f"{marker} {entry.scenario:<16} v{entry.version:<4} "
            f"profile={profile} seed={seed}"
        )
    if args.json_out:
        payload = [
            {
                "scenario": entry.scenario,
                "version": entry.version,
                "active": entry.active,
                "path": entry.path,
                "meta": entry.meta,
            }
            for entry in entries
        ]
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    header = read_meta(args.path)
    print(f"kind:    {header['kind']}")
    print(f"version: {header['version']}")
    for key, value in sorted(header["meta"].items()):
        print(f"meta.{key}: {value}")
    return 0


def _cmd_incidents(args: argparse.Namespace) -> int:
    """Offline incident reconstruction: replay a JSONL alert log through
    the same correlator the live gateway runs (same config => identical
    incident set), optionally enriched from historian segments."""
    from repro.serve.alerts import alert_from_dict

    try:
        correlator = IncidentCorrelator(
            CorrelatorConfig(
                window=args.window,
                resolve_after=args.resolve_after,
                group_prefix_parts=args.group_prefix_parts,
            )
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc

    replayed = 0
    with open(args.alerts_jsonl, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                alert = alert_from_dict(json.loads(line))
            except (ValueError, KeyError) as exc:
                raise SystemExit(
                    f"error: {args.alerts_jsonl}:{line_number}: "
                    f"not an alert record ({exc})"
                ) from exc
            correlator.observe(alert)
            replayed += 1

    snapshot = correlator.snapshot()
    incidents = sorted(
        snapshot["open"] + snapshot["resolved"], key=lambda inc: inc["id"]
    )

    if args.historian:
        # Context an alert log cannot give: how much traffic (and how
        # much of it anomalous) each involved stream logged overall —
        # one storm-struck stream among thousands of clean packages
        # reads very differently from one that is anomalous throughout.
        historian = Historian(args.historian)
        try:
            for incident in incidents:
                context: dict[str, dict[str, int]] = {}
                for stream in incident["streams"]:
                    records = historian.query(stream_key=stream)
                    context[stream] = {
                        "packages": len(records),
                        "anomalous": sum(1 for r in records if r.verdict),
                    }
                incident["historian"] = context
        finally:
            historian.close()

    counts = snapshot["counts"]
    print(
        f"replayed {replayed} alert(s) -> {counts['opened_total']} "
        f"incident(s): {counts['open']} open, "
        f"{counts['resolved_total']} resolved"
    )
    for incident in incidents:
        span = incident["last_seen"] - incident["first_seen"]
        line = (
            f"  #{incident['id']} {incident['status']:<8} "
            f"{incident['scenario']}@{incident['version']} "
            f"sev={incident['severity']} streams={len(incident['streams'])} "
            f"alerts={incident['alerts']} "
            f"t=[{incident['first_seen']:.2f}..{incident['last_seen']:.2f}] "
            f"({span:.2f}s)"
        )
        print(line)
        for stream, ctx in sorted(incident.get("historian", {}).items()):
            print(
                f"      {stream:<24} {ctx['packages']} pkgs logged, "
                f"{ctx['anomalous']} anomalous"
            )
    if args.json_out:
        payload = {
            "alerts_replayed": replayed,
            "config": correlator.config.to_dict(),
            "counts": counts,
            "incidents": incidents,
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Offline stage-latency attribution from an exported span log."""
    try:
        records = load_spans(args.spans)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    summary = aggregate_spans(records, scenario=args.scenario)
    scope = f" (scenario {args.scenario})" if args.scenario else ""
    print(f"{summary['spans']} span(s) from {args.spans}{scope}")
    if summary["spans"]:
        print(
            f"  total: p50 {summary['total_p50_seconds'] * 1e3:.3f}ms  "
            f"p99 {summary['total_p99_seconds'] * 1e3:.3f}ms"
        )
        print(
            f"  {'stage':<8} {'spans':>6} {'p50 ms':>9} {'p99 ms':>9} "
            f"{'mean ms':>9} {'share':>7}"
        )
        for stage, row in summary["stages"].items():
            print(
                f"  {stage:<8} {row['count']:>6} "
                f"{row['p50_seconds'] * 1e3:>9.3f} "
                f"{row['p99_seconds'] * 1e3:>9.3f} "
                f"{row['mean_seconds'] * 1e3:>9.3f} "
                f"{row['share'] * 100:>6.1f}%"
            )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "detect": _cmd_detect,
    "resume": _cmd_resume,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
    "scenarios": _cmd_scenarios,
    "fleet": _cmd_fleet,
    "registry": _cmd_registry,
    "incidents": _cmd_incidents,
    "trace": _cmd_trace,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        ArtifactError,
        RegistryError,
        FileNotFoundError,
        ConnectionError,
        ReplayError,
        ShardError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
