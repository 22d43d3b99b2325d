"""Framework-level persistence: train once, deploy anywhere.

The paper's framework is explicitly train-offline / monitor-online
(Fig. 3): the signature database and the LSTM are built from recorded
anomaly-free traffic, then deployed against the live package stream.
This module gives that split a durable form:

- :func:`save_detector` / :func:`load_detector` — a whole trained
  :class:`~repro.core.combined.CombinedDetector` (discretizer cut
  points, signature vocabulary, Bloom filter bits, LSTM weights, chosen
  ``k``) as one versioned ``.npz`` artifact,
- :func:`save_checkpoint` / :func:`load_checkpoint` — a *running*
  :class:`~repro.core.stream_engine.StreamEngine` (stacked recurrent
  states, per-stream clocks, counters) together with its detector, so a
  monitor can fail over to another process and continue bit-identically
  mid-stream,
- :func:`save_gateway_checkpoint` / :func:`load_gateway_checkpoint` — a
  running :class:`~repro.serve.DetectionGateway`: every shard's engine
  pool keyed by route label, the stream-key route table and, for a
  single-model gateway, its detector.  A single-model gateway is a
  one-route gateway (:data:`SINGLE_LABEL`), so both kinds of gateway
  share one layout; a registry gateway's file embeds no weights.

A route label names one engine-pool slot everywhere a gateway keys
one: its pools, a drain's groups, the worker pipe, checkpoints and
``stats()``.  It is parsed back into ``(scenario, version)`` only where
a detector must be loaded.

Every format rides the schema-checked artifact container of
:mod:`repro.utils.artifact`; loads of corrupt, truncated or
wrong-version files raise :class:`~repro.utils.artifact.ArtifactError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.combined import CombinedDetector
from repro.core.stream_engine import WIRE_U32_MAX, StreamEngine
from repro.utils.artifact import (
    ArtifactError,
    load_artifact,
    read_meta,
    save_artifact,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.profiles import Profile

DETECTOR_KIND = "combined-detector"
CHECKPOINT_KIND = "stream-checkpoint"
#: Kind of every gateway checkpoint written, single-model or routed.
GATEWAY_KIND = "routed-gateway-checkpoint"
#: Kind of the single-detector gateway checkpoints of earlier releases:
#: still read, never written.
OLD_GATEWAY_KIND = "gateway-checkpoint"


def profile_provenance(profile: "Profile") -> dict[str, Any]:
    """Provenance meta recorded inside artifacts trained from a profile.

    Carries everything needed to regenerate the matching package stream
    later — profile name, simulation scenario, seed and the size
    overrides — so ``detect``/``resume``/``replay`` can rebuild the
    capture a detector was trained against without re-supplying flags.
    """
    return {
        "profile": profile.name,
        "scenario": profile.dataset.scenario,
        "seed": profile.seed,
        "cycles": profile.dataset.num_cycles,
        "epochs": profile.detector.timeseries.epochs,
        "hidden": ",".join(
            str(h) for h in profile.detector.timeseries.hidden_sizes
        ),
    }


def save_detector(
    detector: CombinedDetector,
    path: str | os.PathLike,
    meta: dict[str, Any] | None = None,
) -> None:
    """Persist a trained framework to one ``.npz`` artifact.

    ``meta`` is an optional JSON-able provenance record (profile name,
    seed, dataset description …) readable via
    :func:`repro.utils.artifact.read_meta` without loading the arrays.
    """
    save_artifact(detector.state_dict(), path, kind=DETECTOR_KIND, meta=meta)


def load_detector(path: str | os.PathLike) -> CombinedDetector:
    """Restore a framework saved by :func:`save_detector`.

    The restored detector's :meth:`~CombinedDetector.detect` output is
    bit-identical to the in-memory original on any package stream.
    """
    return CombinedDetector.from_state(load_artifact(path, kind=DETECTOR_KIND))


def save_checkpoint(
    engine: StreamEngine,
    path: str | os.PathLike,
    meta: dict[str, Any] | None = None,
) -> None:
    """Snapshot a running engine (detector included) to one artifact.

    The checkpoint is self-contained: :func:`load_checkpoint` rebuilds
    both the trained detector and the engine's live per-stream state, so
    fail-over needs only this one file.
    """
    state = {
        "detector": engine.detector.state_dict(),
        "engine": engine.state_dict(),
    }
    save_artifact(state, path, kind=CHECKPOINT_KIND, meta=meta)


def load_checkpoint(
    path: str | os.PathLike, detector: CombinedDetector | None = None
) -> StreamEngine:
    """Resume a checkpointed engine, bit-identical to the uninterrupted run.

    Pass ``detector`` to re-attach the engine to an already-loaded
    framework (skipping the embedded copy); otherwise the detector is
    restored from the checkpoint itself.
    """
    state = load_artifact(path, kind=CHECKPOINT_KIND)
    if detector is None:
        detector = CombinedDetector.from_state(state["detector"])
    return StreamEngine.from_state(detector, state["engine"])


def checkpoint_meta(path: str | os.PathLike) -> dict[str, Any]:
    """Provenance metadata stored alongside a checkpoint or detector."""
    return read_meta(path)["meta"]


# ----------------------------------------------------------------------
# gateway checkpoints: per-shard engine pools keyed by route label
# ----------------------------------------------------------------------

#: Label of the lone engine slot of a single-model gateway.  Routed
#: labels are ``scenario@version`` (always contain ``@``), so the bare
#: word can never collide with a real route.
SINGLE_LABEL = "default"


def route_label(scenario: str | None, version: int | None) -> str:
    """Canonical label of one pool slot in checkpoints, stats and the
    worker pipe: ``scenario@version``, or :data:`SINGLE_LABEL`."""
    if scenario is None:
        return SINGLE_LABEL
    return f"{scenario}@{int(version)}"


def parse_route_label(label: str) -> tuple[str | None, int | None]:
    """Invert :func:`route_label`: ``(scenario, version)``, or ``(None,
    None)`` for :data:`SINGLE_LABEL`."""
    if label == SINGLE_LABEL:
        return None, None
    scenario, sep, version = label.rpartition("@")
    if not sep or not scenario:
        raise ArtifactError(f"malformed route label {label!r}")
    try:
        return scenario, int(version)
    except ValueError as exc:
        raise ArtifactError(f"malformed route label {label!r}") from exc


@dataclass(slots=True)
class RouteBinding:
    """One stream key's live home in a gateway: shard, model route and
    engine row.

    Mutable on purpose: a hot-swap rewrites ``version``/``label``/
    ``stream_id``/``seq_base`` in place, and every live session holding
    the binding follows.  ``seq_base`` counts packages judged by
    *earlier* model versions on this key, so the stream's resume offset
    is ``seq_base + packages_seen``.  A single-model gateway binds every
    key to :data:`SINGLE_LABEL`.  ``label`` is the route's pool label,
    formatted once here rather than per package.

    ``protocol`` records the wire dialect the stream last spoke (see
    :mod:`repro.serve.protocols`) — transport provenance, not routing
    identity; a reconnect may negotiate a different dialect.
    """

    shard: int
    scenario: str | None
    version: int | None
    stream_id: int
    seq_base: int = 0
    protocol: str = "modbus"
    label: str = field(init=False)

    def __post_init__(self) -> None:
        self.label = route_label(self.scenario, self.version)


@dataclass
class GatewayCheckpoint:
    """A restored gateway: engine pools, route table and meta.

    ``pools`` holds one ``{route label: engine}`` dict per shard.
    ``detector`` is the model of a single-model gateway and ``None`` for
    a registry gateway.
    """

    pools: list[dict[str, StreamEngine]]
    bindings: dict[str, RouteBinding]
    meta: dict[str, Any]
    detector: CombinedDetector | None = None


def save_gateway_checkpoint(
    path: str | os.PathLike,
    pools: list[dict[str, dict[str, Any]]],
    bindings: dict[str, RouteBinding],
    meta: dict[str, Any] | None = None,
    detector: CombinedDetector | None = None,
) -> None:
    """Snapshot a sharded gateway atomically.

    ``pools`` holds each shard's engine states keyed by route label, as
    :meth:`repro.serve.workers.EnginePool.snapshot` returns them, and
    ``bindings`` the stream-key route table.  A single-model gateway
    passes its ``detector``, which is embedded.  A registry gateway
    embeds no weights: restore re-loads each engine's exact
    ``(scenario, version)`` artifact from the registry, which stays the
    single source of model truth.  The write goes through a
    same-directory temp file and ``os.replace`` so a crash
    mid-checkpoint can never leave a torn artifact where the previous
    good one stood.
    """
    keys = sorted(bindings)
    for key in keys:
        binding = bindings[key]
        if not 0 <= binding.shard < len(pools):
            raise ValueError(
                f"binding {key!r} names shard {binding.shard} of {len(pools)}"
            )
        engine = pools[binding.shard].get(binding.label)
        if engine is None:
            raise ValueError(
                f"binding {key!r} names route {binding.label} absent from "
                f"shard {binding.shard}"
            )
        if binding.stream_id not in np.asarray(engine["stream_ids"]):
            raise ValueError(
                f"binding {key!r} names stream {binding.stream_id} not "
                f"attached to route {binding.label} on shard {binding.shard}"
            )
        if binding.seq_base < 0:
            raise ValueError(f"binding {key!r} has negative seq_base")
    state: dict[str, Any] = {
        "num_shards": len(pools),
        "shards": {str(i): pool for i, pool in enumerate(pools)},
        "binding_shards": np.array(
            [bindings[k].shard for k in keys], dtype=np.int64
        ),
        "binding_streams": np.array(
            [bindings[k].stream_id for k in keys], dtype=np.int64
        ),
        "binding_seq_bases": np.array(
            [bindings[k].seq_base for k in keys], dtype=np.int64
        ),
    }
    if detector is not None:
        state["detector"] = detector.state_dict()
    meta = dict(meta or {})
    meta["stream_keys"] = keys
    meta["stream_routes"] = [bindings[k].label for k in keys]
    meta["stream_protocols"] = [bindings[k].protocol for k in keys]
    tmp = f"{os.fspath(path)}.tmp"
    save_artifact(state, tmp, kind=GATEWAY_KIND, meta=meta)
    os.replace(tmp, path)


def _upgrade_single_detector(state: dict[str, Any], meta: dict[str, Any]) -> None:
    """Rewrite an :data:`OLD_GATEWAY_KIND` file's contents, in place, into
    the layout :func:`save_gateway_checkpoint` writes.

    Each shard's one engine becomes its :data:`SINGLE_LABEL` slot.
    Every seq base is 0, because single-model gateways never hot-swap.
    The old binding table has no protocol column; each stream's dialect
    comes from the ``routes`` meta those files carry.
    """
    if isinstance(state.get("shards"), dict):
        state["shards"] = {
            index: {SINGLE_LABEL: engine}
            for index, engine in state["shards"].items()
        }
    keys = list(meta.get("stream_keys", []))
    routes = meta.get("routes") or {}
    state["binding_seq_bases"] = np.zeros(len(keys), dtype=np.int64)
    meta["stream_routes"] = [SINGLE_LABEL] * len(keys)
    meta["stream_protocols"] = [
        str((routes.get(key) or {}).get("protocol") or "modbus") for key in keys
    ]


def load_gateway_checkpoint(
    path: str | os.PathLike,
    detector: CombinedDetector | None = None,
    resolver: Callable[[str, int], CombinedDetector] | None = None,
) -> GatewayCheckpoint:
    """Restore a gateway checkpoint; every shard resumes bit-identically.

    A single-model checkpoint restores its embedded detector, or
    re-attaches to ``detector`` when one is passed.  A registry
    checkpoint needs ``resolver(scenario, version)`` to return the
    :class:`CombinedDetector` of an exact registry route — normally
    :meth:`repro.registry.ModelRegistry.load`.  Exact versions are
    required: restoring against "whatever is active now" would resume
    recurrent states under a different model.  A file that does not fit
    the caller's serving mode is refused with a :class:`ValueError`;
    a damaged one raises :class:`ArtifactError`.
    """
    header = read_meta(path)
    kind = header["kind"]
    if kind not in (GATEWAY_KIND, OLD_GATEWAY_KIND):
        raise ArtifactError(
            f"{path!s}: expected a gateway checkpoint, found {kind!r}"
        )
    state = load_artifact(path, kind=kind)
    meta = header["meta"]
    if kind == OLD_GATEWAY_KIND:
        _upgrade_single_detector(state, meta)
    missing = {
        "num_shards", "shards", "binding_shards", "binding_streams",
        "binding_seq_bases",
    } - set(state)
    if missing:
        raise ArtifactError(
            f"{path!s}: gateway checkpoint lacks {sorted(missing)}"
        )
    single = "detector" in state
    num_shards = int(state["num_shards"])
    shard_states = state["shards"]
    if set(shard_states) != {str(i) for i in range(num_shards)}:
        raise ArtifactError(
            f"gateway checkpoint names {sorted(shard_states)} shards, "
            f"expected {num_shards}"
        )
    for index, pool_state in shard_states.items():
        if any((label == SINGLE_LABEL) != single for label in pool_state):
            raise ArtifactError(
                f"{path!s}: shard {index} slots {sorted(pool_state)} do not "
                f"fit a checkpoint {'with' if single else 'without'} an "
                "embedded detector"
            )
    if single and resolver is not None:
        # Refusing beats silently serving one embedded model to an
        # operator who asked for registry routing.
        raise ValueError(
            f"{path} is a single-detector checkpoint; it cannot resume "
            "under registry= — resume it with detector= (or start "
            "a fresh registry gateway)"
        )
    if not single and resolver is None:
        raise ValueError(
            f"{path} is a routed gateway checkpoint; pass registry= so its "
            "model routes can be resolved"
        )
    if single and detector is None:
        detector = CombinedDetector.from_state(state["detector"])
    detectors: dict[str, CombinedDetector] = (
        {SINGLE_LABEL: detector} if single else {}
    )
    pools: list[dict[str, StreamEngine]] = []
    for i in range(num_shards):
        pool: dict[str, StreamEngine] = {}
        for label, engine_state in shard_states[str(i)].items():
            route = parse_route_label(label)
            label = route_label(*route)  # the canonical spelling
            if label not in detectors:
                detectors[label] = resolver(*route)
            pool[label] = StreamEngine.from_state(detectors[label], engine_state)
        pools.append(pool)
    keys = list(meta.pop("stream_keys", []))
    labels = list(meta.pop("stream_routes", []))
    # Pre-protocol checkpoints carry no dialect column: everything they
    # bound spoke Modbus, so the backfill is exact, not a guess.
    protocols = list(meta.pop("stream_protocols", ["modbus"] * len(keys)))
    shard_idx = np.asarray(state["binding_shards"], dtype=np.int64)
    stream_ids = np.asarray(state["binding_streams"], dtype=np.int64)
    seq_bases = np.asarray(state["binding_seq_bases"], dtype=np.int64)
    if not (
        len(keys)
        == len(labels)
        == len(protocols)
        == shard_idx.shape[0]
        == stream_ids.shape[0]
        == seq_bases.shape[0]
    ):
        raise ArtifactError("gateway checkpoint binding table is torn")
    bindings: dict[str, RouteBinding] = {}
    for key, label, protocol, shard, stream_id, seq_base in zip(
        keys, labels, protocols, shard_idx, stream_ids, seq_bases
    ):
        scenario, version = parse_route_label(str(label))
        binding = RouteBinding(
            shard=int(shard),
            scenario=scenario,
            version=version,
            stream_id=int(stream_id),
            seq_base=int(seq_base),
            protocol=str(protocol),
        )
        if not 0 <= binding.shard < num_shards:
            raise ArtifactError(
                f"binding {key!r} names missing shard {binding.shard}"
            )
        engine = pools[binding.shard].get(binding.label)
        if engine is None or binding.stream_id not in engine.stream_ids:
            raise ArtifactError(
                f"binding {key!r} names stream {binding.stream_id} of route "
                f"{binding.label} not present in shard {binding.shard}"
            )
        # The resume offset an OPEN_ACK carries is an unsigned 32-bit field.
        offset = binding.seq_base + engine.packages_seen(binding.stream_id)
        if binding.seq_base < 0 or offset > WIRE_U32_MAX:
            raise ArtifactError(
                f"binding {key!r} resumes at offset {offset} (seq_base "
                f"{binding.seq_base}), outside 0..{WIRE_U32_MAX}"
            )
        bindings[key] = binding
    return GatewayCheckpoint(
        pools=pools,
        bindings=bindings,
        meta=meta,
        detector=detector if single else None,
    )
