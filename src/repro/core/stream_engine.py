"""Batched multi-stream detection engine.

A deployed monitor rarely watches a single PLC link: a SCADA front-end
terminates many field-bus connections at once, and stepping one LSTM per
stream per package wastes almost all of its time in per-call Python and
small-matmul overhead.  :class:`StreamEngine` monitors ``N`` concurrent
package streams with **one batched LSTM step per tick**: the per-stream
``(h, c)`` recurrent states live stacked along a batch dimension,
signature discretization runs column-wise across the batch, Bloom
membership probes run as a single bit-gather, and the top-k check is one
vectorized membership test over the ``(N, |S|)`` prediction matrix.

Streams attach and detach dynamically: attaching pads the batch with a
fresh zero state, detaching compacts the departed row out of every
array.  A 1-stream engine is bit-identical to the paper's Fig.-3 data
path — :class:`~repro.core.combined.StreamMonitor` is now a thin view
over exactly that.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.timeseries_detector import BatchStreamState, StreamState
from repro.ics.features import Package
from repro.nn.network import StackedLSTMClassifier
from repro.utils.artifact import ArtifactError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.combined import CombinedDetector

#: Detection level tags in results.
LEVEL_NONE, LEVEL_PACKAGE, LEVEL_TIMESERIES = 0, 1, 2
LEVEL_NAMES = {LEVEL_NONE: "normal", LEVEL_PACKAGE: "package", LEVEL_TIMESERIES: "time-series"}


@dataclass
class EngineStats:
    """Lifetime counters of one engine — the gateway's stats hook.

    Counts survive checkpoint/resume, so a failed-over monitor reports
    continuous totals.
    """

    ticks: int = 0  # observe_batch calls that advanced >= 1 stream
    packages: int = 0  # packages observed across all streams
    alerts: int = 0  # anomalous verdicts
    package_level: int = 0  # alerts raised by the Bloom signature check
    timeseries_level: int = 0  # alerts raised by the LSTM top-k check


class StreamEngine:
    """Monitor ``N`` concurrent package streams with batched inference.

    Each attached stream owns a stable integer id and one batch row
    (its *slot*).  :meth:`observe_batch` advances every stream by one
    package; passing a mapping instead advances only the streams that
    actually received traffic this tick.

    Example::

        engine = StreamEngine(detector)
        plant_a = engine.attach()
        plant_b = engine.attach()
        anomalies, levels = engine.observe_batch([pkg_a, pkg_b])
    """

    def __init__(self, detector: "CombinedDetector") -> None:
        self._detector = detector
        self._state: BatchStreamState = detector.timeseries.new_stream_batch(0)
        self._prev_times: list[float | None] = []
        self._stream_ids: list[int] = []
        self._next_id = 0
        self._stats = EngineStats()

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------

    @property
    def detector(self) -> "CombinedDetector":
        """The trained framework this engine monitors with."""
        return self._detector

    @property
    def num_streams(self) -> int:
        return len(self._stream_ids)

    @property
    def stream_ids(self) -> tuple[int, ...]:
        """Attached stream ids in slot (batch-row) order."""
        return tuple(self._stream_ids)

    @property
    def stats(self) -> EngineStats:
        """Lifetime counters (ticks, packages, alerts by level)."""
        return self._stats

    def attach(self) -> int:
        """Attach a fresh stream; returns its id.

        The batch is padded with an all-zero recurrent state, so the new
        stream starts exactly like a standalone monitor would.
        """
        return self.attach_many(1)[0]

    def attach_many(self, count: int) -> list[int]:
        """Attach ``count`` fresh streams in one batch pad; returns ids."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return []
        stream_ids = list(range(self._next_id, self._next_id + count))
        self._next_id += count
        self._stream_ids.extend(stream_ids)
        self._prev_times.extend([None] * count)
        fresh = self._detector.timeseries.new_stream_batch(count)
        self._state = BatchStreamState.concat([self._state, fresh])
        return stream_ids

    def detach(self, stream_id: int) -> None:
        """Detach a stream and compact its row out of the batch."""
        slot = self._slot_of(stream_id)
        keep = [i for i in range(self.num_streams) if i != slot]
        self._state = self._state.select(keep)
        del self._stream_ids[slot]
        del self._prev_times[slot]

    def packages_seen(self, stream_id: int) -> int:
        """Number of packages observed on one stream."""
        return int(self._state.packages_seen[self._slot_of(stream_id)])

    def snapshot(self, stream_id: int) -> StreamState:
        """Standalone copy of one stream's recurrent state.

        Splits the stream's row out of the batch as a scalar
        :class:`StreamState`, so a stream can be handed off to the
        per-package ``TimeSeriesDetector.observe`` path (or persisted)
        and continue exactly where the engine left it.
        """
        slot = self._slot_of(stream_id)
        state = self._state
        row = StackedLSTMClassifier.select_states(state.lstm_states, [slot])
        return StreamState(
            lstm_states=StackedLSTMClassifier.split_states(row)[0],
            last_probs=(
                state.last_probs[slot].copy() if state.has_probs[slot] else None
            ),
            packages_seen=int(state.packages_seen[slot]),
        )

    def _slot_of(self, stream_id: int) -> int:
        try:
            return self._stream_ids.index(stream_id)
        except ValueError:
            raise KeyError(f"no attached stream with id {stream_id}") from None

    # ------------------------------------------------------------------
    # persistence (live checkpointing)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Complete running state: recurrent batch, ids, per-stream clocks.

        A resumed engine (:meth:`from_state`) produces bit-identical
        verdicts to one that never stopped — the fail-over building
        block for monitoring real traffic.
        """
        prev_times = np.array(
            [0.0 if t is None else t for t in self._prev_times], dtype=np.float64
        )
        prev_known = np.array(
            [t is not None for t in self._prev_times], dtype=bool
        )
        return {
            "stream_ids": np.array(self._stream_ids, dtype=np.int64),
            "next_id": self._next_id,
            "prev_times": prev_times,
            "prev_known": prev_known,
            "streams": self._state.state_dict(),
            "stats": asdict(self._stats),
        }

    @classmethod
    def from_state(
        cls, detector: "CombinedDetector", state: dict[str, Any]
    ) -> "StreamEngine":
        """Rebuild a running engine from :meth:`state_dict` output."""
        engine = cls(detector)
        stream_ids = [int(i) for i in np.asarray(state["stream_ids"])]
        if len(set(stream_ids)) != len(stream_ids):
            raise ArtifactError("engine state has duplicate stream ids")
        next_id = int(state["next_id"])
        if any(i >= next_id for i in stream_ids):
            raise ArtifactError("engine state next_id conflicts with stream ids")
        prev_times = np.asarray(state["prev_times"], dtype=np.float64)
        prev_known = np.asarray(state["prev_known"], dtype=bool)
        batch_state = BatchStreamState.from_state(state["streams"])
        counts = {
            len(stream_ids),
            prev_times.shape[0],
            prev_known.shape[0],
            batch_state.batch_size,
        }
        if counts != {len(stream_ids)}:
            raise ArtifactError(f"engine state stream counts disagree: {counts}")
        # The recurrent state must fit the detector it is resumed against
        # — catch a mismatched model at load time, not mid-observe.
        hidden_sizes = detector.timeseries.model.config.hidden_sizes
        state_widths = tuple(s.h.shape[1] for s in batch_state.lstm_states)
        if state_widths != hidden_sizes:
            raise ArtifactError(
                f"checkpointed LSTM widths {state_widths} do not match the "
                f"detector's architecture {hidden_sizes}"
            )
        num_classes = len(detector.vocabulary)
        if batch_state.last_probs.shape[1] != num_classes:
            raise ArtifactError(
                f"checkpointed predictions cover "
                f"{batch_state.last_probs.shape[1]} signatures, detector "
                f"vocabulary holds {num_classes}"
            )
        engine._stream_ids = stream_ids
        engine._next_id = next_id
        engine._prev_times = [
            float(t) if known else None for t, known in zip(prev_times, prev_known)
        ]
        engine._state = batch_state
        # Pre-stats checkpoints (schema additions are backward-readable)
        # simply resume with zeroed counters.
        stats = state.get("stats")
        if stats is not None:
            engine._stats = EngineStats(**{k: int(v) for k, v in stats.items()})
        return engine

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def observe(self, stream_id: int, package: Package) -> tuple[bool, int]:
        """Advance a single stream by one package (partial tick)."""
        anomalies, levels = self.observe_batch({stream_id: package})
        return bool(anomalies[0]), int(levels[0])

    def observe_batch(
        self, packages: Sequence[Package] | Mapping[int, Package]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One tick of the engine; returns ``(anomalies, levels)``.

        Given a sequence, ``packages[i]`` is the next package of the
        stream in slot ``i`` (order of :attr:`stream_ids`) and every
        stream advances.  Given a mapping ``{stream_id: package}``, only
        those streams advance; the rest keep their state untouched.
        Result arrays align with the input order and hold one verdict
        plus one ``LEVEL_*`` tag per observed package.

        Exactness contract: verdicts, levels and every recurrent-state
        byte equal the reference Fig. 3 path (columnar discretization,
        ``signature_of`` + Bloom probe + vocabulary lookup, piecewise
        sigmoid) at any batch size, including partial ticks.
        """
        if isinstance(packages, Mapping):
            items = list(packages.items())
            slots = [self._slot_of(stream_id) for stream_id, _ in items]
            batch = [package for _, package in items]
            partial = slots != list(range(self.num_streams))
        else:
            batch = list(packages)
            if len(batch) != self.num_streams:
                raise ValueError(
                    f"{len(batch)} packages given for {self.num_streams} "
                    "attached streams (use a mapping for partial ticks)"
                )
            slots = list(range(self.num_streams))
            partial = False
        if not batch:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)

        detector = self._detector
        prev_times = [self._prev_times[slot] for slot in slots]
        codes = detector.discretizer.transform_batch(batch, prev_times)
        for slot, package in zip(slots, batch):
            self._prev_times[slot] = package.time

        # Level 1: signature membership, and the vocabulary ids level 2
        # needs, from one table lookup per code vector.
        flagged, ids = detector.package_detector.resolve_batch(codes)

        # Level 2: one batched LSTM step; Bloom-flagged rows skip the
        # top-k check but still feed the recurrent history with the
        # noise bit set (Fig. 3 data path, batched).  A partial tick
        # steps only its rows and writes them back in place.
        state = self._state.select(slots) if partial else self._state
        verdicts, new_state = detector.timeseries.observe_batch(
            codes, state, forced_anomalous=flagged, signature_ids=ids
        )
        if partial:
            self._state.set_rows(slots, new_state)
        else:
            self._state = new_state

        levels = np.where(
            flagged, LEVEL_PACKAGE, np.where(verdicts, LEVEL_TIMESERIES, LEVEL_NONE)
        )
        alerts = int(np.count_nonzero(verdicts))
        package_level = int(np.count_nonzero(flagged))
        stats = self._stats
        stats.ticks += 1
        stats.packages += len(batch)
        stats.alerts += alerts
        stats.package_level += package_level
        # Flagged rows are always anomalous, so the rest are level 2.
        stats.timeseries_level += alerts - package_level
        return verdicts, levels
