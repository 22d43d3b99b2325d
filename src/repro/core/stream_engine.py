"""Batched multi-stream detection engine.

A deployed monitor rarely watches a single PLC link: a SCADA front-end
terminates many field-bus connections at once, and stepping one LSTM per
stream per package wastes almost all of its time in per-call Python and
small-matmul overhead.  :class:`StreamEngine` monitors ``N`` concurrent
package streams with **one batched LSTM step per tick**: the per-stream
``(h, c)`` recurrent states live stacked along a batch dimension, and a
tick advances each stream it holds by one package.

A caller with several ticks waiting hands them over as one *drain*
(:meth:`StreamEngine.observe_ticks`), which the engine runs as one
*pass*.  The Fig. 3 seams without recurrence run once over every row of
the drain: discretization (each row's interval chained to its stream's
previous package), the signature-table lookup giving the Bloom verdict
and the vocabulary id, the one-hot rows, and selecting the touched
streams' state rows and scattering them back.  Only the recurrent part
runs tick by tick: the top-k check on each stream's previous
prediction, the noise bit, and one ``model.step`` on the tick's rows.
The top-k check ranks the observed signature under the previous step's
logits (:func:`~repro.nn.losses.top_k_hits`: fewer than ``k``
signatures may score strictly higher), so no softmax is taken.
Every tick's LSTM, dense and top-k operands keep the shapes and values
they have when the tick runs alone, so a pass is bit-identical to its
ticks run one call at a time; :meth:`StreamEngine.observe_batch` is a
one-tick pass.

Streams attach and detach dynamically: attaching pads the batch with a
fresh zero state, detaching compacts the departed row out of every
array.  The recurrent states and predictions (logits, kept in the
state's ``last_probs`` field) are kept in the dtype of the detector's
network weights (float32 for a freshly trained detector) from creation
through checkpoint and resume, so every step multiplies like dtypes.
A 1-stream engine is bit-identical to the paper's Fig.-3 data path —
:class:`~repro.core.combined.StreamMonitor` and offline
:meth:`~repro.core.combined.CombinedDetector.detect` run exactly that.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.timeseries_detector import BatchStreamState, state_array
from repro.ics.features import Package
from repro.nn.losses import top_k_hits
from repro.utils.artifact import ArtifactError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.combined import CombinedDetector

#: Detection level tags in results.
LEVEL_NONE, LEVEL_PACKAGE, LEVEL_TIMESERIES = 0, 1, 2
LEVEL_NAMES = {LEVEL_NONE: "normal", LEVEL_PACKAGE: "package", LEVEL_TIMESERIES: "time-series"}

#: The largest value of the unsigned 32-bit fields that carry stream ids
#: and package counts on the wire (OPEN_ACK) and the worker pipe.  An
#: engine's ids stay below it: the gateway acks the all-ones id to a
#: stream still waiting for its row.
WIRE_U32_MAX = 0xFFFFFFFF

#: One-row ticks per pass when :meth:`StreamEngine.observe_stream` runs
#: a recorded sequence: bounds the pass's one-hot rows and codes.
STREAM_CHUNK = 512


@dataclass
class EngineStats:
    """Lifetime counters of one engine — the gateway's stats hook.

    Counts survive checkpoint/resume, so a failed-over monitor reports
    continuous totals.
    """

    ticks: int = 0  # ticks that advanced >= 1 stream
    packages: int = 0  # packages observed across all streams
    alerts: int = 0  # anomalous verdicts
    package_level: int = 0  # alerts raised by the Bloom signature check
    timeseries_level: int = 0  # alerts raised by the LSTM top-k check


class StreamEngine:
    """Monitor ``N`` concurrent package streams with batched inference.

    Each attached stream owns a stable integer id and one batch row
    (its *slot*).  :meth:`observe_batch` advances every stream by one
    package; passing a mapping instead advances only the streams that
    actually received traffic this tick.  :meth:`observe_ticks` runs
    several successive ticks as one pass.

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
        self._slots: dict[int, int] = {}  # stream id -> slot
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
        if self._next_id + count > WIRE_U32_MAX:
            raise ValueError(f"{count} more streams would exhaust the 32-bit ids")
        stream_ids = list(range(self._next_id, self._next_id + count))
        self._next_id += count
        first = len(self._stream_ids)
        self._slots.update((sid, first + i) for i, sid in enumerate(stream_ids))
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
        self._slots = {sid: i for i, sid in enumerate(self._stream_ids)}

    def packages_seen(self, stream_id: int) -> int:
        """Number of packages observed on one stream."""
        return int(self._state.packages_seen[self._slot_of(stream_id)])

    def snapshot(self, stream_id: int) -> BatchStreamState:
        """A copy of one stream's row: a one-row :class:`BatchStreamState`.

        ``last_probs[0]`` holds the logits its next package is ranked by,
        valid once ``has_probs[0]`` is set.  A row handed to another
        engine through :meth:`from_state`, with the stream's clock,
        continues exactly where this engine left it.
        """
        return self._state.select([self._slot_of(stream_id)])

    def _slot_of(self, stream_id: int) -> int:
        slot = self._slots.get(stream_id)
        if slot is None:
            raise KeyError(f"no attached stream with id {stream_id}")
        return slot

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
        """Rebuild a running engine from :meth:`state_dict` output.

        The recurrent state is restored in the dtype of ``detector``'s
        weights, whatever dtype the checkpoint holds it in.
        """
        engine = cls(detector)
        stream_ids = state_array(
            state["stream_ids"], np.int64, 1, "stream_ids"
        ).tolist()
        if len(set(stream_ids)) != len(stream_ids):
            raise ArtifactError("engine state has duplicate stream ids")
        next_id = int(state["next_id"])
        if not 0 <= next_id <= WIRE_U32_MAX:
            raise ArtifactError(
                f"engine state next_id {next_id} is outside 0..{WIRE_U32_MAX}"
            )
        if any(not 0 <= i < next_id for i in stream_ids):
            raise ArtifactError(
                f"engine state stream ids must lie in 0..{next_id - 1}"
            )
        prev_times = state_array(state["prev_times"], np.float64, 1, "prev_times")
        prev_known = state_array(state["prev_known"], bool, 1, "prev_known")
        batch_state = BatchStreamState.from_state(
            state["streams"], detector.timeseries.model.dtype
        )
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
        engine._slots = {sid: i for i, sid in enumerate(stream_ids)}
        engine._next_id = next_id
        engine._prev_times = [
            float(t) if known else None for t, known in zip(prev_times, prev_known)
        ]
        engine._state = batch_state
        # Pre-stats checkpoints (schema additions are backward-readable)
        # simply resume with zeroed counters.
        stats = state.get("stats")
        if stats is not None:
            try:
                counts = {k: int(v) for k, v in stats.items()}
                engine._stats = EngineStats(**counts)
            except (AttributeError, TypeError, ValueError) as exc:
                raise ArtifactError(f"bad engine stats state: {exc}") from exc
            if min(counts.values(), default=0) < 0:
                raise ArtifactError(f"engine stats hold a negative count: {counts}")
        return engine

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def observe(self, stream_id: int, package: Package) -> tuple[bool, int]:
        """Advance a single stream by one package (partial tick)."""
        anomalies, levels = self.observe_ticks([{stream_id: package}])[0]
        return bool(anomalies[0]), int(levels[0])

    def observe_stream(
        self, stream_id: int, packages: Iterable[Package]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one stream through a recorded sequence of packages.

        The packages run as one-row ticks, :data:`STREAM_CHUNK` of them
        per pass, so memory stays bounded for a capture of any length.
        Returns ``(anomalies, levels)`` over the whole sequence.
        """
        anomalies: list[np.ndarray] = []
        levels: list[np.ndarray] = []
        iterator = iter(packages)
        while chunk := list(islice(iterator, STREAM_CHUNK)):
            for verdicts, tags in self.observe_ticks(
                [{stream_id: package} for package in chunk]
            ):
                anomalies.append(verdicts)
                levels.append(tags)
        if not anomalies:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        return np.concatenate(anomalies), np.concatenate(levels)

    def observe_batch(
        self, packages: Sequence[Package] | Mapping[int, Package]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One tick of the engine; returns ``(anomalies, levels)``.

        Given a sequence, ``packages[i]`` is the next package of the
        stream in slot ``i`` (order of :attr:`stream_ids`) and every
        stream advances.  Given a mapping ``{stream_id: package}``, only
        those streams advance; the rest keep their state untouched.
        Result arrays align with the input order and hold one verdict
        plus one ``LEVEL_*`` tag per observed package.  The tick runs as
        a one-tick :meth:`observe_ticks` pass.
        """
        if not isinstance(packages, Mapping):
            batch = list(packages)
            if len(batch) != self.num_streams:
                raise ValueError(
                    f"{len(batch)} packages given for {self.num_streams} "
                    "attached streams (use a mapping for partial ticks)"
                )
            packages = dict(zip(self._stream_ids, batch))
        return self.observe_ticks([packages])[0]

    def observe_ticks(
        self, ticks: Sequence[Mapping[int, Package]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Run a drain of successive ticks as one pass.

        ``ticks[t]`` maps ``{stream_id: package}`` and advances each of
        its streams by one package, after every earlier tick of the
        drain.  Returns each tick's ``(anomalies, levels)``, aligned with
        its mapping's order.

        The seams without recurrence run once over all of the drain's
        rows: discretization (a row's interval is measured against its
        stream's previous package, earlier in the drain or before it),
        the signature-table lookup for the Bloom verdict and vocabulary
        id, the one-hot rows, and selecting the touched streams' state
        rows and scattering them back.  Tick by tick run the top-k check
        (:func:`~repro.nn.losses.top_k_hits` on each stream's previous
        logits), the noise bit, and one ``model.step`` on a fresh
        C-contiguous input of the tick's own shape, its state rows in the
        tick's order.  Bloom-flagged rows skip the top-k check but still
        feed the recurrent history with the noise bit set; a stream's
        first package passes.

        Exactness contract: every tick's LSTM, dense and top-k operands
        have the shapes and values they have when the tick runs alone,
        so verdicts, levels, every recurrent-state byte and the
        :class:`EngineStats` equal running the ticks one call at a time,
        and equal the reference Fig. 3 path (columnar discretization,
        ``signature_of`` + Bloom probe + vocabulary lookup, piecewise
        sigmoid).  Every stream id and code is checked before any state
        changes, so a rejected drain leaves the engine as it was.
        """
        slots = self._slots
        had = self._state.has_probs
        packages: list[Package] = []
        bounds = [0]  # tick t holds drain rows bounds[t]:bounds[t + 1]
        rows: list[int] = []  # drain row -> its stream's working row
        working: dict[int, int] = {}  # touched slot -> working row
        times: list[float | None] = []  # working row -> latest time
        counts: list[int] = []  # working row -> packages in the drain
        prev_times: list[float | None] = []
        unjudged: list[int] = []  # first rows of streams with no prediction
        for tick in ticks:
            for stream_id, package in tick.items():
                slot = slots.get(stream_id)
                if slot is None:
                    raise KeyError(f"no attached stream with id {stream_id}")
                row = working.get(slot)
                if row is None:
                    row = working[slot] = len(times)
                    times.append(self._prev_times[slot])
                    counts.append(0)
                    if not had[slot]:
                        unjudged.append(len(packages))
                rows.append(row)
                counts[row] += 1
                prev_times.append(times[row])
                times[row] = package.time
                packages.append(package)
            bounds.append(len(packages))
        if not packages:
            return [
                (np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64))
                for _ in bounds[1:]
            ]

        detector = self._detector
        timeseries = detector.timeseries
        codes = detector.discretizer.transform_batch(packages, prev_times)
        # Level 1: signature membership, and the vocabulary ids level 2
        # needs, from one table lookup per code vector.
        flagged, ids = detector.package_detector.resolve_batch(codes)
        onehot = timeseries.encoder.encode_sequence(codes)

        # The touched streams' rows.  When the drain touches every
        # stream in slot order they are the engine's own arrays, copied
        # before any write in place.
        touched = list(working)
        everyone = len(touched) == self.num_streams and touched == list(
            range(self.num_streams)
        )
        state = self._state if everyone else self._state.select(touched)
        states, scores = state.lstm_states, state.last_probs
        owned = not everyone

        # Flagged rows and out-of-vocabulary rows are anomalous, and the
        # rest take the top-k check on their stream's previous
        # prediction, which only the tick before can give.  A stream's
        # first package, with no prediction before it, is not judged.
        verdicts = flagged | (ids < 0)
        check = ~verdicts
        if unjudged:
            verdicts[unjudged] = flagged[unjudged]
            check[unjudged] = False
        checked = check.tolist()
        id_list = ids.tolist()

        in_order = list(range(len(touched)))
        model, k = timeseries.model, timeseries.k
        ticked = 0
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                continue
            ticked += 1
            at = rows[lo:hi]
            partial = at != in_order
            # The top-k check ranks the previous step's logits; a row
            # the check does not judge keeps its verdict.
            if hi - lo == 1:
                if checked[lo]:
                    verdicts[lo] = not top_k_hits(scores[at[0]], id_list[lo], k)
            elif any(checked[lo:hi]):
                hits = top_k_hits(scores[at] if partial else scores, ids[lo:hi], k)
                verdicts[lo:hi] |= check[lo:hi] & ~hits
            tick_states = [layer.select(at) for layer in states] if partial else states
            # Bloom-flagged rows still feed the recurrent history, with
            # the noise bit set (Fig. 3 data path).
            inputs = onehot[lo:hi].astype(model.dtype)
            inputs[:, -1] = verdicts[lo:hi]
            new_scores, new_states = model.step(inputs, tick_states)
            if not partial:
                states, scores, owned = new_states, new_scores, True
                continue
            if not owned:
                states = [layer.copy() for layer in states]
                scores, owned = scores.copy(), True
            for layer, new in zip(states, new_states):
                layer.set_rows(at, new)
            scores[at] = new_scores

        stepped = BatchStreamState(
            lstm_states=states,
            last_probs=scores,
            has_probs=np.ones(len(touched), dtype=bool),
            packages_seen=state.packages_seen + counts,
        )
        if everyone:
            self._state = stepped
        else:
            self._state.set_rows(touched, stepped)
        for slot, latest in zip(touched, times):
            self._prev_times[slot] = latest
        levels = np.where(
            flagged, LEVEL_PACKAGE, np.where(verdicts, LEVEL_TIMESERIES, LEVEL_NONE)
        )
        alerts = int(np.count_nonzero(verdicts))
        package_level = int(np.count_nonzero(flagged))
        stats = self._stats
        stats.ticks += ticked
        stats.packages += len(packages)
        stats.alerts += alerts
        stats.package_level += package_level
        # Flagged rows are always anomalous, so the rest are level 2.
        stats.timeseries_level += alerts - package_level
        return [
            (verdicts[lo:hi], levels[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]
