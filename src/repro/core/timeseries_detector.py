"""Time-series level anomaly detection ``F_t`` (paper Section V).

A stacked LSTM softmax classifier predicts the distribution over the
next package's signature given the discretized history.  A package whose
signature is not among the top-``k`` predicted signatures is flagged:
fewer than ``k`` signatures may score strictly higher than it
(:func:`~repro.nn.losses.top_k_hits`), which serving decides on the
output layer's logits without a softmax.
Training can inject probabilistic noise (Section V-3) so the model stays
robust when anomalies contaminate its input history; inputs carry an
extra indicator bit that is 1 on noised training packages and, at
detection time, on packages the framework itself classified anomalous.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.signatures import SignatureVocabulary, signature_of
from repro.nn.losses import top_k_hits
from repro.nn.lstm import LSTMState
from repro.nn.network import NetworkConfig, StackedLSTMClassifier, TrainingHistory
from repro.nn.optimizers import Adam
from repro.core.noise import ProbabilisticNoiser
from repro.utils.artifact import ArtifactError
from repro.utils.rng import SeedLike, spawn_generators

CodeVector = tuple[int, ...]


@dataclass(frozen=True)
class TimeSeriesDetectorConfig:
    """Architecture and training schedule of the ``F_t`` detector."""

    hidden_sizes: tuple[int, ...] = (64, 64)
    epochs: int = 20
    batch_size: int = 8
    bptt_len: int = 20
    learning_rate: float = 0.01
    k: int = 4
    use_noise: bool = True
    lam: float = 10.0
    max_corrupted: int = 3

    def validate(self) -> "TimeSeriesDetectorConfig":
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"bad hidden_sizes: {self.hidden_sizes}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        return self


@dataclass
class StreamState:
    """Recurrent context of one monitored package stream.

    ``last_probs`` holds the scores the next package is ranked by: the
    last step's logits, or probabilities in a snapshot written before
    serving stopped taking the softmax (they rank alike).
    """

    lstm_states: list[LSTMState]
    last_probs: np.ndarray | None = None
    packages_seen: int = 0

    def state_dict(self) -> dict[str, Any]:
        """Persistent snapshot of one stream's recurrent context."""
        return {
            "lstm": _lstm_states_to_state(self.lstm_states),
            "last_probs": (
                None if self.last_probs is None else self.last_probs.copy()
            ),
            "packages_seen": self.packages_seen,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any], dtype: Any) -> "StreamState":
        """Rebuild a stream snapshot from :meth:`state_dict` output, its
        arrays in ``dtype``: that of the model it resumes against."""
        last_probs = state["last_probs"]
        return cls(
            lstm_states=_lstm_states_from_state(state["lstm"], dtype),
            last_probs=(
                None if last_probs is None else np.array(last_probs, dtype=dtype)
            ),
            packages_seen=int(state["packages_seen"]),
        )


def state_array(value: Any, dtype: Any, ndim: int, name: str) -> np.ndarray:
    """A copy of one stored state array in ``dtype``, refused with an
    :class:`ArtifactError` unless it has ``ndim`` dimensions."""
    array = np.array(value, dtype=dtype)
    if array.ndim != ndim:
        raise ArtifactError(
            f"stored {name} has shape {array.shape}; expected {ndim} dimension(s)"
        )
    return array


def _lstm_states_to_state(states: Sequence[LSTMState]) -> dict[str, Any]:
    """Per-layer ``(h, c)`` arrays keyed ``layer<i>`` for persistence."""
    return {
        f"layer{i}": {"h": state.h.copy(), "c": state.c.copy()}
        for i, state in enumerate(states)
    }


def _lstm_states_from_state(state: dict[str, Any], dtype: Any) -> list[LSTMState]:
    states: list[LSTMState] = []
    for i in range(len(state)):
        layer = state.get(f"layer{i}")
        if layer is None:
            raise ArtifactError(f"LSTM state missing layer{i}")
        h = np.array(layer["h"], dtype=dtype)
        c = np.array(layer["c"], dtype=dtype)
        if h.shape != c.shape or h.ndim != 2:
            raise ArtifactError(
                f"LSTM layer{i} state has shapes h={h.shape}, c={c.shape}"
            )
        states.append(LSTMState(h, c))
    return states


@dataclass
class BatchStreamState:
    """Recurrent context of ``N`` monitored streams, one batch row each.

    ``lstm_states`` holds one ``(N, H)`` :class:`LSTMState` per stacked
    layer; ``last_probs`` is ``(N, |S|)`` and only rows with
    ``has_probs`` set carry a valid prediction (a stream that has not
    observed a package yet has no history to predict from).  A
    prediction is the last step's logits, bitwise what a softmax would
    be taken of; checkpoints written before serving stopped taking it
    hold probabilities, which the top-k rule ranks the same way up to
    rounding ties.
    """

    lstm_states: list[LSTMState]
    last_probs: np.ndarray
    has_probs: np.ndarray
    packages_seen: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(self.packages_seen.shape[0])

    def select(self, indices: Sequence[int] | np.ndarray) -> "BatchStreamState":
        """Row subset (a copy) — compacts detached streams out of the batch."""
        idx = np.asarray(indices, dtype=np.int64)
        return BatchStreamState(
            lstm_states=StackedLSTMClassifier.select_states(self.lstm_states, idx),
            last_probs=self.last_probs[idx],
            has_probs=self.has_probs[idx],
            packages_seen=self.packages_seen[idx],
        )

    def copy(self) -> "BatchStreamState":
        """Deep copy of every array."""
        return BatchStreamState(
            lstm_states=[state.copy() for state in self.lstm_states],
            last_probs=self.last_probs.copy(),
            has_probs=self.has_probs.copy(),
            packages_seen=self.packages_seen.copy(),
        )

    def set_rows(
        self, indices: Sequence[int] | np.ndarray, other: "BatchStreamState"
    ) -> None:
        """Scatter ``other``'s rows into positions ``indices``, in place.

        A partial engine tick writes back only the rows it advanced,
        instead of copying every array of the batch.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != other.batch_size:
            raise ValueError(
                f"{idx.size} indices given for {other.batch_size} replacement rows"
            )
        for state, new in zip(self.lstm_states, other.lstm_states):
            state.set_rows(idx, new)
        self.last_probs[idx] = other.last_probs
        self.has_probs[idx] = other.has_probs
        self.packages_seen[idx] = other.packages_seen

    def replace_rows(
        self, indices: Sequence[int] | np.ndarray, other: "BatchStreamState"
    ) -> "BatchStreamState":
        """Copy with ``other``'s rows scattered into positions ``indices``."""
        merged = self.copy()
        merged.set_rows(indices, other)
        return merged

    @classmethod
    def concat(cls, states: Sequence["BatchStreamState"]) -> "BatchStreamState":
        """Stack several batch states along the batch axis (stream attach)."""
        if not states:
            raise ValueError("no states to concatenate")
        return cls(
            lstm_states=StackedLSTMClassifier.stack_states(
                [state.lstm_states for state in states]
            ),
            last_probs=np.concatenate([state.last_probs for state in states], axis=0),
            has_probs=np.concatenate([state.has_probs for state in states]),
            packages_seen=np.concatenate(
                [state.packages_seen for state in states]
            ),
        )

    # -- persistence --------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Persistent snapshot of all monitored streams' recurrent context."""
        return {
            "lstm": _lstm_states_to_state(self.lstm_states),
            "last_probs": self.last_probs.copy(),
            "has_probs": self.has_probs.copy(),
            "packages_seen": self.packages_seen.copy(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any], dtype: Any) -> "BatchStreamState":
        """Rebuild a batch snapshot from :meth:`state_dict` output.

        The recurrent states and predictions come back in ``dtype``, that
        of the model they resume against, whatever dtype they were saved
        in.  Every array is copied: an engine writes partial-tick rows in
        place, so it must own its state rather than alias (possibly
        read-only) arrays of the caller's state dict.
        """
        lstm_states = _lstm_states_from_state(state["lstm"], dtype)
        restored = cls(
            lstm_states=lstm_states,
            last_probs=state_array(state["last_probs"], dtype, 2, "last_probs"),
            has_probs=state_array(state["has_probs"], bool, 1, "has_probs"),
            packages_seen=state_array(
                state["packages_seen"], np.int64, 1, "packages_seen"
            ),
        )
        batch = restored.batch_size
        rows = {restored.last_probs.shape[0], restored.has_probs.shape[0]}
        rows.update(s.batch_size for s in lstm_states)
        if rows != {batch}:
            raise ArtifactError(
                f"stream batch state rows disagree: {sorted(rows)}"
            )
        return restored


@dataclass
class TimeSeriesTrainingReport:
    """Diagnostics from :meth:`TimeSeriesDetector.fit`."""

    history: TrainingHistory = field(default_factory=TrainingHistory)
    input_size: int = 0
    num_classes: int = 0


class CodeEncoder:
    """One-hot encoding of discretized vectors plus the noise bit."""

    def __init__(self, cardinalities: Sequence[int]) -> None:
        if not cardinalities:
            raise ValueError("cardinalities must be non-empty")
        self.cardinalities = tuple(int(c) for c in cardinalities)
        self._offsets = np.concatenate(
            [[0], np.cumsum(self.cardinalities[:-1])]
        ).astype(np.int64)
        # Unsigned bounds: a negative code wraps to a huge unsigned value,
        # so one comparison checks both ends of every channel's range.
        self._bounds = np.asarray(self.cardinalities, dtype=np.uint64)
        self.input_size = int(sum(self.cardinalities)) + 1  # + noise bit

    def encode_sequence(
        self, codes: Sequence[CodeVector], noise_flags: Sequence[bool] | None = None
    ) -> np.ndarray:
        """Encode a fragment into a ``(T, D)`` float matrix.

        Raises ``ValueError`` on a code outside its channel's range.
        The channel offsets and range bounds are fixed at construction,
        so a call builds only the row-index column of its scatter; the
        matrix is the same one-hot matrix at any batch size.
        """
        count = len(codes)
        out = np.zeros((count, self.input_size))
        if count == 0:
            return out
        matrix = np.asarray(codes, dtype=np.int64)
        if matrix.shape[1] != len(self.cardinalities):
            raise ValueError(
                f"code vectors have {matrix.shape[1]} channels, expected "
                f"{len(self.cardinalities)}"
            )
        if (matrix.view(np.uint64) >= self._bounds).any():
            raise ValueError("code out of range for channel cardinality")
        out[np.arange(count)[:, None], matrix + self._offsets] = 1.0
        if noise_flags is not None:
            out[:, -1] = noise_flags
        return out

    def encode_one(self, codes: CodeVector, noise_flag: bool) -> np.ndarray:
        """Encode a single package vector (streaming use)."""
        return self.encode_sequence([codes], [noise_flag])[0]


class TimeSeriesDetector:
    """The stacked-LSTM top-k detector over signature streams.

    Operates on *discretized* code vectors; pair it with a
    :class:`~repro.core.discretization.FeatureDiscretizer` (the combined
    framework does this wiring).
    """

    def __init__(
        self,
        vocabulary: SignatureVocabulary,
        cardinalities: Sequence[int],
        config: TimeSeriesDetectorConfig | None = None,
        rng: SeedLike = 0,
        params: dict[str, Any] | None = None,
    ) -> None:
        """``params`` are stored network weights to adopt, as
        :meth:`StackedLSTMClassifier.state_dict` nests them, instead of
        drawing initial ones; the noise and training RNG streams are
        ``rng``'s either way."""
        if len(vocabulary) < 2:
            raise ValueError(
                f"vocabulary must contain >= 2 signatures, got {len(vocabulary)}"
            )
        self.config = (config or TimeSeriesDetectorConfig()).validate()
        self.vocabulary = vocabulary
        self.encoder = CodeEncoder(cardinalities)
        model_rng, self._noise_rng, self._train_rng = spawn_generators(rng, 3)
        self.model = StackedLSTMClassifier(
            NetworkConfig(
                input_size=self.encoder.input_size,
                hidden_sizes=self.config.hidden_sizes,
                num_classes=len(vocabulary),
            ),
            rng=model_rng,
            params=params,
        )
        self.k = self.config.k

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Config, encoder layout, chosen ``k`` and model weights.

        The shared :class:`SignatureVocabulary` is *not* embedded — the
        combined framework owns a single copy for both levels, so it is
        passed back into :meth:`from_state` by the caller.
        """
        config = {
            f.name: getattr(self.config, f.name)
            for f in fields(TimeSeriesDetectorConfig)
        }
        config["hidden_sizes"] = list(self.config.hidden_sizes)
        return {
            "config": config,
            "k": self.k,
            "cardinalities": list(self.encoder.cardinalities),
            "model": self.model.state_dict(),
        }

    @classmethod
    def from_state(
        cls, state: dict[str, Any], vocabulary: SignatureVocabulary
    ) -> "TimeSeriesDetector":
        """Rebuild a trained detector around a restored vocabulary.

        The training RNG streams (noise schedule, batch shuffling) are
        re-seeded fresh — they are not part of inference state, and
        detection after a round-trip is bit-identical regardless.  The
        network adopts the stored weights in their dtype; no initial
        weights are drawn.
        """
        try:
            raw = dict(state["config"])
            raw["hidden_sizes"] = tuple(int(h) for h in raw["hidden_sizes"])
            config = TimeSeriesDetectorConfig(**raw)
        except (KeyError, TypeError) as exc:
            raise ArtifactError(f"bad time-series config state: {exc}") from exc
        detector = cls(
            vocabulary,
            [int(c) for c in state["cardinalities"]],
            config,
            rng=0,
            params=state["model"]["params"],
        )
        detector.k = int(state["k"])
        return detector

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def _target_ids(self, codes: Sequence[CodeVector]) -> np.ndarray:
        ids = []
        for vector in codes:
            identifier = self.vocabulary.id_of(signature_of(vector))
            if identifier is None:
                raise ValueError(
                    "training fragment contains a signature outside the "
                    "vocabulary; build the vocabulary from the same data"
                )
            ids.append(identifier)
        return np.asarray(ids, dtype=np.int64)

    def _encode_fragment(
        self, codes: Sequence[CodeVector], noiser: ProbabilisticNoiser | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Build one supervised fragment: inputs 0..T-2 predict 1..T-1."""
        if len(codes) < 2:
            return None
        targets = self._target_ids(codes)[1:]
        if noiser is None:
            inputs = self.encoder.encode_sequence(
                codes[:-1], np.zeros(len(codes) - 1, dtype=bool)
            )
        else:
            noised, flags = noiser.apply_sequence(codes[:-1])
            inputs = self.encoder.encode_sequence(noised, flags)
        return inputs, targets

    def fit(
        self,
        fragments: Sequence[Sequence[CodeVector]],
        verbose: bool = False,
    ) -> TimeSeriesTrainingReport:
        """Train on anomaly-free discretized fragments.

        Noise (when enabled) is re-sampled every epoch, so across the
        run the model sees many corruption patterns per package.
        """
        usable = [f for f in fragments if len(f) >= 2]
        if not usable:
            raise ValueError("no fragments with >= 2 packages supplied")
        noiser = None
        if self.config.use_noise:
            noiser = ProbabilisticNoiser(
                self.vocabulary,
                self.encoder.cardinalities,
                lam=self.config.lam,
                max_corrupted=self.config.max_corrupted,
                rng=self._noise_rng,
            )
        optimizer = Adam(learning_rate=self.config.learning_rate)
        report = TimeSeriesTrainingReport(
            input_size=self.encoder.input_size, num_classes=len(self.vocabulary)
        )
        for epoch in range(self.config.epochs):
            encoded = []
            for fragment in usable:
                pair = self._encode_fragment(fragment, noiser)
                if pair is not None:
                    encoded.append(pair)
            history = self.model.fit(
                encoded,
                epochs=1,
                batch_size=self.config.batch_size,
                bptt_len=self.config.bptt_len,
                optimizer=optimizer,
                rng=self._train_rng,
            )
            report.history.losses.extend(history.losses)
            if verbose:  # pragma: no cover - console output
                print(
                    f"[ts-detector] epoch {epoch + 1}/{self.config.epochs} "
                    f"loss={history.losses[-1]:.4f}"
                )
        return report

    # ------------------------------------------------------------------
    # offline evaluation (used to choose k)
    # ------------------------------------------------------------------

    def top_k_errors(
        self, fragments: Sequence[Sequence[CodeVector]], ks: Sequence[int]
    ) -> dict[int, float]:
        """``err_k`` for every ``k`` over clean fragments.

        Membership is ``F_t``'s own rule (:func:`top_k_hits`), so the
        ``k`` chosen from this curve is judged as it will be served.
        Signatures absent from the vocabulary can never be in the top-k
        set, so they count as misses.
        """
        if any(k < 1 for k in ks):
            raise ValueError("all ks must be >= 1")
        misses = {k: 0 for k in ks}
        total = 0
        for fragment in fragments:
            if len(fragment) < 2:
                continue
            inputs = self.encoder.encode_sequence(
                fragment[:-1], np.zeros(len(fragment) - 1, dtype=bool)
            )
            probs = self.model.predict_proba(inputs)
            target_ids = np.array(
                [
                    -1
                    if (i := self.vocabulary.id_of(signature_of(v))) is None
                    else i
                    for v in fragment[1:]
                ]
            )
            total += len(target_ids)
            for k in ks:
                misses[k] += int((~top_k_hits(probs, target_ids, k)).sum())
        if total == 0:
            return {k: 0.0 for k in ks}
        return {k: misses[k] / total for k in ks}

    # ------------------------------------------------------------------
    # streaming detection
    # ------------------------------------------------------------------

    def new_stream(self) -> StreamState:
        """Fresh recurrent state for one monitored stream."""
        return StreamState(lstm_states=self.model.init_state(1))

    def observe(
        self,
        codes: CodeVector,
        state: StreamState,
        forced_verdict: bool | None = None,
    ) -> tuple[bool, StreamState]:
        """Process one package; returns ``(is_anomalous, new_state)``.

        ``F_t`` cannot judge the very first package of a stream (no
        history), so it passes.  ``forced_verdict`` lets the combined
        framework feed the Bloom filter's verdict into the noise bit
        without re-running the top-k check.
        """
        if forced_verdict is None:
            if state.last_probs is None:
                verdict = False
            else:
                identifier = self.vocabulary.id_of(signature_of(codes))
                if identifier is None:
                    verdict = True
                else:
                    verdict = not top_k_hits(state.last_probs, identifier, self.k)
        else:
            verdict = forced_verdict
        x = self.encoder.encode_one(codes, noise_flag=verdict)
        logits, lstm_states = self.model.step(x, state.lstm_states)
        return verdict, StreamState(
            lstm_states=lstm_states,
            last_probs=logits,
            packages_seen=state.packages_seen + 1,
        )

    def new_stream_batch(self, batch_size: int) -> BatchStreamState:
        """Fresh recurrent state for ``batch_size`` concurrent streams,
        in the model's dtype."""
        if batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {batch_size}")
        return BatchStreamState(
            lstm_states=self.model.init_state(batch_size),
            last_probs=np.zeros((batch_size, len(self.vocabulary)), self.model.dtype),
            has_probs=np.zeros(batch_size, dtype=bool),
            packages_seen=np.zeros(batch_size, dtype=np.int64),
        )

    def classify_sequence(self, codes: Sequence[CodeVector]) -> np.ndarray:
        """Run streaming detection over a whole code sequence."""
        state = self.new_stream()
        verdicts = np.zeros(len(codes), dtype=bool)
        for i, vector in enumerate(codes):
            verdicts[i], state = self.observe(vector, state)
        return verdicts

    def memory_bytes(self) -> int:
        """Model parameter memory (for the paper's cost accounting)."""
        return self.model.memory_bytes()
