"""The stacked LSTM softmax classifier (paper Fig. 2) and its training loop.

The model is a stack of LSTM layers followed by a dense projection to
``|S|`` logits and a softmax activation layer; it is trained to minimize
the softmax loss over next-package signatures with mini-batched truncated
backpropagation through time.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.nn.activations import softmax
from repro.nn.data import PaddedBatch, SequenceWindow, iter_batches, make_windows
from repro.nn.dense import DenseLayer
from repro.nn.losses import softmax_cross_entropy, top_k_error
from repro.nn.lstm import LSTMLayer, LSTMState
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.artifact import ArtifactError
from repro.utils.rng import SeedLike, as_generator, spawn_generators

Fragment = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of a :class:`StackedLSTMClassifier`.

    Attributes
    ----------
    input_size:
        Dimension of the encoded package vector (one-hot features plus
        the probabilistic-noise indicator bit).
    hidden_sizes:
        Width of each stacked LSTM layer; the paper uses ``(256, 256)``.
    num_classes:
        Size of the signature database ``|S|``.
    """

    input_size: int
    hidden_sizes: tuple[int, ...]
    num_classes: int

    def __post_init__(self) -> None:
        if self.input_size < 1:
            raise ValueError(f"input_size must be >= 1, got {self.input_size}")
        if not self.hidden_sizes:
            raise ValueError("at least one LSTM layer is required")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics returned by :meth:`fit`."""

    losses: list[float] = field(default_factory=list)
    validation_errors: list[float] = field(default_factory=list)


class StackedLSTMClassifier:
    """Stacked LSTM network with a softmax output layer.

    The public surface mirrors the paper's use of the model:

    - :meth:`fit` — train on anomaly-free fragments,
    - :meth:`predict_proba` — ``Pr(s | c(t-1), c(t-2), ...)`` for every
      position of a fragment,
    - :meth:`init_state` / :meth:`step` — online, package-at-a-time
      logits for streaming detection,
    - :meth:`top_k_validation_error` — the ``err_k`` curve used to pick
      ``k`` (paper Section V.2).
    """

    def __init__(
        self,
        config: NetworkConfig,
        rng: SeedLike = None,
        params: dict[str, dict[str, np.ndarray]] | None = None,
    ) -> None:
        """Draw initial weights from ``rng``, or adopt ``params``.

        ``params`` holds stored weights nested per layer, as
        :meth:`state_dict` writes them.  They are checked against
        ``config`` and kept in their dtype, which must be float32 or
        float64 and one for the whole network (:class:`ArtifactError`
        otherwise); no initial weights are drawn then.
        """
        self.config = config
        stored = (
            {} if params is None else _checked_params(params, self.param_shapes(config))
        )
        layer_rngs = spawn_generators(rng, len(config.hidden_sizes) + 1)
        self.lstm_layers: list[LSTMLayer] = []
        in_size = config.input_size
        for i, (width, layer_rng) in enumerate(zip(config.hidden_sizes, layer_rngs)):
            self.lstm_layers.append(
                LSTMLayer(in_size, width, rng=layer_rng, params=stored.get(f"lstm{i}"))
            )
            in_size = width
        self.output_layer = DenseLayer(
            in_size, config.num_classes, rng=layer_rngs[-1], params=stored.get("out")
        )

    @staticmethod
    def param_shapes(config: NetworkConfig) -> dict[str, dict[str, tuple[int, ...]]]:
        """Every weight's shape, nested per layer as :meth:`state_dict`
        stores them."""
        shapes: dict[str, dict[str, tuple[int, ...]]] = {}
        in_size = config.input_size
        for i, width in enumerate(config.hidden_sizes):
            shapes[f"lstm{i}"] = LSTMLayer.param_shapes(in_size, width)
            in_size = width
        shapes["out"] = DenseLayer.param_shapes(in_size, config.num_classes)
        return shapes

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the weights, which every inference step computes
        and keeps its recurrent state in."""
        return self.output_layer.params["W"].dtype

    def cast(self, dtype: Any) -> None:
        """Store every weight as ``dtype``, resetting the gradients;
        inference then runs in it."""
        for _, layer in self._layers:
            layer.params = {name: a.astype(dtype) for name, a in layer.params.items()}
            layer.grads = {name: np.zeros_like(a) for name, a in layer.params.items()}

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------

    @property
    def _layers(self) -> list[tuple[str, LSTMLayer | DenseLayer]]:
        named: list[tuple[str, LSTMLayer | DenseLayer]] = [
            (f"lstm{i}", layer) for i, layer in enumerate(self.lstm_layers)
        ]
        named.append(("out", self.output_layer))
        return named

    def parameters(self) -> dict[str, np.ndarray]:
        """All trainable arrays keyed by ``<layer>/<name>`` (live views)."""
        return {
            f"{prefix}/{name}": array
            for prefix, layer in self._layers
            for name, array in layer.params.items()
        }

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`parameters` from the last backward."""
        return {
            f"{prefix}/{name}": array
            for prefix, layer in self._layers
            for name, array in layer.grads.items()
        }

    def parameter_count(self) -> int:
        """Total trainable scalars across all layers."""
        return sum(layer.parameter_count() for _, layer in self._layers)

    def memory_bytes(self) -> int:
        """In-memory size of the parameters, in their dtype (the paper
        reports model KB)."""
        return sum(array.nbytes for array in self.parameters().values())

    # ------------------------------------------------------------------
    # persistence protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Architecture plus all weights, parameters nested per layer."""
        params: dict[str, dict[str, np.ndarray]] = {}
        for name, array in self.parameters().items():
            layer, param = name.split("/", 1)
            params.setdefault(layer, {})[param] = array.copy()
        return {
            "input_size": self.config.input_size,
            "hidden_sizes": list(self.config.hidden_sizes),
            "num_classes": self.config.num_classes,
            "params": params,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StackedLSTMClassifier":
        """Rebuild a classifier from :meth:`state_dict` output."""
        try:
            config = NetworkConfig(
                input_size=int(state["input_size"]),
                hidden_sizes=tuple(int(h) for h in state["hidden_sizes"]),
                num_classes=int(state["num_classes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"bad network architecture state: {exc}") from exc
        return cls(config, params=state["params"])

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        states: list[LSTMState] | None = None,
        keep_cache: bool = True,
    ) -> tuple[np.ndarray, list[LSTMState]]:
        """Run the stack over ``(T, B, D)`` input; returns logits ``(T, B, C)``."""
        hidden = x
        new_states: list[LSTMState] = []
        for i, layer in enumerate(self.lstm_layers):
            state = states[i] if states is not None else None
            hidden, final = layer.forward(hidden, state=state, keep_cache=keep_cache)
            new_states.append(final)
        logits = self.output_layer.forward(hidden, keep_cache=keep_cache)
        return logits, new_states

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate ``dlogits`` (shape ``(T, B, C)``) through the stack."""
        grad = self.output_layer.backward(dlogits)
        for layer in reversed(self.lstm_layers):
            grad = layer.backward(grad)

    def train_batch(self, batch: PaddedBatch, optimizer: Optimizer) -> float:
        """One optimizer step on a padded batch; returns the masked loss."""
        logits, _ = self.forward(batch.inputs, keep_cache=True)
        timesteps, batch_size, num_classes = logits.shape
        loss, dflat = softmax_cross_entropy(
            logits.reshape(-1, num_classes),
            batch.targets.reshape(-1),
            weights=batch.mask.reshape(-1),
        )
        self.backward(dflat.reshape(timesteps, batch_size, num_classes))
        optimizer.step(self.parameters(), self.gradients())
        return loss

    # ------------------------------------------------------------------
    # training loop
    # ------------------------------------------------------------------

    def fit(
        self,
        fragments: Sequence[Fragment],
        epochs: int = 10,
        batch_size: int = 32,
        bptt_len: int = 20,
        optimizer: Optimizer | None = None,
        validation_fragments: Sequence[Fragment] | None = None,
        validation_k: int = 1,
        rng: SeedLike = None,
        callback: Callable[[int, float], None] | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train on ``(inputs, targets)`` fragments with truncated BPTT.

        Parameters
        ----------
        fragments:
            Sequence of ``(inputs (T, D), targets (T,))`` pairs — already
            shifted so ``targets[t]`` is the signature id of the *next*
            package after ``inputs[t]``.
        epochs, batch_size, bptt_len:
            Standard loop controls; the paper trains 50 epochs.
        optimizer:
            Defaults to :class:`Adam` with gradient clipping.
        validation_fragments / validation_k:
            When given, ``err_k`` on this clean set is recorded per epoch.
        callback:
            Called as ``callback(epoch_index, epoch_loss)`` after every
            epoch — used by experiments to stream progress.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if not fragments:
            raise ValueError("no training fragments supplied")
        optimizer = optimizer or Adam(learning_rate=0.003)
        generator = as_generator(rng)
        windows = make_windows(fragments, bptt_len)
        if not windows:
            raise ValueError("fragments produced no training windows")

        history = TrainingHistory()
        for epoch in range(epochs):
            epoch_loss = 0.0
            batches = 0
            for batch in iter_batches(windows, batch_size, shuffle=True, rng=generator):
                epoch_loss += self.train_batch(batch, optimizer)
                batches += 1
            epoch_loss /= max(batches, 1)
            history.losses.append(epoch_loss)
            if validation_fragments is not None:
                history.validation_errors.append(
                    self.top_k_validation_error(validation_fragments, validation_k)
                )
            if callback is not None:
                callback(epoch, epoch_loss)
            if verbose:  # pragma: no cover - console output
                print(f"epoch {epoch + 1}/{epochs}  loss={epoch_loss:.4f}")
        return history

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        """Signature distribution at every position of one fragment.

        ``inputs`` is ``(T, D)``; row ``t`` of the result is
        ``Pr(s | c(t), c(t-1), ...)`` — the prediction *for the package
        after position t*, in the weights' dtype.
        """
        inputs = np.asarray(inputs, dtype=self.dtype)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be (T, D), got {inputs.shape}")
        logits, _ = self.forward(inputs[:, None, :], keep_cache=False)
        return softmax(logits[:, 0, :], axis=-1)

    def init_state(self, batch_size: int = 1) -> list[LSTMState]:
        """Zero recurrent state for online stepping, in the weights' dtype."""
        return [layer.zero_state(batch_size) for layer in self.lstm_layers]

    @staticmethod
    def stack_states(per_stream: Sequence[list[LSTMState]]) -> list[LSTMState]:
        """Stack per-stream state lists into one batched state per layer.

        ``per_stream[i]`` is the state list of stream ``i`` (one
        :class:`LSTMState` per stacked layer); the result carries stream
        ``i`` in batch row ``i`` and feeds a single batched :meth:`step`.
        """
        if not per_stream:
            raise ValueError("no states to stack")
        depth = len(per_stream[0])
        if any(len(states) != depth for states in per_stream):
            raise ValueError("state lists disagree on layer count")
        return [
            LSTMState.stack([states[layer] for states in per_stream])
            for layer in range(depth)
        ]

    @staticmethod
    def select_states(
        states: list[LSTMState], indices: Sequence[int] | np.ndarray
    ) -> list[LSTMState]:
        """Batch-row subset of a stacked state (stream detach/compact)."""
        return [state.select(indices) for state in states]

    def step(
        self, x_t: np.ndarray, states: list[LSTMState]
    ) -> tuple[np.ndarray, list[LSTMState]]:
        """Feed one package vector per stream, ``(B, D)``; returns the
        ``(B, C)`` logits.

        The output layer's logits score the *next* package's signature
        given everything fed so far.  ``F_t`` only ranks them
        (:func:`~repro.nn.losses.top_k_hits`), so no softmax is taken;
        a row's softmax matches :meth:`predict_proba` at that position.
        Inputs are cast to the weights' dtype, and ``states`` must hold
        it (as :meth:`init_state` makes them).
        """
        hidden = np.asarray(x_t, dtype=self.dtype)
        if hidden.ndim != 2:
            raise ValueError(f"step takes (B, D) inputs, got shape {hidden.shape}")
        new_states: list[LSTMState] = []
        for layer, state in zip(self.lstm_layers, states):
            hidden, new_state = layer.step(hidden, state)
            new_states.append(new_state)
        return self.output_layer.forward(hidden, keep_cache=False), new_states

    def top_k_validation_error(self, fragments: Sequence[Fragment], k: int) -> float:
        """``err_k`` over every prediction in clean fragments."""
        misses = 0
        total = 0
        for inputs, targets in fragments:
            probs = self.predict_proba(np.asarray(inputs))
            err = top_k_error(probs, np.asarray(targets), k)
            misses += err * len(targets)
            total += len(targets)
        if total == 0:
            return 0.0
        return misses / total


#: The dtypes a network's weights may be stored and computed in.
WEIGHT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _checked_params(
    stored: dict[str, Any], shapes: dict[str, dict[str, tuple[int, ...]]]
) -> dict[str, dict[str, np.ndarray]]:
    """Copies of the stored weights, checked against the architecture.

    Each keeps its stored dtype, which must be one of
    :data:`WEIGHT_DTYPES` and the same for every weight.
    """
    checked: dict[str, dict[str, np.ndarray]] = {}
    dtypes = set()
    for layer, names in shapes.items():
        for pname, shape in names.items():
            name = f"{layer}/{pname}"
            try:
                array = np.array(stored[layer][pname])
            except KeyError:
                raise ArtifactError(f"model state missing parameter {name!r}")
            if array.dtype not in WEIGHT_DTYPES:
                raise ArtifactError(
                    f"{name} is stored as {array.dtype}; weights must be "
                    "float32 or float64"
                )
            if array.shape != shape:
                raise ArtifactError(
                    f"shape mismatch for {name}: stored {array.shape}, "
                    f"model {shape}"
                )
            dtypes.add(array.dtype)
            checked.setdefault(layer, {})[pname] = array
    if len(dtypes) > 1:
        raise ArtifactError(
            f"model weights mix dtypes: {sorted(str(d) for d in dtypes)}"
        )
    return checked
