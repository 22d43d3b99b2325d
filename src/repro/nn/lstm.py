"""LSTM layer with backpropagation through time.

Implements exactly the memory-cell equations of the paper's Section V:

.. math::

    i_t &= σ(W_i x_t + U_i h_{t-1} + b_i) \\
    f_t &= σ(W_f x_t + U_f h_{t-1} + b_f) \\
    o_t &= σ(W_o x_t + U_o h_{t-1} + b_o) \\
    g_t &= τ(W_g x_t + U_g h_{t-1} + b_g) \\
    c_t &= f_t ⊙ c_{t-1} + i_t ⊙ g_t \\
    h_t &= o_t ⊙ τ(c_t)

The four gate weight matrices are fused into single ``W``/``U``/``b``
arrays with column layout ``[i | f | o | g]`` so each timestep costs two
matrix multiplications.  Arrays are time-major: ``(T, B, D)``.

Training (:meth:`LSTMLayer.forward` and :meth:`LSTMLayer.backward`)
takes σ from :func:`~repro.nn.activations.sigmoid`.  The serving step
(:meth:`LSTMLayer.step`, the one every engine pass runs) computes σ as
``½·tanh(x/2) + ½``, so one in-place ``tanh`` over the fused gate block
serves all four gates; the two forms differ by about an ulp.

A layer computes in the dtype of its weights: initial weights are
float64, and a layer built around stored float32 weights runs every
inference step, and keeps its recurrent state, in float32.  Inputs of
another dtype are cast to the weights' dtype first.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.nn.activations import sigmoid, sigmoid_grad, tanh, tanh_grad
from repro.nn.initializers import glorot_uniform, lstm_forget_bias, orthogonal, zeros
from repro.utils.rng import SeedLike, as_generator


@dataclass
class LSTMState:
    """Recurrent state ``(h, c)`` of one LSTM layer for a batch.

    ``h`` and ``c`` both have shape ``(batch, hidden_size)``.
    """

    h: np.ndarray
    c: np.ndarray

    def copy(self) -> "LSTMState":
        """Deep copy, so online detectors can snapshot their state."""
        return LSTMState(self.h.copy(), self.c.copy())

    @property
    def batch_size(self) -> int:
        """Number of independent sequences carried by this state."""
        return int(self.h.shape[0])

    @classmethod
    def stack(cls, states: Sequence["LSTMState"]) -> "LSTMState":
        """Merge per-stream states into one batched state (row per stream)."""
        if not states:
            raise ValueError("no states to stack")
        return cls(
            np.concatenate([state.h for state in states], axis=0),
            np.concatenate([state.c for state in states], axis=0),
        )

    def select(self, indices: Sequence[int] | np.ndarray) -> "LSTMState":
        """Row subset (used to compact detached streams out of a batch).

        Integer-array indexing always copies, so the subset never
        aliases this state.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return LSTMState(self.h[idx], self.c[idx])

    def set_rows(
        self, indices: Sequence[int] | np.ndarray, other: "LSTMState"
    ) -> None:
        """Scatter ``other``'s rows into positions ``indices``, in place."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != other.batch_size:
            raise ValueError(
                f"{idx.size} indices given for {other.batch_size} replacement rows"
            )
        self.h[idx] = other.h
        self.c[idx] = other.c


class _ForwardCache:
    """Per-sequence activations retained for the backward pass."""

    __slots__ = ("x", "h_prev", "c_prev", "i", "f", "o", "g", "c", "h", "tanh_c")

    def __init__(self, **arrays: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])


class LSTMLayer:
    """A single LSTM layer with fused gates and BPTT.

    Parameters
    ----------
    input_size:
        Dimension of each input vector ``x_t``.
    hidden_size:
        Number of memory cells (the paper uses 256 per layer).
    rng:
        Seed or generator for weight initialization.
    forget_bias:
        Initial forget-gate bias (1.0 keeps memory early in training).
    params:
        Trained ``W``, ``U`` and ``b`` (shapes as :meth:`param_shapes`
        gives) to adopt as they are, dtype included, instead of drawing
        initial weights.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: SeedLike = None,
        forget_bias: float = 1.0,
        params: dict[str, np.ndarray] | None = None,
    ) -> None:
        if input_size < 1 or hidden_size < 1:
            raise ValueError(
                f"input_size and hidden_size must be >= 1, got {input_size}, {hidden_size}"
            )
        self.input_size = input_size
        self.hidden_size = hidden_size
        if params is None:
            generator = as_generator(rng)
            # Fused parameter layout: columns [i | f | o | g].
            w_blocks = [
                glorot_uniform((input_size, hidden_size), generator) for _ in range(4)
            ]
            u_blocks = [
                orthogonal((hidden_size, hidden_size), generator) for _ in range(4)
            ]
            params = {
                "W": np.concatenate(w_blocks, axis=1),
                "U": np.concatenate(u_blocks, axis=1),
                "b": lstm_forget_bias(
                    zeros((4 * hidden_size,)), hidden_size, forget_bias
                ),
            }
        self.params: dict[str, np.ndarray] = params
        self.grads: dict[str, np.ndarray] = {
            name: np.zeros_like(value) for name, value in self.params.items()
        }
        self._cache: _ForwardCache | None = None

    @staticmethod
    def param_shapes(input_size: int, hidden_size: int) -> dict[str, tuple[int, ...]]:
        """Shapes of the fused ``W``, ``U`` and ``b`` of one layer."""
        return {
            "W": (input_size, 4 * hidden_size),
            "U": (hidden_size, 4 * hidden_size),
            "b": (4 * hidden_size,),
        }

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def zero_state(self, batch_size: int) -> LSTMState:
        """Fresh all-zero recurrent state for ``batch_size`` sequences,
        in the weights' dtype."""
        shape = (batch_size, self.hidden_size)
        dtype = self.params["U"].dtype
        return LSTMState(np.zeros(shape, dtype), np.zeros(shape, dtype))

    def forward(
        self,
        x: np.ndarray,
        state: LSTMState | None = None,
        keep_cache: bool = True,
    ) -> tuple[np.ndarray, LSTMState]:
        """Run the layer over a time-major batch ``x`` of shape ``(T, B, D)``.

        Returns the hidden sequence ``(T, B, H)`` and the final state.
        When ``keep_cache`` is true the intermediate activations are kept
        so :meth:`backward` can run; inference should pass ``False``.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (T, B, D) input, got shape {x.shape}")
        timesteps, batch, input_dim = x.shape
        if input_dim != self.input_size:
            raise ValueError(
                f"input feature size {input_dim} != layer input_size {self.input_size}"
            )
        if state is None:
            state = self.zero_state(batch)

        hidden = self.hidden_size
        weights = self.params["W"]
        recurrent = self.params["U"]
        bias = self.params["b"]
        x = x.astype(weights.dtype, copy=False)

        # Input contribution for every timestep in one big matmul.
        x_flat = x.reshape(timesteps * batch, input_dim)
        z_input = (x_flat @ weights).reshape(timesteps, batch, 4 * hidden)

        shape = (timesteps, batch, hidden)
        gate_i = np.empty(shape, weights.dtype)
        gate_f = np.empty(shape, weights.dtype)
        gate_o = np.empty(shape, weights.dtype)
        gate_g = np.empty(shape, weights.dtype)
        cells = np.empty(shape, weights.dtype)
        hiddens = np.empty(shape, weights.dtype)
        tanh_cells = np.empty(shape, weights.dtype)

        h_prev = state.h
        c_prev = state.c
        for t in range(timesteps):
            z = z_input[t] + h_prev @ recurrent + bias
            gates = sigmoid(z[:, : 3 * hidden])
            gate_i[t] = gates[:, :hidden]
            gate_f[t] = gates[:, hidden : 2 * hidden]
            gate_o[t] = gates[:, 2 * hidden :]
            gate_g[t] = tanh(z[:, 3 * hidden :])
            cells[t] = gate_f[t] * c_prev + gate_i[t] * gate_g[t]
            tanh_cells[t] = tanh(cells[t])
            hiddens[t] = gate_o[t] * tanh_cells[t]
            h_prev = hiddens[t]
            c_prev = cells[t]

        if keep_cache:
            self._cache = _ForwardCache(
                x=x,
                h_prev=state.h,
                c_prev=state.c,
                i=gate_i,
                f=gate_f,
                o=gate_o,
                g=gate_g,
                c=cells,
                h=hiddens,
                tanh_c=tanh_cells,
            )
        else:
            self._cache = None
        return hiddens, LSTMState(h_prev.copy(), c_prev.copy())

    def step(self, x_t: np.ndarray, state: LSTMState) -> tuple[np.ndarray, LSTMState]:
        """Single online timestep for streaming detection.

        ``x_t`` has shape ``(B, D)``; returns ``(h_t, new_state)`` without
        caching anything for backprop, and never writes into ``state``.
        ``x_t`` is cast to the weights' dtype; ``state`` must already
        hold it, or this raises :class:`ValueError` (the in-place sums
        below would silently round a float64 state to float32).

        The gates come from one ``tanh`` over the fused ``(B, 4H)``
        block, computed in place on the matmul result: ``i``, ``f`` and
        ``o`` use ``σ(x) = ½·tanh(x/2) + ½`` (within an ulp or so of
        :func:`sigmoid`, which training keeps), ``g`` is ``τ`` itself.
        Every operation is elementwise, so each row's bits are those of
        one gate at a time and one row at a time.
        """
        hidden = self.hidden_size
        weights = self.params["W"]
        if state.h.dtype != weights.dtype or state.c.dtype != weights.dtype:
            raise ValueError(
                f"state dtype {state.h.dtype}/{state.c.dtype} differs from "
                f"the weights' {weights.dtype}"
            )
        x_t = np.asarray(x_t, dtype=weights.dtype)
        z = x_t @ weights
        z += state.h @ self.params["U"]
        z += self.params["b"]
        sigmoid_gates = z[:, : 3 * hidden]
        sigmoid_gates *= 0.5
        np.tanh(z, out=z)
        sigmoid_gates *= 0.5
        sigmoid_gates += 0.5
        i = z[:, :hidden]
        f = z[:, hidden : 2 * hidden]
        o = z[:, 2 * hidden : 3 * hidden]
        g = z[:, 3 * hidden :]
        c = f * state.c
        c += i * g
        h = np.tanh(c)
        h *= o
        return h, LSTMState(h, c)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self, dh_out: np.ndarray) -> np.ndarray:
        """Backpropagate through time.

        ``dh_out`` is the gradient of the loss with respect to every
        hidden output, shape ``(T, B, H)``.  Accumulates parameter
        gradients into :attr:`grads` (overwriting them) and returns the
        gradient with respect to the layer input, shape ``(T, B, D)``.

        The initial state is treated as constant (no gradient flows out
        of the window), which is standard truncated BPTT.
        """
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward() called without a cached forward pass")
        timesteps, batch, hidden = dh_out.shape
        if hidden != self.hidden_size or timesteps != cache.h.shape[0]:
            raise ValueError(
                f"dh_out shape {dh_out.shape} does not match cached forward "
                f"pass {cache.h.shape}"
            )

        weights = self.params["W"]
        recurrent = self.params["U"]

        d_weights = np.zeros_like(weights)
        d_recurrent = np.zeros_like(recurrent)
        d_bias = np.zeros_like(self.params["b"])
        dx = np.empty_like(cache.x)

        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))

        dz = np.empty((batch, 4 * hidden))
        for t in range(timesteps - 1, -1, -1):
            dh = dh_out[t] + dh_next
            tanh_c = cache.tanh_c[t]
            do = dh * tanh_c
            dc = dh * cache.o[t] * tanh_grad(tanh_c) + dc_next

            c_prev = cache.c[t - 1] if t > 0 else cache.c_prev
            h_prev = cache.h[t - 1] if t > 0 else cache.h_prev

            di = dc * cache.g[t]
            df = dc * c_prev
            dg = dc * cache.i[t]
            dc_next = dc * cache.f[t]

            dz[:, :hidden] = di * sigmoid_grad(cache.i[t])
            dz[:, hidden : 2 * hidden] = df * sigmoid_grad(cache.f[t])
            dz[:, 2 * hidden : 3 * hidden] = do * sigmoid_grad(cache.o[t])
            dz[:, 3 * hidden :] = dg * tanh_grad(cache.g[t])

            d_weights += cache.x[t].T @ dz
            d_recurrent += h_prev.T @ dz
            d_bias += dz.sum(axis=0)
            dx[t] = dz @ weights.T
            dh_next = dz @ recurrent.T

        self.grads["W"] = d_weights
        self.grads["U"] = d_recurrent
        self.grads["b"] = d_bias
        self._cache = None
        return dx

    # ------------------------------------------------------------------

    def parameter_count(self) -> int:
        """Total number of trainable scalars in this layer."""
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LSTMLayer(input_size={self.input_size}, hidden_size={self.hidden_size})"
