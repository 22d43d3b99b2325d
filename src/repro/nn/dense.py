"""Affine (fully connected) output layer."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros
from repro.utils.rng import SeedLike, as_generator


class DenseLayer:
    """``y = x @ W + b`` applied to the last axis of a time-major batch.

    Used as the projection from the top LSTM layer's hidden vector to the
    ``|S|`` signature logits ``z`` feeding the softmax activation layer.
    It computes in the dtype of its weights; ``params`` (shapes as
    :meth:`param_shapes` gives) adopts trained weights as they are, dtype
    included, instead of drawing initial ones.
    """

    def __init__(
        self,
        input_size: int,
        output_size: int,
        rng: SeedLike = None,
        params: dict[str, np.ndarray] | None = None,
    ) -> None:
        if input_size < 1 or output_size < 1:
            raise ValueError(
                f"input_size and output_size must be >= 1, got {input_size}, {output_size}"
            )
        self.input_size = input_size
        self.output_size = output_size
        if params is None:
            params = {
                "W": glorot_uniform((input_size, output_size), as_generator(rng)),
                "b": zeros((output_size,)),
            }
        self.params: dict[str, np.ndarray] = params
        self.grads: dict[str, np.ndarray] = {
            name: np.zeros_like(value) for name, value in self.params.items()
        }
        self._input: np.ndarray | None = None

    @staticmethod
    def param_shapes(input_size: int, output_size: int) -> dict[str, tuple[int, ...]]:
        """Shapes of ``W`` and ``b``."""
        return {"W": (input_size, output_size), "b": (output_size,)}

    def forward(self, x: np.ndarray, keep_cache: bool = True) -> np.ndarray:
        """Apply the affine map; ``x`` may be ``(B, D)`` or ``(T, B, D)``,
        and is cast to the weights' dtype.  The bias is added in place on
        the product, the same bits as ``x @ W + b``."""
        if x.shape[-1] != self.input_size:
            raise ValueError(
                f"input feature size {x.shape[-1]} != layer input_size {self.input_size}"
            )
        weights = self.params["W"]
        x = x.astype(weights.dtype, copy=False)
        self._input = x if keep_cache else None
        out = x @ weights
        out += self.params["b"]
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        """Backprop; ``d_out`` matches the forward output shape."""
        x = self._input
        if x is None:
            raise RuntimeError("backward() called without a cached forward pass")
        x_flat = x.reshape(-1, self.input_size)
        d_flat = d_out.reshape(-1, self.output_size)
        self.grads["W"] = x_flat.T @ d_flat
        self.grads["b"] = d_flat.sum(axis=0)
        self._input = None
        return d_out @ self.params["W"].T

    def parameter_count(self) -> int:
        """Total number of trainable scalars in this layer."""
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseLayer(input_size={self.input_size}, output_size={self.output_size})"
