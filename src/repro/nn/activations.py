"""Numerically stable activation functions and their derivatives."""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid ``σ(x) = 1 / (1 + exp(-x))``, overflow-safe.

    One pass over the whole array: with ``e = exp(-|x|)`` (so ``exp`` is
    only ever taken of non-positive arguments) the result is
    ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere,
    in the dtype of ``x``.  Exactness contract: bitwise equal, for every
    non-NaN float32 or float64, to the piecewise form that evaluates
    ``1 / (1 + exp(-x))`` and ``exp(x) / (1 + exp(x))`` on the two
    masked halves separately (``-|x|`` is exactly ``-x`` or ``x``, and
    ``-0.0`` takes the ``x >= 0`` branch in both); a NaN input gives
    NaN.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_grad(y: np.ndarray) -> np.ndarray:
    """Derivative of the sigmoid *given its output* ``y = σ(x)``."""
    return y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent — the paper's cell input/output nonlinearity τ."""
    return np.tanh(x)


def tanh_grad(y: np.ndarray) -> np.ndarray:
    """Derivative of tanh *given its output* ``y = tanh(x)``."""
    return 1.0 - y * y


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit (provided for completeness; unused by LSTM)."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of relu with respect to its *input*."""
    return (x > 0).astype(np.float64)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``.

    Shifts by the max before exponentiation; output rows sum to one,
    matching the paper's softmax activation layer definition.  The
    reductions are the array methods, the same ufunc reductions as
    ``np.max`` and ``np.sum`` without their Python dispatch: a serving
    step calls this once per tick.
    """
    logits = np.asarray(logits)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable ``log(softmax(x))`` computed without forming the softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
