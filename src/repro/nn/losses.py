"""Softmax cross-entropy loss and top-k error.

The paper trains the stacked LSTM to minimize the softmax loss (multiclass
cross-entropy) over next-package signatures, and selects the detection
parameter ``k`` from the *top-k error*

.. math:: err_k = \\frac{\\sum_t 1(s(x^{(t)}) \\notin S^{(k)})}{T}

on a clean validation set (Section V.2).  Lapin et al. [49] show softmax
loss is top-k calibrated, which is why one loss serves every ``k``.

Membership in ``S^(k)`` has one rule, :func:`top_k_hits`, for every
``k`` decision: ``err_k`` while choosing ``k`` and ``F_t`` while
serving.  It counts the classes that score strictly higher than the
observed one, so it ranks logits as it ranks probabilities and needs no
softmax.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import log_softmax, softmax


def softmax_cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to ``logits``.

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalized scores.
    targets:
        ``(N,)`` integer class labels in ``[0, C)``.
    weights:
        Optional ``(N,)`` per-sample weights (used to mask padded
        timesteps); the loss is normalized by the total weight.

    Returns
    -------
    loss, dlogits:
        Scalar loss and the ``(N, C)`` gradient.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got shape {logits.shape}")
    n, num_classes = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError("target labels out of range")

    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
    total_weight = float(weights.sum())
    if total_weight <= 0:
        return 0.0, np.zeros_like(logits)

    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(n), targets]
    loss = float(-(weights * picked).sum() / total_weight)

    dlogits = softmax(logits, axis=1)
    dlogits[np.arange(n), targets] -= 1.0
    dlogits *= (weights / total_weight)[:, None]
    return loss, dlogits


def top_k_sets(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` most probable classes per row.

    Returns an ``(N, k)`` integer array; within a row the ordering of the
    indices is unspecified, and which of several tied classes it holds
    is up to the partition.  Membership decisions go through
    :func:`top_k_hits`, whose tie rule is stated.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    probs = np.asarray(probs)
    num_classes = probs.shape[-1]
    k = min(k, num_classes)
    # The array method is ``np.argpartition`` without its Python
    # dispatch, which costs more than the partition of one serving row.
    return probs.argpartition(num_classes - k, axis=-1)[..., num_classes - k :]


def score_ranks(scores: np.ndarray, targets: np.ndarray | int) -> np.ndarray | int:
    """0-based rank of each target: how many classes score strictly higher.

    Tied classes share the better place, so the rank depends only on the
    scores, never on a sort.  ``scores`` is one ``(C,)`` row with an
    integer target (the rank is an ``int``) or ``(N, C)`` with ``(N,)``
    targets (an ``(N,)`` array).  Every target must index a class.
    """
    if scores.ndim == 1:
        return int(np.count_nonzero(scores > scores[targets]))
    picked = scores[np.arange(len(targets)), targets]
    return (scores > picked[:, None]).sum(axis=1)


def top_k_hits(
    scores: np.ndarray, targets: np.ndarray | int, k: int
) -> np.ndarray | bool:
    """``F_t``'s membership rule: is each target among its row's top ``k``?

    A target is predicted iff fewer than ``k`` classes score strictly
    higher than it (:func:`score_ranks` below ``k``).  So a target tied
    at the ``k``-th place is predicted, with ``k >= C`` every class is,
    and a target outside ``[0, C)`` (``-1`` marks a signature outside
    the vocabulary) never is.  The rule reads only the order of the
    scores, so logits and their softmax decide alike wherever the
    softmax rounds no two scores together.

    ``scores`` is one ``(C,)`` row with an integer target (the answer is
    a ``bool``) or ``(N, C)`` with ``(N,)`` targets (an ``(N,)`` bool
    array).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores)
    num_classes = scores.shape[-1]
    if scores.ndim == 1:
        return bool(0 <= targets < num_classes) and score_ranks(scores, targets) < k
    targets = np.asarray(targets)
    known = (targets >= 0) & (targets < num_classes)
    return known & (score_ranks(scores, np.where(known, targets, 0)) < k)


def top_k_error(
    probs: np.ndarray,
    targets: np.ndarray,
    k: int,
    weights: np.ndarray | None = None,
) -> float:
    """The paper's ``err_k``: fraction of rows whose target misses the top-k.

    ``weights`` masks out padded rows (weight 0) when evaluating batched
    variable-length sequences.
    """
    hits = top_k_hits(probs, targets, k).astype(np.float64)
    if weights is None:
        return float(1.0 - hits.mean()) if hits.size else 0.0
    weights = np.asarray(weights, dtype=np.float64)
    total = float(weights.sum())
    if total <= 0:
        return 0.0
    return float(1.0 - (hits * weights).sum() / total)
