"""Dynamic adjustment of k — the paper's future-work extension.

Paper §VIII-D / §IX: "the value of k for time-series level anomaly
detection is fixed.  In our future work, we will design effective
approaches to adjust the value of k dynamically based on previous
predictions."  This module implements a simple, well-behaved version of
that idea: track the recent *rank* of true signatures in the model's
predictions over packages believed normal, and set

    k(t) = clamp(quantile_q(recent ranks) + slack, k_min, k_max)

When predictions are sharp (true signatures consistently rank first),
k shrinks and mimicry attacks have less room to hide; when the process
is in a genuinely noisy regime, k grows and false positives stay
bounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.nn.losses import score_ranks


@dataclass(frozen=True)
class DynamicKConfig:
    """Bounds and responsiveness of the adaptive-k policy."""

    k_min: int = 2
    k_max: int = 10
    window: int = 200  # recent ranks considered
    quantile: float = 0.97  # rank quantile that must stay inside k
    slack: int = 1  # safety margin above the quantile rank

    def validate(self) -> "DynamicKConfig":
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(
                f"need 1 <= k_min <= k_max, got {self.k_min}, {self.k_max}"
            )
        if self.window < 10:
            raise ValueError(f"window must be >= 10, got {self.window}")
        if not 0.5 <= self.quantile < 1.0:
            raise ValueError(f"quantile must be in [0.5, 1), got {self.quantile}")
        if self.slack < 0:
            raise ValueError(f"slack must be >= 0, got {self.slack}")
        return self


class DynamicKPolicy:
    """Stateful k controller driven by observed prediction ranks.

    Feed it the rank of each package's true signature in the preceding
    prediction (``None`` for packages flagged anomalous — their ranks
    would poison the statistic); read :attr:`k` before each check.
    """

    def __init__(self, config: DynamicKConfig | None = None, initial_k: int = 4) -> None:
        self.config = (config or DynamicKConfig()).validate()
        if not self.config.k_min <= initial_k <= self.config.k_max:
            raise ValueError(
                f"initial_k must be within [{self.config.k_min}, "
                f"{self.config.k_max}], got {initial_k}"
            )
        self._k = initial_k
        self._ranks: deque[int] = deque(maxlen=self.config.window)

    @property
    def k(self) -> int:
        """The k currently in force."""
        return self._k

    def observe_rank(self, rank: int | None) -> int:
        """Record one observation and return the updated k.

        ``rank`` is 0-based: 0 means the true signature was the top
        prediction.  ``None`` (anomalous package) leaves the statistic
        untouched.
        """
        if rank is not None:
            if rank < 0:
                raise ValueError(f"rank must be >= 0, got {rank}")
            self._ranks.append(rank)
            if len(self._ranks) >= self.config.window // 4:
                needed = int(
                    np.quantile(np.fromiter(self._ranks, dtype=float), self.config.quantile)
                )
                proposal = needed + 1 + self.config.slack  # rank -> k
                self._k = int(
                    min(self.config.k_max, max(self.config.k_min, proposal))
                )
        return self._k


def rank_of(scores: np.ndarray, target_id: int) -> int:
    """0-based rank of ``target_id`` under one score vector (logits or
    probabilities): how many signatures score strictly higher, the count
    ``F_t``'s top-k rule compares with ``k`` (:func:`score_ranks`)."""
    scores = np.asarray(scores)
    if not 0 <= target_id < scores.shape[-1]:
        raise ValueError(f"target_id {target_id} out of range")
    return int(score_ranks(scores, target_id))
