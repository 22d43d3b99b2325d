"""Parameter tuning on anomaly-free data: Fig. 5 and Fig. 6 procedures.

Both of the framework's knobs are set without seeing a single anomaly:

- **Discretization granularity** (paper Section IV-B / Fig 5): choose the
  most fine-grained granularity whose validation error — the share of
  clean validation packages missing from the training signature database
  — stays below θ, maximizing the weighted bin count
  ``Σ w_i n_i`` subject to ``f(n_1..n_l) < θ``.
- **k** (Section V-2 / Fig 6): the smallest ``k`` whose validation top-k
  error is below θ (:func:`repro.core.combined.choose_k_from_curve`, on
  the curve :meth:`~repro.core.combined.CombinedDetector.train`
  computes).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.discretization import (
    CHANNEL_ORDER,
    DiscretizationConfig,
    EvenIntervalDiscretizer,
    FeatureDiscretizer,
)
from repro.core.signatures import signature_of
from repro.ics.features import Package
from repro.utils.rng import SeedLike


@dataclass
class GranularitySearchResult:
    """Fig.-5 grid: validation error per granularity combination."""

    pressure_grid: tuple[int, ...]
    setpoint_grid: tuple[int, ...]
    errors: np.ndarray  # (len(pressure_grid), len(setpoint_grid))
    theta: float
    best_pressure_bins: int
    best_setpoint_bins: int

    def error_at(self, pressure_bins: int, setpoint_bins: int) -> float:
        i = self.pressure_grid.index(pressure_bins)
        j = self.setpoint_grid.index(setpoint_bins)
        return float(self.errors[i, j])

    def as_rows(self) -> list[tuple[int, int, float]]:
        """Flat ``(pressure_bins, setpoint_bins, error)`` rows for plots."""
        rows = []
        for i, p in enumerate(self.pressure_grid):
            for j, s in enumerate(self.setpoint_grid):
                rows.append((p, s, float(self.errors[i, j])))
        return rows


def _signature_errors(
    train_columns: dict[str, np.ndarray],
    val_columns: dict[str, np.ndarray],
) -> float:
    """Share of validation signatures missing from the training set."""
    train_matrix = np.stack([train_columns[n] for n in CHANNEL_ORDER], axis=1)
    val_matrix = np.stack([val_columns[n] for n in CHANNEL_ORDER], axis=1)
    train_set = {signature_of(row) for row in train_matrix}
    misses = sum(1 for row in val_matrix if signature_of(row) not in train_set)
    return misses / max(len(val_matrix), 1)


def granularity_search(
    train_fragments: Sequence[Sequence[Package]],
    validation_fragments: Sequence[Sequence[Package]],
    pressure_grid: Sequence[int] = (5, 10, 15, 20, 25, 30),
    setpoint_grid: Sequence[int] = (5, 10, 15, 20),
    theta: float = 0.03,
    pressure_weight: float = 2.0,
    setpoint_weight: float = 1.0,
    base_config: DiscretizationConfig | None = None,
    rng: SeedLike = 0,
) -> GranularitySearchResult:
    """Grid-search pressure/setpoint granularity (the Fig.-5 procedure).

    The clustered channels (interval, crc, PID) are fitted once; only the
    two even-interval channels vary across the grid, so each grid point
    costs a single column recomputation.  The paper weighs pressure
    granularity above setpoint granularity (``w_pressure > w_setpoint``),
    reflected in the defaults.
    """
    if theta <= 0 or theta >= 1:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if not pressure_grid or not setpoint_grid:
        raise ValueError("grids must be non-empty")

    base = FeatureDiscretizer(base_config or DiscretizationConfig(), rng=rng)
    base.fit(train_fragments)

    def columns_of(fragments: Sequence[Sequence[Package]]) -> dict[str, np.ndarray]:
        per_channel: dict[str, list[np.ndarray]] = {n: [] for n in CHANNEL_ORDER}
        for fragment in fragments:
            fragment_columns = base.transform_columns(fragment)
            for name in CHANNEL_ORDER:
                per_channel[name].append(fragment_columns[name])
        return {n: np.concatenate(v) for n, v in per_channel.items()}

    train_columns = columns_of(train_fragments)
    val_columns = columns_of(validation_fragments)

    # Raw values for the two searched channels.
    def raw_values(fragments, accessor):
        return [accessor(p) for fragment in fragments for p in fragment]

    train_pressure = raw_values(train_fragments, lambda p: p.pressure_measurement)
    val_pressure = raw_values(validation_fragments, lambda p: p.pressure_measurement)
    train_setpoint = raw_values(train_fragments, lambda p: p.setpoint)
    val_setpoint = raw_values(validation_fragments, lambda p: p.setpoint)

    errors = np.zeros((len(pressure_grid), len(setpoint_grid)))
    for i, pressure_bins in enumerate(pressure_grid):
        pressure_disc = EvenIntervalDiscretizer(pressure_bins).fit(
            [v for v in train_pressure if v is not None]
        )
        train_cols_p = dict(train_columns)
        val_cols_p = dict(val_columns)
        train_cols_p["pressure"] = pressure_disc.transform_many(train_pressure)
        val_cols_p["pressure"] = pressure_disc.transform_many(val_pressure)
        for j, setpoint_bins in enumerate(setpoint_grid):
            setpoint_disc = EvenIntervalDiscretizer(setpoint_bins).fit(
                [v for v in train_setpoint if v is not None]
            )
            train_cols = dict(train_cols_p)
            val_cols = dict(val_cols_p)
            train_cols["setpoint"] = setpoint_disc.transform_many(train_setpoint)
            val_cols["setpoint"] = setpoint_disc.transform_many(val_setpoint)
            errors[i, j] = _signature_errors(train_cols, val_cols)

    # argmax of weighted granularity subject to error < theta.
    best_score = -np.inf
    best = (pressure_grid[0], setpoint_grid[0])
    feasible = False
    for i, pressure_bins in enumerate(pressure_grid):
        for j, setpoint_bins in enumerate(setpoint_grid):
            if errors[i, j] < theta:
                feasible = True
                score = pressure_weight * pressure_bins + setpoint_weight * setpoint_bins
                if score > best_score:
                    best_score = score
                    best = (pressure_bins, setpoint_bins)
    if not feasible:
        # Fall back to the coarsest (lowest-error) granularity.
        i, j = np.unravel_index(int(np.argmin(errors)), errors.shape)
        best = (int(pressure_grid[i]), int(setpoint_grid[j]))

    return GranularitySearchResult(
        pressure_grid=tuple(int(p) for p in pressure_grid),
        setpoint_grid=tuple(int(s) for s in setpoint_grid),
        errors=errors,
        theta=theta,
        best_pressure_bins=int(best[0]),
        best_setpoint_bins=int(best[1]),
    )

