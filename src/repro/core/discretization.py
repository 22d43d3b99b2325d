"""Feature discretization: from raw packages to the vector ``c(t)``.

Paper Section IV-A transforms the original feature vector ``x(t)`` into
an ``o``-dimensional discretized vector ``c(t)`` where each element is a
discrete feature, or the discretized representation of one or several
continuous features.  Table III fixes the strategy for the gas pipeline:

=====================  ==========================  ==============
feature                method                      values
=====================  ==========================  ==============
time interval          k-means clustering          2 + 1
crc rate               k-means clustering          2 + 1
pressure measurement   even interval partition     20 + 1
setpoint               even interval partition     10 + 1
PID parameters (×5)    k-means clustering, joint   32 + 1
=====================  ==========================  ==============

The "+1" is the additional value for observations "that cannot be
assigned to any of the clusters or intervals" — crucial for making the
models generalize to out-of-range attack values.  We add one further
reserved value per channel for *missing* fields (``'?'`` in the ARFF
data), which the paper's dataset also contains.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any

import numpy as np

from repro.core.kmeans import assign_clusters, kmeans
from repro.ics.features import PID_PARAMETER_NAMES, Package
from repro.utils.artifact import ArtifactError
from repro.utils.rng import SeedLike, spawn_generators


#: Rows per vectorized block of the joint k-means transform: bounds the
#: ``(rows, clusters, features)`` delta array when a whole capture is
#: discretized at once.
_ND_BLOCK = 256


class DiscretizerNotFitted(RuntimeError):
    """Raised when ``transform`` is called before ``fit``."""


class _BaseDiscretizer:
    """Shared plumbing: every discretizer maps raw value(s) → int code.

    Codes ``0 .. num_regular - 1`` are regular buckets, ``num_regular``
    is the out-of-range value and ``num_regular + 1`` the missing value.
    """

    def __init__(self) -> None:
        self._fitted = False

    @property
    def num_regular(self) -> int:
        raise NotImplementedError

    @property
    def num_values(self) -> int:
        """Total code count: regular buckets + out-of-range + missing."""
        return self.num_regular + 2

    @property
    def out_of_range_code(self) -> int:
        return self.num_regular

    @property
    def missing_code(self) -> int:
        return self.num_regular + 1

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise DiscretizerNotFitted(f"{type(self).__name__} is not fitted")

    # -- persistence protocol ---------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Fitted state; ``kind`` tags the concrete class for dispatch."""
        self._require_fitted()
        state = self._fitted_state()
        state["kind"] = type(self).__name__
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "_BaseDiscretizer":
        """Rebuild any fitted discretizer from :meth:`state_dict` output."""
        kind = state.get("kind")
        subclass = _DISCRETIZER_KINDS.get(kind)
        if subclass is None:
            raise ArtifactError(f"unknown discretizer kind {kind!r}")
        channel = subclass._load_state(state)
        channel._fitted = True
        return channel

    def _fitted_state(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def _load_state(cls, state: dict[str, Any]) -> "_BaseDiscretizer":
        raise NotImplementedError


class KMeans1DDiscretizer(_BaseDiscretizer):
    """Cluster a scalar feature with k-means (time interval, crc rate).

    A value farther from its nearest centroid than any training member
    of that cluster (with a small tolerance margin) is out-of-range.
    """

    def __init__(self, num_clusters: int, margin: float = 1.25, rng: SeedLike = None) -> None:
        super().__init__()
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        if margin < 1.0:
            raise ValueError(f"margin must be >= 1, got {margin}")
        self.num_clusters = num_clusters
        self.margin = margin
        self._rng = rng
        self.centroids_: np.ndarray | None = None
        self.radii_: np.ndarray | None = None
        self._bands: list[tuple[float, float]] = []

    @property
    def num_regular(self) -> int:
        if self.centroids_ is not None:
            return int(self.centroids_.shape[0])
        return self.num_clusters

    def fit(self, values: Sequence[float]) -> "KMeans1DDiscretizer":
        data = np.asarray([v for v in values if v is not None], dtype=np.float64)
        data = data[np.isfinite(data)]
        if data.size == 0:
            raise ValueError("no finite values to fit")
        result = kmeans(data, self.num_clusters, rng=self._rng)
        self.centroids_ = result.centroids[:, 0]
        # Per-cluster radius: max training distance, floored at 5% of the
        # global std so singleton clusters keep a sane acceptance band.
        floor = 0.05 * float(data.std()) + 1e-12
        radii = np.full(self.centroids_.shape[0], floor)
        distances = np.abs(data - self.centroids_[result.assignments])
        for j in range(self.centroids_.shape[0]):
            member_distances = distances[result.assignments == j]
            if member_distances.size:
                radii[j] = max(floor, float(member_distances.max()))
        self._set_clusters(self.centroids_, radii)
        self._fitted = True
        return self

    def _set_clusters(self, centroids: np.ndarray, radii: np.ndarray) -> None:
        self.centroids_ = centroids
        self.radii_ = radii
        # The scalar path's view: each centroid and its acceptance limit
        # ``margin * radius`` as Python floats, the same doubles
        # :meth:`transform_many` compares with.
        self._bands = list(zip(centroids.tolist(), (self.margin * radii).tolist()))

    def transform(self, value: float | None) -> int:
        """Code of one value, in pure Python.

        Bitwise equal to :meth:`transform_many` on ``[value]``: the same
        IEEE subtractions, ``abs`` and comparison on the same doubles,
        and the first of equal distances wins like ``argmin``.
        """
        self._require_fitted()
        if value is None:
            return self.missing_code
        value = float(value)
        if not math.isfinite(value):
            return self.missing_code
        bands = self._bands
        distances = [abs(value - centroid) for centroid, _ in bands]
        nearest = distances.index(min(distances))
        if distances[nearest] > bands[nearest][1]:
            return self.out_of_range_code
        return nearest

    def transform_many(self, values: Sequence[float | None]) -> np.ndarray:
        """Vectorized :meth:`transform` over a column."""
        self._require_fitted()
        assert self.centroids_ is not None and self.radii_ is not None
        out = np.full(len(values), self.missing_code, dtype=np.int64)
        raw = np.array(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        present = np.isfinite(raw)
        if present.any():
            distances = np.abs(raw[present, None] - self.centroids_[None, :])
            nearest = np.argmin(distances, axis=1)
            nearest_distance = distances[np.arange(nearest.size), nearest]
            codes = nearest.copy()
            codes[nearest_distance > self.margin * self.radii_[nearest]] = (
                self.out_of_range_code
            )
            out[present] = codes
        return out

    def _fitted_state(self) -> dict[str, Any]:
        assert self.centroids_ is not None and self.radii_ is not None
        return {
            "num_clusters": self.num_clusters,
            "margin": self.margin,
            "centroids": self.centroids_.copy(),
            "radii": self.radii_.copy(),
        }

    @classmethod
    def _load_state(cls, state: dict[str, Any]) -> "KMeans1DDiscretizer":
        channel = cls(int(state["num_clusters"]), float(state["margin"]))
        centroids = np.asarray(state["centroids"], dtype=np.float64)
        radii = np.asarray(state["radii"], dtype=np.float64)
        if centroids.shape != radii.shape:
            raise ArtifactError("k-means centroids/radii shape mismatch")
        channel._set_clusters(centroids, radii)
        return channel


class KMeansNDDiscretizer(_BaseDiscretizer):
    """Jointly cluster a vector feature (the five PID parameters).

    Features are standardized before clustering so parameters with
    larger numeric ranges do not dominate the distance.
    """

    def __init__(self, num_clusters: int, margin: float = 1.25, rng: SeedLike = None) -> None:
        super().__init__()
        if num_clusters < 1:
            raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
        if margin < 1.0:
            raise ValueError(f"margin must be >= 1, got {margin}")
        self.num_clusters = num_clusters
        self.margin = margin
        self._rng = rng
        self.centroids_: np.ndarray | None = None
        self.radii_: np.ndarray | None = None
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    @property
    def num_regular(self) -> int:
        if self.centroids_ is not None:
            return int(self.centroids_.shape[0])
        return self.num_clusters

    def _standardize(self, data: np.ndarray) -> np.ndarray:
        assert self.mean_ is not None and self.scale_ is not None
        return (data - self.mean_) / self.scale_

    def fit(self, rows: Sequence[Sequence[float] | None]) -> "KMeansNDDiscretizer":
        complete = [row for row in rows if row is not None and all(v is not None for v in row)]
        if not complete:
            raise ValueError("no complete rows to fit")
        data = np.asarray(complete, dtype=np.float64)
        if not np.all(np.isfinite(data)):
            raise ValueError("rows contain non-finite values")
        self.mean_ = data.mean(axis=0)
        self.scale_ = np.where(data.std(axis=0) > 1e-12, data.std(axis=0), 1.0)
        standardized = (data - self.mean_) / self.scale_
        result = kmeans(standardized, self.num_clusters, rng=self._rng)
        self.centroids_ = result.centroids
        floor = 0.05 * float(np.sqrt(standardized.shape[1])) + 1e-12
        radii = np.full(self.centroids_.shape[0], floor)
        deltas = standardized - self.centroids_[result.assignments]
        distances = np.sqrt(np.sum(deltas * deltas, axis=1))
        for j in range(self.centroids_.shape[0]):
            member_distances = distances[result.assignments == j]
            if member_distances.size:
                radii[j] = max(floor, float(member_distances.max()))
        self.radii_ = radii
        self._fitted = True
        return self

    def transform(self, row: Sequence[float] | None) -> int:
        """Code of one row (a one-row :meth:`transform_many`)."""
        return int(self.transform_many([row])[0])

    def transform_many(self, rows: Sequence[Sequence[float] | None]) -> np.ndarray:
        """Codes of many rows, vectorized across rows.

        A row with a missing or non-finite value gets the missing code.
        The others are standardized and measured against every centroid
        in blocks of ``(rows, clusters, features)``; each distance sums
        the squared deltas along the same contiguous feature axis as a
        single-row ``(clusters, features)`` pass, so every code is
        bitwise what a row-at-a-time transform gives.
        """
        self._require_fitted()
        assert self.centroids_ is not None and self.radii_ is not None
        out = np.full(len(rows), self.missing_code, dtype=np.int64)
        present = [
            i
            for i, row in enumerate(rows)
            if row is not None and all(v is not None for v in row)
        ]
        if not present:
            return out
        data = np.array([rows[i] for i in present], dtype=np.float64)
        finite = np.isfinite(data).all(axis=1)
        index = np.asarray(present, dtype=np.int64)[finite]
        points = self._standardize(data[finite])
        limits = self.margin * self.radii_
        for start in range(0, index.size, _ND_BLOCK):
            block = points[start : start + _ND_BLOCK]
            deltas = self.centroids_[None, :, :] - block[:, None, :]
            distances = np.sqrt((deltas * deltas).sum(axis=2))
            nearest = np.argmin(distances, axis=1)
            # The row minimum is the value at argmin (a NaN is both).
            out[index[start : start + _ND_BLOCK]] = np.where(
                distances.min(axis=1) > limits[nearest],
                self.out_of_range_code,
                nearest,
            )
        return out

    def _fitted_state(self) -> dict[str, Any]:
        assert self.centroids_ is not None and self.radii_ is not None
        assert self.mean_ is not None and self.scale_ is not None
        return {
            "num_clusters": self.num_clusters,
            "margin": self.margin,
            "centroids": self.centroids_.copy(),
            "radii": self.radii_.copy(),
            "mean": self.mean_.copy(),
            "scale": self.scale_.copy(),
        }

    @classmethod
    def _load_state(cls, state: dict[str, Any]) -> "KMeansNDDiscretizer":
        channel = cls(int(state["num_clusters"]), float(state["margin"]))
        channel.centroids_ = np.asarray(state["centroids"], dtype=np.float64)
        channel.radii_ = np.asarray(state["radii"], dtype=np.float64)
        channel.mean_ = np.asarray(state["mean"], dtype=np.float64)
        channel.scale_ = np.asarray(state["scale"], dtype=np.float64)
        if channel.centroids_.ndim != 2 or (
            channel.centroids_.shape[1] != channel.mean_.shape[0]
        ):
            raise ArtifactError("k-means centroids/standardization shape mismatch")
        return channel


class EvenIntervalDiscretizer(_BaseDiscretizer):
    """Evenly partition the observed training range into ``n`` intervals.

    Used for features without natural clusters (pressure measurement,
    setpoint).  Values outside the training ``[min, max]`` map to the
    out-of-range code — this is what makes the Fig.-5 validation error
    rise with finer granularity.
    """

    def __init__(self, num_bins: int) -> None:
        super().__init__()
        if num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {num_bins}")
        self.num_bins = num_bins
        self.low_: float | None = None
        self.high_: float | None = None

    @property
    def num_regular(self) -> int:
        return self.num_bins

    def fit(self, values: Sequence[float]) -> "EvenIntervalDiscretizer":
        data = np.asarray([v for v in values if v is not None], dtype=np.float64)
        data = data[np.isfinite(data)]
        if data.size == 0:
            raise ValueError("no finite values to fit")
        self.low_ = float(data.min())
        self.high_ = float(data.max())
        self._fitted = True
        return self

    def transform(self, value: float | None) -> int:
        """Code of one value, in pure Python.

        Bitwise equal to :meth:`transform_many` on ``[value]``: the value
        is converted to a double first and goes through the same IEEE
        operations (truncation toward zero matches ``astype(int64)`` on
        the non-negative position), for any fitted range whose width
        ``high - low`` is finite.
        """
        self._require_fitted()
        assert self.low_ is not None and self.high_ is not None
        if value is None:
            return self.missing_code
        value = float(value)
        if not math.isfinite(value):
            return self.missing_code
        low, high = self.low_, self.high_
        if value < low or value > high:
            return self.out_of_range_code
        if high == low:
            return 0
        position = (value - low) / (high - low)
        return min(self.num_bins - 1, int(position * self.num_bins))

    def transform_many(self, values: Sequence[float | None]) -> np.ndarray:
        self._require_fitted()
        assert self.low_ is not None and self.high_ is not None
        out = np.full(len(values), self.missing_code, dtype=np.int64)
        raw = np.array(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        present = np.isfinite(raw)
        if present.any():
            vals = raw[present]
            if self.high_ == self.low_:
                codes = np.zeros(vals.size, dtype=np.int64)
            else:
                position = (vals - self.low_) / (self.high_ - self.low_)
                codes = np.minimum(
                    self.num_bins - 1, (position * self.num_bins).astype(np.int64)
                )
            codes[(vals < self.low_) | (vals > self.high_)] = self.out_of_range_code
            out[present] = codes
        return out

    def _fitted_state(self) -> dict[str, Any]:
        assert self.low_ is not None and self.high_ is not None
        return {"num_bins": self.num_bins, "low": self.low_, "high": self.high_}

    @classmethod
    def _load_state(cls, state: dict[str, Any]) -> "EvenIntervalDiscretizer":
        channel = cls(int(state["num_bins"]))
        channel.low_ = float(state["low"])
        channel.high_ = float(state["high"])
        if channel.high_ < channel.low_:
            raise ArtifactError("even-interval bounds inverted")
        return channel


class IdentityDiscretizer(_BaseDiscretizer):
    """Pass discrete features through, indexing the observed vocabulary.

    Unseen values at transform time map to the out-of-range code — so
    e.g. a Recon scan of an unknown station address or an MFCI function
    code immediately yields a signature outside the database while the
    LSTM's one-hot width stays fixed.
    """

    def __init__(self) -> None:
        super().__init__()
        self.mapping_: dict[float, int] = {}

    @property
    def num_regular(self) -> int:
        return len(self.mapping_)

    def fit(self, values: Sequence[float]) -> "IdentityDiscretizer":
        observed = sorted(
            {float(v) for v in values if v is not None and np.isfinite(v)}
        )
        if not observed:
            raise ValueError("no values to fit")
        self.mapping_ = {value: index for index, value in enumerate(observed)}
        self._fitted = True
        return self

    def transform(self, value: float | None) -> int:
        self._require_fitted()
        if value is None or (isinstance(value, float) and not math.isfinite(value)):
            return self.missing_code
        code = self.mapping_.get(float(value))
        return self.out_of_range_code if code is None else code

    def transform_many(self, values: Sequence[float | None]) -> np.ndarray:
        return np.array([self.transform(v) for v in values], dtype=np.int64)

    def _fitted_state(self) -> dict[str, Any]:
        # Keys in code order, so the value-at-index-i is code i.
        values = sorted(self.mapping_, key=self.mapping_.__getitem__)
        return {"values": np.array(values, dtype=np.float64)}

    @classmethod
    def _load_state(cls, state: dict[str, Any]) -> "IdentityDiscretizer":
        channel = cls()
        values = np.asarray(state["values"], dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ArtifactError("identity discretizer has no stored values")
        channel.mapping_ = {float(v): i for i, v in enumerate(values)}
        if len(channel.mapping_) != values.size:
            raise ArtifactError("identity discretizer has duplicate values")
        return channel


#: Concrete discretizer classes by ``kind`` tag (persistence dispatch).
_DISCRETIZER_KINDS: dict[str, type[_BaseDiscretizer]] = {
    cls.__name__: cls
    for cls in (
        KMeans1DDiscretizer,
        KMeansNDDiscretizer,
        EvenIntervalDiscretizer,
        IdentityDiscretizer,
    )
}


# ----------------------------------------------------------------------
# full-package discretization pipeline
# ----------------------------------------------------------------------

#: Discrete Table-I features passed through the identity discretizer.
DISCRETE_FEATURES: tuple[str, ...] = (
    "address",
    "function",
    "length",
    "system_mode",
    "control_scheme",
    "pump",
    "solenoid",
    "command_response",
)

#: Channel order of the discretized vector c(t).
CHANNEL_ORDER: tuple[str, ...] = DISCRETE_FEATURES + (
    "interval",
    "crc_rate",
    "setpoint",
    "pressure",
    "pid",
)

_discrete_row = attrgetter(*DISCRETE_FEATURES)
_pid_values = attrgetter(*PID_PARAMETER_NAMES)


def _pid_row(package: Package) -> tuple | None:
    """The PID block of one package, ``None`` when any parameter is missing."""
    values = _pid_values(package)
    return None if None in values else values


@dataclass(frozen=True)
class DiscretizationConfig:
    """Granularities per Table III (defaults are the paper's choices)."""

    interval_clusters: int = 2
    crc_clusters: int = 2
    setpoint_bins: int = 10
    pressure_bins: int = 20
    pid_clusters: int = 32
    kmeans_margin: float = 1.25

    def validate(self) -> "DiscretizationConfig":
        for name in (
            "interval_clusters",
            "crc_clusters",
            "setpoint_bins",
            "pressure_bins",
            "pid_clusters",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kmeans_margin < 1.0:
            raise ValueError(f"kmeans_margin must be >= 1, got {self.kmeans_margin}")
        return self


def intervals_of(packages: Sequence[Package], prev_time: float | None = None) -> list[float | None]:
    """Time interval between consecutive packages.

    The first package's interval is measured against ``prev_time`` when
    given, otherwise it is missing (fragment boundaries have no
    predecessor).
    """
    intervals: list[float | None] = []
    last = prev_time
    for package in packages:
        intervals.append(None if last is None else package.time - last)
        last = package.time
    return intervals


class FeatureDiscretizer:
    """Discretize packages into ``c(t)`` tuples per the paper's strategy.

    Channels (in :data:`CHANNEL_ORDER`): the eight discrete Table-I
    features, then time interval, crc rate, setpoint, pressure, and the
    jointly clustered PID parameter block.
    """

    def __init__(self, config: DiscretizationConfig | None = None, rng: SeedLike = 0) -> None:
        self.config = (config or DiscretizationConfig()).validate()
        interval_rng, crc_rng, pid_rng = spawn_generators(rng, 3)
        cfg = self.config
        self._channels: dict[str, _BaseDiscretizer] = {
            name: IdentityDiscretizer() for name in DISCRETE_FEATURES
        }
        self._channels["interval"] = KMeans1DDiscretizer(
            cfg.interval_clusters, cfg.kmeans_margin, rng=interval_rng
        )
        self._channels["crc_rate"] = KMeans1DDiscretizer(
            cfg.crc_clusters, cfg.kmeans_margin, rng=crc_rng
        )
        self._channels["setpoint"] = EvenIntervalDiscretizer(cfg.setpoint_bins)
        self._channels["pressure"] = EvenIntervalDiscretizer(cfg.pressure_bins)
        self._channels["pid"] = KMeansNDDiscretizer(
            cfg.pid_clusters, cfg.kmeans_margin, rng=pid_rng
        )
        self._fitted = False

    # -- raw column extraction -----------------------------------------

    @staticmethod
    def _raw_columns(
        packages: Sequence[Package], prev_time: float | None
    ) -> dict[str, list]:
        columns: dict[str, list] = {
            name: [p.feature(name) for p in packages] for name in DISCRETE_FEATURES
        }
        columns["interval"] = intervals_of(packages, prev_time)
        columns["crc_rate"] = [p.crc_rate for p in packages]
        columns["setpoint"] = [p.setpoint for p in packages]
        columns["pressure"] = [p.pressure_measurement for p in packages]
        columns["pid"] = [_pid_row(p) for p in packages]
        return columns

    # -- fitting ----------------------------------------------------------

    def fit(self, fragments: Sequence[Sequence[Package]]) -> "FeatureDiscretizer":
        """Fit every channel on anomaly-free training fragments."""
        if not fragments or all(len(f) == 0 for f in fragments):
            raise ValueError("no training packages supplied")
        merged: dict[str, list] = {name: [] for name in CHANNEL_ORDER}
        for fragment in fragments:
            columns = self._raw_columns(fragment, prev_time=None)
            for name in CHANNEL_ORDER:
                merged[name].extend(columns[name])
        for name, channel in self._channels.items():
            values = [v for v in merged[name] if v is not None]
            if not values:
                raise ValueError(f"channel {name!r} has no observed values")
            channel.fit(values)
        self._fitted = True
        return self

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Config plus every fitted channel (cut points, centroids, …)."""
        self._require_fitted()
        return {
            "config": {
                f.name: getattr(self.config, f.name)
                for f in fields(DiscretizationConfig)
            },
            "channels": {
                name: self._channels[name].state_dict() for name in CHANNEL_ORDER
            },
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "FeatureDiscretizer":
        """Rebuild a fitted discretizer from :meth:`state_dict` output."""
        try:
            config = DiscretizationConfig(**state["config"])
        except TypeError as exc:
            raise ArtifactError(f"bad discretization config: {exc}") from exc
        discretizer = cls(config, rng=0)
        channels = state["channels"]
        missing = [name for name in CHANNEL_ORDER if name not in channels]
        if missing:
            raise ArtifactError(f"discretizer state missing channels: {missing}")
        for name in CHANNEL_ORDER:
            discretizer._channels[name] = _BaseDiscretizer.from_state(
                channels[name]
            )
        discretizer._fitted = True
        return discretizer

    # -- transforming ------------------------------------------------------

    @property
    def channel_names(self) -> tuple[str, ...]:
        return CHANNEL_ORDER

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Number of codes per channel (buckets + out-of-range + missing)."""
        self._require_fitted()
        return tuple(self._channels[name].num_values for name in CHANNEL_ORDER)

    @property
    def num_channels(self) -> int:
        return len(CHANNEL_ORDER)

    def channel(self, name: str) -> _BaseDiscretizer:
        """Access one fitted channel (used by granularity search)."""
        return self._channels[name]

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise DiscretizerNotFitted("FeatureDiscretizer is not fitted")

    def _transform_raw(self, raw: dict[str, list]) -> dict[str, np.ndarray]:
        return {
            name: self._channels[name].transform_many(raw[name])
            for name in CHANNEL_ORDER
        }

    @staticmethod
    def _codes_from_columns(columns: dict[str, np.ndarray]) -> list[tuple[int, ...]]:
        if not len(next(iter(columns.values()))):
            return []
        stacked = np.stack([columns[name] for name in CHANNEL_ORDER], axis=1)
        return [tuple(int(v) for v in row) for row in stacked]

    def transform_columns(
        self, packages: Sequence[Package], prev_time: float | None = None
    ) -> dict[str, np.ndarray]:
        """Discretize a package sequence column-wise (fast path)."""
        self._require_fitted()
        return self._transform_raw(self._raw_columns(packages, prev_time))

    def transform_sequence(
        self, packages: Sequence[Package], prev_time: float | None = None
    ) -> list[tuple[int, ...]]:
        """Discretize a package sequence into ``c(t)`` tuples."""
        return self._codes_from_columns(self.transform_columns(packages, prev_time))

    def transform_package(
        self, package: Package, prev_time: float | None = None
    ) -> tuple[int, ...]:
        """Discretize one package (streaming use)."""
        return self.transform_sequence([package], prev_time)[0]

    def transform_batch(
        self,
        packages: Sequence[Package],
        prev_times: Sequence[float | None],
    ) -> list[tuple[int, ...]]:
        """Discretize one package from each of several independent streams.

        Unlike :meth:`transform_sequence` the packages are *not*
        consecutive: ``packages[i]`` is the next package of stream ``i``
        and its time interval is measured against ``prev_times[i]``
        (``None`` when stream ``i`` has no history yet).

        Built for drains of one to a few dozen rows: each package makes
        one pass over the scalar channels through their pure-Python
        ``transform``, and only the joint PID clustering is vectorized,
        across the rows.  Exactness contract: the codes are bitwise
        those of the columnar :meth:`transform_columns` path (each
        channel's ``transform`` equals its ``transform_many``).
        """
        self._require_fitted()
        if len(packages) != len(prev_times):
            raise ValueError(
                f"{len(packages)} packages given for {len(prev_times)} streams"
            )
        channels = self._channels
        discrete = [channels[name].transform for name in DISCRETE_FEATURES]
        interval = channels["interval"].transform
        crc_rate = channels["crc_rate"].transform
        setpoint = channels["setpoint"].transform
        pressure = channels["pressure"].transform
        pid_rows = [_pid_row(package) for package in packages]
        pid_codes = channels["pid"].transform_many(pid_rows).tolist()
        codes: list[tuple[int, ...]] = []
        for package, prev, pid in zip(packages, prev_times, pid_codes):
            codes.append((
                *[
                    transform(value)
                    for transform, value in zip(discrete, _discrete_row(package))
                ],
                interval(None if prev is None else package.time - prev),
                crc_rate(package.crc_rate),
                setpoint(package.setpoint),
                pressure(package.pressure_measurement),
                pid,
            ))
        return codes
