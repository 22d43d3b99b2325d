"""The Bloom filter storing the signature database (paper Section IV-C).

A probabilistic membership structure: an ``m``-bit vector and ``k`` hash
functions.  Insertion sets ``k`` positions; lookup checks them.  False
positives are possible (tunable via ``m``/``k``), false negatives are
not — which is exactly the property the package-level detector needs:
a signature in the database is never flagged, so the detector's false
positive rate is controlled purely by the discretization granularity.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.utils.artifact import ArtifactError, load_artifact, save_artifact
from repro.utils.hashing import DoubleHasher


class BloomFilter:
    """Bit-vector Bloom filter with double-hashed probe positions."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 8:
            raise ValueError(f"num_bits must be >= 8, got {num_bits}")
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_bits = int(num_bits)
        self.num_hashes = int(num_hashes)
        self._bits = np.zeros((self.num_bits + 7) // 8, dtype=np.uint8)
        self._hasher = DoubleHasher(self.num_hashes, self.num_bits)
        self._count = 0

    # -- sizing ------------------------------------------------------------

    @classmethod
    def for_capacity(cls, capacity: int, false_positive_rate: float = 0.001) -> "BloomFilter":
        """Optimally sized filter for ``capacity`` distinct elements.

        Uses the classic formulas ``m = -n ln p / (ln 2)²`` and
        ``k = (m / n) ln 2``.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError(
                f"false_positive_rate must be in (0, 1), got {false_positive_rate}"
            )
        num_bits = max(8, math.ceil(-capacity * math.log(false_positive_rate) / math.log(2) ** 2))
        num_hashes = max(1, round(num_bits / capacity * math.log(2)))
        return cls(num_bits, num_hashes)

    # -- core operations ------------------------------------------------------

    def add(self, key: str) -> None:
        """Insert a signature."""
        for position in self._hasher.positions(key.encode("utf-8")):
            self._bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def update(self, keys: Iterable[str]) -> None:
        """Insert many signatures."""
        for key in keys:
            self.add(key)

    def __contains__(self, key: str) -> bool:
        """The membership probe: all ``k`` positions of ``key`` are set.

        Detection asks it through a
        :class:`~repro.core.signatures.SignatureTable`: once per
        vocabulary signature when the table is built, and once per
        out-of-vocabulary vector its memo does not hold, so verdicts are
        this probe's answers bit for bit without hashing every package.
        """
        return all(
            self._bits[position >> 3] & (1 << (position & 7))
            for position in self._hasher.positions(key.encode("utf-8"))
        )

    def __len__(self) -> int:
        """Number of insertions performed (not distinct elements)."""
        return self._count

    # -- diagnostics ------------------------------------------------------------

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set."""
        set_bits = int(np.unpackbits(self._bits)[: self.num_bits].sum())
        return set_bits / self.num_bits

    def estimated_false_positive_rate(self) -> float:
        """``(fill_ratio)^k`` — the lookup FP probability right now."""
        return self.fill_ratio**self.num_hashes

    def memory_bytes(self) -> int:
        """Size of the bit vector (the paper reports model memory cost)."""
        return int(self._bits.nbytes)

    # -- set algebra ------------------------------------------------------------

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Filter containing both filters' elements (parameters must match)."""
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise ValueError("can only union filters with identical parameters")
        merged = BloomFilter(self.num_bits, self.num_hashes)
        merged._bits = self._bits | other._bits
        merged._count = self._count + other._count
        return merged

    # -- serialization ------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Full persistent state (the unified persistence protocol)."""
        return {
            "num_bits": self.num_bits,
            "num_hashes": self.num_hashes,
            "count": self._count,
            "bits": self._bits.copy(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "BloomFilter":
        """Rebuild a filter from :meth:`state_dict` output."""
        bloom = cls(int(state["num_bits"]), int(state["num_hashes"]))
        bits = np.asarray(state["bits"], dtype=np.uint8)
        if bits.shape != bloom._bits.shape:
            raise ArtifactError(
                f"bloom bit vector has shape {bits.shape}, expected "
                f"{bloom._bits.shape} for {bloom.num_bits} bits"
            )
        bloom._bits = bits.copy()
        bloom._count = int(state["count"])
        return bloom

    def save(self, path: str | os.PathLike) -> None:
        """Persist to a ``.npz`` artifact (thin wrapper over the protocol)."""
        save_artifact(self.state_dict(), path, kind="bloom-filter")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "BloomFilter":
        """Restore a filter saved with :meth:`save`."""
        return cls.from_state(load_artifact(path, kind="bloom-filter"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"insertions={self._count})"
        )
