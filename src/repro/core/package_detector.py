"""Package content level anomaly detection ``F_p`` (paper Section IV).

``F_p(x) = 1`` iff the signature of ``x`` is not found in the Bloom
filter holding the signature database of normal traffic.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.bloom import BloomFilter
from repro.core.discretization import FeatureDiscretizer
from repro.core.signatures import SignatureTable, SignatureVocabulary, signature_of
from repro.ics.features import Package


class PackageLevelDetector:
    """Bloom-filter backed signature membership detector.

    Parameters
    ----------
    discretizer:
        A fitted :class:`FeatureDiscretizer` (shared with the
        time-series detector so both levels see identical ``c(t)``).
    bloom_false_positive_rate:
        Target *hash-collision* FP rate of the Bloom filter itself; the
        paper's detection-level false positives come from discretization
        granularity, not from the filter.
    """

    def __init__(
        self,
        discretizer: FeatureDiscretizer,
        bloom_false_positive_rate: float = 1e-3,
    ) -> None:
        self.discretizer = discretizer
        self.bloom_false_positive_rate = bloom_false_positive_rate
        self.bloom: BloomFilter | None = None
        self.vocabulary: SignatureVocabulary | None = None
        self._table: SignatureTable | None = None

    def fit(self, fragments: Sequence[Sequence[Package]]) -> "PackageLevelDetector":
        """Build the signature database from anomaly-free fragments."""
        if not fragments:
            raise ValueError("no training fragments supplied")
        vocabulary = SignatureVocabulary()
        for fragment in fragments:
            for codes in self.discretizer.transform_sequence(fragment):
                vocabulary.add(signature_of(codes))
        bloom = BloomFilter.for_capacity(
            max(len(vocabulary), 1), self.bloom_false_positive_rate
        )
        bloom.update(vocabulary.signatures)
        self.vocabulary = vocabulary
        self.bloom = bloom
        self._table = SignatureTable(vocabulary, bloom.__contains__)
        return self

    def _require_fitted(self) -> None:
        if self.bloom is None:
            raise RuntimeError("PackageLevelDetector is not fitted")

    # -- persistence ------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Bloom filter + signature database (not the shared discretizer)."""
        self._require_fitted()
        assert self.bloom is not None and self.vocabulary is not None
        return {
            "bloom_false_positive_rate": self.bloom_false_positive_rate,
            "bloom": self.bloom.state_dict(),
            "vocabulary": self.vocabulary.state_dict(),
        }

    @classmethod
    def from_state(
        cls, state: dict[str, Any], discretizer: FeatureDiscretizer
    ) -> "PackageLevelDetector":
        """Rebuild a fitted detector around an already-restored discretizer."""
        detector = cls(discretizer, float(state["bloom_false_positive_rate"]))
        detector.bloom = BloomFilter.from_state(state["bloom"])
        detector.vocabulary = SignatureVocabulary.from_state(state["vocabulary"])
        detector._table = SignatureTable(
            detector.vocabulary, detector.bloom.__contains__
        )
        return detector

    # -- detection ------------------------------------------------------------

    def signature_table(self) -> SignatureTable:
        """The :class:`SignatureTable` over this detector's filter.

        Built by :meth:`fit` and :meth:`from_state`, which probe every
        vocabulary signature with the real ``signature in bloom``, so its
        answers are the probe's answers.
        """
        self._require_fitted()
        assert self._table is not None
        return self._table

    def resolve_batch(
        self, codes_batch: Sequence[Sequence[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``F_p`` verdicts and vocabulary ids of a batch, one lookup each.

        Returns ``(flagged, ids)``: ``flagged[i]`` is ``True`` when the
        signature of ``codes_batch[i]`` is not in the Bloom filter, and
        ``ids[i]`` is its vocabulary id (``-1`` when out of vocabulary).
        Both equal what ``signature_of`` + ``signature in bloom`` +
        ``vocabulary.id_of`` give (see :class:`SignatureTable`).
        """
        resolve = self.signature_table().resolve
        entries = [resolve(codes) for codes in codes_batch]
        return (
            np.array([flagged for flagged, _ in entries], dtype=bool),
            np.array([index for _, index in entries], dtype=np.int64),
        )

    def is_anomalous_codes(self, codes: Sequence[int]) -> bool:
        """``F_p`` on an already-discretized vector."""
        return self.signature_table().resolve(codes)[0]

    def anomalous_codes_batch(
        self, codes_batch: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """``F_p`` over a batch of discretized vectors (one per stream).

        Returns a boolean array; ``True`` marks anomalies.
        """
        return self.resolve_batch(codes_batch)[0]

    def classify_sequence(
        self, packages: Sequence[Package], prev_time: float | None = None
    ) -> np.ndarray:
        """``F_p`` for each package of a contiguous stream.

        Returns a boolean array; ``True`` marks anomalies.
        """
        self._require_fitted()
        codes = self.discretizer.transform_sequence(packages, prev_time)
        return self.anomalous_codes_batch(codes)

    def validation_error(
        self, fragments: Sequence[Sequence[Package]]
    ) -> float:
        """Proportion of clean packages flagged — the Fig.-5 metric."""
        self._require_fitted()
        flagged = 0
        total = 0
        for fragment in fragments:
            marks = self.classify_sequence(fragment)
            flagged += int(marks.sum())
            total += len(marks)
        return flagged / total if total else 0.0

    def memory_bytes(self) -> int:
        """Bloom filter memory footprint."""
        self._require_fitted()
        assert self.bloom is not None
        return self.bloom.memory_bytes()
