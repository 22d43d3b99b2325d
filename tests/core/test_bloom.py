"""Tests for the Bloom filter, including the no-false-negative property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter

signatures = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
    min_size=1,
    max_size=30,
)


class TestSizing:
    def test_for_capacity_parameters(self):
        bloom = BloomFilter.for_capacity(1000, 0.01)
        # m = -n ln p / (ln 2)^2 ~ 9585 bits, k ~ 7.
        assert 9000 < bloom.num_bits < 10500
        assert 6 <= bloom.num_hashes <= 8

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(0)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, 1.5)
        with pytest.raises(ValueError):
            BloomFilter(4, 1)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)


class TestMembership:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(signatures, min_size=1, max_size=80, unique=True))
    def test_no_false_negatives(self, keys):
        """The paper's key property: inserted signatures always hit."""
        bloom = BloomFilter.for_capacity(len(keys), 0.01)
        bloom.update(keys)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_near_target(self):
        rng = np.random.default_rng(0)
        inserted = [f"sig-{i}" for i in range(2000)]
        bloom = BloomFilter.for_capacity(2000, 0.01)
        bloom.update(inserted)
        probes = [f"other-{i}" for i in range(20000)]
        fp = sum(1 for p in probes if p in bloom) / len(probes)
        assert fp < 0.03  # within 3x of the 1% design point

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(1024, 3)
        assert "anything" not in bloom

    def test_len_counts_insertions(self):
        bloom = BloomFilter(1024, 3)
        bloom.add("a")
        bloom.add("a")
        assert len(bloom) == 2


class TestDiagnostics:
    def test_fill_ratio_monotone(self):
        bloom = BloomFilter(2048, 4)
        previous = 0.0
        for i in range(50):
            bloom.add(f"k{i}")
            ratio = bloom.fill_ratio
            assert ratio >= previous
            previous = ratio
        assert 0.0 < bloom.fill_ratio < 1.0

    def test_estimated_fpr_empty_is_zero(self):
        assert BloomFilter(1024, 3).estimated_false_positive_rate() == 0.0

    def test_memory_bytes(self):
        assert BloomFilter(8192, 3).memory_bytes() == 1024


class TestUnion:
    def test_union_contains_both(self):
        a = BloomFilter(1024, 3)
        b = BloomFilter(1024, 3)
        a.add("left")
        b.add("right")
        merged = a.union(b)
        assert "left" in merged and "right" in merged

    def test_union_requires_matching_params(self):
        with pytest.raises(ValueError):
            BloomFilter(1024, 3).union(BloomFilter(2048, 3))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        bloom = BloomFilter.for_capacity(100, 0.01)
        keys = [f"sig{i}" for i in range(100)]
        bloom.update(keys)
        path = tmp_path / "bloom.npz"
        bloom.save(path)
        restored = BloomFilter.load(path)
        assert all(k in restored for k in keys)
        assert restored.num_bits == bloom.num_bits
        assert len(restored) == len(bloom)
