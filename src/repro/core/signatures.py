"""Package signatures and the signature vocabulary.

The signature of a package is ``s(x(t)) = g(c1, ..., co)`` where ``g`` is
any injective generating function of the discretized features.  As the
paper notes, "the simplest way to define g(·) is to concatenate the
parameters to a string with a special character as the separator" — which
is exactly what :func:`signature_of` does.

:class:`SignatureVocabulary` is the signature database ``S`` built from
anomaly-free traffic, with the occurrence counts ``#(s)`` the
probabilistic-noise schedule needs (paper Section V-3).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.utils.artifact import ArtifactError

#: Separator for the concatenating generating function.  Discretized
#: features are non-negative integers, so any non-digit separator makes
#: the concatenation injective.
SEPARATOR = "|"

#: Out-of-vocabulary code vectors one :class:`SignatureTable` remembers.
#: Live traffic repeats them, and each miss costs a signature string, two
#: Python hashes and a vocabulary lookup.  In the serving benchmark's
#: traffic (``perfbench``, both workloads, four seeds) about 48% of
#: packages are out of vocabulary, one detector meets at most about 490
#: distinct such vectors in 16k-70k packages, and 94% of those lookups
#: hit the memo (91-93% with 256 entries).  An entry (a 13-code key tuple
#: plus its verdict pair and dict slot) costs about 300 bytes, so a full
#: memo is about 150 KB: a gateway serving all five registered scenarios
#: holds under 1 MB of them.
OOV_MEMO_CAPACITY = 512


def signature_of(code_vector: Sequence[int]) -> str:
    """The generating function ``g(·)``: injective on integer tuples."""
    return SEPARATOR.join(str(int(code)) for code in code_vector)


def codes_of(signature: str) -> tuple[int, ...]:
    """Inverse of :func:`signature_of` (handy for inspection/debugging)."""
    if signature == "":
        raise ValueError("empty signature")
    return tuple(int(part) for part in signature.split(SEPARATOR))


class SignatureVocabulary:
    """The signature database ``S`` with ids, counts and lookups.

    Signatures are assigned dense integer ids in first-seen order; ids
    index the LSTM softmax output layer, so the vocabulary must be built
    before the network (``num_classes = len(vocabulary)``).
    """

    def __init__(self) -> None:
        self._id_of: dict[str, int] = {}
        self._signatures: list[str] = []
        self._counts: Counter[str] = Counter()

    # -- construction -----------------------------------------------------

    def add(self, signature: str) -> int:
        """Insert one occurrence; returns the signature id."""
        existing = self._id_of.get(signature)
        if existing is None:
            existing = len(self._signatures)
            self._id_of[signature] = existing
            self._signatures.append(signature)
        self._counts[signature] += 1
        return existing

    @classmethod
    def from_code_vectors(
        cls, code_vectors: Iterable[Sequence[int]]
    ) -> "SignatureVocabulary":
        """Build the database from discretized training vectors."""
        vocabulary = cls()
        for codes in code_vectors:
            vocabulary.add(signature_of(codes))
        return vocabulary

    # -- persistence --------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Full persistent state: signatures in id order plus counts."""
        return {
            "signatures": np.array(self._signatures, dtype=np.str_),
            "counts": np.array(
                [self._counts[s] for s in self._signatures], dtype=np.int64
            ),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "SignatureVocabulary":
        """Rebuild the database from :meth:`state_dict` output."""
        signatures = [str(s) for s in state["signatures"]]
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != (len(signatures),):
            raise ArtifactError(
                f"vocabulary counts have shape {counts.shape} for "
                f"{len(signatures)} signatures"
            )
        vocabulary = cls()
        vocabulary._signatures = signatures
        vocabulary._id_of = {s: i for i, s in enumerate(signatures)}
        if len(vocabulary._id_of) != len(signatures):
            raise ArtifactError("vocabulary contains duplicate signatures")
        vocabulary._counts = Counter(
            {s: int(c) for s, c in zip(signatures, counts)}
        )
        return vocabulary

    # -- lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, signature: str) -> bool:
        return signature in self._id_of

    def id_of(self, signature: str) -> int | None:
        """Dense id of ``signature`` or ``None`` when unseen."""
        return self._id_of.get(signature)

    def signature_at(self, index: int) -> str:
        """Signature string for id ``index``."""
        return self._signatures[index]

    def count(self, signature: str) -> int:
        """Training occurrences ``#(s)`` (0 for unseen)."""
        return self._counts.get(signature, 0)

    def count_by_id(self, index: int) -> int:
        return self._counts[self._signatures[index]]

    @property
    def signatures(self) -> list[str]:
        """All signatures in id order (copy)."""
        return list(self._signatures)

    @property
    def total_occurrences(self) -> int:
        """Total training packages behind the database."""
        return sum(self._counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SignatureVocabulary(size={len(self)}, "
            f"occurrences={self.total_occurrences})"
        )


class SignatureTable:
    """Code vector -> ``(flagged, id)`` in one dict lookup.

    ``flagged`` is ``not probe(signature_of(codes))`` (the package-level
    verdict) and ``id`` is the vocabulary id, ``-1`` when the signature
    is out of vocabulary.  The table is keyed by code tuples, so the
    hot path builds no signature string and hashes nothing.

    Exactness contract: :meth:`resolve` answers exactly what
    ``signature_of`` + ``probe`` + ``vocabulary.id_of`` answer for the
    same vector, for every vector.

    - Every vocabulary signature is probed once, at construction, with
      the real ``probe``; the table stores what the probe answered, so
      it assumes nothing about how the filter was built (a filter that
      lacks a vocabulary signature still flags it).
    - Only canonical signatures (``signature_of(codes_of(s)) == s``) are
      keyed by their codes.  A vector equal to a key (``1.0 == 1``,
      ``np.int64(1) == 1``) has that key's signature; any other vector
      falls back to the real calls.
    - Fallback answers are memoised, at most :data:`OOV_MEMO_CAPACITY`
      of them; the oldest is evicted first.

    The table is a snapshot: build a new one after the vocabulary or the
    probed filter changes.
    """

    def __init__(
        self, vocabulary: SignatureVocabulary, probe: Callable[[str], bool]
    ) -> None:
        self._vocabulary = vocabulary
        self._probe = probe
        self._known: dict[tuple[int, ...], tuple[bool, int]] = {}
        for index, signature in enumerate(vocabulary.signatures):
            try:
                codes = codes_of(signature)
            except ValueError:
                continue
            if signature_of(codes) == signature:
                self._known[codes] = (not probe(signature), index)
        self._memo: OrderedDict[tuple, tuple[bool, int]] = OrderedDict()

    def resolve(self, codes: Sequence[int]) -> tuple[bool, int]:
        """``(flagged, id)`` of one code vector (``id`` is ``-1`` if unseen)."""
        key = codes if type(codes) is tuple else tuple(codes)
        entry = self._known.get(key)
        if entry is None:
            memo = self._memo
            entry = memo.get(key)
            if entry is None:
                signature = signature_of(key)
                index = self._vocabulary.id_of(signature)
                entry = (not self._probe(signature), -1 if index is None else index)
                if len(memo) >= OOV_MEMO_CAPACITY:
                    memo.popitem(last=False)
                memo[key] = entry
        return entry
