"""The one question embedder: hashed character trigrams, kept sparse.

Lowercased character trigrams are counted into ``dimension`` buckets via
CRC32, and the counts are scaled to unit length. A vector is a dict from
bucket to value that holds only the nonzero buckets, in ascending bucket
order. The store keeps the integer counts of each stored question in its
index, so a vector can be rebuilt from them without hashing the text again;
``unit_vector`` is the one place where counts become floats.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from typing import Mapping

DEFAULT_DIMENSION = 256


def l2_normalize(vector: Mapping[int, float]) -> dict[int, float]:
    """Scale a sparse vector (bucket -> value) to unit length, buckets kept in order."""
    norm = math.sqrt(sum(v * v for v in vector.values()))
    if norm == 0.0:
        return dict(vector)
    return {bucket: v / norm for bucket, v in vector.items()}


def unit_vector(counts: Mapping[int, int]) -> dict[int, float]:
    """Integer bucket counts scaled to unit length, in ascending bucket order."""
    # The counts are integers, so the sum of their squares is exact and
    # equals the float sum over the dense vector in any order.
    norm = math.sqrt(sum(count * count for count in counts.values()))
    return {bucket: counts[bucket] / norm for bucket in sorted(counts)}


class HashingEmbedder:
    """Hashed character trigrams in ``dimension`` buckets.

    Texts too short to yield a trigram map to the zero-information
    convention vector (all mass in bucket 0).
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension < 1:
            raise ValueError("embedding dimension must be positive")
        self._dimension = dimension

    def dimension(self) -> int:
        return self._dimension

    def trigram_counts(self, text: str) -> Counter:
        """How many of the text's lowercased trigrams fall into each bucket."""
        lowered = text.lower()
        return Counter(
            zlib.crc32(lowered[i : i + 3].encode("utf-8")) % self._dimension
            for i in range(len(lowered) - 2)
        ) or Counter({0: 1})

    def embed_sparse(self, text: str) -> dict[int, float]:
        """The embedding's nonzero buckets, in ascending bucket order."""
        return unit_vector(self.trigram_counts(text))

    def embed(self, text: str) -> list[float]:
        """The embedding as ``dimension`` floats."""
        dense = [0.0] * self._dimension
        for bucket, value in self.embed_sparse(text).items():
            dense[bucket] = value
        return dense
