"""The one question embedder: hashed character trigrams, kept sparse.

Lowercased character trigrams are counted into ``dimension`` buckets via
CRC32. Retrieval scores those integer counts exactly; the store keeps the
counts of each stored question in its index, as base64 (bucket, count)
pairs of 16-bit numbers, so a stored question with a usable index line is
never hashed again. ``embed_sparse`` and ``embed`` scale the counts to unit
length: a sparse vector is a dict from bucket to value that holds only the
nonzero buckets, in ascending bucket order.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter

DEFAULT_DIMENSION = 256


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
        counts = self.trigram_counts(text)
        # The counts are integers, so the sum of their squares is exact and
        # equals the float sum over the dense vector in any order.
        norm = math.sqrt(sum(count * count for count in counts.values()))
        return {bucket: counts[bucket] / norm for bucket in sorted(counts)}

    def embed(self, text: str) -> list[float]:
        """The embedding as ``dimension`` floats."""
        dense = [0.0] * self._dimension
        for bucket, value in self.embed_sparse(text).items():
            dense[bucket] = value
        return dense
