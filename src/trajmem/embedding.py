"""The one question embedder: hashed character trigrams.

This module owns how a text becomes numbers. ``trigram_counts`` counts its
lowercased character trigrams into ``dimension`` buckets via CRC32, and
``embed`` scales those counts to a unit-length vector of ``dimension``
floats. Retrieval scores the integer counts exactly and uses no float. How a
stored question's counts are kept, memoized and written to disk is the
store's concern (``trajmem.store.entry_counts``).
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

    def embed(self, text: str) -> list[float]:
        """The embedding as ``dimension`` floats: the counts scaled to unit length."""
        counts = self.trigram_counts(text)
        # The counts are integers, so the sum of their squares is exact.
        norm = math.sqrt(sum(count * count for count in counts.values()))
        dense = [0.0] * self._dimension
        for bucket, count in counts.items():
            dense[bucket] = count / norm
        return dense
