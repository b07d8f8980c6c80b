"""Reproducible random number streams.

Every public API that consumes randomness takes an :class:`RngStream` value
instead of a live generator.  A stream is a (seed, path) pair; the path is a
tuple of labels identifying a named substream.  Two streams with the same seed
and path always produce the same sample sequence, so concurrent consumers can
derive independent substreams without sharing mutable state.
"""

from __future__ import annotations

import zlib
import numpy as np

from .record import Record


def _label_entropy(label: object) -> int:
    """Map a path label to a stable 32-bit integer."""
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


class RngStream(Record, eq=True):
    """A named, reproducible random stream rooted at a 64-bit seed."""

    seed: int
    path: tuple = ()

    def child(self, *labels: object) -> "RngStream":
        """Derive a substream named by appending `labels` to the path."""
        return RngStream(self.seed, self.path + tuple(labels))

    def generator(self) -> np.random.Generator:
        """Instantiate a fresh PCG64 generator positioned at the stream
        start."""
        entropy = [int(self.seed) & 0xFFFFFFFFFFFFFFFF]
        entropy.extend(_label_entropy(p) for p in self.path)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
