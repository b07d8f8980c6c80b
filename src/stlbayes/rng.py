"""Reproducible random number streams.

Every public API that consumes randomness takes an :class:`RngStream` value
instead of a live generator.  A stream is a (seed, path) pair; the path is a
tuple of labels identifying a named substream.  Two streams with the same seed
and path always produce the same sample sequence, so concurrent consumers can
derive independent substreams without sharing mutable state.

`RngStream.generator()` defines a stream: numpy's `SeedSequence` of the
seed and the path labels' 32-bit words, seeding a `PCG64`.  `SeedSequence`
pads its entropy with zero words up to its pool of 4, so on a path of at
most 4 words, seed included, a trailing label 0 names the same stream as
the path without it: `RngStream(7311).child("pwa", 0)` is
`RngStream(7311).child("pwa")`.  No two paths that one run draws from may
differ only so.

A consumer that needs many disjoint blocks of one stream, such as the PWA
route's one block per unknown cell, takes block i as the stream advanced by
i * 2^64 draws with `PCG64.advance` (O'Neill, 2014): blocks stay disjoint
while each draws fewer than 2^64 words, and block i depends only on the
stream and i.
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
