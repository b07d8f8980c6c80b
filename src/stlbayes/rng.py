"""Reproducible random number streams.

Every public API that consumes randomness takes an :class:`RngStream` value
instead of a live generator.  A stream is a (seed, path) pair; the path is a
tuple of labels identifying a named substream.  Two streams with the same seed
and path always produce the same sample sequence, so concurrent consumers can
derive independent substreams without sharing mutable state.

`RngStream.generator()` defines a stream: numpy's `SeedSequence` of the
seed and the path labels' 32-bit words, seeding a `PCG64`.  The PWA route
draws from one substream per unknown cell, `child("cell", i)`, and
`RngStream.fill_children` seeds all of them in one pass with the same
streams: it runs `SeedSequence`'s hash of the words the children share once,
the word that differs per index as one vectorized uint32 pass, and derives
each `PCG64` state with Python integers (O'Neill, 2014; NumPy NEP 19 keeps
seeded streams stable).
"""

from __future__ import annotations

import threading
import zlib
import numpy as np

from .record import Record

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence: pool size and hash constants (bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state's running hash constant, one step per output word: word i
# is xored with entry i and multiplied by entry i + 1.
_STATE_HASH = np.array([_INIT_B * _MULT_B ** i & _MASK32
                        for i in range(2 * _POOL + 1)],
                       dtype=np.uint32)[:, None]
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# One reusable generator per thread, made on first use: importing
# numpy.random costs a fresh process about 10 ms, and a shared one would let
# two threads set each other's state between `fill_children`'s steps.
_SCRATCH = threading.local()


def _label_entropy(label: object) -> int:
    """Map a path label to a stable 32-bit integer."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK32
    return zlib.crc32(str(label).encode("utf-8"))


def _seed_words(seed: int) -> list:
    """The 32-bit words `SeedSequence` takes from a nonnegative int, least
    significant first; [0] for 0."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _wrap(value):
    """A Python int reduced to 32 bits; a uint32 array wraps by itself."""
    return value & _MASK32 if isinstance(value, int) else value


def _pool(words: list) -> list:
    """`SeedSequence`'s entropy pool of `words`, each a Python int or a
    uint32 array of one word per child.  The shared words are mixed with
    Python ints, once; a pool word becomes an array, one entry per child,
    from the first array word that reaches it."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = _wrap(value * const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = _wrap(_wrap(_MIX_L * x) - _wrap(_MIX_R * y))
        return out ^ (out >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg_states(pool: list) -> list:
    """The `PCG64` (state, inc) that `SeedSequence.generate_state(4,
    uint64)` of `pool`, uint32 arrays of one word per child, seeds: one
    pair per child."""
    words = (np.stack(pool * 2) ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    words ^= words >> 16
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.T.astype("<u4", order="C").view(
            "<u8").tolist():
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        # pcg_setseq_128_srandom_r: state 0, one step, add the seed, a step.
        state = (inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc
        states.append((state & _MASK128, inc))
    return states


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

    def fill_children(self, label: object, indices, out: np.ndarray
                      ) -> np.ndarray:
        """Fill `out[k]` with the uniform doubles on [0, 1) that
        `self.child(label, indices[k]).generator().random(out=out[k])`
        draws, bit for bit, for every k; returns `out`.

        The children's `SeedSequence` hashes share every word but the
        index's: those words are mixed once, the index words as one uint32
        array, and each child's block is drawn by setting the state of one
        reused generator."""
        index = np.array([_label_entropy(i) for i in indices], dtype=np.uint32)
        if len(out) != index.size:
            raise ValueError(f"{index.size} indices for {len(out)} blocks")
        shared = [_label_entropy(p) for p in (*self.path, label)]
        pool = _pool(_seed_words(int(self.seed) & 0xFFFFFFFFFFFFFFFF)
                     + shared + [index])
        gen = getattr(_SCRATCH, "gen", None)
        if gen is None:
            gen = _SCRATCH.gen = np.random.Generator(np.random.PCG64(0))
        bits = gen.bit_generator
        for k, (state, inc) in enumerate(_pcg_states(pool)):
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            gen.random(out=out[k])
        return out
