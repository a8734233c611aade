"""Philox streams of the Monte Carlo engine, one per (master_seed, index).

montecarlo.replication_stream imports this module at its first stream, and
numpy.random with it: `import numpy` loads neither, so a process that
builds no stream neither loads nor compiles them.

Philox is counter-based: a stream is a 128-bit key and a counter from 0.
The key of (master_seed, index) is numpy's SeedSequence(master_seed,
spawn_key=(index,)).generate_state(2, np.uint64); keys derives it for many
indices at once, and numpy's SeedSequence stays the tests' oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence, SeedSequence


def stream(master_seed: int, index: int) -> Generator:
    """The stream of replication index under an int seed >= 0; ValueError outside [0, 2^32)."""
    if not 0 <= index < 1 << 32:
        raise ValueError(f"replication index must lie in [0, 2^32), got {index}")
    return Generator(Philox(_Key(_block(master_seed, index >> 10)[index & 1023])))


@lru_cache(maxsize=64)
def _block(master_seed: int, block: int) -> np.ndarray:
    """Keys of replications 1024 block .. 1024 block + 1023; the cache holds at most 1 MiB."""
    return keys(master_seed, block << 10, (block + 1) << 10)


class _Key(ISeedSequence):
    """A seed sequence reduced to what Philox asks of it: its key."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def keys(master_seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 2) uint64 Philox keys of replications start..stop-1.

    SeedSequence(master_seed).pool is the pool before the spawn key, after 4
    hashmix calls per 32-bit word of the seed (4 words at least); the rest of
    numpy's hash runs here on uint32 arrays over the index.
    """
    pool, u32, mask = SeedSequence(master_seed).pool, np.uint32, 0xFFFFFFFF
    words = max(4, -(-master_seed.bit_length() // 32))
    hash_a, hash_b = 0x43B0D7E5 * pow(0x931E8875, 4 * words, 1 << 32) & mask, 0x8B51F9DD
    index, state = np.arange(start, stop, dtype=u32), np.empty((stop - start, 4), dtype=u32)
    with np.errstate(over="ignore"):                # uint32 arithmetic wraps, as in numpy
        for k in range(4):
            v = index ^ u32(hash_a)                 # hashmix(index)
            hash_a = hash_a * 0x931E8875 & mask
            v *= u32(hash_a)
            v ^= v >> u32(16)
            w = pool[k] * u32(0xCA01F9DD) - v * u32(0x4973F715)    # mix(pool[k], v)
            w ^= w >> u32(16)
            w ^= u32(hash_b)                        # generate_state's word k
            hash_b = hash_b * 0x58F38DED & mask
            w *= u32(hash_b)
            state[:, k] = w ^ w >> u32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)    # low word first
