"""Deterministic random-stream derivation.

All randomness in the package flows from integer seeds through
``numpy.random.SeedSequence``. Streams are keyed by (seed, index) tuples so
that results are bit-reproducible and independent of execution order,
chunking, or worker count.

A key is read as a sequence of 32-bit words, one per int, and SeedSequence
pads a key of fewer than four words with zeros. So keys of up to four words
that differ only in trailing zeros name one stream: ``stream(s, a)`` is
``stream(s, a, 0)``. Keys that must name different streams must therefore
differ in a word both of them have, as the study's (seed, index, role[,
chunk]) keys do in their role word. A seed word outside [0, 2**32) is a
ConfigError (:func:`~covtest.errors.check_seed`): numpy would refuse a
negative one and read a larger one as two words, so that
``stream((2**32, 1))`` would be ``stream((0, 1, 1))``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import check_seed

SeedLike = int | tuple[int, ...]


def _entropy(seed: SeedLike) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (check_seed(int(seed)),)
    return tuple(check_seed(int(s)) for s in seed)


def stream(seed: SeedLike, *indices: int) -> np.random.Generator:
    """Generator for the stream keyed by ``seed`` extended with ``indices``."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed) + tuple(indices)))


def chunked_streams(seed: SeedLike, n: int, chunk_size: int) -> Iterator[tuple[int, int, np.random.Generator]]:
    """Yield ``(start, stop, rng)`` for fixed-size chunks of ``n`` replicates.

    The chunk decomposition is a function of ``chunk_size`` alone, and each
    chunk's generator is keyed by (seed, chunk index), so outputs assembled in
    chunk order do not depend on how chunks are scheduled.
    """
    n_chunks = (n + chunk_size - 1) // chunk_size
    for ci in range(n_chunks):
        start = ci * chunk_size
        stop = min(start + chunk_size, n)
        yield start, stop, stream(seed, ci)
