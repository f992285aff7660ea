"""Neutral bit-vector markers that ride along with every genome.

Each individual carries a fixed-length vector of "trash bits" that has no
influence on fitness.  The bits are initialised uniformly at random when an
individual is created from scratch, a single randomly chosen bit is flipped
whenever the individual is mutated, and recombination mixes the two parent
vectors bit-wise (uniform crossover).  Because selection never sees them, the
normalised Hamming distance between two marker vectors is an unbiased,
representation-independent estimate of how much variation separates two
individuals: unrelated vectors sit at 0.5 on average, a mutant differs from
its parent by exactly 1/tau, and a crossover child differs from either parent
by 0.25 in expectation.
"""

from __future__ import annotations

import numpy as np


def random_trash(tau: int, rng: np.random.Generator) -> np.ndarray:
    """Return a fresh marker vector of ``tau`` uniform random bits."""
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    return rng.integers(0, 2, size=tau, dtype=np.uint8)


def flip_one_bit(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Return a copy of ``bits`` with exactly one uniformly chosen bit flipped."""
    if bits.size < 1:
        raise ValueError("marker vector must contain at least one bit")
    out = bits.copy()
    pos = int(rng.integers(bits.size))
    out[pos] ^= 1
    return out


def uniform_cross(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Mix two marker vectors bit-wise, taking each bit from either parent with
    probability 1/2."""
    if a.size != b.size:
        raise ValueError(f"marker length mismatch: {a.size} != {b.size}")
    take_a = rng.random(a.size) < 0.5
    return np.where(take_a, a, b).astype(np.uint8, copy=False)


def tdist(a: np.ndarray, b: np.ndarray) -> float:
    """Normalised Hamming distance between two marker vectors, in [0, 1]."""
    if a.size != b.size:
        raise ValueError(f"marker length mismatch: {a.size} != {b.size}")
    if a.size == 0:
        raise ValueError("marker vectors must contain at least one bit")
    return float(np.count_nonzero(a != b)) / a.size
