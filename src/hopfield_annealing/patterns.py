"""Bipolar spin patterns and memory sets.

Conventions used throughout the package:

- A *pattern* is a 1-D integer array with entries in {+1, -1}.
- A *memory set* is a 2-D integer array of shape (p, n): one pattern per row.
- `as_pattern` and `as_memory_set` accept any array-like of real numbers
  that are exactly +1 or -1, and return a fresh int64 copy. Anything else is
  a ValueError, never truncated or cast first: 1.5 is not +1, '1' is not a
  number, and a ragged or empty input is not a pattern or memory set.
- Computational-basis indexing is little endian: pattern ``z`` maps to the
  basis index ``s = sum_i s_i * 2**i`` with bit values ``s_i = (z_i + 1) / 2``,
  i.e. spin i occupies bit ``2**i`` of the state label.
"""

import numpy as np

from ._guards import integer

__all__ = [
    "as_pattern",
    "as_memory_set",
    "hamming_distance",
    "pattern_to_index",
    "index_to_pattern",
    "all_patterns",
    "random_pattern",
    "hadamard_memories",
    "overlapping_memories",
]


def _bipolar(values, ndim: int) -> np.ndarray:
    """`values` as a fresh int64 array of `ndim` dimensions, checked in one
    pass: rectangular, non-empty, real and exactly +1 or -1 before any cast."""
    what = "pattern" if ndim == 1 else "memory set"
    try:
        z = np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting
        raise ValueError(f"{what} is not rectangular: its rows differ in length") from None
    if z.ndim != ndim or z.size < 1:
        raise ValueError(f"{what} must be a non-empty {ndim}-D array, got shape {z.shape}")
    if z.dtype.kind not in "iuf":
        raise ValueError(f"{what} entries must be real numbers, got dtype {z.dtype}")
    if (off := np.abs(z) != 1).any():
        row, col = divmod(int(np.flatnonzero(off)[0]), z.shape[-1])
        where = f"pattern element {col}" if ndim == 1 else f"memory {row} element {col}"
        raise ValueError(f"{where} is not +1 or -1")
    return z.astype(np.int64)


def as_pattern(values) -> np.ndarray:
    """Validate and return a bipolar pattern as a fresh int64 array."""
    return _bipolar(values, 1)


def as_memory_set(patterns) -> np.ndarray:
    """Validate equal-length patterns as a fresh (p, n) int64 array."""
    return _bipolar(patterns, 2)


def hamming_distance(a, b) -> int:
    """Number of positions where two patterns differ."""
    za, zb = as_pattern(a), as_pattern(b)
    if za.size != zb.size:
        raise ValueError(f"length mismatch: {za.size} vs {zb.size}")
    return int(np.count_nonzero(za != zb))


def pattern_to_index(pattern) -> int:
    """Little-endian basis index of a pattern (spin i -> bit 2**i); past 63
    spins the sum runs on Python ints."""
    z = as_pattern(pattern)
    kind = np.int64 if z.size < 64 else object
    return int(np.sum(((z + 1) // 2).astype(kind) << np.arange(z.size).astype(kind)))


def index_to_pattern(index: int, n: int) -> np.ndarray:
    """Spin pattern encoded by a little-endian basis index."""
    n = integer(n, "n", 0)
    return _code_patterns(integer(index, "index", 0, (1 << n) - 1), n)


def all_patterns(n: int) -> np.ndarray:
    """All 2**n spin patterns, row s = pattern of basis index s."""
    return _code_patterns(np.arange(1 << n), n)


def _code_patterns(codes, n: int) -> np.ndarray:
    """The int64 patterns of the basis indices `codes`, of any shape, along a
    new last axis of n spins; past 63 spins the codes stay Python ints."""
    kind = np.int64 if n < 64 else object
    bits = np.asarray(codes, dtype=kind)[..., None] >> np.arange(n).astype(kind) & 1
    return 2 * bits.astype(np.int64) - 1


def random_pattern(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random bipolar pattern of length n."""
    return 2 * rng.integers(0, 2, size=n) - 1  # integers draws int64


def hadamard_memories(n: int, p: int | None = None) -> np.ndarray:
    """First p columns of the n x n Sylvester Hadamard matrix, as memories.

    The columns are mutually orthogonal bipolar vectors, so they make a
    convenient source of non-interfering memories. Requires n a power of two
    and p <= n. The first memory is the all +1 pattern.
    """
    n = integer(n, "n", 1)
    if n & (n - 1):
        raise ValueError(f"Hadamard memories need n a power of two, got {n}")
    p = n if p is None else integer(p, "p", 1, n)
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h[:, :p].T.copy()


def overlapping_memories() -> np.ndarray:
    """Four 4-spin memories with pairwise overlaps.

    Memories 1-3 have non-zero mutual inner products while memories 2 and 4
    are orthogonal, which makes the set a compact recall stress test. It is
    the CLI's default memory set.
    """
    return np.array(
        [
            [+1, -1, +1, -1],
            [-1, +1, +1, +1],
            [-1, -1, +1, +1],
            [+1, -1, +1, +1],
        ],
        dtype=np.int64,
    )
