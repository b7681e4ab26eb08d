"""Bipolar spin patterns and memory sets.

Conventions used throughout the package:

- A *pattern* is a 1-D integer array with entries in {+1, -1}.
- A *memory set* is a 2-D integer array of shape (p, n): one pattern per row.
- Computational-basis indexing is little endian: pattern ``z`` maps to the
  basis index ``s = sum_i s_i * 2**i`` with bit values ``s_i = (z_i + 1) / 2``,
  i.e. spin i occupies bit ``2**i`` of the state label.
"""

import numpy as np

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


def as_pattern(values) -> np.ndarray:
    """Validate and return a bipolar pattern as an integer array."""
    z = np.asarray(values)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("pattern must be a non-empty 1-D sequence")
    z = z.astype(np.int64, copy=True)
    if not np.all(np.abs(z) == 1):
        bad = np.flatnonzero(np.abs(z) != 1)[0]
        raise ValueError(f"pattern element {bad} is not +1 or -1")
    return z


def as_memory_set(patterns) -> np.ndarray:
    """Validate a collection of equal-length patterns; returns a (p, n) array."""
    rows = list(patterns)
    if len(rows) < 1:
        raise ValueError("memory set must contain at least one pattern")
    mats = [as_pattern(r) for r in rows]
    n = mats[0].size
    for k, m in enumerate(mats):
        if m.size != n:
            raise ValueError(f"memory {k} has length {m.size}, expected {n}")
    return np.stack(mats)


def hamming_distance(a, b) -> int:
    """Number of positions where two patterns differ."""
    za, zb = as_pattern(a), as_pattern(b)
    if za.size != zb.size:
        raise ValueError(f"length mismatch: {za.size} vs {zb.size}")
    return int(np.count_nonzero(za != zb))


def pattern_to_index(pattern) -> int:
    """Little-endian basis index of a pattern (spin i -> bit 2**i)."""
    z = as_pattern(pattern)
    bits = (z + 1) // 2
    return int(np.sum(bits << np.arange(z.size)))


def index_to_pattern(index: int, n: int) -> np.ndarray:
    """Spin pattern encoded by a little-endian basis index."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for n={n}")
    bits = (index >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int64)


def all_patterns(n: int) -> np.ndarray:
    """All 2**n spin patterns, row s = pattern of basis index s."""
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.int64)


def random_pattern(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random bipolar pattern of length n."""
    return (2 * rng.integers(0, 2, size=n) - 1).astype(np.int64)


def hadamard_memories(n: int, p: int | None = None) -> np.ndarray:
    """First p columns of the n x n Sylvester Hadamard matrix, as memories.

    The columns are mutually orthogonal bipolar vectors, so they make a
    convenient source of non-interfering memories. Requires n a power of two
    and p <= n. The first memory is the all +1 pattern.
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"Hadamard memories need n a power of two, got {n}")
    p = n if p is None else p
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
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
