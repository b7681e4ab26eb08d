"""Instantaneous spectra of the annealing Hamiltonian and the minimum gap.

The interpolating Hamiltonian H(t) = A(t) H0 + B(t) H1 is diagonalized
exactly at sample times; the minimum gap is measured between the ground
manifold and the first level above it. The manifold dimension d is taken from
the degeneracy of the final-time (t = T) ground energy: eigenvalues within the
degeneracy tolerance of the t = T minimum count as one manifold, and the gap
at each time is E_d(t) - E_0(t). Level crossings along the way are not
tracked, so d is a final-time approximation of the manifold.

H1 is passed as an `IsingHamiltonian` or as its 1-D diagonal of 2^n energies.
Refused with a `ValueError`: a dense 2-D H1, a diagonal whose length is not
a power of two, an `h0` that is not the n-qubit driver -sum_i X_i, and a
time that is not a number in [0, T]. A non-finite entry of H1, and a
schedule weight that is not finite or whose H(t) overflows, are a
`FloatingPointError`.

H(t) is diagonalized one qubit-swap sector at a time. Qubits i and j whose
swap leaves H1's diagonal d unchanged, plainly or with both bits flipped
(X_i X_j SWAP_ij), give a symmetry of H(t), since both maps commute with H0.
`_pairs` takes disjoint such pairs greedily, and each pair splits into a
symmetric part of three states and an antisymmetric part of one:

    plain pair:    |00>, |11>, (|01> + |10>)/sqrt2  |  (|01> - |10>)/sqrt2
    flipped pair:  |01>, |10>, (|00> + |11>)/sqrt2  |  (|00> - |11>)/sqrt2

One part per pair makes a sector. In it, H0 is the Kronecker sum of -X for
each unpaired qubit, -sqrt2 [[0,0,1],[0,0,1],[1,1,0]] for each symmetric
pair and 0 for each antisymmetric one, and H1 is diagonal: d at one
representative basis state of each sector state. k pairs make 2^k sectors of
3^(k-m) 2^(n-2k) states, m of the pairs antisymmetric, which sum to 2^n; a
diagonal without pairs is one sector, the dense matrix. The spectrum is the
sorted union of the sectors' eigenvalues; a sector's samples are
diagonalized in stacks of at most 64 KB, or one at a time. The n = 8,
p = 3 instances of the `register_n8` benchmark have two to four pairs at
seeds 20587, 7 and 101, and their 201-sample traces took 0.09-0.23 s where
the dense 256 x 256 matrices took 0.56-0.89 s; exact n = 4 and n = 5
instances took 2.2-4.1 ms and 7.1-8.5 ms where the dense path took 11-13
ms and 17-24 ms (2-CPU Intel Xeon, two OpenBLAS threads).

A pair is taken when d, read at each basis state's representative under the
pairs taken so far and this one, moves by at most tol = 64 eps max(1,
max|d|). On those instances rounding left at most 0.82 eps max|d| on the
exact pairs, and every other pair moved d by more than 10^14 eps max|d|.
The sectors are exact for the diagonal read at the representatives, which
is within tol of d, so by Weyl's inequality every eigenvalue is within
|B(t)| tol of H(t)'s.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from ._atomic import write_csv_atomic
from .evolution import AnnealSchedule
from .hamiltonians import (
    DEGENERACY_TOL,
    _check_driver,
    _check_qubit_count,
    _finite_diagonal,
    _register_size,
    _transverse_field_cached,
)
from .instances import _integer

__all__ = [
    "SpectrumTrace",
    "instantaneous_spectrum",
    "spectrum_trace",
    "min_gap",
    "write_spectrum_csv",
]

# most samples one trace may take: about 200 times the figure default of 201
_SAMPLE_LIMIT = 40_000

# most doubles one stacked eigvalsh call takes (64 KB); a larger sector
# goes one sample at a time
_STACK_DOUBLES = 1 << 13

# H0 = -X_i - X_j on a pair's symmetric part, in the order of _PARTS
_SYMMETRIC_DRIVER = -math.sqrt(2.0) * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

# (bit i, bit j) of the representative of each state of a pair's symmetric
# part, then of its antisymmetric part: plain pairs, then flipped ones
_PARTS = {
    False: (np.array([[0, 0], [1, 1], [1, 0]]), np.array([[1, 0]])),
    True: (np.array([[1, 0], [0, 1], [0, 0]]), np.array([[0, 0]])),
}


@dataclass(frozen=True)
class SpectrumTrace:
    """Sampled eigenvalues: times (S,) and ascending energies (S, 2^n).

    Both are stored as float64 arrays. Times that are not 1-D, and energies
    that are not finite and 2-D with one row per time and at least one
    column, are a `ValueError` that names the field.
    """

    times: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        for name in ("times", "energies"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, np.asarray(value, dtype=np.float64))
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be an array of numbers, got {value!r}") from None
        times, energies = self.times, self.energies
        if times.ndim != 1:
            raise ValueError(f"times must be 1-D, got a {times.ndim}-D array")
        if energies.ndim != 2 or energies.shape[0] != times.size or energies.shape[1] < 1:
            raise ValueError(
                f"energies must be 2-D with one row per time ({times.size}) and at least "
                f"one column, got shape {energies.shape}"
            )
        if not np.isfinite(energies).all():
            raise ValueError("energies must be finite")


def _pairs(d: np.ndarray) -> list:
    """Disjoint qubit pairs (i, j, flipped), taken greedily in the order of
    i, then j, then plain before flipped, whose swap (flipped: with both bits
    flipped) leaves d unchanged within the tolerance of the module docstring."""
    tol = 64 * np.finfo(np.float64).eps * max(1.0, float(np.abs(d).max()))
    rep = np.arange(d.size)  # each basis state's representative under the pairs taken
    pairs, paired = [], set()
    for i, j in combinations(range(_register_size(d.size)), 2):
        if i in paired or j in paired:
            continue
        bit_i, bit_j = rep >> i & 1, rep >> j & 1
        for flipped in (False, True):
            if flipped:  # |00>, |11> -> |00>
                joined = np.where(bit_i == bit_j, rep & ~(1 << i | 1 << j), rep)
            else:  # |01>, |10> -> bit i set
                joined = np.where(bit_i != bit_j, (rep | 1 << i) & ~(1 << j), rep)
            if np.abs(d[joined] - d).max() <= tol:
                pairs.append((i, j, flipped))
                paired |= {i, j}
                rep = joined
                break
    return pairs


def _sectors(d: np.ndarray):
    """Yield the (H0 block, H1 diagonal) of each sector of d's pairs."""
    pairs = _pairs(d)
    paired = {q for i, j, _ in pairs for q in (i, j)}
    rest = [q for q in range(_register_size(d.size)) if q not in paired]
    # the unpaired qubits as a register of their own, in standard order
    index = np.arange(1 << len(rest))
    rest_offsets = sum(((index >> r & 1) << q for r, q in enumerate(rest)), np.zeros_like(index))
    for parts in product((0, 1), repeat=len(pairs)):  # 0: symmetric, 1: antisymmetric
        driver, offsets = _transverse_field_cached(len(rest)), rest_offsets
        for (i, j, flipped), part in zip(pairs, parts):
            offsets = (offsets[:, None] + _PARTS[flipped][part] @ (1 << i, 1 << j)).ravel()
            if part == 0:  # symmetric; an antisymmetric part adds 0 to H0
                driver = (np.kron(driver, np.eye(3))
                          + np.kron(np.eye(len(driver)), _SYMMETRIC_DRIVER))
        yield driver, d[offsets]


def _spectra(h0, h1, schedule: AnnealSchedule, times) -> np.ndarray:
    """Ascending eigenvalues of A(t) H0 + B(t) H1, one row per time."""
    d = _finite_diagonal(h1)
    n = _register_size(d.size)
    _check_qubit_count(n)
    if np.shape(h0) != (d.size, d.size):
        raise ValueError(f"h0 must be {d.size} x {d.size} to match H1, got shape {np.shape(h0)}")
    _check_driver(h0, n)
    a = np.array([float(schedule.driver_weight(t)) for t in times])
    b = np.array([float(schedule.problem_weight(t)) for t in times])
    with np.errstate(over="ignore", invalid="ignore"):  # nan for a weight of inf times 0
        finite = np.isfinite(np.abs(a) * n + np.abs(b) * np.abs(d).max())  # bounds |H(t)|
    if not finite.all():
        k = int(np.argmin(finite))
        raise FloatingPointError(
            f"schedule weights A={a[k]:g}, B={b[k]:g} at t={times[k]:g} leave H(t) not finite"
        )
    energies = np.empty((len(times), d.size))
    start = 0
    for driver, diagonal in _sectors(d):
        dim = diagonal.size
        chunk = max(1, _STACK_DOUBLES // dim**2)
        for low in range(0, len(times), chunk):
            rows = slice(low, low + chunk)
            stack = a[rows, None, None] * driver
            stack.reshape(len(stack), -1)[:, :: dim + 1] += b[rows, None] * diagonal
            energies[rows, start:start + dim] = np.linalg.eigvalsh(stack)
        start += dim
    energies.sort(axis=1)
    return energies


def instantaneous_spectrum(h0, h1, schedule: AnnealSchedule, t: float) -> np.ndarray:
    """All eigenvalues of A(t) H0 + B(t) H1 in ascending order."""
    if not (isinstance(t, numbers.Real) and 0 <= t <= schedule.total_time * (1 + 1e-12)):
        raise ValueError(f"t must be a time in [0, {schedule.total_time}], got {t!r}")
    return _spectra(h0, h1, schedule, [t])[0]


def spectrum_trace(h0, h1, schedule: AnnealSchedule, num_samples: int = 101) -> SpectrumTrace:
    """Spectrum on a uniform time grid including both endpoints."""
    num_samples = _integer(num_samples, "num_samples")
    if num_samples < 2:
        raise ValueError(f"need at least 2 samples, got {num_samples}")
    if num_samples > _SAMPLE_LIMIT:
        raise ValueError(f"{num_samples} samples exceed the limit of {_SAMPLE_LIMIT}")
    times = np.linspace(0.0, schedule.total_time, num_samples)
    return SpectrumTrace(times=times, energies=_spectra(h0, h1, schedule, times))


def _check_trace(trace) -> None:
    if not isinstance(trace, SpectrumTrace):
        raise ValueError(f"trace must be a SpectrumTrace, got {trace!r}")


def min_gap(trace: SpectrumTrace) -> tuple[float, float]:
    """Minimum gap above the ground manifold, and the time where it occurs.

    Returns (gap, t_at_min). The manifold dimension is the multiplicity of the
    final-time ground eigenvalue within `hamiltonians.DEGENERACY_TOL`; if the manifold spans
    the whole spectrum the gap is 0 at t = T by convention.
    """
    _check_trace(trace)
    if trace.times.size == 0:
        raise ValueError("empty spectrum trace")
    final = trace.energies[-1]
    d = int(np.sum(np.abs(final - final[0]) <= DEGENERACY_TOL))
    if d >= trace.energies.shape[1]:
        return 0.0, float(trace.times[-1])
    gaps = trace.energies[:, d] - trace.energies[:, 0]
    j = int(np.argmin(gaps))
    return float(gaps[j]), float(trace.times[j])


def write_spectrum_csv(trace: SpectrumTrace, path) -> None:
    """CSV with header t,E_0,...,E_{2^n-1}; full double precision; written
    atomically."""
    _check_trace(trace)
    write_csv_atomic(
        path,
        ["t"] + [f"E_{i}" for i in range(trace.energies.shape[1])],
        ([f"{t:.17g}"] + [f"{e:.17g}" for e in row]
         for t, row in zip(trace.times, trace.energies)),
    )
