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

H(t) is diagonalized one block of exchangeable qubits at a time. `_groups`
joins qubits greedily, in qubit order, into groups whose qubits can be
permuted without changing H1's diagonal d, plainly or with some of them
flipped (a mask `flip`). Permutations and flips commute with H0, so each
group of k qubits splits like k spins 1/2 into total spins j = k/2 - low,
low = 0..floor(k/2) (Dicke's multiplets): the multiplet of j holds the
group weights w = low..k-low, where H0 is the tridiagonal -2 J_x with
off-diagonal -sqrt((w - low + 1)(k - low - w)), and occurs C(k, low) -
C(k, low - 1) times. One `low` per group makes a block: H0 is the Kronecker
sum of the groups' -2 J_x, and H1 is diagonal, d at the state that sets,
in the frame of `flip`, the first w qubits of each group. A block of
Prod (k - 2 low + 1) states is diagonalized once and its eigenvalues
counted Prod (C(k, low) - C(k, low - 1)) times; the blocks' sizes times
their counts sum to 2^n. A group of one is -X on two states, a group of two
splits into three symmetric states and one antisymmetric one, and a
diagonal without groups of two or more is one block, the dense matrix. The
spectrum is the sorted union of the blocks' eigenvalues; a block's samples
are diagonalized in stacks of at most 64 KB, or one at a time.

A qubit joins a group when d, read at each basis state's representative
(its state of the same weights set on the groups' first qubits) under the
groups so far with this qubit joined, moves by at most tol = 64 eps max(1,
max|d|). The blocks are exact for the diagonal read at the representatives,
which is within tol of d, so by Weyl's inequality every eigenvalue is within
|B(t)| tol of H(t)'s.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._atomic import write_csv_atomic
from ._guards import array, integer, real, typed
from .evolution import AnnealSchedule
from .hamiltonians import (
    DEGENERACY_TOL,
    _check_driver,
    _check_qubit_count,
    _finite_diagonal,
    _register_size,
)

__all__ = [
    "SpectrumTrace",
    "instantaneous_spectrum",
    "spectrum_trace",
    "min_gap",
    "write_spectrum_csv",
]

# most samples one trace may take: about 200 times the figure default of 201
_SAMPLE_LIMIT = 40_000

# most doubles one stacked eigvalsh call takes (64 KB); a larger block
# goes one sample at a time
_STACK_DOUBLES = 1 << 13


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
            object.__setattr__(self, name, array(getattr(self, name), name))
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


def _representatives(index: np.ndarray, groups: list, flip: int) -> np.ndarray:
    """Each basis state's representative: in the frame of `flip`, its weight
    in each group set on the group's first qubits."""
    frame = index ^ flip
    rep = frame.copy()
    for group in groups:
        first = np.cumsum([0] + [1 << q for q in group])  # the first w qubits, by w
        rep = rep & ~first[-1] | first[sum(frame >> q & 1 for q in group)]
    return rep ^ flip


def _groups(d: np.ndarray) -> tuple[list, int]:
    """Qubit groups and flip mask; each qubit joins the first group, plainly
    before flipped, whose representatives leave d unchanged within the
    tolerance of the module docstring, or starts a group of its own."""
    tol = 64 * np.finfo(np.float64).eps * max(1.0, float(np.abs(d).max()))
    index = np.arange(d.size)
    groups, flip = [], 0
    for q in range(_register_size(d.size)):
        for group, flipped in product(groups, (0, 1)):
            group.append(q)
            if np.abs(d[_representatives(index, groups, flip | flipped << q)] - d).max() <= tol:
                flip |= flipped << q
                break
            group.pop()
        else:
            groups.append([q])
    return groups, flip


def _blocks(d: np.ndarray):
    """Yield the (H0 block, H1 diagonal, count) of each block of d's groups."""
    groups, flip = _groups(d)
    for lows in product(*(range(len(group) // 2 + 1) for group in groups)):
        driver, offsets, count = np.zeros((1, 1)), np.zeros(1, dtype=np.int64), 1
        for group, low in zip(groups, lows):
            k = len(group)
            w = np.arange(low, k - low + 1)  # the multiplet's weights
            spin = np.diag(-np.sqrt((w[:-1] - low + 1) * (k - low - w[:-1])), 1)
            driver = (np.kron(driver, np.eye(w.size))
                      + np.kron(np.eye(len(driver)), spin + spin.T))
            offsets = (offsets[:, None] + np.cumsum([0] + [1 << q for q in group])[w]).ravel()
            count *= math.comb(k, low) - (math.comb(k, low - 1) if low else 0)
        yield driver, d[offsets ^ flip], count


def _spectra(h0, h1, schedule: AnnealSchedule, times) -> np.ndarray:
    """Ascending eigenvalues of A(t) H0 + B(t) H1, one row per time."""
    d = _finite_diagonal(h1)
    n = _check_qubit_count(_register_size(d.size))
    if (h0 := array(h0, "h0")).shape != (d.size, d.size):
        raise ValueError(f"h0 must be {d.size} x {d.size} to match H1, got shape {h0.shape}")
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
    for driver, diagonal, count in _blocks(d):
        dim = diagonal.size
        chunk = max(1, _STACK_DOUBLES // dim**2)
        for low in range(0, len(times), chunk):
            rows = slice(low, low + chunk)
            stack = a[rows, None, None] * driver
            stack.reshape(len(stack), -1)[:, :: dim + 1] += b[rows, None] * diagonal
            energies[rows, start:start + dim * count] = np.tile(np.linalg.eigvalsh(stack), count)
        start += dim * count
    energies.sort(axis=1)
    return energies


def instantaneous_spectrum(h0, h1, schedule: AnnealSchedule, t: float) -> np.ndarray:
    """All eigenvalues of A(t) H0 + B(t) H1 in ascending order."""
    t = real(t, "t", 0.0, typed(schedule, "schedule", AnnealSchedule).total_time * (1 + 1e-12))
    return _spectra(h0, h1, schedule, [t])[0]


def spectrum_trace(h0, h1, schedule: AnnealSchedule, num_samples: int = 101) -> SpectrumTrace:
    """Spectrum on a uniform time grid including both endpoints."""
    num_samples = integer(num_samples, "num_samples", 2)
    if num_samples > _SAMPLE_LIMIT:
        raise ValueError(f"{num_samples} samples exceed the limit of {_SAMPLE_LIMIT}")
    times = np.linspace(0.0, typed(schedule, "schedule", AnnealSchedule).total_time, num_samples)
    return SpectrumTrace(times=times, energies=_spectra(h0, h1, schedule, times))


def min_gap(trace: SpectrumTrace) -> tuple[float, float]:
    """Minimum gap above the ground manifold, and the time where it occurs.

    Returns (gap, t_at_min). The manifold dimension is the multiplicity of the
    final-time ground eigenvalue within `hamiltonians.DEGENERACY_TOL`; if the manifold spans
    the whole spectrum the gap is 0 at t = T by convention.
    """
    typed(trace, "trace", SpectrumTrace)
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
    typed(trace, "trace", SpectrumTrace)
    write_csv_atomic(
        path,
        ["t"] + [f"E_{i}" for i in range(trace.energies.shape[1])],
        ([f"{t:.17g}"] + [f"{e:.17g}" for e in row]
         for t, row in zip(trace.times, trace.energies)),
    )
