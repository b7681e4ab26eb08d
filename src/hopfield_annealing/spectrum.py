"""Instantaneous spectra of the annealing Hamiltonian and the minimum gap.

The interpolating Hamiltonian H(t) = A(t) H0 + B(t) H1 is diagonalized
exactly at sample times; the minimum gap is measured between the ground
manifold and the first level above it. The manifold dimension d is taken from
the degeneracy of the final-time (t = T) ground energy: eigenvalues within the
degeneracy tolerance of the t = T minimum count as one manifold, and the gap
at each time is E_d(t) - E_0(t). Level crossings along the way are not
tracked, so d is a final-time approximation of the manifold.

H1 is passed as an `IsingHamiltonian` or as its 1-D diagonal of 2^n energies;
a dense 2-D H1 is refused. H(t) is formed as A(t) H0 with B(t) H1 added on
its diagonal.
"""

from dataclasses import dataclass

import numpy as np

from ._atomic import write_csv_atomic
from .evolution import AnnealSchedule
from .hamiltonians import DEGENERACY_TOL, _finite_diagonal
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


@dataclass(frozen=True)
class SpectrumTrace:
    """Sampled eigenvalues: times (S,) and ascending energies (S, 2^n)."""

    times: np.ndarray
    energies: np.ndarray


def instantaneous_spectrum(h0, h1, schedule: AnnealSchedule, t: float) -> np.ndarray:
    """All eigenvalues of A(t) H0 + B(t) H1 in ascending order."""
    if not 0 <= t <= schedule.total_time * (1 + 1e-12):
        raise ValueError(f"t={t} outside [0, {schedule.total_time}]")
    a = float(schedule.driver_weight(t))
    b = float(schedule.problem_weight(t))
    d = _finite_diagonal(h1)
    h = a * np.asarray(h0, dtype=np.float64)
    if h.shape != (d.size, d.size):
        raise ValueError(f"h0 must be {d.size} x {d.size} to match H1, got shape {h.shape}")
    h[np.diag_indices_from(h)] += b * d
    return np.linalg.eigvalsh(h)


def spectrum_trace(h0, h1, schedule: AnnealSchedule, num_samples: int = 101) -> SpectrumTrace:
    """Spectrum on a uniform time grid including both endpoints."""
    num_samples = _integer(num_samples, "num_samples")
    if num_samples < 2:
        raise ValueError(f"need at least 2 samples, got {num_samples}")
    if num_samples > _SAMPLE_LIMIT:
        raise ValueError(f"{num_samples} samples exceed the limit of {_SAMPLE_LIMIT}")
    times = np.linspace(0.0, schedule.total_time, num_samples)
    h1 = _finite_diagonal(h1)
    energies = np.stack([instantaneous_spectrum(h0, h1, schedule, t) for t in times])
    return SpectrumTrace(times=times, energies=energies)


def min_gap(trace: SpectrumTrace) -> tuple[float, float]:
    """Minimum gap above the ground manifold, and the time where it occurs.

    Returns (gap, t_at_min). The manifold dimension is the multiplicity of the
    final-time ground eigenvalue within `hamiltonians.DEGENERACY_TOL`; if the manifold spans
    the whole spectrum the gap is 0 at t = T by convention.
    """
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
    write_csv_atomic(
        path,
        ["t"] + [f"E_{i}" for i in range(trace.energies.shape[1])],
        ([f"{t:.17g}"] + [f"{e:.17g}" for e in row]
         for t, row in zip(trace.times, trace.energies)),
    )
