"""Transverse-field and Ising Hamiltonians on the 2^n computational basis.

The driver Hamiltonian is H0 = -sum_i X_i, whose ground state is the uniform
superposition at energy -n. The problem Hamiltonian is diagonal in the
computational basis and is defined so that its diagonal entry for basis state
s is exactly the network energy E(z; theta) of the spin pattern z encoded by
s, with couplings J = w and fields h = theta. Ordering is little endian
throughout: qubit i is bit 2**i of the state label (see `patterns`).

States and spectra are dense, which is the point: the package targets small
registers (n <= 12 by default) where full 2^n state vectors and spectra are
exact and cheap. The dense driver matrix serves the spectra and registers up
to n = 6; the propagator applies the driver of larger registers as a
Kronecker split of two small cached matrices (see `evolution`), so it never
forms the 2^n x 2^n driver there. H1 is only ever held as its diagonal: the
propagator, the spectra and `ground_state_mass` take an `IsingHamiltonian`
or its diagonal and reject one with a non-finite entry.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._guards import array, integer
from .network import _thresholds
from .patterns import all_patterns, as_pattern, pattern_to_index

__all__ = [
    "MAX_QUBITS",
    "QubitBudgetError",
    "transverse_field_hamiltonian",
    "IsingHamiltonian",
    "ising_hamiltonian",
    "uniform_superposition",
    "answer_overlap",
    "ground_state_mass",
    "DEGENERACY_TOL",
]

MAX_QUBITS = 12

# energies within this distance of the lowest one belong to the ground manifold
DEGENERACY_TOL = 1e-9


class QubitBudgetError(ValueError):
    """Register size would exceed the dense-simulation cap."""


def _check_qubit_count(n: int) -> int:
    """`n` as a qubit count, an integer of at least 1; `QubitBudgetError` above MAX_QUBITS."""
    if (n := integer(n, "n", 1)) > MAX_QUBITS:
        raise QubitBudgetError(
            f"n={n} qubits needs a dense 2^{n}-dimensional basis; cap is {MAX_QUBITS}"
        )
    return n


@lru_cache(maxsize=8)
def _transverse_field_cached(n: int) -> np.ndarray:
    dim = 1 << n
    h = np.zeros((dim, dim))
    for s in range(dim):
        for i in range(n):
            h[s, s ^ (1 << i)] = -1.0
    h.setflags(write=False)
    return h


def _register_size(dim: int) -> int:
    """n for a diagonal of 2^n entries; any other length is a ValueError."""
    n = dim.bit_length() - 1
    if dim < 1 or dim != 1 << n:
        raise ValueError(f"diagonal length {dim} is not a power of two")
    return n


def _check_driver(h0, n: int) -> None:
    """Refuse an `h0` that is not `transverse_field_hamiltonian(n)`."""
    if not np.array_equal(h0, _transverse_field_cached(n)):
        raise ValueError(f"h0 is not the {n}-qubit driver -sum_i X_i")


def transverse_field_hamiltonian(n: int) -> np.ndarray:
    """Dense matrix of -sum_i X_i; entry -1 between states differing in one bit."""
    return _transverse_field_cached(_check_qubit_count(n)).copy()


@dataclass(frozen=True)
class IsingHamiltonian:
    """Diagonal problem Hamiltonian with couplings J_ij and fields h_i."""

    couplings: np.ndarray
    fields: np.ndarray
    n: int

    def diagonal(self) -> np.ndarray:
        """Energies of all 2^n basis states, index-aligned with the basis."""
        z = all_patterns(self.n).astype(np.float64)
        # an overflow shows up as a non-finite entry, which consumers reject
        with np.errstate(over="ignore", invalid="ignore"):
            quad = np.einsum("si,ij,sj->s", z, self.couplings, z)
            return -0.5 * quad - z @ self.fields


def _finite_diagonal(h1, ndim: int = 1) -> np.ndarray:
    """H1's diagonal as float64, from an `IsingHamiltonian` or an `ndim`-D array
    of diagonals; raises `FloatingPointError` if an entry is not finite."""
    if isinstance(h1, IsingHamiltonian):
        h1 = h1.diagonal()
    d = array(h1, "problem Hamiltonian")
    if not np.isfinite(d).all():
        raise FloatingPointError("problem Hamiltonian is not finite")
    if d.ndim != ndim:
        raise ValueError(f"problem Hamiltonian must be {ndim}-D diagonals, got a {d.ndim}-D array")
    return d


def ising_hamiltonian(weights, bias) -> IsingHamiltonian:
    """Build the problem Hamiltonian from synaptic weights and a recall bias.

    ``bias`` is a `network.BiasSpec` or None (zero thresholds). The basis-state
    energies reproduce `network.network_energy` exactly, so the quantum ground
    state is the classical energy minimizer.
    """
    w = array(weights, "weights")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weights must be square, got shape {w.shape}")
    n = _check_qubit_count(w.shape[0])
    return IsingHamiltonian(couplings=w.copy(), fields=_thresholds(bias, n), n=n)


def uniform_superposition(n: int) -> np.ndarray:
    """Ground state of the driver: all 2^n amplitudes equal to 2^(-n/2)."""
    dim = 1 << _check_qubit_count(n)
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)


def answer_overlap(state, answer) -> float:
    """Probability |<answer|psi>|^2 of measuring the given spin pattern."""
    psi = array(state, "state", complex)
    z = as_pattern(answer)
    if psi.shape != (1 << z.size,):
        raise ValueError(
            f"state dimension {psi.shape} does not match 2^{z.size} for the answer"
        )
    return float(np.abs(psi[pattern_to_index(z)]) ** 2)


def ground_state_mass(state, hamiltonian) -> float:
    """Total probability the state assigns to the ground manifold of H1,
    given as an `IsingHamiltonian` or its diagonal."""
    diag = _finite_diagonal(hamiltonian)
    members = np.abs(diag - diag.min()) <= DEGENERACY_TOL
    return float(np.sum(np.abs(np.asarray(state)[members]) ** 2))
