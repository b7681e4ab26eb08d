"""Schrodinger evolution of the annealing Hamiltonian H(t) = A(t) H0 + B(t) H1.

The register starts in the uniform superposition (ground state of H0) and is
advanced over uniform steps with a first-order Magnus propagator,

    U(t, t+dt) = exp(-i * integral_t^{t+dt} H(tau) dtau)
               = exp(-i * dt * [A(t + dt/2) H0 + B(t + dt/2) H1])

where the midpoint evaluation equals the integral exactly for schedules linear
in t (the default A = 1 - t/T, B = t/T). The exponential acts on the state
directly through a truncated Taylor series with an a-priori term bound and
automatic sub-stepping, keeping each action accurate to ~1e-14 -- comfortably
inside the 1e-12 budget -- without ever forming the dense exponential.

`evolve_batch` holds the one time loop and shares the work across problem
instances: H0 = -sum_i X_i depends only on the register size, so a whole
ensemble (or a single instance, as a batch of one) evolves with one driver
action per Taylor term, which the propagator builds from n. H0 is real, so
the action runs as real matrix products on the interleaved real/imaginary
view of the state block. Up to n = 6 it is one dense 2^n x 2^n GEMM. From
n = 7 it uses the exact split

    H0(n) = I_{2^(n-5)} (x) H0(5) + H0(n-5) (x) I_32,

a batched 32 x 32 product over the low five qubits plus a 2^(n-5) square
GEMM over the rest, which costs O(2^n (32 + 2^(n-5))) per column instead of
O(4^n). With 20 columns on two OpenBLAS threads of a 2-CPU Intel Xeon, one
driver action took 8 us dense against 11 us split at n = 6, 30 against 17 us
at n = 7, 99 against 33 us at n = 8 and 30 ms against 1.1 ms at n = 12.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonians import _check_qubit_count, _finite_diagonal, _transverse_field_cached

__all__ = [
    "AnnealSchedule",
    "ConvergenceError",
    "magnus_step",
    "evolve_batch",
    "check_halving",
    "DEFAULT_DT",
]

DEFAULT_DT = 0.1

# Taylor-action tuning: per-step truncation tolerance, max terms, and the
# generator-norm threshold above which a step is split into equal sub-steps.
_STEP_TOL = 1e-14
_KMAX = 45
_THETA = 3.5
_LOGFACT = np.cumsum(np.log(np.arange(1, _KMAX + 2)))

# largest change of the final overlap accepted when dt is halved
_HALVING_TOL = 1e-6

# registers up to this size apply H0 as one dense GEMM; larger ones use the
# Kronecker split over the lowest _LOW_QUBITS qubits and the rest
_DENSE_MAX_QUBITS = 6
_LOW_QUBITS = 5

# most propagator sub-steps one anneal may take: 200 times the longest run of
# the acceptance criteria (T = 5000 at dt = 0.1, 5e4 one-split steps)
_WORK_LIMIT = 10**7

# most amplitudes one state block may hold: about 40 times the largest ensemble
# cell in use (n = 10, N = 100); a complex buffer of this size takes 64 MB
_BLOCK_LIMIT = 1 << 22


@dataclass(frozen=True)
class AnnealSchedule:
    """Annealing schedule weights A(t), B(t) over [0, total_time]."""

    total_time: float
    driver_weight: Callable[[float], float]
    problem_weight: Callable[[float], float]

    def __post_init__(self):
        if not (np.isfinite(self.total_time) and self.total_time > 0):
            raise ValueError(f"total_time must be positive and finite, got {self.total_time}")

    @classmethod
    def linear(cls, total_time: float) -> "AnnealSchedule":
        """The default ramp A(t) = 1 - t/T, B(t) = t/T."""
        return cls(
            total_time=float(total_time),
            driver_weight=lambda t: 1.0 - t / total_time,
            problem_weight=lambda t: t / total_time,
        )


class ConvergenceError(RuntimeError):
    """Halving the time step moved the result more than the tolerance."""


def _taylor_terms(rho: float, tol: float = _STEP_TOL) -> int:
    """Smallest K with rho^(K+1) / (K+1)! <= tol (remainder bound)."""
    if rho <= 0.0:
        return 1
    ks = np.arange(1, _KMAX + 1)
    log_rem = (ks + 1) * np.log(rho) - _LOGFACT[1 : _KMAX + 1]
    hits = np.flatnonzero(log_rem <= np.log(tol))
    return int(ks[hits[0]]) if hits.size else _KMAX


class _BatchPropagator:
    """Applies exp(-i*dt*(a*H0 + b*diag_m)) to a block of states.

    States live in a (dim, M) complex array, one instance per column with its
    own problem diagonal, so `diagonals` is (dim, M) too. The driver H0 of
    the n = log2(dim) qubit register is built here, dense up to
    _DENSE_MAX_QUBITS and as the Kronecker split above. Buffers are
    allocated once and reused per step.
    """

    def __init__(self, diagonals: np.ndarray):
        d = _finite_diagonal(diagonals, ndim=2)  # (dim, M)
        self.dim, count = d.shape
        self.n = self.dim.bit_length() - 1
        if self.dim < 1 or self.dim != 1 << self.n:
            raise ValueError(f"diagonal length {self.dim} is not a power of two")
        _check_block(self.n, count)
        self.d2 = np.repeat(d, 2, axis=1)  # matches the re/im interleaved view
        self.h0_scale = float(self.n)  # largest row sum of |H0|: n bit flips
        self.d_scale = float(np.abs(d).max())
        self.term = np.empty((self.dim, count), dtype=complex)
        self.work = np.empty_like(self.term)
        if self.n <= _DENSE_MAX_QUBITS:
            self.h0 = _transverse_field_cached(self.n)
            return
        # H0(n) = I (x) H0(low) + H0(high) (x) I on the index s = hi * 2^low + lo
        self.h0_low = _transverse_field_cached(_LOW_QUBITS)
        self.h0_high = _transverse_field_cached(self.n - _LOW_QUBITS)
        self.high_part = np.empty_like(self.term)

    def splits(self, a: float, b: float, dt: float) -> tuple[float, float]:
        """Norm bound rho of dt*(a*H0 + b*D) and the equal sub-steps that keep
        each one's bound under _THETA, as a Python float (inf when rho overflows)."""
        rho = abs(dt) * (abs(a) * self.h0_scale + abs(b) * self.d_scale)
        return rho, max(1.0, float(np.ceil(rho / _THETA)))

    def step(self, psi: np.ndarray, a: float, b: float, dt: float) -> np.ndarray:
        """Advance the block by one propagator application, in place."""
        rho, splits = self.splits(a, b, dt)
        h = dt / splits
        n_terms = _taylor_terms(rho / splits)
        term, work = self.term, self.work
        term_v = term.view(np.float64)
        work_v = work.view(np.float64)
        psi_v = psi.view(np.float64)
        dense = self.n <= _DENSE_MAX_QUBITS
        if dense:
            a_h0 = a * self.h0
        else:
            a_low, a_high = a * self.h0_low, a * self.h0_high
            high_v = self.high_part.view(np.float64)
            # views of the contiguous buffers: (hi, lo, 2M) and (hi, lo * 2M)
            blocks = (a_high.shape[0], a_low.shape[0], -1)
            term_low, work_low = term_v.reshape(blocks), work_v.reshape(blocks)
            term_high, high_part = term_v.reshape(blocks[0], -1), high_v.reshape(blocks[0], -1)
        b_d2 = b * self.d2
        for _ in range(int(splits)):
            np.copyto(term, psi)
            for k in range(1, n_terms + 1):
                if dense:
                    np.dot(a_h0, term_v, out=work_v)    # a*H0 @ term (real GEMM)
                else:
                    np.matmul(a_low, term_low, out=work_low)    # I (x) a*H0(low)
                    np.dot(a_high, term_high, out=high_part)    # a*H0(high) (x) I
                    np.add(work_v, high_v, out=work_v)
                np.multiply(b_d2, term_v, out=term_v)   # b*diag * term
                np.add(term_v, work_v, out=term_v)
                np.multiply(term, -1j * h / k, out=term)
                np.add(psi_v, term_v, out=psi_v)
        return psi


def _check_dt(dt: float) -> None:
    # the schedule has already checked its total time
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _check_block(n: int, count: int) -> None:
    """Refuse a block of `count` n-qubit states above the register cap or `_BLOCK_LIMIT`."""
    _check_qubit_count(n)
    if count << n > _BLOCK_LIMIT:
        raise ValueError(
            f"{count} states of {n} qubits hold {count << n:.3g} amplitudes "
            f"(limit {_BLOCK_LIMIT:.3g}); lower N"
        )


def _check_work(prop: _BatchPropagator, steps: float, dt: float, total_time: float) -> None:
    """Refuse a run whose sub-step count would exceed `_WORK_LIMIT`.

    Each step is counted at full schedule weight, an upper bound on the
    splits `_BatchPropagator.step` takes for schedules with weights in [0, 1].
    """
    work = steps * prop.splits(1.0, 1.0, dt)[1]
    if work > _WORK_LIMIT:
        raise ValueError(
            f"T={total_time:g} at dt={dt:g} needs about {work:.3g} propagator sub-steps "
            f"(limit {_WORK_LIMIT:.0e}); shorten T or lower gamma"
        )


def magnus_step(state, h0, diagonal, schedule: AnnealSchedule, t: float, dt: float) -> np.ndarray:
    """Single first-order Magnus step from t to t + dt; `diagonal` is H1's diagonal.

    `h0` must be `transverse_field_hamiltonian(n)` for the diagonal's n: the
    propagator applies that driver itself.
    """
    _check_dt(dt)
    if t < 0 or t + dt > schedule.total_time * (1 + 1e-12):
        raise ValueError(f"step [{t}, {t + dt}] lies outside [0, {schedule.total_time}]")
    prop = _BatchPropagator(np.asarray(diagonal, dtype=np.float64)[:, None])
    if not np.array_equal(h0, _transverse_field_cached(prop.n)):
        raise ValueError(f"h0 is not the {prop.n}-qubit driver -sum_i X_i")
    _check_work(prop, 1, dt, schedule.total_time)
    psi = np.array(state, dtype=complex).reshape(-1, 1)
    if psi.shape[0] != prop.dim:
        raise ValueError("state dimension does not match the Hamiltonians")
    t_mid = t + dt / 2.0
    a = float(schedule.driver_weight(t_mid))
    b = float(schedule.problem_weight(t_mid))
    return prop.step(psi, a, b, dt)[:, 0]


def _prepare(diagonals: np.ndarray, total_time: float, dt: float):
    """The propagator of `diagonals` (dim, M) and the step count of an anneal
    over [0, total_time]; refuses a bad dt and a run over the work budget."""
    _check_dt(dt)
    prop = _BatchPropagator(diagonals)
    steps = max(1.0, np.ceil(total_time / dt * (1.0 - 1e-9)))  # inf when T / dt overflows
    _check_work(prop, steps, dt, total_time)
    return prop, steps


def _check_anneal(n: int, count: int, total_time: float, dt: float) -> None:
    """Refuse, before any diagonal exists, an anneal of `count` n-qubit
    instances that `evolve_batch` refuses whatever their diagonals: a block
    over `_BLOCK_LIMIT`, or a run over the work budget at zero problem scale."""
    _check_block(n, count)
    _prepare(np.zeros((1 << n, 1)), total_time, dt)


def evolve_batch(diagonals, schedule: AnnealSchedule, dt: float = DEFAULT_DT) -> np.ndarray:
    """Evolve the uniform superposition to t = T once per problem diagonal.

    Rows of shape (M, 2^n) in and out. All instances share the same register
    size, schedule, and time step, so the batch advances in lock step with
    shared matrix products. Step k starts at t_k = k * dt and the last one
    ends exactly on T, shorter when dt does not divide T; a remainder under
    1e-9 T joins the last step instead of making a step of its own.
    """
    diagonals = np.atleast_2d(np.asarray(diagonals, dtype=np.float64))
    count, dim = diagonals.shape
    total = schedule.total_time
    prop, steps = _prepare(diagonals.T, total, dt)
    psi = np.full((dim, count), 1.0 / np.sqrt(dim), dtype=complex)
    for k in range(int(steps)):
        t = k * dt
        h = dt if k < steps - 1 else total - t
        t_mid = t + h / 2.0
        a = float(schedule.driver_weight(t_mid))
        b = float(schedule.problem_weight(t_mid))
        psi = prop.step(psi, a, b, h)
    return psi.T


def check_halving(q_full: float, q_half: float, dt: float) -> None:
    """Raise `ConvergenceError` if the overlaps at dt and dt/2 differ by more than _HALVING_TOL."""
    if (moved := abs(q_full - q_half)) > _HALVING_TOL:
        raise ConvergenceError(
            f"overlap moved by {moved:.3e} (> {_HALVING_TOL:g}) when halving dt={dt}"
        )
