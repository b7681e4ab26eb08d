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
One Taylor recurrence serves every block; its first term reads the state
itself, so no sub-step copies it. A single recall, a dense block of one
column, folds the problem diagonal into the zero diagonal of the scaled
driver, which only skips the diagonal product: an n = 5 step (about 13
terms) took 27 us on the same machine, where five calls per term took 41 us.

One pure pre-flight, `_check_anneal`, returns an anneal's step count and
refuses a runaway one before any buffer exists; it reads only (n, M, T, dt)
and the problem scale, so a sweep runs it once per annealing time.
"""

import math
from bisect import bisect_left
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

# OpenBLAS runs a GEMM of m*n*k multiply-adds on one thread below twice its
# threshold (GEMM_MULTITHREAD_THRESHOLD 4 x SMP_THRESHOLD_MIN 65536)
_BLAS_ONE_THREAD_MNK = 2 * 4 * 65536

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


def _term_bounds() -> list:
    """Largest rho that K Taylor terms cover, for K = 1.._KMAX - 1.

    K terms cover rho when some k <= K has the remainder bound
    rho^(k+1) / (k+1)! <= _STEP_TOL, evaluated as (k + 1) * log(rho) -
    log((k+1)!) <= log(_STEP_TOL) with numpy's log (math.log differs in the
    last bit). Each k's largest such float is found by stepping one float at
    a time from the closed-form bound, which is a few floats off.
    """
    log_tol = float(np.log(_STEP_TOL))
    bounds = [0.0]
    for k, log_fact in enumerate(_LOGFACT[1:_KMAX].tolist(), start=1):
        def covered(rho):
            return (k + 1) * float(np.log(rho)) - log_fact <= log_tol

        rho = float(np.exp((log_tol + log_fact) / (k + 1)))
        while covered(rho):
            rho = math.nextafter(rho, math.inf)
        while not covered(rho):
            rho = math.nextafter(rho, 0.0)
        bounds.append(max(bounds[-1], rho))
    return bounds[1:]


_TERM_BOUNDS = _term_bounds()


def _taylor_terms(rho: float) -> int:
    """Smallest K with rho^(K+1) / (K+1)! <= _STEP_TOL (remainder bound);
    _KMAX when none is, or when rho is nan."""
    if rho <= _TERM_BOUNDS[-1]:
        return bisect_left(_TERM_BOUNDS, rho) + 1
    return _KMAX


def _splits(rho: float) -> float:
    """Equal sub-steps that keep the norm bound `rho` of one step under
    _THETA each, as a Python float (inf when rho overflows)."""
    return max(1.0, float(np.ceil(rho / _THETA)))


def _one_thread_columns(n: int) -> int:
    """Most columns a block of n-qubit states may hold while every driver
    product of a step stays under `_BLAS_ONE_THREAD_MNK` multiply-adds; 0 if
    one column is already over. Dense, the product is (2^n x 2^n) @ (2^n x
    2M); split, it is (32 x 32) @ (32 x 2M) per high index and (h x h) @
    (h x 32 * 2M) with h = 2^(n - 5)."""
    if n <= _DENSE_MAX_QUBITS:
        per_column = 2 * 4**n
    else:
        high = 2 ** (n - _LOW_QUBITS)
        per_column = max(2 * 4**_LOW_QUBITS, high * high * 2**(_LOW_QUBITS + 1))
    return (_BLAS_ONE_THREAD_MNK - 1) // per_column


def _check_anneal(n: int, count: int, total_time: float, dt: float,
                  d_scale: float = 0.0) -> int:
    """Steps `evolve_batch` takes over [0, total_time] for `count` n-qubit
    states with |diagonal| <= d_scale; refuses a bad dt, a register over the
    cap, an empty block, one over `_BLOCK_LIMIT` and a run over `_WORK_LIMIT`
    sub-steps, each step counted at full schedule weight (a bound for weights
    in [0, 1])."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    _check_qubit_count(n)
    if count < 1:
        raise ValueError(f"need at least one problem diagonal to anneal, got {count}")
    if count << n > _BLOCK_LIMIT:
        raise ValueError(
            f"{count} states of {n} qubits hold {count << n:.3g} amplitudes "
            f"(limit {_BLOCK_LIMIT:.3g}); lower N"
        )
    steps = max(1.0, np.ceil(total_time / dt * (1.0 - 1e-9)))  # inf when T / dt overflows
    work = steps * _splits(dt * (n + d_scale))
    if work > _WORK_LIMIT:
        raise ValueError(
            f"T={total_time:g} at dt={dt:g} needs about {work:.3g} propagator sub-steps "
            f"(limit {_WORK_LIMIT:.0e}); shorten T or lower gamma"
        )
    return int(steps)


class _BatchPropagator:
    """Applies exp(-i*dt*(a*H0 + b*diag_m)) to a block of states.

    States live in a (dim, M) complex array, one instance per column with its
    own problem diagonal, so `diagonals` is (dim, M) too. The driver H0 of
    the n = log2(dim) qubit register is built here, dense up to
    _DENSE_MAX_QUBITS and as the Kronecker split above. `steps` is the
    pre-flight's count for [0, total_time]; the buffers, allocated after it,
    are reused per step, the scaled driver a*H0 and problem b*diag included.
    One Taylor loop serves every block; one dense column folds b*diag into
    the zero diagonal of a*H0, which only skips the diagonal product.
    """

    def __init__(self, diagonals: np.ndarray, total_time: float, dt: float):
        d = _finite_diagonal(diagonals, ndim=2)  # (dim, M)
        self.dim, count = d.shape
        self.n = self.dim.bit_length() - 1
        if self.dim < 1 or self.dim != 1 << self.n:
            raise ValueError(f"diagonal length {self.dim} is not a power of two")
        self.d_scale = float(np.abs(d).max(initial=0.0))  # no column: refused below
        self.steps = _check_anneal(self.n, count, total_time, dt, self.d_scale)
        self.term = np.empty((self.dim, count), dtype=complex)
        self.work = np.empty_like(self.term)
        # the re/im interleaved views the real products act on: (dim, 2M)
        self.term_v = self.term.view(np.float64)
        self.work_v = self.work.view(np.float64)
        self.scales = {}  # sub-step h -> [-1j * h / k for k = 1.._KMAX]
        self.dense = self.n <= _DENSE_MAX_QUBITS
        self.fold = count == 1 and self.dense
        if self.dense:
            self.h0 = _transverse_field_cached(self.n)
            self.a_h0 = np.empty_like(self.h0)
        if self.fold:  # b*d goes on the zero diagonal of a*H0
            self.d, self.b_d = d[:, 0], self.a_h0.reshape(-1)[:: self.dim + 1]
        else:  # repeated to match the re/im interleaved view
            self.d = np.repeat(d, 2, axis=1)
            self.b_d = np.empty_like(self.d)
        if self.dense:
            return
        # H0(n) = I (x) H0(low) + H0(high) (x) I on the index s = hi * 2^low + lo
        self.h0_low = _transverse_field_cached(_LOW_QUBITS)
        self.h0_high = _transverse_field_cached(self.n - _LOW_QUBITS)
        self.a_low, self.a_high = np.empty_like(self.h0_low), np.empty_like(self.h0_high)
        self.high_v = np.empty_like(self.term_v)
        # views of the contiguous buffers: (hi, lo, 2M) and (hi, lo * 2M)
        self.blocks = blocks = (self.h0_high.shape[0], self.h0_low.shape[0], -1)
        self.term_low, self.work_low = self.term_v.reshape(blocks), self.work_v.reshape(blocks)
        self.term_high = self.term_v.reshape(blocks[0], -1)
        self.high_rows = self.high_v.reshape(blocks[0], -1)

    def step(self, psi: np.ndarray, a: float, b: float, dt: float) -> np.ndarray:
        """Advance the block by one propagator application, in place."""
        rho = abs(dt) * (abs(a) * self.n + abs(b) * self.d_scale)  # |H0| row sums: n
        splits = _splits(rho)
        h = dt / splits
        if (scales := self.scales.get(h)) is None:
            scales = self.scales[h] = [-1j * h / k for k in range(1, _KMAX + 1)]
        scales = scales[:_taylor_terms(rho / splits)]
        dense, fold = self.dense, self.fold
        term, work, term_v, work_v = self.term, self.work, self.term_v, self.work_v
        psi_v = psi.view(np.float64)
        if dense:
            a_h0 = np.multiply(self.h0, a, out=self.a_h0)
        else:
            a_low = np.multiply(self.h0_low, a, out=self.a_low)
            a_high = np.multiply(self.h0_high, a, out=self.a_high)
            psi_split = psi_v.reshape(self.blocks), psi_v.reshape(self.blocks[0], -1)
            term_split = self.term_low, self.term_high
        b_d = np.multiply(self.d, b, out=self.b_d)  # folded: a_h0 = a*H0 + b*diag
        for _ in range(int(splits)):
            source = psi_v  # the first term reads psi itself
            for scale in scales:
                if dense:
                    np.dot(a_h0, source, out=work_v)    # a*H0 @ source (real GEMM)
                else:
                    low, high = psi_split if source is psi_v else term_split
                    np.matmul(a_low, low, out=self.work_low)    # I (x) a*H0(low)
                    np.dot(a_high, high, out=self.high_rows)    # a*H0(high) (x) I
                    np.add(work_v, self.high_v, out=work_v)
                if not fold:
                    np.multiply(b_d, source, out=term_v)    # b*diag * source
                    np.add(work_v, term_v, out=work_v)
                np.multiply(work, scale, out=term)
                np.add(psi_v, term_v, out=psi_v)
                source = term_v
        return psi


def magnus_step(state, h0, diagonal, schedule: AnnealSchedule, t: float, dt: float) -> np.ndarray:
    """Single first-order Magnus step from t to t + dt; `diagonal` is H1's diagonal.

    `h0` must be `transverse_field_hamiltonian(n)` for the diagonal's n: the
    propagator applies that driver itself.
    """
    # a single step over [0, dt]; its pre-flight checks dt before the window does
    prop = _BatchPropagator(np.asarray(diagonal, dtype=np.float64)[:, None], dt, dt)
    if t < 0 or t + dt > schedule.total_time * (1 + 1e-12):
        raise ValueError(f"step [{t}, {t + dt}] lies outside [0, {schedule.total_time}]")
    if not np.array_equal(h0, _transverse_field_cached(prop.n)):
        raise ValueError(f"h0 is not the {prop.n}-qubit driver -sum_i X_i")
    psi = np.array(state, dtype=complex).reshape(-1, 1)
    if psi.shape[0] != prop.dim:
        raise ValueError("state dimension does not match the Hamiltonians")
    t_mid = t + dt / 2.0
    a = float(schedule.driver_weight(t_mid))
    b = float(schedule.problem_weight(t_mid))
    return prop.step(psi, a, b, dt)[:, 0]


def evolve_batch(diagonals, schedule: AnnealSchedule, dt: float = DEFAULT_DT) -> np.ndarray:
    """Evolve the uniform superposition to t = T once per problem diagonal.

    Rows of shape (M, 2^n) in and out. All instances share the same register
    size, schedule, and time step, so the batch advances in lock step with
    shared matrix products. Step k starts at t_k = k * dt and the last one
    ends exactly on T, shorter when dt does not divide T; a remainder under
    1e-9 T joins the last step instead of making a step of its own.
    """
    total = schedule.total_time
    prop = _BatchPropagator(np.atleast_2d(diagonals).T, total, dt)
    psi = np.full(prop.term.shape, 1.0 / np.sqrt(prop.dim), dtype=complex)
    for k in range(prop.steps):
        t = k * dt
        h = dt if k < prop.steps - 1 else total - t
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
