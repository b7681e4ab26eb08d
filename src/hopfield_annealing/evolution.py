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
instances: H0 depends only on the register size, so a whole ensemble (or a
single instance, as a batch of one) evolves with one matrix product per
Taylor term. H0 is real, which lets the product run as a real GEMM on the
interleaved real/imaginary view of the state block.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hamiltonians import transverse_field_hamiltonian

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

# most propagator sub-steps one anneal may take: 200 times the longest run of
# the acceptance criteria (T = 5000 at dt = 0.1, 5e4 one-split steps)
_WORK_LIMIT = 10**7


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
    own problem diagonal, so `diagonals` is (dim, M) too. Buffers are
    allocated once and reused per step.
    """

    def __init__(self, h0: np.ndarray, diagonals: np.ndarray):
        h0 = np.asarray(h0, dtype=np.float64)
        d = np.asarray(diagonals, dtype=np.float64)
        if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise ValueError(f"H0 must be square, got shape {h0.shape}")
        if d.ndim != 2 or d.shape[0] != h0.shape[0]:
            raise ValueError("diagonal length does not match H0 dimension")
        if not np.isfinite(d).all():
            raise FloatingPointError("problem diagonal is not finite")
        self.h0 = h0
        self.dim = h0.shape[0]
        self.d2 = np.repeat(d, 2, axis=1)  # matches the re/im interleaved view
        self.h0_scale = float(np.abs(h0).sum(axis=1).max())
        self.d_scale = float(np.abs(d).max())
        self.term = np.empty((self.dim, d.shape[1]), dtype=complex)
        self.work = np.empty_like(self.term)

    def step(self, psi: np.ndarray, a: float, b: float, dt: float) -> np.ndarray:
        """Advance the block by one propagator application, in place."""
        rho = abs(dt) * (abs(a) * self.h0_scale + abs(b) * self.d_scale)
        splits = max(1, int(np.ceil(rho / _THETA)))
        h = dt / splits
        n_terms = _taylor_terms(rho / splits)
        term, work = self.term, self.work
        term_v = term.view(np.float64)
        work_v = work.view(np.float64)
        psi_v = psi.view(np.float64)
        a_h0 = a * self.h0
        b_d2 = b * self.d2
        for _ in range(splits):
            np.copyto(term, psi)
            for k in range(1, n_terms + 1):
                np.dot(a_h0, term_v, out=work_v)        # a*H0 @ term (real GEMM)
                np.multiply(b_d2, term_v, out=term_v)   # b*diag * term
                np.add(term_v, work_v, out=term_v)
                np.multiply(term, -1j * h / k, out=term)
                np.add(psi_v, term_v, out=psi_v)
        return psi


def _check_dt(dt: float) -> None:
    # the schedule has already checked its total time
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _check_work(prop: _BatchPropagator, steps: float, dt: float, total_time: float) -> None:
    """Refuse a run whose sub-step count would exceed `_WORK_LIMIT`.

    Each step is counted at full schedule weight, an upper bound on the
    splits `_BatchPropagator.step` takes for schedules with weights in [0, 1].
    """
    splits = max(1.0, np.ceil(dt * (prop.h0_scale + prop.d_scale) / _THETA))
    work = steps * splits
    if work > _WORK_LIMIT:
        raise ValueError(
            f"T={total_time:g} at dt={dt:g} needs about {work:.3g} propagator sub-steps "
            f"(limit {_WORK_LIMIT:.0e}); shorten T or lower gamma"
        )


def magnus_step(state, h0, diagonal, schedule: AnnealSchedule, t: float, dt: float) -> np.ndarray:
    """Single first-order Magnus step from t to t + dt; `diagonal` is H1's diagonal."""
    _check_dt(dt)
    if t < 0 or t + dt > schedule.total_time * (1 + 1e-12):
        raise ValueError(f"step [{t}, {t + dt}] lies outside [0, {schedule.total_time}]")
    prop = _BatchPropagator(h0, np.asarray(diagonal, dtype=np.float64)[:, None])
    _check_work(prop, 1, dt, schedule.total_time)
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
    _check_dt(dt)
    diagonals = np.atleast_2d(np.asarray(diagonals, dtype=np.float64))
    count, dim = diagonals.shape
    n = int(np.log2(dim))
    if 1 << n != dim:
        raise ValueError(f"diagonal length {dim} is not a power of two")
    prop = _BatchPropagator(transverse_field_hamiltonian(n), diagonals.T)
    total = schedule.total_time
    steps = max(1.0, np.ceil(total / dt * (1.0 - 1e-9)))  # inf when T / dt overflows
    _check_work(prop, steps, dt, total)
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
