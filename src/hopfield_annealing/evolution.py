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
O(4^n).

Steps are planned before they run, up to `_PLAN_STEPS` at a time: each
step's schedule weights (called once per step), sub-steps, Taylor terms and
scales a*h, b*h per sub-step, as numpy arrays by the float operations of
`_splits` and `_taylor_terms`, and checked against the work budget before
the first product. One loop then runs them through the body that fits the
block's shape, with no branch per Taylor term; each product is a bound method
of the propagator's own buffer (`a_h0.dot`), which skips numpy's dispatch.
`magnus_step` is a plan of one step.

One power recurrence serves every block. The sub-step h is folded into
the scaled driver and diagonal, u_0 = psi is read in place, and each Taylor
term u_k = (h G) u_(k-1), G = a H0 + b diag, is one driver product into a
stack: one call for a single dense column, which folds b*h*diag into the
zero diagonal of a*h*H0, three for a dense block and five for a split one.
With the -i of the odd terms factored out, exp(-i h G) psi = psi + R0 - i R1,
where R0 sums the even terms (-1)^(k/2) u_k / k! and R1 the odd terms
(-1)^((k-1)/2) u_k / k!. A step takes at most 27 terms. A block whose
(2 x 27) @ (27 x 2M 2^n) combination stays under `_BLAS_ONE_THREAD_MNK`
(up to 151 columns at n = 5, 18 at n = 8, 4 at n = 10) stacks all of a
step's terms, under 2 MB, and adds them with that one real GEMM of two
coefficient rows, on one OpenBLAS thread in a pooled worker. A wider block
adds each term as it comes, (-i)^k u_k / k! in two calls: a stack of one.
The combination must stay a real GEMM: a complex coefficient row makes it
a zgemv, which OpenBLAS threads at far smaller sizes, and which ran pooled
sweeps several times slower.

One pure pre-flight, `_check_anneal`, returns an anneal's step count and
refuses a runaway one before any buffer exists; it reads only (n, M, T, dt)
and the problem scale, so a sweep runs it once per annealing time.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._guards import array, real, typed
from .hamiltonians import (
    _check_driver,
    _check_qubit_count,
    _finite_diagonal,
    _register_size,
    _transverse_field_cached,
)

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

# most propagator sub-steps one anneal may take: each truncates under
# _STEP_TOL, so an admitted anneal drifts its norm by about 1e-9 at most, the
# bound evolve_batch checks; twice the longest run of the acceptance criteria
# (T = 5000 at dt = 0.1, 5e4 one-split steps)
_WORK_LIMIT = 10**5

# most amplitudes one state block may hold: about 40 times the largest ensemble
# cell in use (n = 10, N = 100); a complex buffer of this size takes 64 MB
_BLOCK_LIMIT = 1 << 22

# most steps `evolve_batch` plans at a time: planning a whole T = 1000 anneal
# (10^4 steps) at once raised the peak RSS of sweep_long's ops by 1.3-1.4 MB;
# runs of this length leave it unchanged
_PLAN_STEPS = 1024


@dataclass(frozen=True)
class AnnealSchedule:
    """Annealing schedule weights A(t), B(t) over [0, total_time]."""

    total_time: float
    driver_weight: Callable[[float], float]
    problem_weight: Callable[[float], float]

    def __post_init__(self):
        object.__setattr__(self, "total_time", real(self.total_time, "total_time", positive=True))
        for name in ("driver_weight", "problem_weight"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable, got {getattr(self, name)!r}")

    @classmethod
    def linear(cls, total_time: float) -> "AnnealSchedule":
        """The default ramp A(t) = 1 - t/T, B(t) = t/T."""
        total_time = real(total_time, "total_time", positive=True)
        return cls(
            total_time=total_time,
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
    _THETA each, as a Python float (inf when rho overflows, nan when it is
    nan)."""
    return max(float(np.ceil(rho / _THETA)), 1.0)


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
    states with |diagonal| <= d_scale; refuses a bad dt or total_time, a
    register over the cap, an empty block, one over `_BLOCK_LIMIT` and a run over `_WORK_LIMIT`
    sub-steps, each step counted at full schedule weight (a bound for weights
    in [0, 1])."""
    dt, total_time = real(dt, "dt", positive=True), real(total_time, "total_time", positive=True)
    n = _check_qubit_count(n)
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
    are reused per step, the scaled driver a*h*H0 and problem b*h*diag
    included. `step` plans a run of steps and takes each by the power
    recurrence of the module docstring into a stack of `group` blocks, 27 or
    one, and refuses to take more sub-steps than the `budget` that
    `_WORK_LIMIT` leaves.
    """

    def __init__(self, diagonals: np.ndarray, total_time: float, dt: float):
        d = _finite_diagonal(diagonals, ndim=2)  # (dim, M)
        self.dim, count = d.shape
        self.n = _register_size(self.dim)
        self.d_scale = float(np.abs(d).max(initial=0.0))  # no column: refused below
        self.steps = _check_anneal(self.n, count, total_time, dt, self.d_scale)
        self.budget = _WORK_LIMIT  # sub-steps left to this propagator's steps
        # the real products act on the re/im interleaved view of a block,
        # (dim, 2M). `pair` takes a term's driver products, then (R0, R1) or
        # a scaled term; `term` and `odd` are its complex views
        self.pair = np.empty((2, self.dim, 2 * count))
        self.pair_rows = self.pair.reshape(2, -1)
        self.term, self.odd = self.pair.view(complex)
        # one group takes all of a step's terms, at most _taylor_terms(_THETA)
        # = 27, when its (2 x 27) @ (27 x 2M*dim) combination runs on one
        # OpenBLAS thread; a wider block adds each term as it comes (a group of
        # one), which stacked terms ran slower than (module docstring)
        most = _taylor_terms(_THETA)
        self.group = most if 2 * most * self.pair[0].size < _BLAS_ONE_THREAD_MNK else 1
        self.stack = np.empty((self.group, self.dim, 2 * count))
        self.plans = {}  # Taylor term count -> its plan (`_plan`)
        self.dense = self.n <= _DENSE_MAX_QUBITS
        self.fold = count == 1 and self.dense
        if self.dense:
            self.h0 = _transverse_field_cached(self.n)
            self.a_h0 = np.empty_like(self.h0)
            self.scaled = [(self.h0, self.a_h0)]  # each driver factor and its a*h multiple
        if self.fold:  # b*h*d goes on the zero diagonal of a*h*H0
            self.d, self.b_d = d[:, 0], self.a_h0.reshape(-1)[:: self.dim + 1]
        else:  # repeated to match the re/im interleaved view
            self.d = np.repeat(d, 2, axis=1)
            self.b_d = np.empty_like(self.d)
        if self.dense:
            self.slots = [(u, u) for u in self.stack]  # (u, what a driver product reads)
            return
        # H0(n) = I (x) H0(low) + H0(high) (x) I on the index s = hi * 2^low + lo
        self.h0_low = _transverse_field_cached(_LOW_QUBITS)
        self.h0_high = _transverse_field_cached(self.n - _LOW_QUBITS)
        self.a_low, self.a_high = np.empty_like(self.h0_low), np.empty_like(self.h0_high)
        self.scaled = [(self.h0_low, self.a_low), (self.h0_high, self.a_high)]
        # each block as (hi, lo, 2M) for the low product and (hi, lo * 2M) for the high one
        self.blocks = (self.h0_high.shape[0], self.h0_low.shape[0], -1)
        self.term_low = self.pair[0].reshape(self.blocks)
        self.high_rows = self.pair[1].reshape(self.blocks[0], -1)
        self.slots = [self._views(u) for u in self.stack]

    def _views(self, block: np.ndarray) -> tuple:
        """A (dim, 2M) block and what a driver product reads of it: the block
        itself when dense, its (hi, lo, 2M) and (hi, lo * 2M) views when split."""
        if self.dense:
            return block, block
        return block, (block.reshape(self.blocks), block.reshape(self.blocks[0], -1))

    def _plan(self, terms: int) -> tuple:
        """Per Taylor term k = 1..terms, the stack slot of u_k, then what adds
        the terms to psi: for one group of all of them, the coefficients
        (-1)^(k//2) / k! (even k in row 0, odd k in row 1) and the stack rows;
        for groups of one, slot 0 each time, (-i)^k / k! and its complex view."""
        coef = np.zeros((2, terms))
        for k in range(1, terms + 1):
            coef[k % 2, k - 1] = (-1) ** (k // 2) / math.factorial(k)
        if self.group == 1:
            return ([self.slots[0]] * terms, [c_even - 1j * c_odd for c_even, c_odd in coef.T],
                    self.stack[0].view(complex))
        return self.slots[:terms], coef, self.stack[:terms].reshape(terms, -1)

    def _plan_steps(self, a, b, h) -> tuple:
        """Sub-steps, Taylor terms, a*h/sub-steps and b*h/sub-steps (lists) of
        steps of lengths h at weights a, b, by the float operations of
        `_splits` and `_taylor_terms`; refuses the first step over `budget`
        (a runaway or non-finite weight) before any is taken."""
        a, b, h = (np.asarray(x, dtype=float).reshape(-1) for x in (a, b, h))
        with np.errstate(all="ignore"):  # as Python floats: overflow to inf, inf * 0 to nan
            rho = np.abs(h) * (np.abs(a) * self.n + np.abs(b) * self.d_scale)  # |H0| row sums: n
            splits = np.maximum(np.ceil(rho / _THETA), 1.0)
            spent = np.cumsum(splits)
            if not spent[-1] <= self.budget:
                i = int(np.argmin(spent <= self.budget))
                raise FloatingPointError(
                    f"a step of {h[i]:g} at A={a[i]:g}, B={b[i]:g} needs {splits[i]:.3g} "
                    f"sub-steps, over the {self.budget - (spent[i - 1] if i else 0.0):.3g} "
                    f"left of the anneal's {_WORK_LIMIT:.0e}"
                )
        self.budget -= float(spent[-1])
        h = h / splits
        terms = np.searchsorted(_TERM_BOUNDS, rho / splits) + 1  # bisect_left, as _taylor_terms
        return splits.astype(int).tolist(), terms.tolist(), (a * h).tolist(), (b * h).tolist()

    def step(self, psi: np.ndarray, a, b, h) -> np.ndarray:
        """Advance the block over consecutive steps of lengths h at schedule
        weights a, b (equal-length sequences, or scalars for one step), in place."""
        splits, terms, a_h, b_h = self._plan_steps(a, b, h)
        for k in set(terms) - self.plans.keys():
            self.plans[k] = self._plan(k)
        first = self._views(psi.view(np.float64))  # u_0 is psi itself
        # the body for this block (module docstring); bound here, not kept,
        # so the propagator holds no cycle and frees its buffers when dropped
        body = self._fold if self.fold else self._stacked if self.group > 1 else self._single
        for count, k, ah, bh in zip(splits, terms, a_h, b_h):
            for h0, a_h0 in self.scaled:
                np.multiply(h0, ah, out=a_h0)
            np.multiply(self.d, bh, out=self.b_d)  # folded: a_h0 = h*(a*H0 + b*diag)
            body(psi, first, count, *self.plans[k])
        return psi

    def _kron(self, views: tuple, out: np.ndarray) -> None:
        """out = a*h*H0 @ block, from the block's split `_views`."""
        low, rows = views
        np.matmul(self.a_low, low, out=self.term_low)  # I (x) a*h*H0(low)
        self.a_high.dot(rows, out=self.high_rows)      # a*h*H0(high) (x) I
        np.add(out, self.pair[1], out=out)

    def _combine(self, psi, coef, rows) -> None:
        """psi += R0 - i R1, with (R0, R1) from the stacked terms by one
        two-row real GEMM."""
        coef.dot(rows, out=self.pair_rows)
        np.multiply(self.odd, -1j, out=self.odd)
        np.add(psi, self.term, out=psi)
        np.add(psi, self.odd, out=psi)

    def _fold(self, psi, first, count, slots, coef, rows) -> None:
        """`count` sub-steps of one dense column, one product per term."""
        dot = self.a_h0.dot
        for _ in range(count):
            s = first[0]
            for u, _views in slots:
                dot(s, out=u)
                s = u
            self._combine(psi, coef, rows)

    def _stacked(self, psi, first, count, slots, coef, rows) -> None:
        """`count` sub-steps of a block whose terms are stacked, then added at once."""
        drive = self.a_h0.dot if self.dense else self._kron  # a bound .dot skips np.dot's dispatch
        b_d, term_v = self.b_d, self.pair[0]
        for _ in range(count):
            s, read = first
            for u, views in slots:
                drive(read, out=term_v)
                np.multiply(b_d, s, out=u)
                np.add(u, term_v, out=u)
                s, read = u, views
            self._combine(psi, coef, rows)

    def _single(self, psi, first, count, slots, coef, u_c) -> None:
        """`count` sub-steps of a block that adds each term as it comes."""
        drive = self.a_h0.dot if self.dense else self._kron  # a bound .dot skips np.dot's dispatch
        b_d, term_v, term = self.b_d, self.pair[0], self.term
        for _ in range(count):
            s, read = first
            for (u, views), c in zip(slots, coef):  # the products read s before u overwrites it
                drive(read, out=term_v)
                np.multiply(b_d, s, out=u)
                np.add(u, term_v, out=u)
                np.multiply(u_c, c, out=term)  # psi += (-i)^k u_k / k!
                np.add(psi, term, out=psi)
                s, read = u, views


def magnus_step(state, h0, diagonal, schedule: AnnealSchedule, t: float, dt: float) -> np.ndarray:
    """Single first-order Magnus step from t to t + dt; `diagonal` is H1's diagonal.

    `h0` must be `transverse_field_hamiltonian(n)` for the diagonal's n: the
    propagator applies that driver itself.
    """
    # a single step over [0, dt]; its pre-flight checks dt before the window does
    prop = _BatchPropagator(_finite_diagonal(diagonal)[:, None], dt, dt)
    total, t = typed(schedule, "schedule", AnnealSchedule).total_time, real(t, "t")
    if not (t >= 0 and t + dt <= total * (1 + 1e-12)):
        raise ValueError(f"step [{t}, {t + dt}] lies outside [0, {total}]")
    _check_driver(h0, prop.n)
    psi = array(state, "state", complex)
    if psi.shape != (prop.dim,):
        raise ValueError("state dimension does not match the Hamiltonians")
    t_mid = t + dt / 2.0
    a = float(schedule.driver_weight(t_mid))
    b = float(schedule.problem_weight(t_mid))
    return prop.step(psi[:, None].copy(), a, b, dt)[:, 0]


def evolve_batch(diagonals, schedule: AnnealSchedule, dt: float = DEFAULT_DT) -> np.ndarray:
    """Evolve the uniform superposition to t = T once per problem diagonal.

    Rows of shape (M, 2^n) in and out. All instances share the same register
    size, schedule, and time step, so the batch advances in lock step with
    shared matrix products. Step k starts at t_k = k * dt and the last one
    ends exactly on T, shorter when dt does not divide T; a remainder under
    1e-9 T joins the last step instead of making a step of its own.
    """
    total, dt = typed(schedule, "schedule", AnnealSchedule).total_time, real(dt, "dt", positive=True)
    prop = _BatchPropagator(np.atleast_2d(array(diagonals, "diagonals")).T, total, dt)
    psi = np.full(prop.term.shape, 1.0 / np.sqrt(prop.dim), dtype=complex)
    for start in range(0, prop.steps, _PLAN_STEPS):
        t = np.arange(start, min(start + _PLAN_STEPS, prop.steps), dtype=float) * dt
        h = np.full_like(t, dt)
        if start + len(t) == prop.steps:
            h[-1] = total - t[-1]
        a, b = np.empty_like(t), np.empty_like(t)
        for i, t_mid in enumerate((t + h / 2.0).tolist()):
            a[i], b[i] = float(schedule.driver_weight(t_mid)), float(schedule.problem_weight(t_mid))
        psi = prop.step(psi, a, b, h)
    # the C9a bound on the norm, one reduction per column
    drift = float(np.abs(np.linalg.norm(psi, axis=0) - 1.0).max())
    if not drift <= 1e-9:
        raise FloatingPointError(f"the state norm drifted by {drift:.3g} (limit 1e-9)")
    return psi.T


def check_halving(q_full: float, q_half: float, dt: float) -> None:
    """Raise `ConvergenceError` if the overlaps at dt and dt/2 differ by more than _HALVING_TOL."""
    if (moved := abs(q_full - q_half)) > _HALVING_TOL:
        raise ConvergenceError(
            f"overlap moved by {moved:.3e} (> {_HALVING_TOL:g}) when halving dt={dt}"
        )
