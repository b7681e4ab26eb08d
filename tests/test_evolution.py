import math

import numpy as np
import pytest
from scipy.linalg import expm

from hopfield_annealing import evolution
from hopfield_annealing.ensembles import bias_response
from hopfield_annealing.evolution import (
    AnnealSchedule,
    ConvergenceError,
    check_halving,
    evolve_batch,
    magnus_step,
)
from hopfield_annealing.hamiltonians import (
    answer_overlap,
    ising_hamiltonian,
    transverse_field_hamiltonian,
    uniform_superposition,
)
from hopfield_annealing.learning import hebb_weights, weights_for_rule
from hopfield_annealing.network import BiasSpec
from hopfield_annealing.patterns import (
    index_to_pattern,
    overlapping_memories,
    pattern_to_index,
)
from hopfield_annealing.spectrum import instantaneous_spectrum, spectrum_trace


# evolve_batch and magnus_step take the problem Hamiltonian as its diagonal;
# tests holding an IsingHamiltonian pass h1.diagonal()


# -- schedules ---------------------------------------------------------------------

def test_linear_schedule_endpoints():
    s = AnnealSchedule.linear(80.0)
    assert s.driver_weight(0.0) == 1.0
    assert s.problem_weight(0.0) == 0.0
    assert s.driver_weight(80.0) == 0.0
    assert s.problem_weight(80.0) == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule.linear(0.0)


@pytest.mark.parametrize("field", ["driver_weight", "problem_weight"])
@pytest.mark.parametrize("weight", [3, None, "t / T"])
def test_schedule_refuses_a_weight_that_is_not_callable(field, weight):
    weights = {"driver_weight": lambda t: 1.0 - t, "problem_weight": lambda t: t, field: weight}
    with pytest.raises(ValueError, match=f"^{field} must be callable"):
        AnnealSchedule(1.0, **weights)


@pytest.mark.parametrize("total_time", [float("inf"), float("nan")])
def test_schedule_rejects_non_finite_total_time(total_time):
    with pytest.raises(ValueError, match="finite"):
        AnnealSchedule.linear(total_time)


@pytest.mark.parametrize("dt", [float("inf"), float("nan")])
def test_evolve_rejects_non_finite_dt(dt):
    with pytest.raises(ValueError, match="finite"):
        evolve_batch(np.zeros((1, 4)), AnnealSchedule.linear(5.0), dt)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_diagonal_rejected_by_every_entry_point(bad):
    diag = np.zeros(4)
    diag[2] = bad
    h0 = transverse_field_hamiltonian(2)
    schedule = AnnealSchedule.linear(5.0)
    with pytest.raises(FloatingPointError, match="not finite"):
        evolve_batch(np.stack([np.zeros(4), diag]), schedule, 0.1)
    with pytest.raises(FloatingPointError, match="not finite"):
        evolve_batch(diag, schedule, 0.1)
    with pytest.raises(FloatingPointError, match="not finite"):
        magnus_step(uniform_superposition(2), h0, diag, schedule, 0.0, 0.1)


# -- magnus_step --------------------------------------------------------------------

def test_step_preserves_norm():
    rng = np.random.default_rng(1)
    n = 3
    h0 = transverse_field_hamiltonian(n)
    schedule = AnnealSchedule.linear(10.0)
    diag = rng.normal(scale=3.0, size=8)
    psi = uniform_superposition(n)
    for t in np.arange(0.0, 1.0, 0.1):
        psi = magnus_step(psi, h0, diag, schedule, t, 0.1)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_pure_diagonal_generator_applies_phases():
    # A == 0, B == 1: amplitudes pick up exp(-i E dt), magnitudes untouched
    diag = np.array([0.5, -1.0, 2.0, 0.0])
    schedule = AnnealSchedule(
        total_time=1.0, driver_weight=lambda t: 0.0, problem_weight=lambda t: 1.0
    )
    h0 = transverse_field_hamiltonian(2)
    psi0 = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    dt = 0.3
    psi = magnus_step(psi0, h0, diag, schedule, 0.2, dt)
    assert np.allclose(psi, 0.5 * np.exp(-1j * diag * dt), atol=1e-13)


def test_single_qubit_driver_rotation():
    # A == 1, B == 0, dt = pi/2: exp(+i X pi/2) maps (1,0) to (cos, i sin)
    schedule = AnnealSchedule(
        total_time=2.0, driver_weight=lambda t: 1.0, problem_weight=lambda t: 0.0
    )
    h0 = transverse_field_hamiltonian(1)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    dt = np.pi / 2
    psi = magnus_step(psi0, h0, np.zeros(2), schedule, 0.0, dt)
    assert np.allclose(psi, [np.cos(dt), 1j * np.sin(dt)], atol=1e-12)


def _check_step_action(n):
    # the contract: each propagator application accurate to 1e-12
    rng = np.random.default_rng(8)
    dim = 1 << n
    h0 = transverse_field_hamiltonian(n)
    for a, b, dt in [(0.9, 0.1, 0.1), (0.4, 0.6, 0.7), (0.0, 1.0, 2.5), (0.3, 0.7, 6.0)]:
        diag = rng.normal(scale=4.0, size=dim)
        schedule = AnnealSchedule(
            total_time=10.0, driver_weight=lambda t: a, problem_weight=lambda t: b
        )
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        got = magnus_step(psi0, h0, diag, schedule, 1.0, dt)
        exact = expm(-1j * dt * (a * h0 + b * np.diag(diag))) @ psi0
        assert np.abs(got - exact).max() < 1e-12


def test_step_action_matches_dense_exponential():
    _check_step_action(3)


@pytest.mark.parametrize("n", [7, 8])
def test_split_driver_step_matches_dense_exponential(n):
    # from n = 7 the propagator applies H0 as I (x) H0(5) + H0(n-5) (x) I
    assert n > evolution._DENSE_MAX_QUBITS
    _check_step_action(n)


@pytest.mark.parametrize("n", [3, 7])
def test_sub_stepped_block_of_columns_matches_dense_exponential(n):
    # magnus_step covers one column; a block of columns with their own
    # diagonals, each step split into sub-steps, dense (n = 3) and split (n = 7)
    rng = np.random.default_rng(n)
    dim = 1 << n
    h0 = transverse_field_hamiltonian(n)
    for columns, (a, b, dt) in [(2, (0.4, 0.6, 1.5)), (3, (0.3, 0.7, 4.0))]:
        diags = rng.normal(scale=4.0, size=(dim, columns))
        prop = evolution._BatchPropagator(diags, 10.0, dt)
        assert evolution._splits(dt * (a * n + b * prop.d_scale)) >= 2
        psi0 = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
        psi0 /= np.linalg.norm(psi0, axis=0)
        got = prop.step(psi0.copy(), a, b, dt)
        for m in range(columns):
            exact = expm(-1j * dt * (a * h0 + b * np.diag(diags[:, m]))) @ psi0[:, m]
            assert np.abs(got[:, m] - exact).max() < 1e-12


def test_magnus_step_rejects_a_driver_other_than_minus_sum_x():
    schedule = AnnealSchedule.linear(5.0)
    psi, diag = uniform_superposition(3), np.zeros(8)
    h0 = transverse_field_hamiltonian(3)
    for bad in (2.0 * h0, h0 + np.diag(np.ones(8)), transverse_field_hamiltonian(2)):
        with pytest.raises(ValueError, match="not the 3-qubit driver"):
            magnus_step(psi, bad, diag, schedule, 0.0, 0.1)


def test_magnus_step_rejects_a_state_of_another_dimension():
    schedule = AnnealSchedule.linear(5.0)
    with pytest.raises(ValueError, match="state dimension"):
        magnus_step(uniform_superposition(2), transverse_field_hamiltonian(3), np.zeros(8),
                    schedule, 0.0, 0.1)


def test_step_outside_window_rejected():
    schedule = AnnealSchedule.linear(1.0)
    h0 = transverse_field_hamiltonian(1)
    with pytest.raises(ValueError):
        magnus_step(np.array([1.0, 0.0]), h0, np.zeros(2),
                    schedule, 0.95, 0.2)
    # every comparison with nan is False, so the window check must not see it
    with pytest.raises(ValueError, match="^t must be a finite real number, got nan"):
        magnus_step(np.array([1.0, 0.0]), h0, np.zeros(2),
                    schedule, float("nan"), 0.1)


def _taylor_terms_by_array(rhos):
    """Term counts of the array search the propagator used to run per step,
    `(k + 1) * log(rho) - log((k + 1)!) <= log(tol)` over k = 1.._KMAX,
    with the same float operations vectorised over rho as well."""
    kmax = evolution._KMAX
    ks = np.arange(1, kmax + 1)
    rhos = np.asarray(rhos, dtype=float)
    with np.errstate(divide="ignore"):
        log_rem = (ks + 1) * np.log(rhos)[:, None] - evolution._LOGFACT[1:kmax + 1]
    hits = log_rem <= np.log(evolution._STEP_TOL)
    terms = np.where(hits.any(axis=1), ks[hits.argmax(axis=1)], kmax)
    return np.where(rhos <= 0.0, 1, terms)


def test_taylor_terms_match_the_array_search():
    # 10^6 norm bounds over [0, 2 * _THETA] (a step's bound is at most
    # _THETA), then both float neighbours of every point where the count
    # steps up, found by bisecting the float bits of positive rho
    rng = np.random.default_rng(12)
    rhos = np.concatenate([[0.0, 2 * evolution._THETA],
                           rng.uniform(0.0, 2 * evolution._THETA, 10**6)])
    expected = np.concatenate([_taylor_terms_by_array(chunk)
                               for chunk in np.array_split(rhos, 20)])
    assert [evolution._taylor_terms(float(r)) for r in rhos] == expected.tolist()
    order = np.argsort(rhos)
    ranked, terms = rhos[order], expected[order]
    for i in np.flatnonzero(np.diff(terms)):
        lo, hi = ranked[i:i + 2].view(np.int64).tolist()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            below = _taylor_terms_by_array([np.int64(mid).view(float)])[0] == terms[i]
            lo, hi = (mid, hi) if below else (lo, mid)
        for bits in (lo, hi):
            rho = float(np.int64(bits).view(float))
            assert evolution._taylor_terms(rho) == _taylor_terms_by_array([rho])[0]


@pytest.mark.parametrize("n", range(1, 13))
def test_one_thread_columns_bound_every_driver_product(n):
    # multiply-adds of each matrix product a step runs, read off the
    # propagator's own operands: under OpenBLAS's one-thread bound at the
    # returned width, and not at one column more
    def largest_product(columns):
        prop = evolution._BatchPropagator(np.zeros((1 << n, columns)), 0.1, 0.1)
        term_v = prop.term.view(np.float64)  # (2^n, 2M)
        if n <= evolution._DENSE_MAX_QUBITS:
            return prop.h0.size * term_v.shape[1]
        low, high = prop.h0_low.shape[0], prop.h0_high.shape[0]
        return max(low * low * term_v.shape[1], high * term_v.size)

    width = evolution._one_thread_columns(n)
    if width:
        assert largest_product(width) < evolution._BLAS_ONE_THREAD_MNK
    assert largest_product(width + 1) >= evolution._BLAS_ONE_THREAD_MNK


@pytest.mark.parametrize("n", range(1, 13))
def test_group_rule_keeps_every_combination_on_one_thread(n):
    # one group of all of a step's terms is added to psi by a (2 x 27) @
    # (27 x 2M*2^n) product, kept under OpenBLAS's one-thread bound; a block
    # too wide for that adds each term by itself (g = 1), and the stack holds
    # g blocks, so under 2 MB or one block
    mnk, most_terms = evolution._BLAS_ONE_THREAD_MNK, evolution._taylor_terms(evolution._THETA)
    for columns in sorted({1, 2, 20, 100, 255, max(evolution._one_thread_columns(n), 1)}):
        prop = evolution._BatchPropagator(np.zeros((1 << n, columns)), 0.1, 0.1)
        g, block = prop.group, prop.pair[0]
        assert block.shape == (1 << n, 2 * columns)
        assert prop.stack.shape == (g, *block.shape)
        assert (g == most_terms) == (2 * most_terms * block.size < mnk)
        assert g == most_terms or g == 1
        assert not prop.fold or g == most_terms  # a folded block never reads its own slot
        assert prop.stack.nbytes <= max(mnk * 4, block.nbytes)
        for terms in range(1, most_terms + 1):
            slots, coef, rows = prop._plan(terms)
            assert len(slots) == terms
            if g == 1:  # (-i)^k / k! times u_k, which is always slot 0
                assert len(coef) == terms
                assert all(u.base is prop.stack for u, _ in slots)
                assert rows.base is prop.stack and rows.shape == (1 << n, columns)
            else:  # both coefficient rows over all the terms' stack rows
                assert coef.shape == (2, terms) and rows.shape == (terms, block.size)


@pytest.mark.parametrize("n, columns, single", [
    (3, 1, False), (3, 3, False), (3, 3, True), (7, 2, False), (7, 2, True),
], ids=["fold", "dense-stack", "dense-single", "split-stack", "split-single"])
def test_both_group_rules_match_dense_exponential(monkeypatch, n, columns, single):
    # a lower one-thread bound makes every block add its terms one at a time,
    # each overwriting the slot it reads; at the real bound these small
    # blocks take all of a step's terms in one group
    rng = np.random.default_rng(n + columns)
    dim = 1 << n
    if single:
        monkeypatch.setattr(evolution, "_BLAS_ONE_THREAD_MNK", 1)
    diags = rng.normal(scale=4.0, size=(dim, columns))
    prop = evolution._BatchPropagator(diags, 10.0, 1.5)
    assert (prop.group == 1) == single and prop.fold == (columns == 1)
    psi0 = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
    psi0 /= np.linalg.norm(psi0, axis=0)
    a, b, dt = 0.4, 0.6, 1.5
    got = prop.step(psi0.copy(), a, b, dt)
    h0 = transverse_field_hamiltonian(n)
    for m in range(columns):
        exact = expm(-1j * dt * (a * h0 + b * np.diag(diags[:, m]))) @ psi0[:, m]
        assert np.abs(got[:, m] - exact).max() < 1e-12


# -- evolve_batch -------------------------------------------------------------------

def test_single_memory_recall_probability():
    mem = overlapping_memories()[:1]
    w = hebb_weights(mem)
    h1 = ising_hamiltonian(w, BiasSpec(mem[0], 0.1))
    psi = evolve_batch(h1.diagonal(), AnnealSchedule.linear(1000.0), 0.1)[0]
    assert answer_overlap(psi, mem[0]) >= 0.99


def test_complement_symmetry_without_bias():
    mem = overlapping_memories()[:2]
    h1 = ising_hamiltonian(hebb_weights(mem), None)
    psi = evolve_batch(h1.diagonal(), AnnealSchedule.linear(30.0), 0.1)[0]
    probs = np.abs(psi) ** 2
    for s in range(16):
        flipped = pattern_to_index(-index_to_pattern(s, 4))
        assert probs[s] == pytest.approx(probs[flipped], abs=1e-6)


def test_evolve_batch_agrees_with_single_runs():
    rng = np.random.default_rng(3)
    schedule = AnnealSchedule.linear(7.0)
    diags = rng.normal(scale=2.0, size=(4, 8))
    batch = evolve_batch(diags, schedule, 0.1)
    for m in range(4):
        single = evolve_batch(diags[m], schedule, 0.1)[0]
        assert np.abs(batch[m] - single).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_one_column_fold_agrees_with_a_two_column_block(n):
    # up to n = 6 a block of one column folds b*diag into the diagonal of
    # a*H0; two copies of the same diagonal take the unfolded path with the
    # same term and split counts. From n = 7 both take the Kronecker split
    d = np.random.default_rng(n).normal(scale=2.0, size=1 << n)
    schedule = AnnealSchedule.linear(20.0)
    folds = evolution._BatchPropagator(d[:, None], 20.0, 0.1).fold
    assert folds == (n <= evolution._DENSE_MAX_QUBITS)
    one = evolve_batch([d], schedule, 0.1)[0]
    for column in evolve_batch([d, d], schedule, 0.1):
        assert np.abs(column - one).max() < 1e-13


def test_final_short_step_lands_on_total_time():
    # dt larger than T collapses the run to one step truncated to exactly T,
    # which must equal the dense midpoint exponential
    diag = np.array([1.0, -2.0, 0.5, 0.0])
    total = 1.05
    schedule = AnnealSchedule.linear(total)
    h0 = transverse_field_hamiltonian(2)
    got = evolve_batch(diag, schedule, 5.0)[0]
    t_mid = total / 2
    h_mid = (1 - t_mid / total) * h0 + (t_mid / total) * np.diag(diag)
    exact = expm(-1j * total * h_mid) @ uniform_superposition(2)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12
    assert np.abs(got - exact).max() < 1e-12


def test_split_driver_anneal_matches_dense_midpoint_propagation():
    # n = 8, T = 2: every midpoint step of evolve_batch against the dense
    # exponential of the full 256 x 256 generator
    rng = np.random.default_rng(21)
    n, total, dt = 8, 2.0, 0.1
    diags = rng.normal(scale=2.0, size=(2, 1 << n))
    got = evolve_batch(diags, AnnealSchedule.linear(total), dt)
    h0 = transverse_field_hamiltonian(n)
    for diag, psi_got in zip(diags, got):
        psi = uniform_superposition(n)
        for k in range(20):
            s = (k * dt + dt / 2) / total
            psi = expm(-1j * dt * ((1 - s) * h0 + s * np.diag(diag))) @ psi
        assert np.abs(psi_got - psi).max() < 1e-12


def test_time_grid_starts_at_multiples_of_dt_and_ends_on_total_time():
    # T = 2.05 at dt = 0.1: steps start at k * dt, not at a running sum of dt
    # (ten additions of 0.1 already give 0.9999999999999999), and the 21st
    # step, shorter, ends exactly on T
    total, dt = 2.05, 0.1
    mids = []

    def driver(t):
        mids.append(t)
        return 1.0 - t / total

    evolve_batch(np.zeros(4), AnnealSchedule(total, driver, lambda t: t / total), dt)
    last = 20 * dt
    assert mids == [k * dt + dt / 2 for k in range(20)] + [last + (total - last) / 2]
    assert last + (total - last) == total


def test_evolve_validation():
    with pytest.raises(ValueError):
        evolve_batch(np.zeros(4), AnnealSchedule.linear(5.0), 0.0)
    with pytest.raises(ValueError):
        evolve_batch(np.zeros((2, 5)), AnnealSchedule.linear(5.0), 0.1)


def test_unitarity_along_full_anneal():
    rng = np.random.default_rng(12)
    diags = rng.normal(scale=2.0, size=(3, 16))
    out = evolve_batch(diags, AnnealSchedule.linear(25.0), 0.1)
    norms = np.linalg.norm(out, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


# -- dt convergence ------------------------------------------------------------------

def _overlaps_at_dt_and_half(h1, total_time, answer, dt):
    schedule = AnnealSchedule.linear(total_time)
    return [answer_overlap(evolve_batch(h1.diagonal(), schedule, step)[0], answer)
            for step in (dt, dt / 2.0)]


def test_halving_convergence_accepts_default_dt():
    mem = overlapping_memories()[:2]
    w = weights_for_rule("projection", mem)
    h1 = ising_hamiltonian(w, BiasSpec(mem[0], 0.3))
    q_full, q_half = _overlaps_at_dt_and_half(h1, 150.0, mem[0], dt=0.1)
    check_halving(q_full, q_half, 0.1)
    assert abs(q_full - q_half) <= 1e-6


def test_halving_convergence_flags_coarse_dt():
    mem = overlapping_memories()[:2]
    w = hebb_weights(mem)
    h1 = ising_hamiltonian(w, BiasSpec(mem[0], 0.9))
    q_full, q_half = _overlaps_at_dt_and_half(h1, 60.0, mem[0], dt=15.0)
    with pytest.raises(ConvergenceError):
        check_halving(q_full, q_half, 15.0)


# -- input checks ---------------------------------------------------------------------

@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
def test_magnus_step_rejects_bad_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        magnus_step(uniform_superposition(2), transverse_field_hamiltonian(2), np.zeros(4),
                    AnnealSchedule.linear(5.0), 0.0, dt)


def test_work_budget_refuses_runaway_anneals():
    schedule = AnnealSchedule.linear(1e9)
    with pytest.raises(ValueError, match=r"T=1e\+09 at dt=0.1 .*lower gamma"):
        evolve_batch(np.zeros(4), schedule, 0.1)
    # a huge problem scale explodes the split count of every step
    huge = np.full(4, 1e200)
    with pytest.raises(ValueError, match="sub-steps"):
        evolve_batch(huge, AnnealSchedule.linear(10.0), 0.1)
    with pytest.raises(ValueError, match="sub-steps"):
        magnus_step(uniform_superposition(2), transverse_field_hamiltonian(2), huge,
                    AnnealSchedule.linear(10.0), 0.0, 0.1)


@pytest.mark.parametrize("driver, problem", [
    (lambda t: float("nan"), lambda t: t / 10),
    (lambda t: 1.0 - t / 10, lambda t: float("nan")),
    (lambda t: float("inf"), lambda t: t / 10),
], ids=["nan-driver", "nan-problem", "inf-driver"])
def test_non_finite_schedule_weight_is_refused_at_its_step(driver, problem):
    with pytest.raises(FloatingPointError, match="sub-steps"):
        evolve_batch(np.arange(8.0), AnnealSchedule(10.0, driver, problem), 0.1)
    with pytest.raises(FloatingPointError, match="sub-steps"):
        magnus_step(uniform_superposition(3), transverse_field_hamiltonian(3), np.arange(8.0),
                    AnnealSchedule(10.0, driver, problem), 0.0, 0.1)


def test_runaway_schedule_weight_is_refused_at_its_step(monkeypatch):
    # the pre-flight budgets weights in [0, 1]; a weight far above that asks
    # one step for more sub-steps than the whole anneal may take, and the
    # step refuses before it takes any. Under a limit of 10, a weight of 1000
    # asks for 86
    monkeypatch.setattr(evolution, "_WORK_LIMIT", 10)
    schedule = AnnealSchedule(10.0, lambda t: 1000.0, lambda t: t / 10)
    with pytest.raises(FloatingPointError, match="86 sub-steps"):
        magnus_step(uniform_superposition(3), transverse_field_hamiltonian(3), np.arange(8.0),
                    schedule, 0.0, 0.1)
    # the limit holds for the whole anneal, not for each step: under a limit
    # of 50, A = 116 asks each step for 10 sub-steps, so five steps spend it
    # and the sixth is refused, while the pre-flight counted 10 one-split steps
    monkeypatch.setattr(evolution, "_WORK_LIMIT", 50)
    schedule = AnnealSchedule(1.0, lambda t: 116.0, lambda t: 0.0)
    assert evolution._check_anneal(3, 1, 1.0, 0.1, 7.0) == 10
    with pytest.raises(FloatingPointError, match="10 sub-steps, over the 0 left"):
        evolve_batch(np.arange(8.0), schedule, 0.1)
    # under the real limit, A = 1e300 asks for about 1e299 sub-steps
    monkeypatch.undo()
    schedule = AnnealSchedule(10.0, lambda t: 1e300, lambda t: t / 10)
    with pytest.raises(FloatingPointError, match="sub-steps"):
        evolve_batch(np.arange(8.0), schedule, 0.1)


def test_work_budget_admits_the_longest_acceptance_anneal():
    # T = 5000 at dt = 0.1 with a unit-scale diagonal: 5e4 one-split steps,
    # and 1e5 at the halved dt, are inside the budget, so only the pre-flight
    # runs here. Each sub-step truncates under _STEP_TOL, so the budget keeps
    # an admitted run's norm drift at the 1e-9 that evolve_batch checks
    assert evolution._check_anneal(5, 1, 5000.0, 0.1, 1.0) == 50_000
    assert evolution._check_anneal(5, 1, 5000.0, 0.05, 1.0) == 100_000
    assert evolution._WORK_LIMIT * evolution._STEP_TOL <= 1e-9
    with pytest.raises(ValueError, match="sub-steps"):
        evolution._check_anneal(5, 1, (evolution._WORK_LIMIT + 1) * 0.1, 0.1, 1.0)


@pytest.mark.parametrize("total_time, dt, steps", [
    (2.0, 0.25, 8),           # dt divides T exactly
    (1.05, 0.1, 11),          # a shorter last step
    (1.0 + 1e-11, 0.25, 4),   # a remainder under 1e-9 T joins the last step
], ids=["exact", "short-last-step", "tiny-remainder"])
def test_pre_flight_counts_the_steps_evolve_batch_takes(monkeypatch, total_time, dt, steps):
    taken = []
    step = evolution._BatchPropagator.step

    def counted(self, psi, a, b, h):  # one call per planned run of steps
        taken.extend(h)
        return step(self, psi, a, b, h)

    monkeypatch.setattr(evolution._BatchPropagator, "step", counted)
    assert evolution._check_anneal(3, 2, total_time, dt) == steps
    evolve_batch(np.ones((2, 8)), AnnealSchedule.linear(total_time), dt)
    assert len(taken) == steps


def _scalar_plan(diagonals, schedule, dt):
    """Per step of `evolve_batch`: (sub-steps, Taylor terms, a*h/sub-steps,
    b*h/sub-steps) by Python-float arithmetic, one step at a time, and the
    refusal of the first step over the work limit, worded as the propagator
    words it."""
    total, d_scale = schedule.total_time, float(np.abs(diagonals).max())
    n = diagonals.shape[1].bit_length() - 1
    steps = evolution._check_anneal(n, len(diagonals), total, dt, d_scale)
    budget, plan = evolution._WORK_LIMIT, []
    for k in range(steps):
        t = k * dt
        h = dt if k < steps - 1 else total - t
        a = float(schedule.driver_weight(t + h / 2.0))
        b = float(schedule.problem_weight(t + h / 2.0))
        rho = abs(h) * (abs(a) * n + abs(b) * d_scale)
        splits = evolution._splits(rho)
        if not splits <= budget:
            return plan, (f"a step of {h:g} at A={a:g}, B={b:g} needs {splits:.3g} sub-steps, "
                          f"over the {budget:.3g} left of the anneal's 1e+05")
        budget -= splits
        plan.append((int(splits), evolution._taylor_terms(rho / splits),
                     a * (h / splits), b * (h / splits)))
    return plan, None


def _recorded_plan(monkeypatch):
    """The steps each `_plan_steps` call plans, one list per call."""
    calls = []
    plan_steps = evolution._BatchPropagator._plan_steps

    def recorded(self, a, b, h):
        planned = plan_steps(self, a, b, h)
        calls.append(list(zip(*planned)))
        return planned

    monkeypatch.setattr(evolution._BatchPropagator, "_plan_steps", recorded)
    return calls


@pytest.mark.parametrize("total_time, dt, ramp", [
    (1.05, 0.1, "linear"),         # a shorter last step
    (1.0 + 1e-11, 0.25, "linear"),  # a remainder under 1e-9 T joins the last step
    (250.0, 0.1, "linear"),         # 2,500 steps, planned in three runs
    (250.0, 0.1, "sine"),           # a non-linear ramp
], ids=["short-last-step", "tiny-remainder", "three-runs", "sine-ramp"])
def test_planned_steps_equal_the_scalar_formula(monkeypatch, total_time, dt, ramp):
    # every sub-step count, term count and product scale of the plan equals,
    # bit for bit, the Python-float arithmetic of one step at a time; the
    # diagonal's scale (about 300) splits the steps of each ramp into at
    # least three different sub-step counts
    rng = np.random.default_rng(3)
    diagonals = rng.normal(scale=100.0, size=(2, 8))
    if ramp == "linear":
        schedule = AnnealSchedule.linear(total_time)
    else:
        schedule = AnnealSchedule(total_time, lambda t: np.cos(np.pi * t / (2 * total_time)) ** 2,
                                  lambda t: np.sin(np.pi * t / (2 * total_time)) ** 2)
    expected, refusal = _scalar_plan(diagonals, schedule, dt)
    assert refusal is None and len({s for s, *_ in expected}) >= 3
    calls = _recorded_plan(monkeypatch)
    evolve_batch(diagonals, schedule, dt)
    assert [step for call in calls for step in call] == expected
    runs = -(-len(expected) // evolution._PLAN_STEPS)
    assert [len(call) for call in calls[:-1]] == [evolution._PLAN_STEPS] * (runs - 1)
    assert len(calls) == runs


def test_numeric_string_dt_is_read_as_its_number():
    # the dt guard reads "0.25" as 0.25, and the time loop then uses the number
    diagonals, schedule = np.arange(16.0).reshape(2, 8), AnnealSchedule.linear(2.0)
    assert np.array_equal(evolve_batch(diagonals, schedule, "0.25"),
                          evolve_batch(diagonals, schedule, 0.25))


def test_plan_counts_terms_at_every_bound_as_the_scalar_search():
    # norm bounds on, just under and just over every term bound (a one-qubit
    # register with a zero diagonal has rho = h exactly), where a right-sided
    # search or an off-by-one would count one term more or fewer
    prop = evolution._BatchPropagator(np.zeros((2, 1)), 1.0, 1.0)
    rhos = [f(rho) for rho in evolution._TERM_BOUNDS
            for f in (float, lambda r: math.nextafter(r, 0.0), lambda r: math.nextafter(r, 9.0))]
    splits, terms, a_h, _ = prop._plan_steps(np.ones(len(rhos)), np.zeros(len(rhos)), rhos)
    expected = [(int(evolution._splits(rho)),
                 evolution._taylor_terms(rho / evolution._splits(rho)), rho / evolution._splits(rho))
                for rho in rhos]
    assert list(zip(splits, terms, a_h)) == expected


def test_weight_that_jumps_late_is_refused_with_the_step_message(monkeypatch):
    # A jumps to 1e300 after step 1,500, in the second planned run: refused
    # before that run's first product, with the message of its first step over
    schedule = AnnealSchedule(250.0, lambda t: 1e300 if t > 150.0 else 1.0 - t / 250.0,
                              lambda t: t / 250.0)
    diagonals = np.arange(16.0).reshape(2, 8)
    expected, refusal = _scalar_plan(diagonals, schedule, 0.1)
    assert len(expected) == 1500 and "A=1e+300" in refusal
    calls = _recorded_plan(monkeypatch)
    with pytest.raises(FloatingPointError) as error:
        evolve_batch(diagonals, schedule, 0.1)
    assert str(error.value) == refusal
    assert [step for call in calls for step in call] == expected[:evolution._PLAN_STEPS]


@pytest.mark.parametrize("driver, problem, diagonal", [
    (lambda t: float("nan") if t > 5.0 else 1.0 - t / 10, lambda t: t / 10, np.arange(8.0)),
    (lambda t: 1.0 - t / 10, lambda t: float("inf"), np.zeros(8)),  # inf * 0 is nan
    (lambda t: 1.0, lambda t: 1e305, np.full(8, 1e4)),              # rho overflows to inf
], ids=["nan-driver-mid-run", "inf-times-zero-scale", "overflow"])
def test_non_finite_plan_is_refused_without_a_warning(driver, problem, diagonal):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="sub-steps, over the"):
            evolve_batch(diagonal, AnnealSchedule(10.0, driver, problem), 0.1)


def test_oversized_block_is_refused_before_any_buffer(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(evolution, "_BLOCK_LIMIT", 1 << 10)
    diagonals = np.ones((64, 256))  # 64 states of 8 qubits: 2^14 amplitudes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="amplitudes"):
            evolve_batch(diagonals, AnnealSchedule.linear(1.0), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * diagonals.size  # one complex state block
    monkeypatch.setattr(evolution, "_BLOCK_LIMIT", 4)
    with pytest.raises(ValueError, match="amplitudes"):
        magnus_step(uniform_superposition(3), transverse_field_hamiltonian(3), np.zeros(8),
                    AnnealSchedule.linear(1.0), 0.0, 0.1)


# the anneal's pre-flight and the diagonal and h0 checks refuse these in terms
# of the argument, where numpy's own messages would read "need at least one
# array to stack", "zero-size array to reduction operation", "too many values
# to unpack" and "operands could not be broadcast"; the dt, total_time, qubit
# count and sample count checks refuse wrong types, which reached numpy or
# the int operators as a TypeError
@pytest.mark.parametrize("call, match", [
    (lambda: bias_response(overlapping_memories(), overlapping_memories()[0], [], 10.0),
     "at least one problem diagonal to anneal, got 0"),
    (lambda: evolve_batch(np.zeros((0, 8)), AnnealSchedule.linear(1.0), 0.1),
     "at least one problem diagonal to anneal, got 0"),
    (lambda: evolve_batch(np.zeros((2, 3, 8)), AnnealSchedule.linear(1.0), 0.1),
     "must be 2-D diagonals, got a 3-D array"),
    (lambda: spectrum_trace(transverse_field_hamiltonian(2), np.zeros(8),
                            AnnealSchedule.linear(1.0), num_samples=3),
     r"h0 must be 8 x 8 to match H1, got shape \(4, 4\)"),
    (lambda: instantaneous_spectrum(np.zeros((4, 2)), np.zeros(4),
                                    AnnealSchedule.linear(1.0), 0.5),
     r"h0 must be 4 x 4 to match H1, got shape \(4, 2\)"),
    (lambda: evolve_batch(np.zeros(4), AnnealSchedule.linear(5.0), dt=None),
     "dt must be positive and finite, got None"),
    (lambda: evolve_batch(np.zeros(4), AnnealSchedule.linear(5.0), dt="x"),
     "dt must be positive and finite, got 'x'"),
    (lambda: AnnealSchedule.linear(None), "total_time must be positive and finite, got None"),
    (lambda: transverse_field_hamiltonian(2.5), "n: expected an integer, got 2.5"),
    (lambda: transverse_field_hamiltonian("x"), "n: expected an integer, got 'x'"),
    (lambda: spectrum_trace(transverse_field_hamiltonian(2), np.zeros(4),
                            AnnealSchedule.linear(1.0), 2.5),
     "num_samples: expected an integer, got 2.5"),
    (lambda: spectrum_trace(transverse_field_hamiltonian(2), np.zeros(4),
                            AnnealSchedule.linear(1.0), "x"),
     "num_samples: expected an integer, got 'x'"),
], ids=["empty-bias-grid", "zero-rows", "3-D-diagonals", "trace-h0-size",
        "spectrum-h0-not-square", "dt-none", "dt-string", "linear-none", "driver-n-float",
        "driver-n-string", "trace-samples-float", "trace-samples-string"])
def test_refusals_name_their_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()
