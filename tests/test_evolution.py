import numpy as np
import pytest
from scipy.linalg import expm

from hopfield_annealing import evolution
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


def test_magnus_step_rejects_a_driver_other_than_minus_sum_x():
    schedule = AnnealSchedule.linear(5.0)
    psi, diag = uniform_superposition(3), np.zeros(8)
    h0 = transverse_field_hamiltonian(3)
    for bad in (2.0 * h0, h0 + np.diag(np.ones(8)), transverse_field_hamiltonian(2)):
        with pytest.raises(ValueError, match="not the 3-qubit driver"):
            magnus_step(psi, bad, diag, schedule, 0.0, 0.1)


def test_step_outside_window_rejected():
    schedule = AnnealSchedule.linear(1.0)
    h0 = transverse_field_hamiltonian(1)
    with pytest.raises(ValueError):
        magnus_step(np.array([1.0, 0.0]), h0, np.zeros(2),
                    schedule, 0.95, 0.2)


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


def test_work_budget_admits_the_longest_acceptance_anneal():
    # T = 5000 at dt = 0.1 with a unit-scale diagonal: 5e4 one-split steps
    # are well inside the budget, so only the pre-flight runs here
    assert evolution._check_anneal(5, 1, 5000.0, 0.1, 1.0) == 50_000
    with pytest.raises(ValueError, match="sub-steps"):
        evolution._check_anneal(5, 1, (1e7 + 1) * 0.1, 0.1, 1.0)


@pytest.mark.parametrize("total_time, dt, steps", [
    (2.0, 0.25, 8),           # dt divides T exactly
    (1.05, 0.1, 11),          # a shorter last step
    (1.0 + 1e-11, 0.25, 4),   # a remainder under 1e-9 T joins the last step
], ids=["exact", "short-last-step", "tiny-remainder"])
def test_pre_flight_counts_the_steps_evolve_batch_takes(monkeypatch, total_time, dt, steps):
    taken = []
    step = evolution._BatchPropagator.step

    def counted(self, psi, a, b, h):
        taken.append(h)
        return step(self, psi, a, b, h)

    monkeypatch.setattr(evolution._BatchPropagator, "step", counted)
    assert evolution._check_anneal(3, 2, total_time, dt) == steps
    evolve_batch(np.ones((2, 8)), AnnealSchedule.linear(total_time), dt)
    assert len(taken) == steps


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
