import numpy as np
import pytest

from hopfield_annealing.hamiltonians import (
    QubitBudgetError,
    answer_overlap,
    ground_state_mass,
    ising_hamiltonian,
    transverse_field_hamiltonian,
    uniform_superposition,
)
from hopfield_annealing.learning import hebb_weights
from hopfield_annealing.network import BiasSpec, network_energy
from hopfield_annealing.patterns import (
    all_patterns,
    hadamard_memories,
    index_to_pattern,
    overlapping_memories,
    pattern_to_index,
    random_pattern,
)


def brute_force_minimum(weights, theta):
    """Exhaustive loop over all spin states; independent of the diagonal path."""
    n = weights.shape[0]
    best_e, best_states = np.inf, []
    for s in range(1 << n):
        z = [2 * ((s >> i) & 1) - 1 for i in range(n)]
        e = 0.0
        for i in range(n):
            for j in range(n):
                e -= 0.5 * z[i] * weights[i, j] * z[j]
            e -= theta[i] * z[i]
        if e < best_e - 1e-12:
            best_e, best_states = e, [s]
        elif abs(e - best_e) <= 1e-12:
            best_states.append(s)
    return best_e, set(best_states)


def random_instance(rng, n):
    p = int(rng.integers(1, n + 1))
    mem = np.stack([random_pattern(n, rng) for _ in range(p)])
    key = random_pattern(n, rng)
    gamma = float(rng.uniform(0, 1))
    return hebb_weights(mem), BiasSpec(key, gamma)


# -- driver Hamiltonian ---------------------------------------------------------

def test_driver_single_qubit_matrix():
    assert np.array_equal(transverse_field_hamiltonian(1), [[0, -1], [-1, 0]])


def test_driver_two_qubit_spectrum():
    vals = np.linalg.eigvalsh(transverse_field_hamiltonian(2))
    assert np.allclose(vals, [-2, 0, 0, 2])


def test_driver_couples_single_bit_flips():
    h = transverse_field_hamiltonian(3)
    for s in range(8):
        for t in range(8):
            expected = -1.0 if bin(s ^ t).count("1") == 1 else 0.0
            assert h[s, t] == expected


def test_driver_ground_state_is_uniform():
    for n in (1, 3, 5):
        h = transverse_field_hamiltonian(n)
        u = uniform_superposition(n)
        assert np.allclose(h @ u, -n * u, atol=1e-12)


def test_qubit_cap():
    with pytest.raises(QubitBudgetError):
        transverse_field_hamiltonian(13)
    with pytest.raises(ValueError):
        transverse_field_hamiltonian(0)


# -- problem Hamiltonian ----------------------------------------------------------

def test_diagonal_matches_network_energy_everywhere():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        w, bias = random_instance(rng, n)
        diag = ising_hamiltonian(w, bias).diagonal()
        for s in range(1 << n):
            z = index_to_pattern(s, n)
            assert diag[s] == pytest.approx(network_energy(z, w, bias), abs=1e-12)


def test_ground_manifold_of_orthogonal_memories():
    # p < n orthogonal memories: minima are exactly the p memories and their
    # complements (2p states)
    for p in (1, 2, 3):
        mem = hadamard_memories(4, p)
        diag = ising_hamiltonian(hebb_weights(mem), None).diagonal()
        manifold = set(np.flatnonzero(np.abs(diag - diag.min()) <= 1e-9))
        expected = {pattern_to_index(m) for m in mem} | {pattern_to_index(-m) for m in mem}
        assert manifold == expected
    # the complete basis p = n is the degenerate edge: couplings cancel and
    # every state shares the ground energy
    mem = hadamard_memories(4, 4)
    diag = ising_hamiltonian(hebb_weights(mem), None).diagonal()
    assert np.allclose(diag, diag[0], atol=1e-12)


def test_argmin_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        w, bias = random_instance(rng, n)
        diag = ising_hamiltonian(w, bias).diagonal()
        best_e, best_states = brute_force_minimum(w, bias.thresholds)
        assert diag.min() == pytest.approx(best_e, abs=1e-12)
        got = set(np.flatnonzero(np.abs(diag - diag.min()) <= 1e-12))
        assert got == best_states


def test_argmin_matches_brute_force_larger_registers():
    # the dense diagonal stays exact well past the experiment scale
    rng = np.random.default_rng(13)
    for n in (8, 10):
        w, bias = random_instance(rng, n)
        diag = ising_hamiltonian(w, bias).diagonal()
        best_e, best_states = brute_force_minimum(w, bias.thresholds)
        assert diag.min() == pytest.approx(best_e, abs=1e-12)
        assert set(np.flatnonzero(np.abs(diag - diag.min()) <= 1e-12)) == best_states


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        ising_hamiltonian(np.zeros((2, 3)), None)
    with pytest.raises(ValueError):
        ising_hamiltonian(np.zeros((3, 3)), BiasSpec([1, -1], 0.1))
    with pytest.raises(QubitBudgetError):
        ising_hamiltonian(np.zeros((1 << 13, 1 << 13)), None)


# -- states ------------------------------------------------------------------------

def test_uniform_superposition_values():
    u = uniform_superposition(2)
    assert np.allclose(u, 0.5)
    assert np.vdot(u, u).real == 1.0  # powers of two are exact
    h0 = transverse_field_hamiltonian(2)
    assert np.vdot(u, h0 @ u).real == pytest.approx(-2.0, abs=1e-12)


def test_answer_overlap_cases():
    answer = np.array([1, -1, 1, -1])
    idx = pattern_to_index(answer)
    basis = np.zeros(16, dtype=complex)
    basis[idx] = 1.0
    assert answer_overlap(basis, answer) == 1.0
    assert answer_overlap(uniform_superposition(4), answer) == pytest.approx(1 / 16)
    orth = np.zeros(16, dtype=complex)
    orth[(idx + 1) % 16] = 1.0
    assert answer_overlap(orth, answer) == 0.0
    with pytest.raises(ValueError):
        answer_overlap(np.zeros(8, dtype=complex), answer)


def test_ground_state_mass():
    mem = overlapping_memories()[:1]
    h1 = ising_hamiltonian(hebb_weights(mem), None)
    # minima are the memory and its complement; put amplitude on both
    psi = np.zeros(16, dtype=complex)
    psi[pattern_to_index(mem[0])] = np.sqrt(0.5)
    psi[pattern_to_index(-mem[0])] = np.sqrt(0.5) * 1j
    assert ground_state_mass(psi, h1) == pytest.approx(1.0, abs=1e-12)
    assert ground_state_mass(uniform_superposition(4), h1) == pytest.approx(2 / 16)


def test_ground_state_mass_takes_the_diagonal():
    mem = overlapping_memories()[:2]
    h1 = ising_hamiltonian(hebb_weights(mem), BiasSpec(mem[0], 0.2))
    psi = np.random.default_rng(3).normal(size=16) + 0j
    assert ground_state_mass(psi, h1.diagonal()) == ground_state_mass(psi, h1)
    diag = h1.diagonal()
    diag[5] = np.nan
    with pytest.raises(FloatingPointError, match="problem Hamiltonian is not finite"):
        ground_state_mass(psi, diag)
