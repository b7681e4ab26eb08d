import numpy as np
import pytest

from hopfield_annealing.learning import hebb_weights, projection_weights
from hopfield_annealing.network import (
    BiasSpec,
    classical_update,
    delta_energy,
    gamma_upper_bound,
    network_energy,
)
from hopfield_annealing.patterns import (
    all_patterns,
    hadamard_memories,
    overlapping_memories,
    random_pattern,
)


# -- loop oracles --------------------------------------------------------------

def energy_loops(z, w, theta):
    n = len(z)
    e = 0.0
    for i in range(n):
        for j in range(n):
            e -= 0.5 * z[i] * w[i, j] * z[j]
        e -= theta[i] * z[i]
    return e


def bound_loops(xi, z0, w):
    n = len(xi)
    num = 0.0
    for i in range(n):
        for j in range(n):
            num += xi[i] * w[i, j] * xi[j] - z0[i] * w[i, j] * z0[j]
    den = 2.0 * (n - sum(z0[i] * xi[i] for i in range(n)))
    return None if den == 0 else num / den


def threshold_map(z, w, theta):
    """Snapshot update: spin aligns with w @ z + theta, ties fall to -1."""
    return np.where(w @ z + theta > 0, 1, -1)


def random_symmetric_weights(rng, n):
    mem = np.stack([random_pattern(n, rng) for _ in range(rng.integers(1, n + 1))])
    return hebb_weights(mem)


# -- BiasSpec ------------------------------------------------------------------

def test_bias_thresholds():
    b = BiasSpec(input_key=[1, -1, 1], gamma=0.4)
    assert np.allclose(b.thresholds, [0.4, -0.4, 0.4])
    assert b.n == 3


def test_bias_rejects_negative_gamma():
    with pytest.raises(ValueError):
        BiasSpec(input_key=[1, -1], gamma=-0.1)


@pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
def test_bias_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="finite"):
        BiasSpec(input_key=[1, -1], gamma=gamma)


@pytest.mark.parametrize("gamma", ["a", None, [0.3], np.array([0.3, 0.4])])
def test_bias_rejects_a_gamma_that_is_not_a_number(gamma):
    with pytest.raises(ValueError, match="^gamma must be finite and at least 0"):
        BiasSpec(input_key=[1, 1], gamma=gamma)


# -- network_energy ------------------------------------------------------------

def test_energy_spin_flip_symmetry_without_bias():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        w = random_symmetric_weights(rng, n)
        z = random_pattern(n, rng)
        assert network_energy(z, w) == pytest.approx(network_energy(-z, w), abs=1e-12)


def test_memory_energy_is_minus_half_n_before_diagonal_zeroing():
    mem = hadamard_memories(4, 2)
    w_raw = projection_weights(mem, zero_diagonal=False)
    w_zero = hebb_weights(mem)  # identical rule output for orthogonal memories
    for xi in mem:
        assert network_energy(xi, w_raw) == pytest.approx(-2.0, abs=1e-12)   # -n/2
        # zeroing the diagonal shifts every bipolar state by +p/2
        assert network_energy(xi, w_zero) == pytest.approx(-2.0 + 1.0, abs=1e-12)


def test_energy_single_neuron_bias_only():
    assert network_energy([1], np.zeros((1, 1)), BiasSpec([1], 0.7)) == pytest.approx(-0.7)


def test_energy_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        w = random_symmetric_weights(rng, n)
        z = random_pattern(n, rng)
        bias_key = random_pattern(n, rng)
        b = BiasSpec(bias_key, 0.3)
        assert network_energy(z, w, b) == pytest.approx(
            energy_loops(z, w, 0.3 * bias_key.astype(float)), abs=1e-12
        )


def test_energy_dimension_mismatch():
    with pytest.raises(ValueError):
        network_energy([1, -1], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        network_energy([1, -1, 1], np.zeros((3, 3)), BiasSpec([1, -1], 0.1))


def test_energy_refuses_a_fractional_spin():
    # truncated to 1, the spin would give an energy of 0.0
    with pytest.raises(ValueError, match="pattern element 0"):
        network_energy([1.5, -1], np.zeros((2, 2)))


# -- delta_energy ----------------------------------------------------------------

def test_delta_energy_zero_at_satisfied_spin():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    # spin 1 already matches the sign of its field
    assert delta_energy([1, 1], 1, w) == 0.0


def test_delta_energy_frozen_example():
    # n=2, w01=1, z=(+1,-1), updating spin 1: score -4, i.e. twice the raw
    # energy drop measured by network_energy
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    val = delta_energy([1, -1], 1, w)
    assert val == -4.0
    drop = network_energy([1, 1], w) - network_energy([1, -1], w)
    assert val == pytest.approx(2.0 * drop, abs=1e-12)


def test_delta_energy_never_positive():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        w = random_symmetric_weights(rng, n)
        z = random_pattern(n, rng)
        k = int(rng.integers(n))
        assert delta_energy(z, k, w) <= 1e-12


def test_delta_energy_index_validation():
    with pytest.raises(ValueError):
        delta_energy([1, -1], 2, np.zeros((2, 2)))


# -- classical_update -------------------------------------------------------------

@pytest.mark.parametrize("mode", ["synchronous", "asynchronous"])
def test_stored_memory_is_fixed_point(mode):
    xi = np.array([1, -1, -1, 1])
    w = hebb_weights([xi])
    out, converged, sweeps = classical_update(xi, w, mode=mode)
    assert np.array_equal(out, xi)
    assert converged and sweeps == 1


def test_complement_is_fixed_point():
    xi = np.array([1, -1, -1, 1])
    w = hebb_weights([xi])
    out, converged, _ = classical_update(-xi, w)
    assert converged and np.array_equal(out, -xi)


def test_hamming_one_starts_converge():
    xi = np.array([1, -1, 1, 1])
    w = hebb_weights([xi])
    for k in range(4):
        start = xi.copy()
        start[k] *= -1
        out, converged, _ = classical_update(start, w, seed=k)
        assert converged
        assert np.array_equal(out, xi) or np.array_equal(out, -xi)
        # a bias toward the memory removes the complement route
        out_b, converged_b, _ = classical_update(
            start, w, BiasSpec(xi, 0.5), seed=k
        )
        assert converged_b and np.array_equal(out_b, xi)


def test_async_visit_order_is_seeded():
    mem = overlapping_memories()[:3]
    w = hebb_weights(mem)
    start = np.array([1, 1, -1, -1])
    a = classical_update(start, w, seed=12)
    b = classical_update(start, w, seed=12)
    assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]


def test_update_validation():
    w = np.zeros((2, 2))
    with pytest.raises(ValueError):
        classical_update([1, -1], w, mode="diagonal")
    with pytest.raises(ValueError):
        classical_update([1, -1], w, max_sweeps=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fixed_points_are_exactly_threshold_solutions(n):
    # exhaustive for n <= 4: stationarity under classical_update == the sign
    # condition of the update map, ties resolved to -1
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = random_symmetric_weights(rng, n)
        theta = np.zeros(n)
        for z in all_patterns(n):
            stationary = np.array_equal(threshold_map(z, w, theta), z)
            out, converged, sweeps = classical_update(z, w, seed=1)
            if stationary:
                assert converged and sweeps == 1 and np.array_equal(out, z)
            else:
                assert not np.array_equal(out, z) or sweeps > 1


def test_fixed_point_complement_symmetry():
    rng = np.random.default_rng(19)
    w = random_symmetric_weights(rng, 4)
    for z in all_patterns(4):
        fwd = np.array_equal(threshold_map(z, w, np.zeros(4)), z)
        bwd = np.array_equal(threshold_map(-z, w, np.zeros(4)), -z)
        assert fwd == bwd


def test_lyapunov_energy_never_increases():
    # exhaustive over all states and neurons at n=4, randomized at n=5..8
    rng = np.random.default_rng(14)
    for _ in range(4):
        w = random_symmetric_weights(rng, 4)
        key = random_pattern(4, rng)
        for gamma in (0.0, 0.3):
            bias = BiasSpec(key, gamma)
            theta = bias.thresholds
            for z in all_patterns(4):
                e0 = network_energy(z, w, bias)
                for k in range(4):
                    z_new = z.copy()
                    z_new[k] = 1 if w[k] @ z + theta[k] > 0 else -1
                    assert network_energy(z_new, w, bias) <= e0 + 1e-12
    for n in range(5, 9):
        w = random_symmetric_weights(rng, n)
        for _ in range(40):
            z = random_pattern(n, rng)
            k = int(rng.integers(n))
            e0 = network_energy(z, w)
            z_new = z.copy()
            z_new[k] = 1 if w[k] @ z > 0 else -1
            assert network_energy(z_new, w) <= e0 + 1e-12


# -- gamma_upper_bound -------------------------------------------------------------

def test_bound_orthogonal_premise_is_half():
    # memories orthogonal to each other and to the input, raw Hebb weights:
    # the formula evaluates to n/(2n) = 1/2 independent of n
    for n in (4, 8):
        mem = hadamard_memories(n, 2)
        w = hebb_weights(mem, zero_diagonal=False)
        z0 = hadamard_memories(n, 3)[2]
        got = gamma_upper_bound(mem[0], z0, w)
        assert got == pytest.approx(0.5, abs=1e-12)
        assert got == pytest.approx(bound_loops(mem[0], z0, w), abs=1e-12)


def test_bound_undefined_when_input_is_the_memory():
    mem = overlapping_memories()
    w = hebb_weights(mem)
    assert gamma_upper_bound(mem[0], mem[0], w) is None


def test_bound_on_overlapping_subset_frozen_value():
    # memories 2-4 of the overlapping set, input = pattern 1 (not stored):
    # raw projection weights give exactly 1/6
    mem = overlapping_memories()
    w = projection_weights(mem[1:], zero_diagonal=False)
    got = gamma_upper_bound(mem[1], mem[0], w)
    assert got == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert got == pytest.approx(bound_loops(mem[1], mem[0], w), abs=1e-12)


def test_bound_matches_loop_oracle_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        w = random_symmetric_weights(rng, n)
        xi = random_pattern(n, rng)
        z0 = random_pattern(n, rng)
        expect = bound_loops(xi, z0, w)
        got = gamma_upper_bound(xi, z0, w)
        if expect is None:
            assert got is None
        else:
            assert got == pytest.approx(expect, abs=1e-12)
