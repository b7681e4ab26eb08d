import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfield_annealing import spectrum
from hopfield_annealing.evolution import AnnealSchedule
from hopfield_annealing.hamiltonians import (
    IsingHamiltonian,
    ising_hamiltonian,
    transverse_field_hamiltonian,
)
from hopfield_annealing.instances import derive_seed, generate_instance
from hopfield_annealing.learning import LEARNING_RULES, hebb_weights, weights_for_rule
from hopfield_annealing.network import BiasSpec
from hopfield_annealing.patterns import hadamard_memories
from hopfield_annealing.spectrum import (
    SpectrumTrace,
    instantaneous_spectrum,
    min_gap,
    spectrum_trace,
    write_spectrum_csv,
)


@pytest.fixture
def biased_hadamard():
    mem = hadamard_memories(4)
    w = hebb_weights(mem)
    h1 = ising_hamiltonian(w, BiasSpec(mem[0], 1.0))
    return transverse_field_hamiltonian(4), h1


def test_spectrum_at_start_is_driver_spectrum():
    n = 4
    h0 = transverse_field_hamiltonian(n)
    h1 = ising_hamiltonian(hebb_weights(hadamard_memories(n, 2)), None)
    schedule = AnnealSchedule.linear(10.0)
    vals = instantaneous_spectrum(h0, h1, schedule, 0.0)
    # driver levels are n - 2k with multiplicity (n choose k), sign flipped
    expected = np.sort(np.concatenate(
        [np.full(comb(n, k), -(n - 2 * k)) for k in range(n + 1)]
    ))
    assert np.allclose(vals, expected, atol=1e-12)


def test_spectrum_at_end_is_problem_spectrum():
    h0 = transverse_field_hamiltonian(4)
    h1 = ising_hamiltonian(hebb_weights(hadamard_memories(4, 3)), None)
    schedule = AnnealSchedule.linear(5.0)
    vals = instantaneous_spectrum(h0, h1, schedule, 5.0)
    assert np.allclose(vals, np.sort(h1.diagonal()), atol=1e-9)


def test_spectrum_time_validation():
    h0 = transverse_field_hamiltonian(2)
    schedule = AnnealSchedule.linear(1.0)
    with pytest.raises(ValueError):
        instantaneous_spectrum(h0, np.zeros(4), schedule, 2.0)
    for t in ("a", None, float("nan"), -0.1):
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]"):
            instantaneous_spectrum(h0, np.zeros(4), schedule, t)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), 1e308])
def test_non_finite_schedule_weight_is_named_with_its_time(weight):
    # 1e308 is finite, but times the driver's row sum 2 or the diagonal's 10
    # it overflows
    h0 = transverse_field_hamiltonian(2)
    driver = AnnealSchedule(1.0, lambda t: weight if t == 0.5 else 0.5, lambda t: 0.5)
    problem = AnnealSchedule(1.0, lambda t: 0.5, lambda t: weight if t == 0.5 else 0.5)
    for schedule, weights in ((driver, f"A={weight:g}, B=0.5"),
                              (problem, f"A=0.5, B={weight:g}")):
        for call in (lambda: instantaneous_spectrum(h0, np.full(4, 10.0), schedule, 0.5),
                     lambda: spectrum_trace(h0, np.full(4, 10.0), schedule, num_samples=3)):
            with pytest.raises(FloatingPointError, match=re.escape(f"weights {weights} at t=0.5")):
                call()


def test_malformed_register_rejected():
    schedule = AnnealSchedule.linear(1.0)
    with pytest.raises(ValueError, match="diagonal length 3 is not a power of two"):
        instantaneous_spectrum(np.zeros((3, 3)), np.zeros(3), schedule, 0.5)
    driver = transverse_field_hamiltonian(3)
    for h0 in (np.triu(driver), 2 * driver, np.zeros((8, 8))):
        for call in (lambda: instantaneous_spectrum(h0, np.zeros(8), schedule, 0.5),
                     lambda: spectrum_trace(h0, np.zeros(8), schedule, num_samples=3)):
            with pytest.raises(ValueError, match=r"h0 is not the 3-qubit driver -sum_i X_i"):
                call()


def test_trace_endpoints_and_shape():
    h0 = transverse_field_hamiltonian(4)
    h1 = ising_hamiltonian(hebb_weights(hadamard_memories(4, 2)), None)
    schedule = AnnealSchedule.linear(8.0)
    trace = spectrum_trace(h0, h1, schedule, num_samples=21)
    assert trace.times[0] == 0.0 and trace.times[-1] == 8.0
    assert trace.energies.shape == (21, 16)
    assert np.allclose(trace.energies[0], np.linalg.eigvalsh(h0), atol=1e-9)
    assert np.allclose(trace.energies[-1], np.sort(h1.diagonal()), atol=1e-9)
    # ascending at every sample
    assert np.all(np.diff(trace.energies, axis=1) >= -1e-12)


def test_trace_sample_validation():
    h0 = transverse_field_hamiltonian(2)
    with pytest.raises(ValueError):
        spectrum_trace(h0, np.zeros(4), AnnealSchedule.linear(1.0), num_samples=1)


def test_trace_refuses_a_runaway_sample_count():
    h0 = transverse_field_hamiltonian(2)
    for samples in (40_001, 10**12):
        with pytest.raises(ValueError, match="exceed the limit"):
            spectrum_trace(h0, np.zeros(4), AnnealSchedule.linear(1.0), num_samples=samples)


def test_dense_problem_hamiltonian_rejected():
    h0 = transverse_field_hamiltonian(2)
    schedule = AnnealSchedule.linear(1.0)
    dense = np.diag([0.0, 1.0, 2.0, -1.0])
    with pytest.raises(ValueError, match="must be 1-D diagonals"):
        instantaneous_spectrum(h0, dense, schedule, 0.5)
    with pytest.raises(ValueError, match="must be 1-D diagonals"):
        spectrum_trace(h0, dense, schedule, num_samples=3)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_problem_hamiltonian_rejected(bad):
    h0 = transverse_field_hamiltonian(2)
    schedule = AnnealSchedule.linear(1.0)
    diag = np.array([0.0, 1.0, bad, -1.0])
    with pytest.raises(FloatingPointError, match="not finite"):
        instantaneous_spectrum(h0, diag, schedule, 0.5)
    with pytest.raises(FloatingPointError, match="not finite"):
        spectrum_trace(h0, np.diag(diag), schedule, num_samples=3)


def test_trace_curves_are_continuous(biased_hadamard):
    h0, h1 = biased_hadamard
    schedule = AnnealSchedule.linear(10.0)
    coarse = spectrum_trace(h0, h1, schedule, num_samples=101)
    jumps = np.abs(np.diff(coarse.energies, axis=0)).max()
    # bounded by grid spacing times the total Hamiltonian scale
    scale = np.abs(np.linalg.eigvalsh(h0)).max() + np.abs(h1.diagonal()).max()
    assert jumps <= (10.0 / 100) * scale


def test_min_gap_biased_unique_ground(biased_hadamard):
    h0, h1 = biased_hadamard
    schedule = AnnealSchedule.linear(10.0)
    trace = spectrum_trace(h0, h1, schedule, num_samples=201)
    gap, t_at = min_gap(trace)
    # unique final ground state; the gap at t=0 equals the driver spacing 2
    final = trace.energies[-1]
    assert np.sum(np.abs(final - final[0]) <= 1e-9) == 1
    assert trace.energies[0, 1] - trace.energies[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < gap <= 2.0
    assert 0.0 <= t_at <= 10.0


def test_min_gap_degenerate_manifold():
    # p = 2 orthogonal memories, no bias: 2p-fold degenerate final ground
    # manifold, so the gap is measured from level d = 4 upward
    h0 = transverse_field_hamiltonian(4)
    h1 = ising_hamiltonian(hebb_weights(hadamard_memories(4, 2)), None)
    schedule = AnnealSchedule.linear(12.0)
    trace = spectrum_trace(h0, h1, schedule, num_samples=121)
    final = trace.energies[-1]
    assert np.sum(np.abs(final - final[0]) <= 1e-9) == 4
    gap, _ = min_gap(trace)
    assert gap > 0.0
    final_gap = final[4] - final[0]
    assert gap <= final_gap + 1e-12
    # at t=0 the manifold gap is still the driver spacing
    assert trace.energies[0, 4] - trace.energies[0, 0] == pytest.approx(2.0, abs=1e-9)


def test_min_gap_of_a_manifold_spanning_the_spectrum():
    # the complete Hadamard basis at n = 4 stores the identity, whose zeroed
    # diagonal leaves no coupling: all 16 final levels are degenerate, so the
    # gap is 0 at t = T by convention
    h0 = transverse_field_hamiltonian(4)
    h1 = ising_hamiltonian(hebb_weights(hadamard_memories(4)), None)
    trace = spectrum_trace(h0, h1, AnnealSchedule.linear(6.0), num_samples=7)
    assert np.ptp(trace.energies[-1]) <= 1e-9
    assert min_gap(trace) == (0.0, 6.0)


def test_min_gap_empty_trace():
    with pytest.raises(ValueError):
        min_gap(SpectrumTrace(times=np.array([]), energies=np.zeros((0, 4))))


def test_spectrum_csv_round_trip(tmp_path):
    h0 = transverse_field_hamiltonian(2)
    trace = spectrum_trace(h0, np.array([0.5, -1.0, 0.0, 2.0]),
                           AnnealSchedule.linear(3.0), num_samples=7)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,E_0,E_1,E_2,E_3"
    assert len(lines) == 8
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], trace.times)        # 17 digits round-trip
    assert np.array_equal(data[:, 1:], trace.energies)


@pytest.mark.parametrize("times, energies, field", [
    (np.zeros(3), np.zeros((2, 4)), "energies"),
    (np.zeros(3), np.zeros(3), "energies"),
    (np.zeros(3), np.zeros((3, 0)), "energies"),
    (np.zeros(2), np.array([[0.0, 1.0], [np.nan, 1.0]]), "energies"),
    (np.zeros(2), np.array([[0.0, np.inf], [0.0, 1.0]]), "energies"),
    (np.zeros((2, 1)), np.zeros((2, 4)), "times"),
    (["a", "b"], np.zeros((2, 4)), "times"),
    (np.zeros(2), None, "energies"),
], ids=["rows-per-time", "1-D", "no-column", "nan", "inf", "2-D-times", "string-times",
        "no-energies"])
def test_trace_fields_must_fit_together(times, energies, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SpectrumTrace(times=times, energies=energies)


def test_trace_consumers_refuse_what_is_not_a_trace(tmp_path):
    with pytest.raises(ValueError, match="^trace: expected SpectrumTrace"):
        min_gap((1, 2))
    with pytest.raises(ValueError, match="^trace: expected SpectrumTrace"):
        write_spectrum_csv((1, 2), tmp_path / "spectrum.csv")
    assert not (tmp_path / "spectrum.csv").exists()


def _planted(rng, n, groups, flipped=()):
    """A unit-scale Ising diagonal whose qubits in each group, those in
    `flipped` with their spins flipped, can be permuted without changing any
    energy."""
    label = list(range(n))  # qubits of one group share a label
    for group in groups:
        for q in group:
            label[q] = group[0]
    sign = np.array([-1.0 if q in flipped else 1.0 for q in range(n)])
    template = rng.normal(size=(n, n)) / n
    couplings = np.outer(sign, sign) * (template + template.T)[np.ix_(label, label)]
    np.fill_diagonal(couplings, 0.0)
    fields = sign * (rng.normal(size=n) / n)[label]
    return IsingHamiltonian(couplings=couplings, fields=fields, n=n).diagonal()


def _expected_groups(n, groups, flipped=()):
    """`spectrum._groups` of a `_planted` diagonal: every group in qubit
    order, a qubit of none alone, and a qubit flipped when its spin is
    flipped relative to its group's first qubit's."""
    grouped = {q for group in groups for q in group}
    found = sorted([sorted(group) for group in groups]
                   + [[q] for q in range(n) if q not in grouped])
    flip = sum(1 << q for group in found for q in group
               if (q in flipped) != (group[0] in flipped))
    return found, flip


def _diagonals(n):
    rng = np.random.default_rng(n)
    yield "zero", np.zeros(1 << n)
    yield "random", rng.normal(size=1 << n)
    if n >= 2:
        yield "plain", _planted(rng, n, [[0, n - 1]])
        yield "flipped", _planted(rng, n, [[0, n - 1]], {n - 1})
    if n >= 3:
        yield "three", _planted(rng, n, [[0, 1, n - 1]], {1})
    if n >= 4:
        yield "both", _planted(rng, n, [[0, 2], [1, n - 1]], {2})
    if n >= 7:
        yield "groups", _planted(rng, n, [[1, 2, 4, n - 1], [0, 3, 5]], {0, 2, 4})


def _assert_matches_the_dense_matrix(d, label=""):
    n = d.size.bit_length() - 1
    h0 = transverse_field_hamiltonian(n)
    schedule = AnnealSchedule.linear(4.0)
    blocks = list(spectrum._blocks(d))
    assert sum(diagonal.size * count for _, diagonal, count in blocks) == 1 << n, label
    assert all(block.shape == (diagonal.size,) * 2 for block, diagonal, _ in blocks), label
    trace = spectrum_trace(h0, d, schedule, num_samples=5)
    for t, energies in zip(trace.times, trace.energies):
        dense = np.linalg.eigvalsh((1 - t / 4.0) * h0 + np.diag(t / 4.0 * d))
        assert np.abs(energies - dense).max() <= 1e-12, (label, t)
        single = instantaneous_spectrum(h0, d, schedule, t)
        assert np.abs(single - dense).max() <= 1e-12, (label, t)


@pytest.mark.parametrize("n", range(1, 9))
def test_sector_spectrum_matches_the_dense_matrix(n):
    # every diagonal's blocks, counted by their multiplicities, are the whole
    # register, and their eigenvalues are the dense matrix's
    for name, d in _diagonals(n):
        _assert_matches_the_dense_matrix(d, name)


@pytest.mark.parametrize("n", range(1, 9))
def test_pairs_are_the_planted_symmetries(n):
    groups = {name: spectrum._groups(d) for name, d in _diagonals(n)}
    # all qubits are exchangeable on the zero diagonal, plainly
    assert groups["zero"] == ([list(range(n))], 0)
    assert groups["random"] == _expected_groups(n, [])
    if n >= 2:
        assert groups["plain"] == _expected_groups(n, [[0, n - 1]])
        assert groups["flipped"] == _expected_groups(n, [[0, n - 1]], {n - 1})
    if n >= 4:
        assert groups["both"] == _expected_groups(n, [[0, 2], [1, n - 1]], {2})


@pytest.mark.parametrize("n", range(3, 9))
def test_groups_of_three_or_more_are_the_planted_symmetries(n):
    groups = {name: spectrum._groups(d) for name, d in _diagonals(n)}
    assert groups["three"] == _expected_groups(n, [[0, 1, n - 1]], {1})
    if n >= 7:
        expected = _expected_groups(n, [[1, 2, 4, n - 1], [0, 3, 5]], {0, 2, 4})
        assert groups["groups"] == expected
        assert expected[1] == 0b111100  # flips relative to qubits 0 and 1


def test_pair_blocks_are_a_symmetric_triplet_and_an_antisymmetric_singlet():
    d = _planted(np.random.default_rng(3), 2, [[0, 1]], {1})
    (triplet, diagonal, count), (singlet, single, one) = spectrum._blocks(d)
    assert count == one == 1 and singlet.shape == (1, 1) and singlet[0, 0] == 0.0
    assert np.allclose(np.linalg.eigvalsh(triplet), [-2.0, 0.0, 2.0], atol=1e-15)
    # flipped pair: |01>, |00> and |10> (weights 0, 1, 2 in the flipped frame)
    assert np.array_equal(diagonal, d[[0b10, 0b11, 0b01]]) and np.array_equal(single, d[[0b11]])


def test_a_pair_broken_by_1e9_is_not_taken():
    d = _planted(np.random.default_rng(5), 5, [[1, 3]])
    assert spectrum._groups(d) == _expected_groups(5, [[1, 3]])
    d[0b00010] += 1e-9  # bit 1 set, bit 3 clear: its swap partner is 0b01000
    assert spectrum._groups(d) == _expected_groups(5, [])
    assert len(list(spectrum._blocks(d))) == 1


def test_a_group_broken_by_1e9_loses_the_broken_qubit():
    d = _planted(np.random.default_rng(6), 5, [[0, 2, 4]], {4})
    assert spectrum._groups(d) == _expected_groups(5, [[0, 2, 4]], {4})
    # only qubit 4 set in the group's frame, against only qubit 0 (0b10001)
    # or only qubit 2 (0b10100): qubits 0 and 2 stay exchangeable
    d[0b00000] += 1e-9
    assert spectrum._groups(d) == _expected_groups(5, [[0, 2]])
    _assert_matches_the_dense_matrix(d)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.integers(1, 5), min_size=n, max_size=n),
    st.sets(st.integers(0, n - 1)), st.integers(0, 2**32 - 1))))
def test_planted_groups_match_the_dense_spectrum(drawn):
    order, sizes, flipped, seed = drawn
    n, groups = len(order), []
    while order:  # cut the shuffled qubits into groups of the drawn sizes
        groups.append(sorted(order[:sizes[len(groups)]]))
        order = order[sizes[len(groups) - 1]:]
    d = _planted(np.random.default_rng(seed), n, groups, flipped)
    assert spectrum._groups(d) == _expected_groups(n, groups, flipped)
    _assert_matches_the_dense_matrix(d, groups)


@pytest.mark.parametrize("rule", LEARNING_RULES)
def test_register_n8_instances_keep_the_sector_path(rule):
    # instance 0 of the two n = 8, p = 3, gamma = 0.3 ensembles of each rule
    # that the register_n8 benchmark workload traces at its seed 20587: each
    # has a group of three or more, and no block holds more than 72 states
    for k in range(2):
        master = derive_seed(20587, "exact", 3, 0, 0, k)
        instance = generate_instance("exact", 8, 3, rule, 0.3, 100.0,
                                     seed=derive_seed(master, "exact", 3, 0, 0, 0))
        h1 = ising_hamiltonian(weights_for_rule(rule, instance.memories),
                               BiasSpec(input_key=instance.input_key, gamma=instance.gamma))
        groups, _ = spectrum._groups(h1.diagonal())
        assert max(map(len, groups)) >= 3
        assert max(diagonal.size for _, diagonal, _ in spectrum._blocks(h1.diagonal())) <= 72
