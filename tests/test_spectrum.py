from math import comb

import numpy as np
import pytest

from hopfield_annealing.evolution import AnnealSchedule
from hopfield_annealing.hamiltonians import ising_hamiltonian, transverse_field_hamiltonian
from hopfield_annealing.learning import hebb_weights
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
