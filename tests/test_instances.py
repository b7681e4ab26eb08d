import hashlib
import time

import numpy as np
import pytest

from hopfield_annealing.ensembles import bias_sweep
from hopfield_annealing.instances import (
    PROTOCOLS,
    _draw_memory_set,
    derive_seed,
    generate_exact_instance,
    generate_instance,
    instance_rng,
)
from hopfield_annealing.learning import LEARNING_RULES, covariance_matrix
from hopfield_annealing.patterns import all_patterns, hamming_distance


def test_derive_seed_is_stable():
    # frozen values pin the SplitMix64 chain; changing them breaks every
    # recorded ensemble, so they are part of the reproducibility contract
    assert derive_seed(0, "exact", 1) == 18371533143561098906
    assert derive_seed(42, "noisy", 3, 2, 1, 7) == 7404326950613752625
    assert derive_seed(2**63, "failure2", 5, 0, 0, 99) == 3538784465494040438


def test_derive_seed_separates_coordinates():
    base = derive_seed(7, "exact", 2, 0, 0, 0)
    assert derive_seed(7, "exact", 2, 0, 0, 1) != base
    assert derive_seed(7, "exact", 3, 0, 0, 0) != base
    assert derive_seed(7, "noisy", 2, 0, 0, 0) != base
    assert derive_seed(7, "exact", 2, 1, 0, 0) != base
    assert derive_seed(8, "exact", 2, 0, 0, 0) != base


def test_derive_seed_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        derive_seed(0, "grover", 1)


def test_instance_rng_is_counter_based_and_seeded():
    a = instance_rng(123).integers(0, 1 << 30, size=5)
    b = instance_rng(123).integers(0, 1 << 30, size=5)
    assert np.array_equal(a, b)
    assert isinstance(np.random.Generator(np.random.Philox(key=1)).bit_generator,
                      np.random.Philox)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_generation_is_deterministic(protocol):
    a = generate_instance(protocol, 5, 3, "hebb", 0.4, 100.0, seed=11)
    b = generate_instance(protocol, 5, 3, "hebb", 0.4, 100.0, seed=11)
    assert np.array_equal(a.memories, b.memories)
    assert np.array_equal(a.input_key, b.input_key)
    assert a.answer_index == b.answer_index


@pytest.mark.parametrize("seed", ["a", None, 11.5, True])
def test_generation_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="^seed: expected an integer"):
        generate_exact_instance(5, 3, "hebb", 0.3, 10.0, seed=seed)
    a = generate_exact_instance(5, 3, "hebb", 0.3, 10.0, seed=11.0)
    assert np.array_equal(a.memories, generate_instance("exact", 5, 3, "hebb", 0.3, 10.0, 11).memories)


# one instance per protocol at n=6, p=4, recorded when each protocol had its own
# generator; a change in the order of the draws from the Philox stream moves them
_PINNED_INSTANCES = [
    ("exact", "hebb", 7,
     [[-1, 1, 1, -1, -1, -1], [1, -1, -1, -1, -1, 1], [1, -1, -1, 1, -1, -1],
      [1, 1, 1, 1, -1, 1]], 0, [-1, 1, 1, -1, -1, -1]),
    ("noisy", "storkey", 8,
     [[-1, 1, 1, -1, -1, 1], [1, -1, 1, -1, -1, 1], [-1, -1, -1, 1, 1, -1],
      [-1, -1, -1, -1, -1, -1]], 0, [-1, 1, 1, -1, -1, -1]),
    ("failure1", "projection", 9,
     [[1, -1, -1, 1, 1, -1], [1, 1, -1, 1, -1, 1], [-1, 1, 1, 1, 1, 1],
      [-1, -1, 1, -1, -1, 1]], 1, [1, 1, -1, -1, -1, 1]),
    ("failure2", "hebb", 10,
     [[1, 1, -1, -1, 1, -1], [1, 1, -1, -1, 1, 1], [-1, -1, -1, 1, 1, -1],
      [-1, -1, -1, 1, -1, 1]], 0, [1, -1, 1, -1, 1, -1]),
]


# sha256 over the int64 bytes of every instance's memories, input key and
# answer index at n = 5: every protocol x rule x p = 1-5, N = 10 instances
# each, master seed 20587 (600 instances). 78 of the projection sets drawn on
# the way have a singular covariance and are redrawn, so the hash also pins
# the projection rule's storability decisions
_PINNED_GRID_SHA256 = "e0c41274d7ec7c11693c9568b85a683066c71f50cad4a7729bf0c7668aaad072"


def test_generation_matches_pinned_grid():
    digest = hashlib.sha256()
    for protocol in PROTOCOLS:
        for rule in LEARNING_RULES:
            for p in range(1, 6):
                for i in range(10):
                    inst = generate_instance(protocol, 5, p, rule, 0.2, 50.0,
                                             seed=derive_seed(20587, protocol, p, 0, 0, i))
                    digest.update(inst.memories.tobytes())
                    digest.update(inst.input_key.tobytes())
                    digest.update(np.int64(inst.answer_index).tobytes())
    assert digest.hexdigest() == _PINNED_GRID_SHA256


@pytest.mark.parametrize("protocol, rule, seed, memories, answer_index, key",
                         _PINNED_INSTANCES, ids=[row[0] for row in _PINNED_INSTANCES])
def test_generation_matches_pinned_instances(protocol, rule, seed, memories,
                                             answer_index, key):
    inst = generate_instance(protocol, 6, 4, rule, 0.2, 50.0, seed=seed)
    assert inst.protocol == protocol
    assert inst.memories.tolist() == memories
    assert inst.answer_index == answer_index
    assert inst.input_key.tolist() == key


def test_exact_instance_constraints():
    for seed in range(30):
        inst = generate_exact_instance(5, 5, "hebb", 0.2, 50.0, seed=seed)
        assert inst.protocol == "exact"
        assert np.array_equal(inst.input_key, inst.answer)
        rows = {tuple(r) for r in inst.memories}
        assert len(rows) == 5
        assert np.array_equal(inst.target_pattern(), inst.answer)


def test_noisy_instance_constraints():
    for seed in range(30):
        inst = generate_instance("noisy", 5, 4, "storkey", 0.2, 50.0, seed=seed)
        assert hamming_distance(inst.input_key, inst.answer) == 1
        for k, mem in enumerate(inst.memories):
            if k != inst.answer_index:
                assert hamming_distance(mem, inst.answer) >= 2
                # the key is at least as close to the answer as to anything
                # else, and is never itself stored (distance >= 2 - 1 = 1)
                assert hamming_distance(inst.input_key, mem) >= 1


def test_failure_instance_constraints():
    for distance in (1, 2):
        for seed in range(30):
            inst = generate_instance(f"failure{distance}", 5, 3, "hebb", 0.2, 50.0,
                                     seed=seed)
            dists = [hamming_distance(inst.input_key, m) for m in inst.memories]
            assert min(dists) == distance
            assert dists[inst.answer_index] == distance
            assert inst.protocol == f"failure{distance}"
            # the key is never a stored memory
            assert all(d >= 1 for d in dists)
            assert np.array_equal(inst.target_pattern(), inst.input_key)


def test_failure_draw_redraws_a_set_no_key_fits():
    # the first set drawn from this seed, [-1,-1,1,-1], [1,1,-1,1], [1,1,1,1]
    # and [-1,-1,-1,-1], leaves every pattern within distance 1 of a memory:
    # the draw moves on to a set with a pattern at distance 2, and the n = 4
    # sweep that holds it runs
    seed = derive_seed(20587, "failure2", 4, 0, 0, 44)
    first = _draw_memory_set(instance_rng(seed), 4, 4, "hebb")
    nearest = np.count_nonzero(all_patterns(4)[:, None, :] != first, axis=2).min(axis=1)
    assert 2 not in nearest
    inst = generate_instance("failure2", 4, 4, "hebb", 0.4, 50.0, seed=seed)
    dists = [hamming_distance(inst.input_key, m) for m in inst.memories]
    assert min(dists) == dists[inst.answer_index] == 2
    stats = bias_sweep("failure2", 4, [4], "hebb", [0.4], 50.0, count=100, master_seed=20587)
    assert stats[0].mean_success == 0.1


@pytest.mark.parametrize("n, p", [(2, 2), (1, 1)])
def test_failure_draw_no_set_can_satisfy_fails_in_bounded_time(n, p):
    # no set of p memories at n = 1 or 2 leaves a pattern at distance 2
    start = time.perf_counter()
    with pytest.raises(ValueError, match="distance 2"):
        generate_instance("failure2", n, p, "hebb", 0.2, 50.0, seed=0)
    assert time.perf_counter() - start < 10.0


def test_failure_request_no_set_can_satisfy_is_refused_before_any_draw():
    # a key at distance 2 needs p memories among the patterns at distance >= 2
    for n, p in [(1, 1), (2, 2)]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="distance 2"):
            generate_instance("failure2", n, p, "hebb", 0.2, 50.0, seed=0)
        assert time.perf_counter() - start < 0.05
    for n, p in [(2, 1), (3, 4)]:
        inst = generate_instance("failure2", n, p, "hebb", 0.2, 50.0, seed=0)
        assert min(hamming_distance(inst.input_key, m) for m in inst.memories) == 2


def test_failure_distance_validation():
    with pytest.raises(ValueError):
        generate_instance("failure3", 5, 3, "hebb", 0.2, 50.0, seed=0)


def test_projection_instances_have_invertible_covariance():
    for seed in range(30):
        inst = generate_exact_instance(5, 5, "projection", 0.2, 50.0, seed=seed)
        cond = np.linalg.cond(covariance_matrix(inst.memories))
        assert np.isfinite(cond) and cond < 1e12


def test_infeasible_requests_rejected():
    with pytest.raises(ValueError):
        generate_exact_instance(3, 5, "hebb", 0.2, 50.0, seed=0)  # p > 2^(n-1)
    with pytest.raises(ValueError):
        generate_exact_instance(5, 3, "hebb", -0.1, 50.0, seed=0)
    with pytest.raises(ValueError):
        generate_exact_instance(5, 3, "hebb", 0.1, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_instance("grover", 5, 3, "hebb", 0.1, 50.0, seed=0)
    with pytest.raises(ValueError):
        generate_exact_instance(5, 3, "quantum", 0.1, 50.0, seed=0)


@pytest.mark.parametrize("protocol, n, p", [
    ("exact", 4, 5), ("failure2", 4, 8), ("noisy", 3, 4), ("noisy", 2, 2),
])
def test_unstorable_projection_sets_rejected_before_sampling(protocol, n, p):
    # every such set is linearly dependent; rejection sampling would retry
    # REJECTION_CAP sets (seconds) before giving up
    start = time.perf_counter()
    with pytest.raises(ValueError, match="projection"):
        generate_instance(protocol, n, p, "projection", 0.1, 50.0, seed=0)
    assert time.perf_counter() - start < 0.1


def test_generation_completes_quickly_at_full_load():
    # rejection sampling head-room: n=5 with p=5 draws must not stall
    for seed in range(50):
        generate_instance("noisy", 5, 5, "hebb", 0.5, 10.0, seed=seed)


def test_instance_field_consistency_enforced():
    from hopfield_annealing.instances import ProblemInstance

    mem = np.array([[1, -1, 1, -1]])
    good = dict(protocol="exact", n=4, memories=mem, answer_index=0,
                input_key=mem[0], rule="hebb", gamma=0.1, anneal_time=10.0, seed=0)
    ProblemInstance(**good)
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "answer_index": 1})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "n": 5})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "input_key": np.array([1, -1])})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "protocol": "grover"})
    # a spin of 1.5 is refused, not truncated to 1
    with pytest.raises(ValueError, match="memory 0 element 0"):
        ProblemInstance(**{**good, "memories": [[1.5, -1, 1, -1]]})
