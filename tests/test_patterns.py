import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopfield_annealing.patterns import (
    all_patterns,
    as_memory_set,
    as_pattern,
    hadamard_memories,
    hamming_distance,
    index_to_pattern,
    overlapping_memories,
    pattern_to_index,
    random_pattern,
)

spins = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=10)


def test_as_pattern_accepts_bipolar():
    z = as_pattern([1, -1, 1])
    assert z.dtype == np.int64
    assert list(z) == [1, -1, 1]


# spins are refused, never truncated or cast first: 1.5 and -1.9 are not
# +1 and -1, and the string '1' is not a number
@pytest.mark.parametrize("bad", [[], [0, 1], [1, 2, -1], [0.5, -0.5], [[1, -1]],
                                 [1.5, -1, 1], [-1.9, 1], ["1", "-1"], [1, None]])
def test_as_pattern_rejects_non_bipolar(bad):
    with pytest.raises(ValueError):
        as_pattern(bad)


def test_as_memory_set_requires_common_length():
    with pytest.raises(ValueError, match="differ in length"):
        as_memory_set([[1, -1], [1, -1, 1]])
    with pytest.raises(ValueError):
        as_memory_set([])


@pytest.mark.parametrize("bad, match", [
    ([[1, -1], [1.5, -1]], "memory 1 element 0"),
    ([[1, -1], [-1, 1.0000001]], "memory 1 element 1"),
    ([["1", "-1"]], "real numbers"),
    ([[True, True]], "real numbers"),
])
def test_as_memory_set_refuses_what_a_cast_would_hide(bad, match):
    with pytest.raises(ValueError, match=match):
        as_memory_set(bad)


def test_validated_arrays_are_fresh_int64_copies():
    for check, source in [(as_pattern, np.array([1, -1])),
                          (as_memory_set, np.array([[1, -1]], dtype=np.int8))]:
        got = check(source)
        assert got.dtype == np.int64
        assert not np.shares_memory(got, source)


def test_hamming_examples():
    assert hamming_distance([1, -1, 1], [1, -1, 1]) == 0
    z = [1, 1, -1, 1, -1]
    assert hamming_distance(z, [-v for v in z]) == 5
    assert hamming_distance([1, -1, 1], [1, 1, 1]) == 1


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance([1, -1], [1, -1, 1])


@given(spins, spins)
def test_hamming_is_symmetric_and_bounded(a, b):
    if len(a) != len(b):
        return
    d = hamming_distance(a, b)
    assert d == hamming_distance(b, a)
    assert 0 <= d <= len(a)
    assert (d == 0) == (a == b)


def test_little_endian_indexing():
    # spin i occupies bit 2^i: all -1 -> 0, only spin 0 up -> 1
    assert pattern_to_index([-1, -1, -1]) == 0
    assert pattern_to_index([1, -1, -1]) == 1
    assert pattern_to_index([-1, 1, 1]) == 6
    assert list(index_to_pattern(6, 3)) == [-1, 1, 1]


@given(st.integers(min_value=1, max_value=8), st.data())
def test_index_pattern_round_trip(n, data):
    s = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    assert pattern_to_index(index_to_pattern(s, n)) == s


def test_index_out_of_range():
    with pytest.raises(ValueError):
        index_to_pattern(8, 3)


def test_all_patterns_matches_index_decoding():
    table = all_patterns(4)
    assert table.shape == (16, 4)
    for s in range(16):
        assert np.array_equal(table[s], index_to_pattern(s, 4))


def test_random_pattern_deterministic():
    a = random_pattern(6, np.random.default_rng(3))
    b = random_pattern(6, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1, 1}


def test_hadamard_memories_orthogonal():
    mem = hadamard_memories(8)
    assert mem.shape == (8, 8)
    gram = mem @ mem.T
    assert np.array_equal(gram, 8 * np.eye(8, dtype=np.int64))
    assert np.array_equal(mem[0], np.ones(8, dtype=np.int64))


def test_hadamard_memories_validation():
    with pytest.raises(ValueError):
        hadamard_memories(6)
    with pytest.raises(ValueError):
        hadamard_memories(4, 5)


def test_hadamard_memories_read_their_sizes_as_integers():
    assert np.array_equal(hadamard_memories(4.0, np.int64(2)), hadamard_memories(4, 2))
    for args, name in (((4.5,), "n"), (("a",), "n"), ((True,), "n"), ((4, 2.5), "p")):
        with pytest.raises(ValueError, match=f"^{name}: expected an integer"):
            hadamard_memories(*args)


def test_overlapping_memories_structure():
    mem = overlapping_memories()
    assert mem.shape == (4, 4)
    assert np.array_equal(mem[0], [1, -1, 1, -1])
    # memories 1-3 overlap, memories 2 and 4 are orthogonal
    assert mem[0] @ mem[1] == -2
    assert mem[1] @ mem[2] == 2
    assert mem[1] @ mem[3] == 0
    assert mem[0] @ mem[2] == 0
