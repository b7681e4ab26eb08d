import numpy as np
import pytest

from hopfield_annealing.learning import (
    SingularCovarianceError,
    covariance_matrix,
    hebb_weights,
    projection_weights,
    storkey_weights,
    weights_for_rule,
)
from hopfield_annealing.patterns import hadamard_memories, overlapping_memories, random_pattern

RULES = (hebb_weights, storkey_weights, projection_weights)


# -- independent straight-line transcriptions used as oracles ----------------

def hebb_loops(memories):
    p, n = memories.shape
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            for mu in range(p):
                w[i, j] += memories[mu, i] * memories[mu, j] / n
    return w


def storkey_loops(memories):
    p, n = memories.shape
    w = np.zeros((n, n))
    for nu in range(p):
        xi = memories[nu]
        h = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if k != i and k != j:
                        h[i, j] += w[i, k] * xi[k]
        w_next = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                w_next[i, j] = (
                    w[i, j]
                    + xi[i] * xi[j] / n
                    - xi[i] * h[j, i] / n
                    - h[i, j] * xi[j] / n
                )
        w = w_next
    return w


def random_memory_sets(rng, count, n_range=(2, 6), p_max=4):
    for _ in range(count):
        n = int(rng.integers(*n_range))
        p = int(rng.integers(1, min(p_max, n) + 1))
        yield np.stack([random_pattern(n, rng) for _ in range(p)])


# -- Hebb ---------------------------------------------------------------------

def test_hebb_single_memory():
    w = hebb_weights([[1, 1, 1, 1]])
    off = w[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.25)
    assert np.all(np.diag(w) == 0)


def test_hebb_two_memories_hand_values():
    w = hebb_weights([[1, 1, 1, 1], [1, -1, 1, -1]])
    assert w[0, 1] == 0.0
    assert w[0, 2] == 0.5


def test_hebb_empty_set_rejected():
    with pytest.raises(ValueError):
        hebb_weights([])


def test_hebb_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for mem in random_memory_sets(rng, 10):
        assert np.allclose(hebb_weights(mem, zero_diagonal=False), hebb_loops(mem),
                           atol=1e-14)


# -- Storkey ------------------------------------------------------------------

def test_storkey_single_memory_equals_hebb():
    mem = [[1, -1, 1, -1, 1]]
    assert np.array_equal(storkey_weights(mem), hebb_weights(mem))


def test_storkey_two_memory_frozen_value():
    # second pass shifts w_01 to 3/4: 1/4 (Hebb term) + 1/4 + 2 * 1/8 (field terms)
    mem = np.array([[1, 1, 1, 1], [1, 1, -1, -1]])
    w = storkey_weights(mem)
    assert w[0, 1] == pytest.approx(0.75, abs=1e-15)
    assert w[0, 2] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(w, w.T)
    assert np.all(np.diag(w) == 0)


def test_storkey_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for mem in random_memory_sets(rng, 10):
        got = storkey_weights(mem, zero_diagonal=False)
        assert np.allclose(got, storkey_loops(mem), atol=1e-13)


def test_storkey_near_hebb_for_orthogonal_memories():
    # the field's k != i,j exclusion leaves residual terms, bounded by 2/n per
    # element at this size; exact coincidence is not claimed
    for p in range(1, 5):
        mem = hadamard_memories(4, p)
        gap = np.abs(storkey_weights(mem) - hebb_weights(mem)).max()
        assert gap <= 2 / 4 + 1e-12


# -- projection ---------------------------------------------------------------

def test_covariance_values():
    mem = overlapping_memories()
    c = covariance_matrix(mem)
    assert c[0, 0] == 1.0
    assert c[0, 1] == -0.5
    assert c[1, 3] == 0.0


def test_projection_orthogonal_equals_hebb():
    for n in (4, 8):
        for p in range(1, n + 1):
            mem = hadamard_memories(n, p)
            for zero_diag in (True, False):
                wp = projection_weights(mem, zero_diagonal=zero_diag)
                wh = hebb_weights(mem, zero_diagonal=zero_diag)
                assert np.abs(wp - wh).max() <= 1e-12


def test_projection_projector_property():
    mem = overlapping_memories()[:3]
    w = projection_weights(mem, zero_diagonal=False)
    for xi in mem:
        assert np.allclose(w @ xi, xi, atol=1e-12)


def test_projection_projector_property_random_sets():
    rng = np.random.default_rng(23)
    done = 0
    while done < 50:
        n = int(rng.integers(3, 7))
        p = int(rng.integers(1, n + 1))
        mem = np.stack([random_pattern(n, rng) for _ in range(p)])
        if np.linalg.matrix_rank(mem) < p:
            continue
        w = projection_weights(mem, zero_diagonal=False)
        for xi in mem:
            assert np.allclose(w @ xi, xi, atol=1e-9)
        done += 1


def test_projection_duplicate_memory_raises():
    with pytest.raises(SingularCovarianceError) as err:
        projection_weights([[1, -1, 1, -1], [1, -1, 1, -1]])
    assert err.value.condition_number > 1e12 or np.isinf(err.value.condition_number)
    assert "condition number" in str(err.value)


# -- shared invariants ---------------------------------------------------------

def test_all_rules_symmetric_zero_diagonal():
    rng = np.random.default_rng(5)
    for mem in random_memory_sets(rng, 8):
        if np.linalg.matrix_rank(mem) < mem.shape[0]:
            continue
        for rule in RULES:
            w = rule(mem)
            assert np.array_equal(w, w.T)
            assert np.all(np.diag(w) == 0)


def test_weights_for_rule_dispatch():
    mem = overlapping_memories()[:2]
    assert np.array_equal(weights_for_rule("hebb", mem), hebb_weights(mem))
    assert np.array_equal(weights_for_rule("storkey", mem), storkey_weights(mem))
    assert np.array_equal(weights_for_rule("projection", mem), projection_weights(mem))
    with pytest.raises(ValueError, match="unknown learning rule"):
        weights_for_rule("quantum", mem)
