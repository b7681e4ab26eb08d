"""The instance draws and the class keys against reference implementations.

The draws read the Philox keystream directly (see the `instances` module
docstring). Their oracle is the earlier implementation, kept here: it draws
every pattern with numpy's `Generator.integers` and checks them as +-1
arrays. The batched class keys of `ensembles._class_keys` are checked
against the earlier per-instance key, kept here too.
"""

import tracemalloc
from functools import partial
from itertools import permutations

import numpy as np
import pytest

import hopfield_annealing.ensembles as ensembles
from hopfield_annealing.ensembles import _ORDERED_MAX_P, _class_keys
from hopfield_annealing.instances import (
    _CHUNK,
    PROTOCOLS,
    REJECTION_CAP,
    _Keystream,
    _draw_codes,
    derive_seed,
    generate_instance,
    instance_rng,
)
from hopfield_annealing.learning import (
    LEARNING_RULES,
    SingularCovarianceError,
    _storable_covariance,
)
from hopfield_annealing.patterns import all_patterns, pattern_to_index


def oracle_memory_set(rng, n, p, rule, spacing=1):
    for _ in range(REJECTION_CAP):
        first = 2 * rng.integers(0, 2, size=n) - 1
        memories, seen = [first], {tuple(first)}
        for _ in range(p - 1):
            for _ in range(REJECTION_CAP):
                cand = 2 * rng.integers(0, 2, size=n) - 1
                if tuple(cand) not in seen and np.count_nonzero(cand != first) >= spacing:
                    break
            else:
                raise ValueError("could not draw a feasible pattern")
            memories.append(cand)
            seen.add(tuple(cand))
        memories = np.stack(memories)
        try:
            if rule == "projection":
                _storable_covariance(memories.astype(np.float64))
        except SingularCovarianceError:
            continue
        return memories
    raise ValueError("could not draw a usable memory set")


def oracle_exact(rng, n, p, rule):
    memories = oracle_memory_set(rng, n, p, rule)
    answer_index = int(rng.integers(p))
    return memories, answer_index, memories[answer_index].copy()


def oracle_noisy(rng, n, p, rule):
    memories = oracle_memory_set(rng, n, p, rule, spacing=2)
    input_key = memories[0].copy()
    input_key[rng.integers(n)] *= -1
    return memories, 0, input_key


class NoKeyFits(Exception):
    """The first set drawn leaves no pattern at the failure distance."""


def oracle_failure(rng, n, p, rule, distance, fallback=True):
    memories = oracle_memory_set(rng, n, p, rule)
    patterns = all_patterns(n)
    if not fallback and not (np.count_nonzero(patterns[:, None, :] != memories, axis=2)
                             .min(axis=1) == distance).any():
        raise NoKeyFits  # before REJECTION_CAP random keys, each about 15 us here
    for _ in range(REJECTION_CAP):
        key = 2 * rng.integers(0, 2, size=n) - 1
        dists = np.count_nonzero(memories != key, axis=1)
        if dists.min() == distance:
            return memories, int(np.argmin(dists)), key
    for _ in range(REJECTION_CAP):
        dists = np.count_nonzero(patterns[:, None, :] != memories, axis=2)
        fits = np.flatnonzero(dists.min(axis=1) == distance)
        if fits.size:
            key = fits[rng.integers(fits.size)]
            return memories, int(np.argmin(dists[key])), patterns[key].copy()
        memories = oracle_memory_set(rng, n, p, rule)
    raise ValueError("could not place an input key")


ORACLES = {"exact": oracle_exact, "noisy": oracle_noisy,
           "failure1": partial(oracle_failure, distance=1),
           "failure2": partial(oracle_failure, distance=2)}


def feasible(protocol, n, p, rule):
    """Whether `generate_instance` accepts the request."""
    try:
        generate_instance(protocol, n, p, rule, 0.0, 1.0, seed=0)
    except ValueError as error:
        assert "infeasible" in str(error) or "cannot store" in str(error) or \
            "leaves a pattern" in str(error), error
        return False
    return True


def assert_draws_match(protocol, n, p, rule, seeds, oracles=ORACLES):
    """The draws of every seed equal the oracle's; the count of seeds compared."""
    philox, compared = np.random.Philox(), 0
    for seed in seeds:
        try:
            memories, answer, key = oracles[protocol](instance_rng(seed), n, p, rule)
        except NoKeyFits:
            continue
        codes, drawn_answer, drawn_key = _draw_codes(philox, protocol, n, p, rule, seed)
        assert codes == [pattern_to_index(m) for m in memories], (protocol, n, p, rule, seed)
        assert (drawn_answer, drawn_key) == (answer, pattern_to_index(key)), seed
        compared += 1
    return compared


# every p up to 2^(n-1) at n <= 6; at larger n, where the oracle's draws of
# large sets cost milliseconds each, every p the projection rule stores and
# a spread up to 2^(n-1)
P_LISTS = {n: range(1, (1 << (n - 1)) + 1) for n in range(2, 7)} | {
    n: [*range(1, n + 2), 16, 1 << (n - 2), (1 << (n - 1)) - 1, 1 << (n - 1)] for n in (7, 8)} | {
    12: [*range(1, 14), 64, 300]}


@pytest.mark.parametrize("n", sorted(P_LISTS))
def test_draws_match_the_generator_draws_at_every_feasible_p(n):
    # one seed per protocol, rule and p, about 1,000 requests in all; p = 1
    # reads no word for the exact answer. A failure set that leaves no key
    # goes to the fallback, which the oracle reaches only after
    # REJECTION_CAP random keys (about 15 us each); such a request is
    # skipped here, a few near p's upper bound, and the fallback is
    # compared below
    oracles = {**ORACLES, **{protocol: partial(ORACLES[protocol], fallback=False)
                             for protocol in ("failure1", "failure2")}}
    requests = compared = 0
    for protocol in PROTOCOLS:
        for rule in LEARNING_RULES:
            for p in P_LISTS[n]:
                if feasible(protocol, n, p, rule):
                    requests += 1
                    compared += assert_draws_match(protocol, n, p, rule, [
                        derive_seed(n, protocol, p, LEARNING_RULES.index(rule))], oracles)
    assert compared >= 0.9 * requests


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_draws_match_the_generator_draws_over_many_seeds(protocol):
    # 100 seeds a rule at n = 5, p = 5, where projection sets are often
    # singular and redrawn, and failure keys are often retried
    for rule in LEARNING_RULES:
        assert assert_draws_match(protocol, 5, 5, rule, [
            derive_seed(20587, protocol, 5, 0, 0, i) for i in range(100)]) == 100


def test_failure_fallback_draws_match_the_generator_draws():
    # this seed's first set leaves no pattern at distance 2, so the draw
    # tries REJECTION_CAP random keys, lists every pattern, and redraws;
    # at n = 3, p = 4 few sets leave a key at distance 2 at all
    assert assert_draws_match("failure2", 4, 4, "hebb",
                              [derive_seed(20587, "failure2", 4, 0, 0, 44)]) == 1
    assert assert_draws_match("failure2", 3, 4, "storkey", [0]) == 1


@pytest.mark.parametrize("n", [63, 64, 70])
def test_draws_past_63_spins_match_the_generator_draws(n):
    # a code of 64 or more spins does not fit an int64. Random failure keys
    # almost never fit at this n, so the draw lists the keys at the distance
    # from the memories' neighbours, where the oracle would list all 2^n
    # patterns; those instances, each 10,000 missed random keys long, are
    # checked by their distances at n = 70 only
    for rule in LEARNING_RULES:
        for p in (1, 2, 5):
            seed = derive_seed(n, "exact", p, LEARNING_RULES.index(rule))
            for protocol in ("exact", "noisy"):
                memories, answer, key = ORACLES[protocol](instance_rng(seed), n, p, rule)
                inst = generate_instance(protocol, n, p, rule, 0.0, 1.0, seed)
                assert np.array_equal(inst.memories, memories) and inst.answer_index == answer
                assert np.array_equal(inst.input_key, key), (protocol, n, p, rule)
    for distance, protocol in enumerate(("failure1", "failure2") if n == 70 else (), start=1):
        inst = generate_instance(protocol, n, 2, "hebb", 0.0, 1.0, seed=n)
        distances = np.count_nonzero(inst.memories != inst.input_key, axis=1)
        assert distances.min() == distances[inst.answer_index] == distance


@pytest.mark.parametrize("k", [1, 2, 3, 12, 3 << 30, (1 << 31) + 1, (1 << 32) - 1, 1 << 32])
def test_bounded_indices_read_the_words_the_generator_reads(k):
    # above 2^31 Lemire's method rejects up to half of its words, so the
    # threshold shows here, where the draws' small k almost never reject;
    # patterns of 1-3 spins between the indices start them on both halves
    # of a uint64
    seed = derive_seed(20587, "exact", 1, 0, 0, k)
    stream, rng = _Keystream(seed, np.random.Philox()), instance_rng(seed)
    for i in range(300):
        n = 1 + i % 3
        assert stream.pattern(n) == pattern_to_index(2 * rng.integers(0, 2, size=n) - 1)
        assert stream.below(k) == int(rng.integers(k)), i


def oracle_class_key(protocol, rule, gamma, memories, answer_index, input_key):
    """The per-instance canonical form that `_class_keys` batches."""
    p = len(memories)
    target = input_key if protocol in ("failure1", "failure2") else memories[answer_index]
    rows = np.vstack([memories, input_key]) * target
    sums = rows[:p].sum(axis=1)
    rows[:p][sums < 0] *= -1
    if p > _ORDERED_MAX_P:
        form = rows[:, np.lexsort(rows[::-1])].astype(np.int8)
        return rule, gamma, form.shape, form.tobytes()
    balanced = np.flatnonzero(sums == 0)
    flips = np.zeros((1 << len(balanced), p + 1, 1), dtype=np.int64)
    flips[:, balanced, 0] = (np.arange(len(flips))[:, None] >> np.arange(len(balanced))) & 1
    bits = (rows > 0) ^ flips
    if rule == "storkey":
        orders = [(*range(p), p)]
    elif protocol in ("failure1", "failure2"):
        orders = [(*order, p) for order in permutations(range(p))]
    else:
        rest = [i for i in range(p) if i != answer_index]
        orders = [(answer_index, *order, p) for order in permutations(rest)]
    weights = np.zeros((len(orders), p + 1), dtype=np.int64)
    weights[np.arange(len(orders))[:, None], orders] = 1 << np.arange(p, -1, -1)
    codes = np.sort(weights @ bits, axis=-1).reshape(-1, rows.shape[1])
    best = codes[np.lexsort(codes.T[::-1])[0]]
    form = ((best >> np.arange(p, -1, -1)[:, None] & 1) * 2 - 1).astype(np.int8)
    return rule, gamma, form.shape, form.tobytes()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_batched_class_keys_match_the_per_instance_key(n):
    # even n has balanced memory rows, whose signs the key searches; p up to 7
    # passes _ORDERED_MAX_P, where the drawn order and signs are kept
    balanced = 0
    for protocol in PROTOCOLS:
        for rule in LEARNING_RULES:
            for p in range(1, min(7, 1 << (n - 1)) + 1):
                if not feasible(protocol, n, p, rule):
                    continue
                instances = [generate_instance(protocol, n, p, rule, 0.4, 1.0,
                                               seed=derive_seed(n, protocol, p, 0, 0, i))
                             for i in range(8)]
                rows = np.stack([np.vstack([i.memories, i.input_key]) for i in instances])
                keys = _class_keys(protocol, rule, 0.4, rows, [i.answer_index for i in instances])
                assert keys == [oracle_class_key(protocol, rule, 0.4, i.memories, i.answer_index,
                                                 i.input_key) for i in instances]
                balanced += int((rows[:, :p].sum(axis=2) == 0).sum())
    assert (balanced > 0) == (n % 2 == 0)


def test_long_keystream_reads_keep_a_bounded_buffer():
    # a long redraw chain reads thousands of words; each read drops the
    # uint64s already used, so the buffer never holds more than the read in
    # hand and one _CHUNK; patterns of up to 70 spins span chunks
    seed = derive_seed(20587, "failure2", 4, 0, 0, 44)
    stream, rng = _Keystream(seed, np.random.Philox()), instance_rng(seed)
    for i in range(3000):
        n = 1 + i % 13 if i % 100 else 70
        bits = rng.integers(0, 2, size=n)
        assert stream.pattern(n) == sum(int(b) << j for j, b in enumerate(bits)), i
        assert stream.below(n) == int(rng.integers(n)), i
        assert len(stream._raw) <= _CHUNK + 36
        assert stream._tops.bit_length() <= 2 * len(stream._raw)


def failure_rows(count, n, p, seed):
    """(count, p + 1, n) failure-protocol rows, key all +1, whose memories are
    balanced with probability 1/2 each, so instances hold 0..p balanced rows."""
    rng = np.random.default_rng(seed)
    rows = np.ones((count, p + 1, n), dtype=np.int64)
    rows[:, :p] = np.where(rng.random((count, p, 1)) < 0.5,
                           rng.permuted(np.tile([1, -1], (count, p, n // 2)), axis=2),
                           2 * rng.integers(0, 2, size=(count, p, n)) - 1)
    return rows


def test_keys_of_a_large_even_n_batch_keep_memory_bounded():
    # n = 6, p = 5 failure keys try 120 orders; an instance with b balanced
    # rows tries 2^b signs. Keyed in one pass padded to the batch's 32 signs,
    # these 500 instances would hold about 180 MB of codes; keyed by balanced
    # count in parts of _KEY_CODES codes, the peak is a few parts
    rows = failure_rows(500, 6, 5, 3)
    assert (rows[:, :5].sum(axis=2) == 0).all(axis=1).any()
    tracemalloc.start()
    try:
        keys = _class_keys("failure1", "hebb", 0.4, rows, [0] * len(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * ensembles._KEY_CODES
    assert keys[::5] == [oracle_class_key("failure1", "hebb", 0.4, r[:5], 0, r[5])
                         for r in rows[::5]]


@pytest.mark.parametrize("protocol", ["exact", "failure2"])
def test_keys_split_into_parts_and_batches_are_the_keys_of_one_pass(monkeypatch, keyed_slice,
                                                                   protocol):
    # parts of a few instances, and a sweep keying batches of 7 instances of
    # a 12-instance set, give the same keys, landscape rows and ids
    rows = failure_rows(60, 4, 3, 5)
    if protocol == "exact":
        rows[:, 3] = rows[:, 1]
    keys = _class_keys(protocol, "hebb", 0.4, rows, [1] * len(rows))
    sets = [("projection", 3, 0, 0.4), ("hebb", 3, 0, 0.2), ("storkey", 6, 1, 0.2)]
    whole = keyed_slice(protocol, 4, sets, 12, 6, range(36))
    monkeypatch.setattr(ensembles, "_KEY_CODES", 100)
    monkeypatch.setattr(ensembles, "_KEY_BATCH", 7)
    assert _class_keys(protocol, "hebb", 0.4, rows, [1] * len(rows)) == keys
    parts = keyed_slice(protocol, 4, sets, 12, 6, range(36))
    assert parts[0] == whole[0] and parts[2] == whole[2] and len(parts[1]) == len(whole[1])
    for (bucket, couplings, diagonal), row in zip(parts[1], whole[1]):
        assert bucket == row[0]
        assert np.array_equal(couplings, row[1]) and np.array_equal(diagonal, row[2])
