import concurrent.futures
import itertools
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hopfield_annealing.ensembles as ensembles
from hopfield_annealing import evolution
from hopfield_annealing.ensembles import (
    DEFAULT_THRESHOLD,
    RESULTS_HEADER,
    anneal_time_sweep,
    bias_sweep,
    run_ensemble,
    run_instance,
    success_indicator,
    write_results_csv,
    _ORDERED_MAX_P,
    _class_keys,
    _sweep_cells,
)
from hopfield_annealing.evolution import AnnealSchedule, evolve_batch
from hopfield_annealing.instances import (
    PROTOCOLS,
    ProblemInstance,
    derive_seed,
    generate_exact_instance,
    generate_instance,
)
from hopfield_annealing.learning import LEARNING_RULES
from hopfield_annealing.patterns import overlapping_memories, pattern_to_index


def class_key(instance):
    """The class key of one instance, a batch of one."""
    rows = np.vstack([instance.memories, instance.input_key])
    return _class_keys(instance.protocol, instance.rule, instance.gamma, rows[None],
                       [instance.answer_index])[0]


def quick_instance(rule="hebb", gamma=0.3, T=60.0):
    mem = overlapping_memories()[:1]
    return ProblemInstance(
        protocol="exact", n=4, memories=mem, answer_index=0,
        input_key=mem[0].copy(), rule=rule, gamma=gamma, anneal_time=T, seed=0,
    )


def test_success_indicator():
    assert success_indicator(0.7, 2 / 3) == 1
    assert success_indicator(0.5, 2 / 3) == 0
    assert success_indicator(2 / 3, 2 / 3) == 1  # threshold included
    assert DEFAULT_THRESHOLD == 2 / 3
    with pytest.raises(ValueError):
        success_indicator(0.5, 1.2)
    assert success_indicator(np.float64(0.7)) == 1


@pytest.mark.parametrize("p_ans", ["a", None, float("nan"), float("inf"), [0.7]])
def test_success_indicator_refuses_what_is_not_a_finite_number(p_ans):
    with pytest.raises(ValueError, match="^p_ans must be a finite real number"):
        success_indicator(p_ans)
    with pytest.raises(ValueError, match="^threshold x must lie in"):
        success_indicator(0.5, "a")


@pytest.mark.parametrize("rule", LEARNING_RULES)
def test_single_memory_instance_succeeds(rule):
    outcome = run_instance(quick_instance(rule=rule, gamma=0.1, T=1000.0))
    assert outcome.success == 1
    assert outcome.p_ans >= 0.99
    assert outcome.ground_overlap >= outcome.p_ans - 1e-9


def test_unbiased_run_splits_over_complement():
    # gamma = 0: probability divides between the memory and its complement,
    # so the answer state alone cannot clear the 2/3 threshold
    outcome = run_instance(quick_instance(gamma=0.0, T=400.0))
    assert outcome.p_ans <= 0.5 + 1e-6
    assert outcome.success == 0
    assert outcome.ground_overlap == pytest.approx(1.0, abs=1e-3)


def test_ensemble_mean_and_binomial_variance():
    stats = run_ensemble("exact", 4, 2, "projection", 0.4, 300.0, count=6,
                         master_seed=5)
    assert stats.count == 6
    assert 0.0 <= stats.mean_success <= 1.0
    assert stats.variance == stats.mean_success * (1.0 - stats.mean_success)
    assert stats.sigma == pytest.approx(np.sqrt(stats.variance / 6))


def test_ensemble_all_success_cell():
    stats = run_ensemble("exact", 4, 1, "hebb", 0.5, 300.0, count=5, master_seed=1)
    assert stats.mean_success == 1.0
    assert stats.variance == 0.0


def test_ensemble_determinism():
    a = run_ensemble("noisy", 4, 2, "storkey", 0.3, 80.0, count=8, master_seed=9)
    b = run_ensemble("noisy", 4, 2, "storkey", 0.3, 80.0, count=8, master_seed=9)
    assert a == b
    c = run_ensemble("noisy", 4, 2, "storkey", 0.3, 80.0, count=8, master_seed=10)
    assert c.master_seed != a.master_seed


def test_ensemble_validation():
    with pytest.raises(ValueError):
        run_ensemble("exact", 4, 1, "hebb", 0.5, 100.0, count=0)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if an ensemble draws an instance."""
    import hopfield_annealing.ensembles as ensembles

    def no_draw(*args, **kw):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(ensembles, "_draw_codes", no_draw)


def recorded_draws(monkeypatch):
    """The (protocol, n, p, rule, seed) request of each instance a sweep draws
    in this process, in order, recorded at the draw seam of ensembles."""
    requests, real_draw = [], ensembles._draw_codes

    def draw(philox, *request):
        requests.append(request)
        return real_draw(philox, *request)

    monkeypatch.setattr(ensembles, "_draw_codes", draw)
    return requests


def rebuilt(requests, sets, count, anneal_time):
    """`generate_instance` of each recorded request, with the gamma of its
    set: the requests run through `sets` (rule, p, gamma), `count` each."""
    assert [(rule, p) for _, _, p, rule, _ in requests] == [
        (rule, p) for rule, p, _ in sets for _ in range(count)]
    return [generate_instance(protocol, n, p, rule, gamma, anneal_time, seed=seed)
            for (protocol, n, p, rule, seed), (_, _, gamma)
            in zip(requests, [cell for cell in sets for _ in range(count)])]


@pytest.mark.parametrize("kwargs, match", [
    ({"count": 0}, "count"),
    ({"x": 2.0}, "threshold"),
    ({"x": float("nan")}, "threshold"),
    ({"count": 2.5}, "integer"),
    ({"count": True}, "integer"),
    ({"count": np.float32(2.5)}, "integer"),
    ({"count": np.bool_(True)}, "integer"),
])
def test_sweeps_check_cell_arguments_before_annealing(kwargs, match, no_draws):
    args = dict(count=2, x=0.5)
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        bias_sweep("exact", 4, [1], "hebb", [0.5], 1000.0, **args)
    with pytest.raises(ValueError, match=match):
        anneal_time_sweep("exact", 4, [1], "hebb", 0.5, [1000.0], **args)
    with pytest.raises(ValueError, match=match):
        run_ensemble("exact", 4, 1, "hebb", 0.5, 1000.0, **args)


# an entry of the request that no cell can run, after one that runs: every
# cell's request and budgets are checked before the first instance is drawn
@pytest.mark.parametrize("sweep, match", [
    (lambda: bias_sweep("exact", 5, [1, 17], "hebb", [0.1], 1000.0), "p=17 infeasible"),
    (lambda: bias_sweep("exact", 5, [1, 6], "projection", [0.1], 1000.0), "projection"),
    (lambda: anneal_time_sweep("exact", 5, [1], "hebb", 0.1, [3000.0, 1e9]), "sub-steps"),
    (lambda: bias_sweep("exact", 4, [1], "hebb", [0.1], 1.0, count=10**12), "amplitudes"),
    (lambda: run_ensemble("exact", 4, 1, "hebb", 0.1, 1.0, count=10**12), "amplitudes"),
    (lambda: _sweep_cells("exact", 5, [1, 6], dict.fromkeys(LEARNING_RULES, [0.1]), [1000.0],
                          100, 0.5, 0.1, 0), "projection"),
    (lambda: bias_sweep("exact", 4, [3], "hebb", [0.3, 0.3], 20.0, count=10), "repeats"),
    (lambda: bias_sweep("exact", 4, [1, 1], "hebb", [0.3], 20.0), "repeats"),
    (lambda: anneal_time_sweep("exact", 4, [1], "hebb", 0.3, [10.0, 10.0]), "ascending"),
    (lambda: anneal_time_sweep("exact", 4, [1], "hebb", 0.3, [100.0, 50.0]), "ascending"),
    (lambda: _sweep_cells("exact", 4, [1], {"hebb": [0.1], "storkey": [0.2, 0.2]}, [10.0],
                          2, 0.5, 0.1, 0), "storkey bias grid repeats"),
    (lambda: anneal_time_sweep("exact", 4, [], "hebb", 0.3, [-1.0]), "positive"),
    (lambda: bias_sweep("exact", 4, [], "hebb", [0.3], 0.0), "positive"),
    (lambda: anneal_time_sweep("exact", 4, [1], "hebb", 0.3, [float("nan")]), "positive"),
    (lambda: run_ensemble("exact", 4, 1.5, "hebb", 0.3, 20.0), "integer, got 1.5"),
    (lambda: bias_sweep("exact", 4, [1, True], "hebb", [0.3], 20.0), "integer, got True"),
    (lambda: run_ensemble("exact", 4, np.float32(1.5), "hebb", 0.3, 5.0, count=2), "integer"),
    (lambda: bias_sweep("exact", 4, [1, np.bool_(True)], "hebb", [0.3], 20.0), "integer"),
    (lambda: bias_sweep("exact", 3.5, [1], "hebb", [0.3], 20.0), "integer, got 3.5"),
    (lambda: bias_sweep("exact", 4, [1], "hebb", [0.3], 20.0, master_seed=1.5),
     "integer, got 1.5"),
], ids=["p-list", "projection-p-list", "T-list", "sweep-N", "ensemble-N", "three-rules",
        "repeated-gamma", "repeated-p", "repeated-T", "descending-T", "repeated-rule-gamma",
        "negative-T-no-p", "zero-T-no-p", "nan-T", "fractional-p", "bool-p",
        "numpy-fractional-p", "numpy-bool-p", "fractional-n", "fractional-master-seed"])
def test_sweeps_check_every_cell_before_drawing(sweep, match, no_draws):
    with pytest.raises(ValueError, match=match):
        sweep()


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweeps_without_cells_return_no_rows(monkeypatch, no_draws, no_pool, cpus):
    # an empty p list, bias grid, T list or rule map is a sweep of no cells:
    # it is checked like any other, then returns no rows, drawing nothing
    monkeypatch.setattr(ensembles, "_usable_cpus", lambda: cpus)
    assert bias_sweep("exact", 5, [], "hebb", [0.1], 10.0) == []
    assert bias_sweep("exact", 5, [1], "hebb", [], 10.0) == []
    assert anneal_time_sweep("exact", 5, [1], "hebb", 0.1, []) == []
    assert _sweep_cells("exact", 5, [1], {}, [10.0], 10, 0.5, 0.1, 0) == []
    with pytest.raises(ValueError, match="sub-steps"):
        bias_sweep("exact", 5, [], "hebb", [0.1], 1e9)


@pytest.mark.usefixtures("no_draws", "no_pool")
@pytest.mark.parametrize("protocol, rule, match", [
    ("bogus", "hebb", "unknown protocol 'bogus'"),
    ("exact", "quantum", "unknown learning rule 'quantum'"),
], ids=["protocol", "rule"])
def test_sweeps_without_cells_check_protocol_and_rule(protocol, rule, match):
    # an empty p list or bias grid leaves no (rule, p, gamma) set, yet the
    # protocol and the rule are refused as in a sweep that has one
    with pytest.raises(ValueError, match=match):
        bias_sweep(protocol, 5, [], rule, [0.1], 10.0)
    with pytest.raises(ValueError, match=match):
        bias_sweep(protocol, 5, [1], rule, [], 10.0)
    with pytest.raises(ValueError, match=match):
        anneal_time_sweep(protocol, 5, [], rule, 0.1, [10.0])


def test_bias_sweep_layout_and_reseeding():
    stats = bias_sweep("exact", 4, [1, 2], "hebb", [0.2, 0.6], 60.0, count=3,
                       master_seed=3)
    assert len(stats) == 4
    keys = {(s.p, s.gamma) for s in stats}
    assert keys == {(1, 0.2), (1, 0.6), (2, 0.2), (2, 0.6)}
    with pytest.raises(ValueError):
        bias_sweep("exact", 4, [1], "hebb", [1.5], 60.0, count=2)


def test_anneal_sweep_reuses_instances_across_times(monkeypatch):
    # the sweep must anneal the *same* instances at every T, drawn once per
    # (p, gamma); run_ensemble derives seeds the same way, so each cell must
    # match it exactly
    requests = recorded_draws(monkeypatch)
    p_list, count = [1, 2], 4
    for times in ([40.0, 90.0], [20.0, 60.0, 150.0]):
        requests.clear()
        sweep = anneal_time_sweep("exact", 4, p_list, "hebb", 0.5, times, count=count,
                                  master_seed=17)
        draws = [seed for *_, seed in requests]
        assert len(draws) == len(set(draws)) == len(p_list) * count
        cells = [(p, T) for p in p_list for T in times]
        assert [(s.p, s.anneal_time) for s in sweep] == cells
        for cell, (p, T) in zip(sweep, cells):
            assert cell == run_ensemble("exact", 4, p, "hebb", 0.5, T, count=count,
                                        master_seed=17)
    with pytest.raises(ValueError):
        anneal_time_sweep("exact", 4, [1], "hebb", 0.5, [100.0, 50.0], count=2)


def test_multi_rule_sweep_matches_single_cells():
    # one _sweep_cells call over two rules, each with its own bias, gives cell
    # for cell what run_ensemble gives, in rule -> p -> T order
    rule_gammas = {"storkey": [0.2], "projection": [0.4]}
    p_list, times = [1, 3], [30.0, 90.0]
    sweep = _sweep_cells("noisy", 4, p_list, rule_gammas, times, 5, 0.5, 0.1, 8)
    cells = [(rule, p, grid[0], T)
             for rule, grid in rule_gammas.items() for p in p_list for T in times]
    assert len(sweep) == len(cells)
    for cell, (rule, p, gamma, T) in zip(sweep, cells):
        assert cell == run_ensemble("noisy", 4, p, rule, gamma, T, count=5, x=0.5,
                                    master_seed=8)


def _signed_relabelling(inst, rng, reorder):
    """`inst` with its qubits permuted and some flipped, some memories negated,
    and its memories in a random order when `reorder` is set. Where the target
    is the answer its sign is the target's and stays; above _ORDERED_MAX_P
    only memories that overlap the target are negated, the ones the key signs
    without a search."""
    perm, signs = rng.permutation(inst.n), rng.choice([-1, 1], size=inst.n)
    negate = rng.choice([-1, 1], size=(inst.p, 1))
    if inst.protocol in ("exact", "noisy"):
        negate[inst.answer_index] = 1
    if inst.p > _ORDERED_MAX_P:
        negate[inst.memories @ inst.target_pattern() == 0] = 1
    order = rng.permutation(inst.p) if reorder else np.arange(inst.p)
    return ProblemInstance(
        protocol=inst.protocol, n=inst.n,
        memories=(inst.memories * negate)[order][:, perm] * signs,
        answer_index=int(np.flatnonzero(order == inst.answer_index)[0]),
        input_key=inst.input_key[perm] * signs, rule=inst.rule, gamma=inst.gamma,
        anneal_time=inst.anneal_time, seed=inst.seed,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("rule", LEARNING_RULES)
def test_class_key_is_invariant_under_signed_relabelling(protocol, rule):
    # a signed qubit permutation leaves H0 and |+>^n unchanged, every rule is
    # equivariant under it and even in each memory, so an instance and its
    # relabelling with some memories negated must share a class key and a
    # P_ans; Hebb and projection ignore memory order as well, which the key
    # tries only up to _ORDERED_MAX_P memories (the n = 6 case is above it
    # and keeps the drawn order). At n = 4 a memory may be balanced, and the
    # key tries both of its signs; (5, 5) reaches the key's largest search
    rng = np.random.default_rng(PROTOCOLS.index(protocol) * 3 + LEARNING_RULES.index(rule))
    for n, p in [(4, 1), (4, 2), (4, 3), (4, 4), (5, 5), (6, _ORDERED_MAX_P + 1)]:
        inst = generate_instance(protocol, n, p, rule, 0.4, 30.0, seed=int(rng.integers(2**63)))
        reorder = rule != "storkey" and p <= _ORDERED_MAX_P
        other = _signed_relabelling(inst, rng, reorder=reorder)
        assert class_key(other) == class_key(inst)
        assert run_instance(other).p_ans == pytest.approx(run_instance(inst).p_ans,
                                                          abs=1e-12, rel=0)


def _brute_force_key(inst):
    """The smallest int8 form over every order the key allows, both signs of
    every memory and every column order, found one form at a time."""
    p = inst.p
    rows = np.vstack([inst.memories, inst.input_key]) * inst.target_pattern()
    if inst.rule == "storkey":
        orders = [range(p)]
    elif inst.protocol in ("failure1", "failure2"):
        orders = itertools.permutations(range(p))
    else:
        others = [i for i in range(p) if i != inst.answer_index]
        orders = [(inst.answer_index, *o) for o in itertools.permutations(others)]
    forms = []
    for order in orders:
        for negate in itertools.product([1, -1], repeat=p):
            stack = np.vstack([rows[:p] * np.array(negate)[:, None], rows[p:]])[[*order, p]]
            columns = sorted(stack.T.tolist())
            forms.append(tuple(map(tuple, columns)))
    return min(forms)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_class_key_merges_exactly_what_a_brute_force_search_merges(protocol):
    # the key's integer search splits drawn instances into the same classes as
    # trying every order, memory sign and column order one form at a time
    for n, p_list in [(4, [2, 3, 4]), (5, [3, 4])]:
        for rule in LEARNING_RULES:
            for p in p_list:
                if protocol == "failure2" and n == 4 and p == 4:
                    continue  # some sets leave no pattern at distance 2
                instances = [generate_instance(protocol, n, p, rule, 0.4, 30.0,
                                               seed=derive_seed(5, protocol, p, 0, 0, i))
                             for i in range(40)]
                keys, brute = {}, {}
                assert ([keys.setdefault(class_key(i), len(keys)) for i in instances]
                        == [brute.setdefault(_brute_force_key(i), len(brute))
                            for i in instances])


def test_class_key_keeps_storkey_memory_order():
    # Storkey learns in order: swapping the answer with another memory is
    # another problem, and so another class (the swap puts a row that is not
    # all +1 in the answer's slot of the target-flipped form), unless the two
    # memories are equal up to sign, which leaves the problem as it was (at
    # seed 7 the answer is the negative of memory 0); the same swap leaves a
    # Hebb instance in its class
    for seed in range(10):
        for rule in ("storkey", "hebb"):
            inst = generate_exact_instance(5, 3, rule, 0.3, 30.0, seed=seed)
            slot = (inst.answer_index + 1) % 3
            order = np.arange(3)
            order[[inst.answer_index, slot]] = [slot, inst.answer_index]
            swapped = replace(inst, memories=inst.memories[order], answer_index=slot)
            up_to_sign = abs(inst.answer @ inst.memories[slot]) == inst.n
            same = class_key(swapped) == class_key(inst)
            assert same == (rule == "hebb" or up_to_sign)
            if up_to_sign:
                assert run_instance(swapped).p_ans == pytest.approx(
                    run_instance(inst).p_ans, abs=1e-12, rel=0)


def test_c3_draws_anneal_as_few_classes(monkeypatch):
    # the acceptance C3 grid, one sweep per p as the benchmark runs it: every
    # rule is even in each memory, so with memory signs in the key its
    # 1,500 instances fall into 101 classes (426 without); the projection
    # rule stores the projector onto the memories' span, so these hold only
    # 30 landscapes (every p = 5 set stores zero couplings); nothing anneals
    forms, classes = [], []
    real_landscape = ensembles._class_landscape

    def class_landscape(key):
        forms[-1] += 1
        return real_landscape(key)

    def anneal_classes(diagonals, n, time_list, dt, count, steps, workers):
        classes.append(len(diagonals))
        return np.zeros((len(diagonals), len(time_list)))

    monkeypatch.setattr(ensembles, "_class_landscape", class_landscape)
    monkeypatch.setattr(ensembles, "_anneal_classes", anneal_classes)
    monkeypatch.setattr(ensembles, "_usable_cpus", lambda: 1)  # one slice: one call per class
    for p in range(1, 6):
        forms.append(0)
        bias_sweep("exact", 5, [p], "projection", [0.05, 0.15, 0.5], 1000.0,
                   count=100, master_seed=20587)
    assert forms == [3, 6, 15, 33, 44]
    assert classes == [3, 6, 9, 9, 3]


def test_single_memory_rules_anneal_one_landscape_per_gamma(monkeypatch):
    # at p = 1 Hebb, Storkey and projection all store xi xi^T / n, so a
    # three-rule sweep anneals one landscape per gamma, and every instance's
    # P_ans, read through its landscape, is run_instance's to 1e-12
    plans, results = [], []
    real_draw, real_classes = ensembles._draw_classes, ensembles._anneal_classes

    def draw_classes(*args):
        plans.append(real_draw(*args))
        return plans[-1]

    def anneal_classes(*args):
        results.append(real_classes(*args))
        return results[-1]

    requests = recorded_draws(monkeypatch)
    monkeypatch.setattr(ensembles, "_draw_classes", draw_classes)
    monkeypatch.setattr(ensembles, "_anneal_classes", anneal_classes)
    gammas, times, count = [0.1, 0.6], [20.0, 60.0], 4
    _sweep_cells("exact", 5, [1], dict.fromkeys(LEARNING_RULES, gammas), times, count,
                 0.5, 0.1, 9)
    [(diagonals, ids)], [p_ans] = plans, results
    drawn = rebuilt(requests, [(rule, 1, g) for rule in LEARNING_RULES for g in gammas], count,
                    times[0])
    assert len(diagonals) == len(gammas) and p_ans.shape == (len(gammas), len(times))
    assert np.array_equal(ids, np.repeat(np.tile(np.arange(len(gammas)), 3), count).reshape(-1, count))
    for inst, landscape in zip(drawn, ids.flat):
        for t, T in enumerate(times):
            alone = run_instance(replace(inst, anneal_time=T)).p_ans
            assert abs(p_ans[landscape, t] - alone) <= 1e-12


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_instance_reads_its_own_p_ans_through_its_landscape(monkeypatch, protocol):
    # a landscape holds classes of other keys, rules and qubit orders; each
    # drawn instance's P_ans, read through its landscape id, is its own
    # anneal's to 1e-12. gamma = 0 zeroes every field, so keys merge too
    plans, results = [], []
    real_draw, real_classes = ensembles._draw_classes, ensembles._anneal_classes

    def draw_classes(*args):
        plans.append(real_draw(*args))
        return plans[-1]

    def anneal_classes(*args):
        results.append(real_classes(*args))
        return results[-1]

    requests = recorded_draws(monkeypatch)
    monkeypatch.setattr(ensembles, "_draw_classes", draw_classes)
    monkeypatch.setattr(ensembles, "_anneal_classes", anneal_classes)
    _sweep_cells(protocol, 5, [2, 3, 5], dict.fromkeys(LEARNING_RULES, [0.0, 0.4]), [8.0], 6,
                 0.5, 0.1, 21)
    [(diagonals, ids)], [p_ans] = plans, results
    drawn = rebuilt(requests, [(rule, p, g) for rule in LEARNING_RULES for p in [2, 3, 5]
                               for g in [0.0, 0.4]], 6, 8.0)
    assert len(diagonals) < len({class_key(inst) for inst in drawn})
    for inst, landscape in zip(drawn, ids.flat):
        assert abs(p_ans[landscape, 0] - run_instance(inst).p_ans) <= 1e-12


def _perturbed_storkey(monkeypatch, delta):
    """Storkey weights with one coupling pair moved by `delta`."""
    real_weights = ensembles.weights_for_rule

    def weights(rule, memories):
        w = real_weights(rule, memories)
        if rule == "storkey":
            w[0, 1] += delta
            w[1, 0] += delta
        return w

    monkeypatch.setattr(ensembles, "weights_for_rule", weights)


@pytest.mark.parametrize("delta, merged", [(1e-9, False), (3e-10, False), (1e-12, False),
                                           (4e-16, True)])
def test_landscapes_merge_only_within_float_noise(monkeypatch, delta, merged):
    # a coupling moved by 1e-9 rounds into another bucket, and one moved by
    # 3e-10 or 1e-12 into the same bucket, where the 64 eps tolerance (about
    # 1.4e-14 here) refuses it; a move of a few ulps is float noise and merges
    plans = []
    real_draw = ensembles._draw_classes

    def draw_classes(*args):
        plans.append(real_draw(*args))
        return plans[-1]

    _perturbed_storkey(monkeypatch, delta)
    monkeypatch.setattr(ensembles, "_draw_classes", draw_classes)
    _sweep_cells("exact", 5, [1], dict.fromkeys(LEARNING_RULES, [0.3]), [5.0], 3, 0.5, 0.1, 1)
    [(diagonals, ids)] = plans
    hebb, storkey, projection = ids[:, 0]
    assert hebb == projection and (storkey == hebb) == merged
    assert len(diagonals) == (1 if merged else 2)


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_and_one_cpu_draws_pick_the_same_representatives(monkeypatch, pools, keyed_slice,
                                                                workers):
    # exact projection sets at p = 5 and n = 5 all store zero couplings, and
    # p = 1 sets store the same weights under every rule: both merge form
    # classes whose diagonals differ. Pooled over `workers` or on one CPU,
    # each landscape anneals the diagonal of its first form class in the
    # order of one in-process pass, and every instance gets the same id
    plans, spans = [], []
    real_draw, real_map = ensembles._draw_classes, ensembles._Workers.map

    def draw_classes(*args):
        plans.append(real_draw(*args))
        return plans[-1]

    def map_slices(self, fn, items, pooled):
        items = list(items)
        if fn.func is ensembles._draw_slice:
            spans.append(items)
        return real_map(self, fn, items, pooled)

    monkeypatch.setattr(ensembles, "_draw_classes", draw_classes)
    monkeypatch.setattr(ensembles._Workers, "map", map_slices)
    monkeypatch.setattr(ensembles, "_POOL_MIN_DRAWS", 0)
    rule_gammas = {"projection": [0.2, 0.4], "hebb": [0.2]}
    args = ("exact", 5, [1, 5], rule_gammas, [2.0], 12, 0.5, 0.1, 6)
    for cpus in (1, workers):
        monkeypatch.setattr(ensembles, "_usable_cpus", lambda: cpus)
        _sweep_cells(*args)
    assert pools == [workers]
    (diagonals, ids), (pooled, pooled_ids) = plans
    assert np.array_equal(diagonals, pooled) and np.array_equal(ids, pooled_ids)

    sets = [(rule, p, gi, g) for rule, grid in rule_gammas.items() for p in [1, 5]
            for gi, g in enumerate(grid)]
    [whole], slices = spans
    assert whole == range(len(ids.flat)) and len(slices) == 4 * workers
    forms, rows, form_ids = keyed_slice("exact", 5, sets, 12, 6, whole)
    form_diagonals = [diagonal for _, _, diagonal in rows]
    assert len(forms) == len(set(forms)) == len(rows)
    first = {}
    for form, landscape in zip(form_ids, ids.flat):
        first.setdefault(landscape, form)
    assert sorted(first) == list(range(len(diagonals))) and len(diagonals) < len(forms)
    for landscape, form in first.items():
        assert np.array_equal(diagonals[landscape], form_diagonals[form])
    assert any(not np.array_equal(diagonals[landscape], form_diagonals[form])
               for form, landscape in zip(form_ids, ids.flat))
    # the pooled slices: each class key keeps one landscape, and some key
    # (hebb at p = 1) met again in a later slice first joined the landscape
    # another key (projection's) started
    seen, founders, recurred = {}, {}, 0
    for s, span in enumerate(slices):
        keys, _, local = keyed_slice("exact", 5, sets, 12, 6, span)
        for key, landscape in zip([keys[i] for i in local], ids.flat[span.start:span.stop]):
            first_slice, first_landscape = seen.setdefault(key, (s, landscape))
            assert first_landscape == landscape
            founders.setdefault(landscape, key)
            recurred += first_slice < s and founders[landscape] != key
    assert recurred


def test_packed_sweep_matches_every_instance_annealed_alone(monkeypatch):
    # the oracle anneals every drawn instance on its own with run_instance and
    # thresholds it per cell; the sweep must draw each instance once and
    # anneal fewer columns than it has instances, as classes merge
    import hopfield_annealing.ensembles as ensembles

    columns = []

    def anneal(diagonals, targets, anneal_time, dt):
        columns.append(len(diagonals))
        return real_anneal(diagonals, targets, anneal_time, dt)

    real_anneal = ensembles._anneal
    requests = recorded_draws(monkeypatch)
    monkeypatch.setattr(ensembles, "_anneal", anneal)
    rule_gammas = {"hebb": [0.2, 0.6], "projection": [0.1, 0.5]}
    p_list, times, count, x = [1, 3], [15.0, 45.0], 6, 0.5
    sweep = _sweep_cells("exact", 4, p_list, rule_gammas, times, count, x, 0.1, 11)
    monkeypatch.setattr(ensembles, "_anneal", real_anneal)

    cells = [(rule, p, gi, gamma) for rule, grid in rule_gammas.items()
             for p in p_list for gi, gamma in enumerate(grid)]
    drawn = rebuilt(requests, [(rule, p, gamma) for rule, p, _, gamma in cells], count, times[0])
    assert [(i.rule, i.p, i.gamma, i.seed) for i in drawn] == [
        (rule, p, gamma, derive_seed(11, "exact", p, gi, 0, i))
        for rule, p, gi, gamma in cells for i in range(count)
    ]
    assert sum(columns) < len(drawn) * len(times)
    assert len(sweep) == len(cells) * len(times)
    stats = iter(sweep)
    for c, (rule, p, _, gamma) in enumerate(cells):
        instances = drawn[c * count:(c + 1) * count]
        for T in times:
            cell = next(stats)
            assert (cell.rule, cell.p, cell.gamma, cell.anneal_time) == (rule, p, gamma, T)
            oracle = [run_instance(replace(inst, anneal_time=T), x=x).success
                      for inst in instances]
            assert cell.mean_success == np.mean(oracle)


def test_class_blocks_are_no_narrower_than_a_cell(monkeypatch):
    # at n = 10 one BLAS thread holds 7 columns; a cell of 12 instances in 12
    # classes (p = 8 memories rarely merge) still anneals as one block
    # in-process; split over two workers it runs as two blocks of 6
    columns = []
    real_anneal = ensembles._anneal

    def anneal(diagonals, targets, anneal_time, dt):
        columns.append(len(diagonals))
        return real_anneal(diagonals, targets, anneal_time, dt)

    monkeypatch.setattr(ensembles, "_anneal", anneal)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool)
    monkeypatch.setattr(ensembles, "_POOL_MIN_WORK", 0)  # the plan, not its bound
    count = evolution._one_thread_columns(10) + 5
    for workers, blocks in [(1, [count]), (2, [count // 2] * 2)]:
        columns.clear()
        monkeypatch.setattr(ensembles, "_usable_cpus", lambda: workers)
        _sweep_cells("exact", 10, [8], {"hebb": [0.3]}, [1.0], count, 0.5, 0.1, 2)
        assert columns == blocks


class _InlinePool(concurrent.futures.Executor):
    """A stand-in for the process pool that runs each block as it is submitted,
    so a test sees the pooled block plan in its own process."""

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _inline_pool(workers, mp_context):
    return _InlinePool()


@pytest.mark.parametrize("workers, n, count", [(2, 5, 30), (3, 5, 30), (2, 6, 28)])
def test_pooled_blocks_are_near_equal_in_class_order(monkeypatch, workers, n, count):
    # 3 rules x p in {4, 5} x N instances give nearly 6 N classes and fewer
    # landscapes (every p = 5 projection set at n = 5 stores zero couplings).
    # In-process and at `workers` workers (the work bound lifted) they split,
    # in order, into the fewest near-equal blocks that are a multiple of the
    # worker count and no wider than the cap: the one-thread width (255
    # columns at n = 5, 63 at n = 6), in-process at least one cell's N. No
    # block order is imposed beyond landscape order, and the two runs score
    # each landscape the same to 1e-10
    blocks, results = [], []
    real_block, real_classes = ensembles._anneal_block, ensembles._anneal_classes

    def anneal_block(diagonals, **kwargs):
        blocks.append(diagonals)
        return real_block(diagonals, **kwargs)

    def anneal_classes(diagonals, *args):
        results.append((diagonals, real_classes(diagonals, *args)))
        return results[-1][1]

    monkeypatch.setattr(ensembles, "_anneal_block", anneal_block)
    monkeypatch.setattr(ensembles, "_anneal_classes", anneal_classes)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool)
    monkeypatch.setattr(ensembles, "_POOL_MIN_WORK", 0)
    width = evolution._one_thread_columns(n)
    for cpus, cap in [(1, max(width, count)), (workers, width)]:
        monkeypatch.setattr(ensembles, "_usable_cpus", lambda: cpus)
        blocks.clear()
        _sweep_cells("noisy", n, [4, 5], dict.fromkeys(LEARNING_RULES, [0.3]), [2.0],
                     count, 0.5, 0.1, 4)
        keys, sizes = results[-1][0], [len(block) for block in blocks]
        assert np.array_equal(np.concatenate(blocks), keys)
        assert len(sizes) % cpus == 0 and max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
        assert len(sizes) == cpus or len(keys) > cap * (len(sizes) - cpus)  # the fewest
    (_, in_process), (_, pooled) = results
    assert np.max(np.abs(pooled - in_process)) <= 1e-10


def test_pooled_and_in_process_sweeps_agree(monkeypatch, tmp_path, pools):
    # a two-rule, two-T call at one and two workers: byte-identical results
    # CSVs, every class's P_ans (and so every instance's) within 1e-10, the
    # same bits from two runs at one worker count, and no worker left behind
    results = []
    real_classes = ensembles._anneal_classes

    def anneal_classes(*args):
        results.append(real_classes(*args))
        return results[-1]

    monkeypatch.setattr(ensembles, "_anneal_classes", anneal_classes)
    monkeypatch.setattr(ensembles, "_POOL_MIN_WORK", 0)  # short anneals keep it quick
    runs = {}
    for workers in (1, 2, 1, 2):
        monkeypatch.setattr(ensembles, "_usable_cpus", lambda: workers)
        stats = _sweep_cells("exact", 5, [4, 5], {"hebb": [0.3], "storkey": [0.2]},
                             [5.0, 12.0], 40, DEFAULT_THRESHOLD, 0.1, 3)
        assert multiprocessing.active_children() == []
        path = tmp_path / f"run{len(results)}.csv"
        write_results_csv(stats, path)
        runs.setdefault(workers, []).append((path.read_bytes(), results[-1]))
    assert pools == [2, 2]
    (csv_a, serial_a), (csv_b, serial_b) = runs[1]
    (csv_c, pooled_c), (csv_d, pooled_d) = runs[2]
    assert csv_a == csv_b == csv_c == csv_d
    assert np.array_equal(serial_a, serial_b) and np.array_equal(pooled_c, pooled_d)
    assert np.max(np.abs(serial_a - pooled_c)) <= 1e-10


@pytest.mark.usefixtures("two_cpus")
def test_worker_failure_keeps_its_type_and_exit_code(monkeypatch, tmp_path, capsys, pools):
    # a FloatingPointError raised in a worker reaches the caller with its type
    # and message, so the CLI still exits 3; no worker outlives the failure
    from hopfield_annealing.cli import main

    parent, real_anneal = os.getpid(), ensembles._anneal

    def anneal(*args):
        if os.getpid() != parent:
            raise FloatingPointError("problem Hamiltonian is not finite in a worker")
        return real_anneal(*args)

    monkeypatch.setattr(ensembles, "_anneal", anneal)
    monkeypatch.setattr(ensembles, "_POOL_MIN_WORK", 0)
    with pytest.raises(FloatingPointError, match="not finite in a worker"):
        _sweep_cells("exact", 5, [4, 5], {"hebb": [0.3]}, [5.0], 40, 0.5, 0.1, 3)
    assert multiprocessing.active_children() == []
    code = main(["bias-sweep", "--n", "5", "--p-list", "4,5", "--gamma-grid", "0.3",
                 "--N", "40", "--T", "5", "--out", str(tmp_path / "run")])
    assert code == 3
    assert "not finite in a worker" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert pools == [2, 2]


@pytest.mark.usefixtures("two_cpus")
def test_failing_block_stops_the_queued_blocks(monkeypatch, tmp_path):
    # blocks of 3 columns at n = 5 plan well over 8 pooled blocks; the first
    # block a worker runs raises, and map cancels the blocks still queued:
    # fewer blocks start than were planned (each start leaves a file), the
    # error reaches the caller and no worker is left
    monkeypatch.setattr(ensembles, "_one_thread_columns", lambda n: 3)
    monkeypatch.setattr(ensembles, "_POOL_MIN_WORK", 0)
    args = ("exact", 5, [3, 4, 5], dict.fromkeys(LEARNING_RULES, [0.2, 0.4]), [5.0],
            3, 0.5, 0.1, 3)
    planned, real_anneal = [], ensembles._anneal
    with monkeypatch.context() as inline:
        inline.setattr(concurrent.futures, "ProcessPoolExecutor", _inline_pool)
        inline.setattr(ensembles, "_anneal", lambda *a: planned.append(1) or real_anneal(*a))
        _sweep_cells(*args)
    assert len(planned) >= 8

    starts, calls = tmp_path / "starts", itertools.count()
    starts.mkdir()

    def anneal(*a):  # one call per block: the sweep has one T
        (starts / f"{os.getpid()}.{next(calls)}").touch()
        try:
            os.close(os.open(tmp_path / "failed", os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            time.sleep(0.05)  # outlasts the failure's trip back to the caller
            return real_anneal(*a)
        raise FloatingPointError("the first block failed")

    monkeypatch.setattr(ensembles, "_anneal", anneal)
    with pytest.raises(FloatingPointError, match="the first block failed"):
        _sweep_cells(*args)
    assert multiprocessing.active_children() == []
    assert 1 <= len(list(starts.iterdir())) < len(planned)


@pytest.mark.usefixtures("no_pool")
def test_small_sweeps_run_in_process(monkeypatch):
    # fuzz-sized sweeps, and one of about 170 classes whose short anneals
    # (50 steps) would leave each of two blocks under _POOL_MIN_WORK, never
    # start a pool; nor does one at n = 12, whatever its work, where even one
    # column is too wide for OpenBLAS to run its products on one thread
    bias_sweep("exact", 4, [1, 2], "hebb", [0.0, 1.0], 5.0, count=2)
    anneal_time_sweep("noisy", 3, [1], "storkey", 0.5, [1.0, 2.0], count=2)
    stats = bias_sweep("exact", 5, [4, 5], "hebb", [0.3], 5.0, count=100, master_seed=3)
    assert [s.count for s in stats] == [100, 100]
    monkeypatch.setattr(ensembles, "_POOL_MIN_WORK", 0)
    bias_sweep("noisy", 12, [3], "hebb", [0.3], 0.2, count=3)


@pytest.mark.usefixtures("no_draws", "no_pool")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_bias_or_time_is_refused_before_any_draw(bad):
    # the request check refuses them, so no instance is drawn and no sweep
    # reaches its pool: a noisy anneal-time sweep over p = 1-5 would draw 500
    with pytest.raises(ValueError, match="gamma must be finite"):
        generate_instance("exact", 4, 1, "hebb", bad, 10.0, seed=1)
    with pytest.raises(ValueError, match="anneal_time must be positive and finite"):
        generate_instance("exact", 4, 1, "hebb", 0.3, bad, seed=1)
    with pytest.raises(ValueError, match="gamma must be finite"):
        anneal_time_sweep("noisy", 5, [1, 2, 3, 4, 5], "hebb", bad, [10.0, 20.0])
    with pytest.raises(ValueError, match="gamma must be finite"):
        run_ensemble("noisy", 5, 3, "storkey", bad, 10.0)
    with pytest.raises(ValueError, match="gamma grid"):
        bias_sweep("noisy", 5, [1, 2, 3, 4, 5], "hebb", [0.1, bad], 10.0)


@pytest.mark.usefixtures("no_draws", "no_pool")
def test_unknown_protocol_or_overflowing_bias_is_refused_before_any_draw():
    # a sweep of 500 instances would pool its draws: both requests are
    # refused by the pre-flight, before a pool starts or an instance is drawn
    with pytest.raises(ValueError, match="unknown protocol 'bogus'"):
        run_ensemble("bogus", 5, 3, "hebb", 0.3, 10.0, count=500)
    with pytest.raises(ValueError, match="lower gamma"):
        run_ensemble("noisy", 5, 3, "hebb", 1e308, 10.0, count=500)
    with pytest.raises(ValueError, match="lower gamma"):
        anneal_time_sweep("noisy", 5, [1, 2], "storkey", 1e200, [10.0, 20.0])


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_draws_match_in_process_draws(monkeypatch, tmp_path, pools, workers):
    # the draw rule lifted, a sweep of 6 instance sets x 7 instances is cut
    # into 4 slices per worker, so slices end inside instance sets, and a
    # sweep of 2 instances (one class, annealed in-process) leaves most
    # slices empty. Drawn on one worker and on `workers`, both give the same
    # landscape diagonals in the same order, the same landscape id for every
    # instance and the same results CSV bytes; each sweep forks once, whether
    # one phase pools or both, and every instance is drawn on a worker
    drawn, anneals = [], []
    real_draw, real_classes = ensembles._draw_classes, ensembles._anneal_classes
    real_anneal, real_draw_codes = ensembles._anneal, ensembles._draw_codes

    def draw_classes(*args):
        drawn.append(real_draw(*args))
        return drawn[-1]

    def anneal_classes(diagonals, *args):
        anneals.append(diagonals)
        return real_classes(diagonals, *args)

    def draw(*args):  # one byte per draw, in a file named by its process
        with open(tmp_path / f"draws.{os.getpid()}", "a") as fh:
            fh.write(".")
        return real_draw_codes(*args)

    def anneal(*args):  # a file per process that anneals
        (tmp_path / f"anneal.{os.getpid()}").touch()
        return real_anneal(*args)

    monkeypatch.setattr(ensembles, "_draw_classes", draw_classes)
    monkeypatch.setattr(ensembles, "_anneal_classes", anneal_classes)
    monkeypatch.setattr(ensembles, "_draw_codes", draw)
    monkeypatch.setattr(ensembles, "_anneal", anneal)
    monkeypatch.setattr(ensembles, "_POOL_MIN_DRAWS", 0)
    sweeps = [(0, ("noisy", 5, [2, 4], {"hebb": [0.3], "storkey": [0.2, 0.5]}, [5.0, 12.0], 7)),
              (ensembles._POOL_MIN_WORK, ("failure1", 5, [3], {"projection": [0.4]}, [5.0], 2))]
    for min_work, args in sweeps:
        monkeypatch.setattr(ensembles, "_POOL_MIN_WORK", min_work)
        csvs = []
        for cpus in (1, workers):
            monkeypatch.setattr(ensembles, "_usable_cpus", lambda: cpus)
            pools.clear()
            for old in [*tmp_path.glob("draws.*"), *tmp_path.glob("anneal.*")]:
                old.unlink()
            stats = _sweep_cells(*args, DEFAULT_THRESHOLD, 0.1, 5)
            assert multiprocessing.active_children() == []
            write_results_csv(stats, tmp_path / "results.csv")
            csvs.append((tmp_path / "results.csv").read_bytes())
            counts = {path.suffix: path.stat().st_size for path in tmp_path.glob("draws.*")}
            assert sum(counts.values()) == len(drawn[-1][1].flat)
            assert (f".{os.getpid()}" in counts) == (cpus == 1)
            annealed_here = (tmp_path / f"anneal.{os.getpid()}").exists()
            assert annealed_here == (cpus == 1 or min_work > 0)
            assert pools == ([] if cpus == 1 else [workers])
        (diagonals_a, ids_a), (diagonals_b, ids_b) = drawn[-2:]
        assert all(np.array_equal(diagonals_a, d) for d in (diagonals_b, *anneals[-2:]))
        assert np.array_equal(ids_a, ids_b) and ids_a.shape == (len(stats) // len(args[4]), args[5])
        assert csvs[0] == csvs[1]


@pytest.mark.usefixtures("two_cpus")
def test_draw_failure_in_a_worker_keeps_its_type_and_exit_code(monkeypatch, tmp_path, capsys,
                                                               pools):
    # a ValueError raised by a draw in a worker reaches the caller with its
    # type and message, so the CLI exits 2; no worker outlives the failure
    from hopfield_annealing.cli import main

    parent, real_draw = os.getpid(), ensembles._draw_codes

    def draw(*args):
        if os.getpid() != parent:
            raise ValueError("could not draw in a worker")
        return real_draw(*args)

    monkeypatch.setattr(ensembles, "_draw_codes", draw)
    monkeypatch.setattr(ensembles, "_POOL_MIN_DRAWS", 0)
    with pytest.raises(ValueError, match="could not draw in a worker"):
        _sweep_cells("exact", 5, [4, 5], {"hebb": [0.3]}, [5.0], 40, 0.5, 0.1, 3)
    assert multiprocessing.active_children() == []
    code = main(["bias-sweep", "--n", "5", "--p-list", "4,5", "--gamma-grid", "0.3",
                 "--N", "40", "--T", "5", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "could not draw in a worker" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert pools == [2, 2]


def test_script_without_main_guard_runs_the_pool(tmp_path, monkeypatch):
    # a script that sweeps at module top level, as the demos do: fork starts
    # the workers without re-running it (spawn and forkserver would), so it
    # exits 0 with the in-process results CSV
    script = tmp_path / "sweep.py"
    script.write_text(textwrap.dedent("""
        import concurrent.futures
        import sys

        import hopfield_annealing.ensembles as ensembles

        started = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                started.append(workers)
                super().__init__(workers, **kwargs)

        concurrent.futures.ProcessPoolExecutor = Counted
        ensembles._usable_cpus = lambda: 2
        stats = ensembles.bias_sweep("exact", 5, [4, 5], "hebb", [0.3], 200.0, count=40,
                                     master_seed=3)
        ensembles.write_results_csv(stats, sys.argv[1])
        assert started == [2], started
    """))
    src = Path(ensembles.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    pooled = tmp_path / "pooled.csv"
    done = subprocess.run([sys.executable, str(script), str(pooled)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    monkeypatch.setattr(ensembles, "_usable_cpus", lambda: 1)
    write_results_csv(bias_sweep("exact", 5, [4, 5], "hebb", [0.3], 200.0, count=40,
                                 master_seed=3), tmp_path / "in_process.csv")
    assert pooled.read_bytes() == (tmp_path / "in_process.csv").read_bytes()


def test_bias_response_anneals_every_rule_in_one_block(monkeypatch):
    # three overlapping memories: the rules' curves differ, so a transposed
    # reshape or a misordered rule would not match the per-rule anneals
    memories, gammas, T = overlapping_memories()[:3], [0.0, 0.2, 0.5, 1.0], 20.0
    blocks = []

    def anneal(diagonals, targets, anneal_time, dt):
        blocks.append(diagonals.shape)
        return real_anneal(diagonals, targets, anneal_time, dt)

    real_anneal = ensembles._anneal
    monkeypatch.setattr(ensembles, "_anneal", anneal)
    curves = ensembles.bias_response(memories, memories[0], gammas, T)
    assert blocks == [(len(LEARNING_RULES) * len(gammas), 16)]
    assert list(curves) == ["gamma", *LEARNING_RULES] and curves["gamma"] == gammas
    target = pattern_to_index(memories[0])
    for rule in LEARNING_RULES:
        diagonals = [ensembles._diagonal(rule, memories, memories[0], g) for g in gammas]
        alone = np.abs(evolve_batch(diagonals, AnnealSchedule.linear(T))[:, target]) ** 2
        assert np.abs(np.array(curves[rule]) - alone).max() < 1e-11
    assert np.abs(np.subtract(curves["hebb"], curves["projection"])).max() > 1e-3


def test_bias_response_anneals_each_distinct_diagonal_once(monkeypatch):
    # at p = 1 the three rules' diagonals are bitwise equal: one block of one
    # column per gamma, and three identical curves equal to one rule's anneal
    memories, gammas, T = overlapping_memories()[:1], [0.0, 0.3, 0.8], 20.0
    blocks = []

    def anneal(diagonals, targets, anneal_time, dt):
        blocks.append(diagonals.shape)
        return real_anneal(diagonals, targets, anneal_time, dt)

    real_anneal = ensembles._anneal
    monkeypatch.setattr(ensembles, "_anneal", anneal)
    curves = ensembles.bias_response(memories, memories[0], gammas, T)
    assert blocks == [(len(gammas), 16)]
    diagonals = [ensembles._diagonal("hebb", memories, memories[0], g) for g in gammas]
    alone = np.abs(evolve_batch(diagonals, AnnealSchedule.linear(T))[:, pattern_to_index(memories[0])]) ** 2
    for rule in LEARNING_RULES:
        assert curves[rule] == curves["hebb"]
        assert np.abs(np.array(curves[rule]) - alone).max() < 1e-11


def test_run_instance_and_results_writer_refuse_what_is_not_theirs(tmp_path):
    # both raised AttributeError; a refused write leaves no file behind
    with pytest.raises(ValueError, match="^instance: expected ProblemInstance, got None"):
        run_instance(None)
    for stats in ([1], None, [bias_sweep("exact", 4, [1], "hebb", [0.3], 5.0, count=2)[0], "x"]):
        with pytest.raises(ValueError, match="^stats: "):
            write_results_csv(stats, tmp_path / "results.csv")
    assert list(tmp_path.iterdir()) == []


def test_results_csv_format_and_determinism(tmp_path):
    stats = bias_sweep("exact", 4, [2, 1], "hebb", [0.6, 0.2], 60.0, count=3,
                       master_seed=3)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_results_csv(stats, path_a)
    write_results_csv(list(reversed(stats)), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()  # sorted, order-independent
    lines = path_a.read_text().strip().splitlines()
    assert lines[0] == ",".join(RESULTS_HEADER)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "exact" and first[1] == "hebb"
    assert int(first[2]) == 4 and int(first[3]) == 1
    assert float(first[4]) == 0.2


def test_failure_protocol_targets_input_key():
    inst = generate_instance("failure1", 4, 2, "hebb", 0.9, 200.0, seed=4)
    outcome = run_instance(inst)
    assert np.array_equal(outcome.instance.target_pattern(), inst.input_key)
    assert 0.0 <= outcome.p_ans <= 1.0


def test_success_is_non_decreasing_in_anneal_time():
    # longer ramps can only help, up to binomial noise, until the knee
    sweep = anneal_time_sweep("exact", 4, [2], "hebb", 0.5,
                              [10.0, 30.0, 100.0, 300.0], count=20, master_seed=21)
    for earlier, later in zip(sweep, sweep[1:]):
        slack = 2.0 * np.sqrt((earlier.variance + later.variance) / earlier.count)
        assert later.mean_success >= earlier.mean_success - slack


def test_classical_and_quantum_layers_agree_on_recalled_pattern():
    # whenever the threshold dynamics started from the key reach the answer
    # and the anneal succeeds, both layers must name the same pattern; layer
    # disagreements are reported, never dropped
    from hopfield_annealing.learning import weights_for_rule
    from hopfield_annealing.network import BiasSpec, classical_update

    disagreements = []
    for seed in range(20):
        inst = generate_exact_instance(4, 2, "hebb", 0.4, 300.0, seed=seed)
        outcome = run_instance(inst)
        weights = weights_for_rule(inst.rule, inst.memories)
        bias = BiasSpec(inst.input_key, inst.gamma)
        state, converged, _ = classical_update(inst.input_key, weights, bias, seed=seed)
        classical_hit = converged and np.array_equal(state, inst.answer)
        if classical_hit != (outcome.success == 1):
            disagreements.append(
                f"seed {seed}: classical={'answer' if classical_hit else state.tolist()} "
                f"quantum success={outcome.success} (p_ans={outcome.p_ans:.3f})"
            )
        if classical_hit and outcome.success == 1:
            # quantum success at x = 2/3 pins the most likely state to the
            # answer, which is exactly where the classical run ended
            assert outcome.p_ans >= 2 / 3
            assert np.array_equal(state, inst.answer)
    if disagreements:
        print("layer disagreements (informational):")
        for line in disagreements:
            print(" ", line)
