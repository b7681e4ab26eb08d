"""Recall experiments: single runs, seeded ensembles, and parameter sweeps.

A run scores the probability P_ans that the final annealed state collapses to
its target pattern. The binary success indicator f_x = [P_ans >= x] (default
threshold x = 2/3) is averaged over an ensemble of N independently generated
instances; the ensemble mean is a binomial parameter, so the reported variance
is exactly mean * (1 - mean).

Cells of a sweep are independent of each other and of execution order: every
instance seed is derived from (master seed, protocol, p, bias index, time
index, instance index) alone. Seeds leave out the learning rule, so Hebb and
Storkey cells at the same (p, bias index) draw the same instances, and
projection cells differ only where that rule rejects a memory set and
redraws. Seeds leave out T too (time index 0): a sweep draws each (rule, p,
bias) instance set once and scores it at every annealing time.

A sweep anneals symmetry classes, not instances. H0 = -sum_i X_i and the
uniform start state are unchanged by permuting the qubits and by flipping any
of them, and every learning rule and the bias are equivariant under these
signed permutations. Every rule is also even in each memory (Hebb stores
xi xi^T, projection's Xi^T C^-1 Xi and Storkey's update are unchanged when a
memory changes sign), so a memory's sign matters only where that memory is
the target. P_ans is the same for every instance of a class (the
symmetry-sector idea of exact diagonalization, applied between instances).
Each class is keyed by its canonical form (`_class_key`), annealed once per
annealing time with the other classes of the sweep in packed blocks (see
`evolution.evolve_batch`), and its P_ans is scored for every member.

A sweep forks at most once (`_Workers`): one worker per usable CPU draws and
keys slices of its instances (`_draw_classes`), then anneals its classes in
near-equal blocks in class order (`_anneal_classes`); each phase stays
in-process on one CPU, at n = 12 and below its break-even. A pooled block can
be narrower than an in-process one, and a block's largest |diagonal| sets its
Taylor term and split counts, so a pooled P_ans may differ from the
in-process one by about 1e-11; a thresholded result moves only for an
instance that close to x.
"""

import os
from contextlib import AbstractContextManager
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import permutations

import numpy as np

from ._atomic import write_csv_atomic
from .evolution import (
    AnnealSchedule, evolve_batch, DEFAULT_DT, _check_anneal, _one_thread_columns,
)
from .hamiltonians import ising_hamiltonian, ground_state_mass
from .instances import ProblemInstance, derive_seed, generate_instance, _integer, _validate_request
from .learning import LEARNING_RULES, weights_for_rule
from .network import BiasSpec
from .patterns import as_pattern, pattern_to_index

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_ENSEMBLE_SIZE",
    "success_indicator",
    "RecallOutcome",
    "EnsembleStats",
    "run_instance",
    "run_ensemble",
    "bias_sweep",
    "anneal_time_sweep",
    "bias_response",
    "write_results_csv",
    "RESULTS_HEADER",
]

DEFAULT_THRESHOLD = 2.0 / 3.0
DEFAULT_ENSEMBLE_SIZE = 100

# a sweep splits its classes over worker processes only if every block keeps
# at least this much work, its amplitudes (columns << n) times the steps of
# all its anneals: below it the pool's start-up (fork, pickling, join; about
# 20-60 ms) outweighs the halved per-step work. Two workers broke even at
# 4e5-6e5 (n = 5: 24 columns at T = 50, 2 at T = 1000; n = 8: 2 columns at
# T = 100); the bound keeps a factor of about 2 for timing noise
_POOL_MIN_WORK = 1 << 20
# a sweep draws and keys on the workers from this many instances: two workers
# (fork, map and join 13-20 ms) broke even at about 200 draws of 180-220 us
# (n = 5) and 100 of 430 us; the bound keeps a factor of 2 for timing noise
_POOL_MIN_DRAWS = 400
# class keys search memory orders and the signs of balanced memory rows up to
# this p: at most 120 orders (failure protocols) times 32 signs (even n)
_ORDERED_MAX_P = 5

RESULTS_HEADER = [
    "protocol", "rule", "n", "p", "gamma", "T", "N", "x",
    "mean_success", "variance", "master_seed",
]


def success_indicator(p_ans: float, x: float = DEFAULT_THRESHOLD) -> int:
    """1 when the answer probability reaches the threshold x, else 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"threshold x must lie in [0, 1], got {x}")
    return 1 if p_ans >= x else 0


@dataclass(frozen=True)
class RecallOutcome:
    """Score of one recall run."""

    p_ans: float
    success: int
    ground_overlap: float
    instance: ProblemInstance


@dataclass(frozen=True)
class EnsembleStats:
    """Mean success of one ensemble cell with its binomial variance."""

    protocol: str
    rule: str
    n: int
    p: int
    gamma: float
    anneal_time: float
    count: int
    threshold: float
    mean_success: float
    variance: float
    master_seed: int

    @property
    def sigma(self) -> float:
        """Binomial standard error of the reported mean."""
        return float(np.sqrt(self.variance / self.count))


def _diagonal(rule: str, memories, input_key, gamma: float) -> np.ndarray:
    weights = weights_for_rule(rule, memories)
    return ising_hamiltonian(weights, BiasSpec(input_key=input_key, gamma=gamma)).diagonal()


@lru_cache(maxsize=None)  # one entry per (p, head), p <= _ORDERED_MAX_P
def _code_weights(p: int, head: tuple) -> np.ndarray:
    """(orders, p + 1) weights that turn a (p memories; key) bit matrix into
    the column codes of each row order: `head`'s memories first, then every
    order of the rest, the key last; the form's row r is bit p - r of a code."""
    rest = [i for i in range(p) if i not in head]
    orders = [(*head, *order, p) for order in permutations(rest)]
    weights = np.zeros((len(orders), p + 1), dtype=np.int64)
    weights[np.arange(len(orders))[:, None], orders] = 1 << np.arange(p, -1, -1)
    weights.flags.writeable = False
    return weights


def _class_key(instance: ProblemInstance) -> tuple:
    """(rule, gamma, shape, bytes) of the instance's canonical int8 form.

    The form is the stacked (memories; input key) matrix with spins flipped so
    the target pattern is all +1, every memory row signed to hold more +1
    than -1 (every rule is even in each memory), and its spin columns sorted.
    Up to p = _ORDERED_MAX_P the smallest form over the row orders a rule
    allows and both signs of each balanced memory row is taken: Storkey
    learns in order and keeps its drawn order; Hebb and projection weights
    do not depend on memory order, so the failure protocols, whose target is
    the key, try every order, and exact and noisy keep the answer first. The
    search runs on each column's rows read as one integer, so sorting the
    columns is sorting the integers. Above _ORDERED_MAX_P the drawn order and
    the drawn sign of balanced rows are kept. Instances with one key have one
    P_ans at target index 2^n - 1.
    """
    p = instance.p
    rows = np.vstack([instance.memories, instance.input_key]) * instance.target_pattern()
    sums = rows[:p].sum(axis=1)
    rows[:p][sums < 0] *= -1  # signs go on the rows before any reordering
    if p > _ORDERED_MAX_P:
        form = rows[:, np.lexsort(rows[::-1])].astype(np.int8)  # row 0 sorts first
        return instance.rule, instance.gamma, form.shape, form.tobytes()
    balanced = np.flatnonzero(sums == 0)
    flips = np.zeros((1 << len(balanced), p + 1, 1), dtype=np.int64)
    flips[:, balanced, 0] = (np.arange(len(flips))[:, None] >> np.arange(len(balanced))) & 1
    bits = (rows > 0) ^ flips  # (signs, p + 1, n)
    if instance.rule == "storkey":
        head = tuple(range(p))
    elif instance.protocol in ("failure1", "failure2"):
        head = ()
    else:
        head = (instance.answer_index,)
    codes = np.sort(_code_weights(p, head) @ bits, axis=-1).reshape(-1, instance.n)
    best = codes[np.lexsort(codes.T[::-1])[0]]
    form = ((best >> np.arange(p, -1, -1)[:, None] & 1) * 2 - 1).astype(np.int8)
    return instance.rule, instance.gamma, form.shape, form.tobytes()


def _class_diagonal(key: tuple) -> np.ndarray:
    """H1's diagonal of the canonical instance a `_class_key` describes."""
    rule, gamma, shape, data = key
    form = np.frombuffer(data, dtype=np.int8).reshape(shape)
    return _diagonal(rule, form[:-1], form[-1], gamma)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell, which
    also keeps the fork pool to Linux."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Workers(AbstractContextManager):
    """A sweep's pool of one `fork` worker per usable CPU, started by the first
    pooled `map` of either phase and joined when the `with` block ends; one
    worker at n = 12, where one column is already too wide for OpenBLAS to
    run its products on one thread (`_one_thread_columns`)."""

    def __init__(self, n: int):
        self.count = _usable_cpus() if _one_thread_columns(n) else 1
        self._pool = None

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()

    def map(self, fn, items, pooled: bool) -> list:
        if pooled and self._pool is None:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            # fork, not spawn: spawn re-imports __main__, which breaks scripts
            # that sweep at top level. The executor forks before it starts its
            # threads, and OpenBLAS rebuilds its thread pool after a fork
            self._pool = ProcessPoolExecutor(self.count, mp_context=get_context("fork"))
        # when a call raises, map cancels every call it has not yet yielded
        return list((self._pool.map if pooled else map)(fn, items))


def _draw_slice(protocol, n, sets, count, anneal_time, master_seed, span):
    """Draw and key the instances `span` of a sweep's `sets` x `count` list: the
    distinct class keys in order of first appearance, and each one's index."""
    keys, ids = {}, []
    for k in span:
        rule, p, gi, gamma = sets[k // count]
        instance = generate_instance(protocol, n, p, rule, gamma, anneal_time,
                                     seed=derive_seed(master_seed, protocol, p, gi, 0, k % count))
        ids.append(keys.setdefault(_class_key(instance), len(keys)))
    return list(keys), ids


def _draw_classes(workers, protocol, n, sets, count, anneal_time, master_seed):
    """A sweep's class keys in order of first appearance and each instance's
    class id, shape (sets, count), from slices drawn in-process or on `workers`."""
    total = len(sets) * count
    pooled = workers.count > 1 and total >= _POOL_MIN_DRAWS
    m = 4 * workers.count if pooled else 1  # later, larger-p slices cost more; 4 beat 1
    spans = [range(total * s // m, total * (s + 1) // m) for s in range(m)]
    draw = partial(_draw_slice, protocol, n, sets, count, anneal_time, master_seed)
    classes, ids = {}, []
    for keys, local in workers.map(draw, spans, pooled):
        merged = [classes.setdefault(key, len(classes)) for key in keys]
        ids += [merged[i] for i in local]
    return list(classes), np.reshape(ids, (len(sets), count))


def _anneal_block(keys, n: int, time_list, dt: float) -> np.ndarray:
    """P_ans of each class of `keys` (rows) at each annealing time (columns)."""
    diagonals = np.stack([_class_diagonal(key) for key in keys])
    targets = [(1 << n) - 1] * len(keys)  # every canonical target is all +1
    return np.stack([_anneal(diagonals, targets, T, dt)[1] for T in time_list], axis=1)


def _anneal_classes(keys, n: int, time_list, dt: float, count: int,
                    steps: int, workers: _Workers) -> np.ndarray:
    """P_ans of every class at every annealing time, in `keys` order; `steps`
    is the step count of all the annealing times together.

    The classes split, in class order, into the fewest near-equal blocks, a
    multiple of the worker count, none wider than OpenBLAS runs on one
    thread (`_one_thread_columns`); in-process, a block may also hold one
    cell's `count` columns. They run on `workers` unless it has one worker
    or a pooled block would keep under `_POOL_MIN_WORK`, which run them
    in-process. A worker's failure is raised here with its type and
    message, and blocks not yet handed to a worker never start.
    """
    # two processes that each thread their products over two CPUs ran 3-50
    # times slower than one (n = 5 at 600 columns, n = 10-12 at 5-56)
    cap = _one_thread_columns(n)
    blocks = workers.count * -(-len(keys) // (workers.count * max(cap, 1)))
    pooled = workers.count > 1 and ((len(keys) // blocks) << n) * steps >= _POOL_MIN_WORK
    if not pooled:
        blocks = -(-len(keys) // max(cap, count))
    edges = [len(keys) * b // blocks for b in range(blocks + 1)]
    anneal = partial(_anneal_block, n=n, time_list=time_list, dt=dt)
    spans = [keys[a:b] for a, b in zip(edges, edges[1:])]
    return np.concatenate(workers.map(anneal, spans, pooled))


def _anneal(diagonals, targets, anneal_time: float, dt: float):
    """Final states of a linear anneal per row of `diagonals`, and each row's P_ans."""
    states = evolve_batch(diagonals, AnnealSchedule.linear(anneal_time), dt)
    return states, np.abs(states[np.arange(len(states)), targets]) ** 2


def _numbers(values, convert, name: str) -> list:
    """[convert(v) for v in values], or a ValueError that names `name`."""
    try:
        return [convert(v) for v in values]
    except (TypeError, ValueError) as error:
        raise ValueError(f"{name}: {error}") from None


def run_instance(
    instance: ProblemInstance,
    x: float = DEFAULT_THRESHOLD,
    dt: float = DEFAULT_DT,
) -> RecallOutcome:
    """Anneal one instance and score the recall probability of its target."""
    diagonal = _diagonal(instance.rule, instance.memories, instance.input_key,
                         instance.gamma)
    target = pattern_to_index(instance.target_pattern())
    states, p_ans = _anneal(diagonal[None, :], [target], instance.anneal_time, dt)
    p_ans = float(p_ans[0])
    return RecallOutcome(
        p_ans=p_ans,
        success=success_indicator(p_ans, x),
        ground_overlap=ground_state_mass(states[0], diagonal),
        instance=instance,
    )


def run_ensemble(
    protocol: str,
    n: int,
    p: int,
    rule: str,
    gamma: float,
    anneal_time: float,
    count: int = DEFAULT_ENSEMBLE_SIZE,
    x: float = DEFAULT_THRESHOLD,
    dt: float = DEFAULT_DT,
    master_seed: int = 0,
) -> EnsembleStats:
    """Average recall success over `count` seeded instances."""
    return _sweep_cells(protocol, n, [p], [(rule, [gamma])], [anneal_time],
                        count, x, dt, master_seed)[0]


def _sweep_cells(protocol, n, p_list, rule_gammas, time_list, count, x, dt,
                 master_seed) -> list[EnsembleStats]:
    """One ensemble per (rule, p, gamma, T) cell, in that nesting order;
    `rule_gammas` maps each rule to its own bias grid, whose positions are the
    gammas' seed indices, as a dict or (rule, grid) pairs. Every cell is
    checked, request and budgets, before the first draw: an n, p, N or master
    seed that is not an integer, a gamma, T, x or dt that is not a finite
    number, an unknown protocol or rule, a repeated p or gamma and a T list
    that is not positive and strictly ascending are refused with a
    ValueError that names the argument. Each (rule, p, gamma) instance set
    is drawn once and keyed by symmetry class (`_draw_classes`), and the
    classes are annealed at every T (`_anneal_classes`). A sweep with no
    cell returns [].
    """
    n, count = _integer(n, "n"), _integer(count, "count")
    master_seed, p_list = _integer(master_seed, "master_seed"), _numbers(p_list, _integer, "p_list")
    time_list = _numbers(time_list, float, "time_list")
    [x], [dt] = _numbers([x], float, "x"), _numbers([dt], float, "dt")
    rule_gammas = [(rule, _numbers(grid, float, "gamma")) for rule, grid in
                   (rule_gammas.items() if isinstance(rule_gammas, dict) else rule_gammas)]
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"threshold x must lie in [0, 1], got {x}")
    if len(set(p_list)) < len(p_list):
        raise ValueError(f"p_list repeats a value: {p_list}")
    for rule, gamma_grid in rule_gammas:
        if len(set(gamma_grid)) < len(gamma_grid):
            raise ValueError(f"the {rule} bias grid repeats a value: {gamma_grid}")
    if not all(a < b for a, b in zip([0.0, *time_list], time_list)):
        raise ValueError(f"time_list must be positive and strictly ascending, got {time_list}")
    sets = [(rule, p, gi, gamma) for rule, gamma_grid in rule_gammas
            for p in p_list for gi, gamma in enumerate(gamma_grid)]
    for rule, p, _, gamma in sets:
        # T = 1 stands in for every T: the request checks T > 0 and finite,
        # which the ascending check above and the pre-flight below make
        _validate_request(protocol, n, p, rule, gamma, 1.0)
    # H1(z0) and H1(-z0) differ by 2 gamma n, so each class's |H1| reaches
    # gamma n; the steps, which read no bias, size the pool's blocks
    d_scale = n * max((g for _, grid in rule_gammas for g in grid), default=0.0)
    steps = sum(_check_anneal(n, count, anneal_time, dt, d_scale) for anneal_time in time_list)
    if not sets or not time_list:  # no cell to anneal, so no instance to draw
        return []
    with _Workers(n) as workers:
        # draws do not read T, so the first T of the list serves them all
        keys, members = _draw_classes(workers, protocol, n, sets, count, time_list[0], master_seed)
        p_ans = _anneal_classes(keys, n, time_list, dt, count, steps, workers)
    means = (p_ans[members] >= x).mean(axis=1).tolist()  # (sets, T)
    return [EnsembleStats(protocol=protocol, rule=rule, n=n, p=p, gamma=gamma,
                          anneal_time=anneal_time, count=count, threshold=x,
                          mean_success=mean, variance=mean * (1.0 - mean),
                          master_seed=master_seed)
            for (rule, p, _, gamma), row in zip(sets, means)
            for anneal_time, mean in zip(time_list, row)]


def bias_sweep(
    protocol: str,
    n: int,
    p_list,
    rule: str,
    gamma_grid,
    anneal_time: float,
    count: int = DEFAULT_ENSEMBLE_SIZE,
    x: float = DEFAULT_THRESHOLD,
    dt: float = DEFAULT_DT,
    master_seed: int = 0,
) -> list[EnsembleStats]:
    """One ensemble per (p, gamma) cell; instances re-sampled per cell."""
    gamma_grid = _numbers(gamma_grid, float, "gamma_grid")
    if any(not 0.0 <= g <= 1.0 for g in gamma_grid):
        raise ValueError("gamma grid values must lie in [0, 1]")
    return _sweep_cells(protocol, n, p_list, [(rule, gamma_grid)], [anneal_time],
                        count, x, dt, master_seed)


def anneal_time_sweep(
    protocol: str,
    n: int,
    p_list,
    rule: str,
    gamma: float,
    time_list,
    count: int = DEFAULT_ENSEMBLE_SIZE,
    x: float = DEFAULT_THRESHOLD,
    dt: float = DEFAULT_DT,
    master_seed: int = 0,
) -> list[EnsembleStats]:
    """One ensemble per (p, T) cell; the same instances at every T."""
    return _sweep_cells(protocol, n, p_list, [(rule, [gamma])], time_list,
                        count, x, dt, master_seed)


def bias_response(memories, answer, gammas, anneal_time: float,
                  dt: float = DEFAULT_DT) -> dict:
    """Recall probability of `answer` versus bias, once per learning rule.

    Returns ``{"gamma": [...], "hebb": [...], "storkey": [...],
    "projection": [...]}``, the bias-response input of figures f3-f5. The
    anneal's pre-flight runs first, and every rule's diagonals are built
    before they anneal as one block, so an empty bias grid, or a memory set
    one rule cannot store, fails before anything has annealed.
    """
    curves = {"gamma": [float(g) for g in gammas]}
    _check_anneal(as_pattern(answer).size, len(LEARNING_RULES) * len(curves["gamma"]),
                  anneal_time, dt)
    diagonals = np.stack([_diagonal(rule, memories, answer, g)
                          for rule in LEARNING_RULES for g in curves["gamma"]])
    targets = [pattern_to_index(answer)] * len(diagonals)
    p_ans = _anneal(diagonals, targets, anneal_time, dt)[1]
    curves.update(zip(LEARNING_RULES, p_ans.reshape(len(LEARNING_RULES), -1).tolist()))
    return curves


def _sort_key(s: EnsembleStats):
    return (s.protocol, s.rule, s.n, s.p, s.gamma, s.anneal_time, s.count, s.threshold)


def write_results_csv(stats, path) -> None:
    """Deterministic results table, one row per cell, sorted by its keys;
    written atomically."""
    write_csv_atomic(path, RESULTS_HEADER, [
        [s.protocol, s.rule, s.n, s.p,
         f"{s.gamma:.17g}", f"{s.anneal_time:.17g}",
         s.count, f"{s.threshold:.17g}",
         f"{s.mean_success:.17g}", f"{s.variance:.17g}",
         s.master_seed]
        for s in sorted(stats, key=_sort_key)
    ])
