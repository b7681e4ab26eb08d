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

A sweep anneals energy landscapes, not instances. H0 = -sum_i X_i and the
uniform start state are unchanged by permuting the qubits and by flipping any
of them, and every learning rule and the bias are equivariant under these
signed permutations. Every rule is also even in each memory (Hebb stores
xi xi^T, projection's Xi^T C^-1 Xi and Storkey's update are unchanged when a
memory changes sign), so a memory's sign matters only where that memory is
the target. P_ans is the same for every instance of a class (the
symmetry-sector idea of exact diagonalization, applied between instances).
Each instance is first keyed by its canonical form (`_class_key`), a cheap
exact key. Form classes whose rules store the same Ising problem then merge
into one landscape (`_class_landscape`): the projection rule stores the
projector onto the memories' span, so at p = n every set has zero couplings,
and at p = 1 all three rules store xi xi^T / n. Each landscape is annealed
once per annealing time with the other landscapes of the sweep in packed
blocks (see `evolution.evolve_batch`), and its P_ans is scored for every
member of every class it holds.

A sweep forks at most once (`_Workers`): one worker per usable CPU draws and
keys slices of its instances and builds the landscape of each class it meets
first (`_draw_classes`), then anneals the landscapes in near-equal blocks in
order of first appearance (`_anneal_classes`); each phase stays in-process
on one CPU, at n = 12 and below its break-even. A pooled block can be
narrower than an in-process one, and a block's largest |diagonal| sets its
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
from ._guards import integer, real, sequence, typed
from .evolution import (
    AnnealSchedule, evolve_batch, DEFAULT_DT, _check_anneal, _one_thread_columns,
)
from .hamiltonians import ising_hamiltonian, ground_state_mass
from .instances import ProblemInstance, derive_seed, generate_instance, _validate_request
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

# a sweep whose draws ran in-process splits its landscapes over worker
# processes only if every block keeps at least this much work, its amplitudes
# (columns << n) times the steps of all its anneals: below it the pool's
# start-up (fork, pickling, join; about 20-60 ms) outweighs the halved
# per-step work. Two workers broke even at 4e5-6e5 (n = 5: 24 columns at
# T = 50, 2 at T = 1000; n = 8: 2 columns at T = 100); the bound keeps a
# factor of about 2 for timing noise
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
    return 1 if real(p_ans, "p_ans") >= real(x, "threshold x", 0.0, 1.0) else 0


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


def _class_landscape(key: tuple):
    """The landscape of the canonical instance a `_class_key` describes, as
    (fields, couplings, diagonal): the fields and the weights in a canonical
    qubit order, and H1's diagonal in the form's own order.

    The fields are gamma times the key, whose target is all +1, so every
    qubit permutation keeps the target and P_ans, and equal fields mean an
    equal gamma. The canonical order is a stable sort of the qubits by
    field, then by their sorted row of weights rounded to 1e-9; qubits that
    tie keep their form order, so two landscapes that differ only in a tied
    order are not merged, which costs a column and never a wrong P_ans.
    """
    rule, gamma, shape, data = key
    form = np.frombuffer(data, dtype=np.int8).reshape(shape)
    weights = weights_for_rule(rule, form[:-1])
    bias = BiasSpec(input_key=form[-1], gamma=gamma)
    fields = bias.thresholds + 0.0  # + 0.0 turns -0.0 into 0.0, also below
    rows = np.sort(np.round(weights, 9), axis=1) + 0.0
    order = np.lexsort([*rows.T[::-1], fields])  # the last key sorts first
    return fields[order], weights[np.ix_(order, order)], ising_hamiltonian(weights, bias).diagonal()


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

    @property
    def started(self) -> bool:
        return self._pool is not None

    def __exit__(self, *exc):
        if self.started:
            self._pool.shutdown()

    def map(self, fn, items, pooled: bool):
        if pooled and not self.started:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            # fork, not spawn: spawn re-imports __main__, which breaks scripts
            # that sweep at top level. The executor forks before it starts its
            # threads, and OpenBLAS rebuilds its thread pool after a fork
            self._pool = ProcessPoolExecutor(self.count, mp_context=get_context("fork"))
        # yields in order as results come in; when a call raises, map cancels
        # every call it has not yet yielded
        return (self._pool.map if pooled else map)(fn, items)


def _draw_slice(protocol, n, sets, count, anneal_time, master_seed, span):
    """Draw and key the instances `span` of a sweep's `sets` x `count` list:
    the distinct class keys in order of first appearance, their landscapes
    (`_class_landscape`) as three stacked arrays, and each instance's index
    into the keys."""
    index, ids, landscapes = {}, [], ([], [], [])
    for k in span:
        rule, p, gi, gamma = sets[k // count]
        instance = generate_instance(protocol, n, p, rule, gamma, anneal_time,
                                     seed=derive_seed(master_seed, protocol, p, gi, 0, k % count))
        key = _class_key(instance)
        if key not in index:
            index[key] = len(index)
            for part, value in zip(landscapes, _class_landscape(key)):
                part.append(value)
        ids.append(index[key])
    return list(index), *map(np.array, landscapes), ids


def _draw_classes(workers, protocol, n, sets, count, anneal_time, master_seed):
    """A sweep's landscape diagonals in order of first appearance, and each
    instance's landscape id, shape (sets, count), from slices drawn
    in-process or on `workers`.

    Class keys merge exactly. A class whose fields equal a landscape's and
    whose couplings round to the same values at 1e-9 is a candidate; it
    joins the first candidate whose couplings all agree with its own within
    64 eps max(1, max|w|), the tolerance of `spectrum._groups`: float noise
    in the weights is at most about 20 eps, while distinct rational
    couplings differ by about 1e-7 or more. Otherwise it starts a landscape,
    whose diagonal is its own. The slices merge in order, each as it comes
    in, so the landscapes, their representatives and every id are those of
    one in-process pass.
    """
    total = len(sets) * count
    pooled = workers.count > 1 and total >= _POOL_MIN_DRAWS
    m = 4 * workers.count if pooled else 1  # later, larger-p slices cost more; 4 beat 1
    spans = [range(total * s // m, total * (s + 1) // m) for s in range(m)]
    draw = partial(_draw_slice, protocol, n, sets, count, anneal_time, master_seed)
    classes, buckets, diagonals, ids = {}, {}, [], []
    for keys, fields, couplings, landscapes, local in workers.map(draw, spans, pooled):
        rounded = np.round(couplings, 9) + 0.0
        for i, key in enumerate(keys):
            if key in classes:
                continue
            tol = 64 * np.finfo(np.float64).eps * max(1.0, float(np.abs(couplings[i]).max()))
            candidates = buckets.setdefault((fields[i].tobytes(), rounded[i].tobytes()), [])
            for landscape, other in candidates:
                if np.abs(other - couplings[i]).max() <= tol:
                    break
            else:
                landscape = len(diagonals)
                candidates.append((landscape, couplings[i]))
                diagonals.append(landscapes[i])
            classes[key] = landscape
        ids += [classes[keys[i]] for i in local]
    return np.array(diagonals), np.reshape(ids, (len(sets), count))


def _anneal_block(diagonals, n: int, time_list, dt: float) -> np.ndarray:
    """P_ans of each landscape of `diagonals` (rows) at each annealing time (columns)."""
    targets = [(1 << n) - 1] * len(diagonals)  # every canonical target is all +1
    return np.stack([_anneal(diagonals, targets, T, dt)[1] for T in time_list], axis=1)


def _anneal_classes(diagonals, n: int, time_list, dt: float, count: int,
                    steps: int, workers: _Workers) -> np.ndarray:
    """P_ans of every landscape at every annealing time, in `diagonals`
    order; `steps` is the step count of all the annealing times together.

    The landscapes split, in order, into the fewest near-equal blocks, a
    multiple of the worker count, none wider than OpenBLAS runs on one
    thread (`_one_thread_columns`); in-process, a block may also hold one
    cell's `count` columns. They run on `workers` unless it has one worker
    or a pooled block would keep under `_POOL_MIN_WORK`, which run them
    in-process; once the draws have started the pool, only an empty pooled
    block keeps them in-process. A worker's failure is raised here with its type and
    message, and blocks not yet handed to a worker never start.
    """
    # two processes that each thread their products over two CPUs ran 3-50
    # times slower than one (n = 5 at 600 columns, n = 10-12 at 5-56)
    cap = _one_thread_columns(n)
    blocks = workers.count * -(-len(diagonals) // (workers.count * max(cap, 1)))
    work = ((len(diagonals) // blocks) << n) * steps  # of the narrowest pooled block
    # a pool the draws started has paid its start-up, so any work is enough
    pooled = workers.count > 1 and work >= (1 if workers.started else _POOL_MIN_WORK)
    if not pooled:
        blocks = -(-len(diagonals) // max(cap, count))
    edges = [len(diagonals) * b // blocks for b in range(blocks + 1)]
    anneal = partial(_anneal_block, n=n, time_list=time_list, dt=dt)
    spans = [diagonals[a:b] for a, b in zip(edges, edges[1:])]
    return np.concatenate(list(workers.map(anneal, spans, pooled)))


def _anneal(diagonals, targets, anneal_time: float, dt: float):
    """Final states of a linear anneal per row of `diagonals`, and each row's P_ans."""
    states = evolve_batch(diagonals, AnnealSchedule.linear(anneal_time), dt)
    return states, np.abs(states[np.arange(len(states)), targets]) ** 2


def run_instance(
    instance: ProblemInstance,
    x: float = DEFAULT_THRESHOLD,
    dt: float = DEFAULT_DT,
) -> RecallOutcome:
    """Anneal one instance and score the recall probability of its target;
    an `instance` that is not a `ProblemInstance` is a ValueError."""
    typed(instance, "instance", ProblemInstance)
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
    is drawn once and keyed by symmetry class, the classes merge into
    landscapes (`_draw_classes`), and the landscapes are annealed at every
    T (`_anneal_classes`). A sweep with no cell returns [].
    """
    n, count = integer(n, "n"), integer(count, "count", 1)
    master_seed = integer(master_seed, "master_seed")
    p_list = sequence(p_list, "p_list", integer, distinct=True)
    time_list = sequence(time_list, "time_list", partial(real, positive=True), ascending=True)
    x, dt = real(x, "threshold x", 0.0, 1.0), real(dt, "dt", positive=True)
    rule_gammas = [(rule, sequence(grid, f"the {rule} bias grid",
                                   partial(real, name="gamma", low=0.0), distinct=True))
                   for rule, grid in
                   (rule_gammas.items() if isinstance(rule_gammas, dict) else rule_gammas)]
    for rule, gamma_grid in rule_gammas:
        # T = 1 stands in for every T (each checked above), p = 1 and gamma = 0 for
        # an empty p list or bias grid: a sweep of no cell checks protocol and rules
        for p in p_list or [1]:
            for gamma in gamma_grid or [0.0]:
                _validate_request(protocol, n, p, rule, gamma, 1.0)
    sets = [(rule, p, gi, gamma) for rule, gamma_grid in rule_gammas
            for p in p_list for gi, gamma in enumerate(gamma_grid)]
    # H1(z0) and H1(-z0) differ by 2 gamma n, so each class's |H1| reaches
    # gamma n; the steps, which read no bias, size the pool's blocks
    d_scale = n * max((g for _, grid in rule_gammas for g in grid), default=0.0)
    steps = sum(_check_anneal(n, count, anneal_time, dt, d_scale) for anneal_time in time_list)
    if not sets or not time_list:  # no cell to anneal, so no instance to draw
        return []
    with _Workers(n) as workers:
        # draws do not read T, so the first T of the list serves them all
        diagonals, members = _draw_classes(workers, protocol, n, sets, count, time_list[0],
                                           master_seed)
        p_ans = _anneal_classes(diagonals, n, time_list, dt, count, steps, workers)
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
    gamma_grid = sequence(gamma_grid, "gamma grid", partial(real, low=0.0, high=1.0))
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
    one rule cannot store, fails before anything has annealed. Each
    bitwise-distinct diagonal anneals once: at p = 1 the three rules store
    the same weights, and so the same diagonals.
    """
    curves = {"gamma": sequence(gammas, "gammas", real)}
    _check_anneal(as_pattern(answer).size, len(LEARNING_RULES) * len(curves["gamma"]),
                  anneal_time, dt)
    distinct = {}
    ids = [distinct.setdefault(d.tobytes(), (len(distinct), d))[0]
           for d in [_diagonal(rule, memories, answer, g)
                     for rule in LEARNING_RULES for g in curves["gamma"]]]
    diagonals = np.stack([d for _, d in distinct.values()])
    targets = [pattern_to_index(answer)] * len(diagonals)
    p_ans = _anneal(diagonals, targets, anneal_time, dt)[1][ids]
    curves.update(zip(LEARNING_RULES, p_ans.reshape(len(LEARNING_RULES), -1).tolist()))
    return curves


def _sort_key(s: EnsembleStats):
    return (s.protocol, s.rule, s.n, s.p, s.gamma, s.anneal_time, s.count, s.threshold)


def write_results_csv(stats, path) -> None:
    """Deterministic results table, one row per cell, sorted by its keys;
    written atomically. `stats` that is not an iterable of `EnsembleStats`
    is a ValueError, and nothing is written."""
    stats = sequence(stats, "stats", partial(typed, kind=EnsembleStats))
    write_csv_atomic(path, RESULTS_HEADER, [
        [s.protocol, s.rule, s.n, s.p,
         f"{s.gamma:.17g}", f"{s.anneal_time:.17g}",
         s.count, f"{s.threshold:.17g}",
         f"{s.mean_success:.17g}", f"{s.variance:.17g}",
         s.master_seed]
        for s in sorted(stats, key=_sort_key)
    ])
