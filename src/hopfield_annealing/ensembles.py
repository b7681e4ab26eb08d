"""Recall experiments: single runs, seeded ensembles, and parameter sweeps.

A run scores the probability P_ans that the final annealed state collapses to
its target pattern. The binary success indicator f_x = [P_ans >= x] (default
threshold x = 2/3) is averaged over an ensemble of N independently generated
instances; the ensemble mean is a binomial parameter, so the reported variance
is exactly mean * (1 - mean).

Instances inside an ensemble share the register size and schedule, so their
quantum evolutions run as one batch (see `evolution.evolve_batch`). Cells of a
sweep are independent of each other and of execution order: every instance
seed is derived from (master seed, protocol, p, bias index, time index,
instance index) alone. Seeds leave out the learning rule, so Hebb and Storkey
cells at the same (p, bias index) anneal the same instances, and projection
cells differ only where that rule rejects a memory set and redraws. Seeds
leave out T too (time index 0): a sweep draws each (rule, p, bias) instance
set once and anneals that same set at every annealing time.
"""

from dataclasses import dataclass

import numpy as np

from ._atomic import write_csv_atomic
from .evolution import AnnealSchedule, evolve_batch, DEFAULT_DT, _check_anneal
from .hamiltonians import ising_hamiltonian, ground_state_mass
from .instances import ProblemInstance, derive_seed, generate_instance, _validate_request
from .learning import LEARNING_RULES, weights_for_rule
from .network import BiasSpec
from .patterns import pattern_to_index

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


def _instance_diagonal(instance: ProblemInstance) -> np.ndarray:
    weights = weights_for_rule(instance.rule, instance.memories)
    bias = BiasSpec(input_key=instance.input_key, gamma=instance.gamma)
    return ising_hamiltonian(weights, bias).diagonal()


def _anneal(diagonals, targets, anneal_time: float, dt: float):
    """Final states of a linear anneal per row of `diagonals`, and each row's P_ans."""
    states = evolve_batch(diagonals, AnnealSchedule.linear(anneal_time), dt)
    return states, np.abs(states[np.arange(len(states)), targets]) ** 2


def run_instance(
    instance: ProblemInstance,
    x: float = DEFAULT_THRESHOLD,
    dt: float = DEFAULT_DT,
) -> RecallOutcome:
    """Anneal one instance and score the recall probability of its target."""
    diagonal = _instance_diagonal(instance)
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
    return _sweep_cells(protocol, n, [p], {rule: [gamma]}, [anneal_time],
                        count, x, dt, master_seed)[0]


def _sweep_cells(protocol, n, p_list, rule_gammas, time_list, count, x, dt,
                 master_seed) -> list[EnsembleStats]:
    """One ensemble per (rule, p, gamma, T) cell, in that nesting order;
    `rule_gammas` maps each learning rule to its own bias grid.

    Instance seeds take gamma's position in its rule's grid and leave out the
    rule and T (time index 0): Hebb and Storkey cells at the same (p, gamma
    index) anneal the same instances, and projection cells differ only where
    that rule rejects a memory set and redraws. Each (rule, p, gamma) instance
    set is drawn once and annealed at every T, as one block in draw order, so
    curves differ only by annealing time. Every cell of every rule is checked,
    request and budgets, before the first instance is drawn.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"threshold x must lie in [0, 1], got {x}")
    if not time_list:  # no cell to anneal, so no instance to draw
        return []
    sets = [(rule, int(p), gi, gamma)
            for rule, gamma_grid in rule_gammas.items()
            for p in p_list
            for gi, gamma in enumerate(gamma_grid)]
    for rule, p, _, gamma in sets:
        for anneal_time in time_list:
            _validate_request(n, p, rule, gamma, anneal_time)
            _check_anneal(n, count, anneal_time, dt)
    stats = []
    for rule, p, gi, gamma in sets:
        # draws do not read T, so the first T of the list serves them all
        instances = [
            generate_instance(protocol, n, p, rule, gamma, time_list[0],
                              seed=derive_seed(master_seed, protocol, p, gi, 0, i))
            for i in range(count)
        ]
        diagonals = np.stack([_instance_diagonal(inst) for inst in instances])
        targets = [pattern_to_index(inst.target_pattern()) for inst in instances]
        for anneal_time in time_list:
            mean = float(np.mean(_anneal(diagonals, targets, anneal_time, dt)[1] >= x))
            stats.append(EnsembleStats(
                protocol=protocol, rule=rule, n=n, p=p, gamma=gamma,
                anneal_time=anneal_time, count=count, threshold=x,
                mean_success=mean, variance=mean * (1.0 - mean),
                master_seed=master_seed,
            ))
    return stats


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
    gamma_grid = [float(g) for g in gamma_grid]
    if any(not 0.0 <= g <= 1.0 for g in gamma_grid):
        raise ValueError("gamma grid values must lie in [0, 1]")
    return _sweep_cells(protocol, n, p_list, {rule: gamma_grid}, [anneal_time],
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
    time_list = [float(t) for t in time_list]
    if any(t <= 0 for t in time_list) or sorted(time_list) != time_list:
        raise ValueError("time_list must be positive and ascending")
    return _sweep_cells(protocol, n, p_list, {rule: [gamma]}, time_list,
                        count, x, dt, master_seed)


def bias_response(memories, answer, gammas, anneal_time: float,
                  dt: float = DEFAULT_DT) -> dict:
    """Recall probability of `answer` versus bias, once per learning rule.

    Returns ``{"gamma": [...], "hebb": [...], "storkey": [...],
    "projection": [...]}``, the bias-response input of figures f3-f5. Every
    rule's weights are built before the first anneal, so a memory set one
    rule cannot store fails before any rule has annealed.
    """
    targets = [pattern_to_index(answer)] * len(gammas)
    curves = {"gamma": [float(g) for g in gammas]}
    rule_weights = {rule: weights_for_rule(rule, memories) for rule in LEARNING_RULES}
    for rule, weights in rule_weights.items():
        diagonals = np.stack([
            ising_hamiltonian(weights, BiasSpec(answer, float(g))).diagonal()
            for g in gammas
        ])
        curves[rule] = _anneal(diagonals, targets, anneal_time, dt)[1].tolist()
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
