"""Property test of the sweep entry points' error contract: `run_ensemble`,
`bias_sweep` and `anneal_time_sweep` called with generated arguments, at
sizes small enough that a call takes milliseconds.

Whatever the input, a call returns, or raises a ValueError or an
ArithmeticError whose message names the argument at fault. A refused call
draws no instance and starts no worker pool.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hopfield_annealing.ensembles as ensembles
from hopfield_annealing.instances import generate_instance
from hopfield_annealing.learning import LEARNING_RULES

# values of no argument: wrong types, and numbers that are not finite
WRONG = [None, "x", [1], {}, 1j, float("nan"), float("inf"), -float("inf")]
# per kind of argument: (valid values, invalid values); sizes stay tiny
VALUES = {
    "n": ([3, 4, np.int64(4), "4"], [0, -1, 2.5, np.float32(3.5), True, np.bool_(True)]),
    "p": ([1, 2, 2.0], [0, 1.5, np.float32(1.5), False]),
    "count": ([1, 2], [0, -2, 1.5, True]),
    "master_seed": ([0, 7, -3, 2**70], [0.5, np.float64(1.5), True]),
    "gamma": ([0.0, 0.3, 1, np.float32(0.5)], [-0.5]),
    "T": ([1.0, 2.5, 2], [0, -1.0]),
}
# the words a refusal may name each argument by: its parameter name, or the
# name of the quantity a message states (p=, T=, the bias grid)
NAMES = {
    "n": r"\bn\b", "p": r"\bp\b|p_list", "p_list": r"\bp\b|p_list", "count": r"\bcount\b",
    "master_seed": r"master_seed", "gamma": r"gamma|bias", "gamma_grid": r"gamma|bias",
    "anneal_time": r"\bT\b|time", "time_list": r"\bT\b|time",
}
# each entry point's arguments: name -> (kind, whether it takes a list)
ENTRY_POINTS = {
    "run_ensemble": {"n": ("n", False), "p": ("p", False), "gamma": ("gamma", False),
                     "anneal_time": ("T", False)},
    "bias_sweep": {"n": ("n", False), "p_list": ("p", True), "gamma_grid": ("gamma", True),
                   "anneal_time": ("T", False)},
    "anneal_time_sweep": {"n": ("n", False), "p_list": ("p", True), "gamma": ("gamma", False),
                          "time_list": ("T", True)},
}
COMMON = {"count": ("count", False), "master_seed": ("master_seed", False)}


@st.composite
def calls(draw):
    """(entry point name, keyword arguments, the argument made bad or None)."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    params = {**ENTRY_POINTS[name], **COMMON}
    bad = draw(st.sampled_from([None, None, *params]))
    kwargs = {"protocol": draw(st.sampled_from(["exact", "noisy"])),
              "rule": draw(st.sampled_from(LEARNING_RULES))}
    for arg, (kind, listed) in params.items():
        valid, invalid = VALUES[kind]
        if arg != bad:
            value = draw(st.sampled_from(valid))
            if kind == "p" and kwargs["rule"] == "projection":
                value = 1  # every n here can store one memory by projection
            # a T list ascends; any two of the other valid grids are distinct
            kwargs[arg] = sorted({float(value), 2 * float(value)}) if kind == "T" and listed else (
                [value] if listed else value)
        elif listed and draw(st.booleans()):
            kwargs[arg] = draw(st.sampled_from([
                [],  # an empty grid is a sweep of no cells
                [valid[0], valid[0]],  # a repeated value
                *WRONG, *invalid,  # something that is not a list
            ]))
        else:
            value = draw(st.sampled_from([*WRONG, *invalid]))
            kwargs[arg] = [valid[0], value] if listed else value
    return name, kwargs, bad


@pytest.mark.usefixtures("no_pool")  # a call this small never pools
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(calls())
def test_sweep_entry_points_refuse_bad_arguments_by_name(monkeypatch, call):
    name, kwargs, bad = call
    drawn = []
    monkeypatch.setattr(ensembles, "generate_instance",
                        lambda *a, **kw: drawn.append(1) or generate_instance(*a, **kw))
    try:
        stats = getattr(ensembles, name)(**kwargs)
    except (ValueError, ArithmeticError) as error:
        assert bad is not None, (name, kwargs, error)
        assert re.search(NAMES[bad], str(error)), (name, bad, kwargs, error)
        assert drawn == [], (name, kwargs, error)
    else:
        stats = stats if isinstance(stats, list) else [stats]
        assert all(0.0 <= s.mean_success <= 1.0 for s in stats)
