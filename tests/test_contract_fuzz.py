"""Property test of the library's error contract for every public name that
`test_sweep_fuzz` does not cover: each is called with valid arguments but
one, which is a wrong type, a boolean, a non-integral or non-finite number,
an empty, ragged or 3-D array, or of a mismatched size.

Such a call raises a ValueError or an ArithmeticError whose message names
the argument at fault, and a refused writer leaves no file; with every
argument valid, the call returns. Numbers are read as the CLI reads them, so
a numeric string or an integral float passes for an integer. Left out: the
plain records `EnsembleStats`, `RecallOutcome` and `IsingHamiltonian`, the
exception class `SingularCovarianceError`, file paths, and the fields of
`ProblemInstance` that `generate_instance` guards before it builds one.
"""

import os
import re

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import hopfield_annealing as ha
from hopfield_annealing.patterns import index_to_pattern

NAN, INF = float("nan"), float("inf")
WRONG = [None, "x", {}, 1j]  # no argument's type
INTEGER = [*WRONG, True, np.bool_(False), 2.5, np.float32(1.5), NAN, INF]
REAL = [*WRONG, True, np.bool_(True), NAN, INF, -INF]
CHOICE = [None, "bogus", ["hebb"], 1, True]
ARRAY = ["x", None, [], [[1, -1], [1]], np.ones((2, 2, 2))]  # the empty, ragged and 3-D arrays

KEY = [1, -1, 1]  # n = 3 throughout
MEMORIES = [[1, -1, 1], [1, 1, -1]]
WEIGHTS = ha.hebb_weights(MEMORIES)
DIAGONAL = ha.ising_hamiltonian(WEIGHTS, None).diagonal()
H0 = ha.transverse_field_hamiltonian(3)
SCHEDULE = ha.AnnealSchedule.linear(1.0)
STATE = ha.uniform_superposition(3)
TRACE = ha.spectrum_trace(H0, DIAGONAL, SCHEDULE, 3)
STATS = ha.bias_sweep("exact", 3, [1], "hebb", [0.3], 1.0, count=2)
INSTANCE = ha.generate_exact_instance(3, 2, "hebb", 0.3, 1.0, seed=1)

# argument -> (valid value, values that must be refused, the words that name it);
# a mismatched size is refused only where another argument fixes the size
ALONE = (KEY, [*ARRAY, [1, 0, 1], [True, False, True]], r"pattern")
PATTERN = (KEY, ALONE[1] + [[1, -1]], r"pattern|length|match")
SET = (MEMORIES, [*ARRAY, [[1, 2, 1]]], r"memor|pattern")
SIZED = (MEMORIES, SET[1] + [[[1, -1]]], r"memor|pattern|length|match")
MATRIX = (WEIGHTS, [*ARRAY, np.ones((2, 2)), np.ones((3, 4))], r"weight|match")
H1 = (DIAGONAL, [*ARRAY, np.zeros(3), np.zeros((1, 8)), [0.0] * 7 + [NAN]],
      r"diagonal|Hamiltonian|H1")
TIME = (1.0, [*REAL, 0.0, -1.0], r"time|\bT\b")
STEP = (0.5, [*REAL, 0.0, -1.0], r"\bdt\b")
GAMMA = (0.3, [*REAL, -0.1], r"gamma")
THRESHOLD = (0.5, [*REAL, 1.5], r"\bx\b")
SEED = (1, INTEGER, r"seed")
RULE = ("hebb", CHOICE, r"rule")
PROTOCOL = ("exact", CHOICE, r"protocol")
SIZE = (3, [*INTEGER, 0, -1], r"\bn\b")
COUNT = (2, [*INTEGER, 0, 9], r"\bp\b")
BIAS = (ha.BiasSpec(KEY, 0.3), ["x", 0.3, ha.BiasSpec([1, -1], 0.3)], r"bias")
SCHEDULED = (SCHEDULE, [None, 1.0, "linear"], r"schedule")
QUANTUM = (STATE, [*ARRAY, np.ones(4), np.ones((1, 8))], r"state")
DRIVER = (H0, [*ARRAY, np.ones((8, 8)), ha.transverse_field_hamiltonian(2)], r"h0")
WEIGHT = (lambda t: t, [None, 3, "t"], r"weight")


# name -> (function, {argument: (valid, invalid, words)})
CALLS = {
    "AnnealSchedule": (ha.AnnealSchedule, {
        "total_time": TIME, "driver_weight": WEIGHT, "problem_weight": WEIGHT}),
    "AnnealSchedule.linear": (ha.AnnealSchedule.linear, {"total_time": TIME}),
    "BiasSpec": (ha.BiasSpec, {"input_key": ALONE, "gamma": GAMMA}),
    "ProblemInstance": (ha.ProblemInstance, {
        "protocol": PROTOCOL, "n": (3, [*WRONG, 2.5, 4], r"\bn\b"), "memories": SIZED,
        "answer_index": (1, [*INTEGER, -1, 2], r"answer_index"),
        "input_key": PATTERN, "rule": (RULE[0], [], ""), "gamma": (GAMMA[0], [], ""),
        "anneal_time": (TIME[0], [], ""), "seed": (SEED[0], [], "")}),
    "SpectrumTrace": (ha.SpectrumTrace, {
        "times": (TRACE.times, ["x", None, np.zeros((3, 1)), np.zeros(2)], r"times|energies"),
        "energies": (TRACE.energies, [*ARRAY, np.zeros((3, 0)), np.full((3, 8), NAN)],
                     r"energies")}),
    "answer_overlap": (ha.answer_overlap, {"state": QUANTUM, "answer": PATTERN}),
    "as_memory_set": (ha.as_memory_set, {"patterns": SET}),
    "as_pattern": (ha.as_pattern, {"values": ALONE}),
    "bias_response": (ha.bias_response, {
        "memories": SIZED, "answer": PATTERN,
        "gammas": ([0.1, 0.3], [None, 1j, [], ["x"], [True], [NAN], [-0.1]],
                   r"gamma|diagonal"),
        "anneal_time": TIME, "dt": STEP}),
    "classical_update": (ha.classical_update, {
        "state": PATTERN, "weights": MATRIX, "bias": BIAS,
        "mode": ("synchronous", CHOICE, r"mode"),
        "max_sweeps": (5, [*INTEGER, 0], r"max_sweeps"), "seed": SEED}),
    "delta_energy": (ha.delta_energy, {
        "state": PATTERN, "flip_index": (1, [*INTEGER, -1, 3], r"flip_index"),
        "weights": MATRIX}),
    "derive_seed": (ha.derive_seed, {
        "master_seed": SEED[:2] + (r"master_seed",), "protocol": PROTOCOL,
        "p": (2, INTEGER, r"\bp\b"), "gamma_index": (0, INTEGER, r"gamma_index"),
        "time_index": (0, INTEGER, r"time_index"),
        "instance_index": (1, INTEGER, r"instance_index")}),
    "emit_figure_data": (ha.emit_figure_data, {
        "results": (STATS, [None, 1, [], [1], TRACE], r"results|figure"),
        "figure_id": ("f6", CHOICE, r"figure")}),
    "evolve_batch": (ha.evolve_batch, {
        "diagonals": H1[:1] + ([*ARRAY[:4], np.zeros((1, 1, 8)), np.zeros(3),
                                np.zeros((1, 7)), [NAN] * 8],) + H1[2:],
        "schedule": SCHEDULED, "dt": STEP}),
    "gamma_upper_bound": (ha.gamma_upper_bound, {
        "memory": PATTERN, "input_key": PATTERN, "weights": MATRIX}),
    "generate_exact_instance": (ha.generate_exact_instance, {
        "n": SIZE, "p": COUNT, "rule": RULE, "gamma": GAMMA, "anneal_time": TIME,
        "seed": SEED}),
    "generate_instance": (ha.generate_instance, {
        "protocol": PROTOCOL, "n": SIZE, "p": COUNT, "rule": RULE, "gamma": GAMMA,
        "anneal_time": TIME, "seed": SEED}),
    "hadamard_memories": (ha.hadamard_memories, {
        "n": (4, [*INTEGER, 0, 3], r"\bn\b"), "p": (2, [*WRONG[1:], *INTEGER[4:], 0, 5],
                                                      r"\bp\b")}),
    "hamming_distance": (ha.hamming_distance, {"a": PATTERN, "b": PATTERN}),
    "hebb_weights": (ha.hebb_weights, {"memories": SET}),
    "index_to_pattern": (index_to_pattern, {
        "index": (5, [*INTEGER, -1, 8], r"index"), "n": (3, [*INTEGER, -1], r"\bn\b")}),
    "instantaneous_spectrum": (ha.instantaneous_spectrum, {
        "h0": DRIVER, "h1": H1, "schedule": SCHEDULED,
        "t": (0.5, [*REAL, -0.1, 2.0], r"\bt\b")}),
    "ising_hamiltonian": (ha.ising_hamiltonian, {"weights": MATRIX, "bias": BIAS}),
    "magnus_step": (ha.magnus_step, {
        "state": QUANTUM, "h0": DRIVER, "diagonal": H1, "schedule": SCHEDULED,
        "t": (0.0, [*REAL, -0.5, 2.0], r"\bt\b|step"), "dt": STEP}),
    "min_gap": (ha.min_gap, {"trace": (TRACE, [None, (1, 2), "x"], r"trace")}),
    "network_energy": (ha.network_energy, {
        "state": PATTERN, "weights": MATRIX, "bias": BIAS}),
    "projection_weights": (ha.projection_weights, {"memories": SET}),
    "run_instance": (ha.run_instance, {
        "instance": (INSTANCE, [None, "x", STATS[0]], r"instance"),
        "x": THRESHOLD, "dt": STEP}),
    "save_memories": (ha.save_memories, {"memories": SET}),
    "spectrum_trace": (ha.spectrum_trace, {
        "h0": DRIVER, "h1": H1, "schedule": SCHEDULED,
        "num_samples": (3, [*INTEGER, 1], r"num_samples")}),
    "storkey_weights": (ha.storkey_weights, {"memories": SET}),
    "success_indicator": (ha.success_indicator, {
        "p_ans": (0.7, REAL, r"p_ans"), "x": THRESHOLD}),
    "transverse_field_hamiltonian": (ha.transverse_field_hamiltonian, {"n": SIZE}),
    "uniform_superposition": (ha.uniform_superposition, {"n": SIZE}),
    "weights_for_rule": (ha.weights_for_rule, {"rule": RULE, "memories": SET}),
    "write_results_csv": (ha.write_results_csv, {
        "stats": (STATS, [None, 1, [1], [STATS[0], "x"]], r"stats")}),
}

# the writers, and the keyword that takes their output path or directory
WRITERS = {"emit_figure_data": "out_dir", "save_memories": "path",
           "write_results_csv": "path"}


@st.composite
def calls(draw):
    """(name, keyword arguments, the argument made bad or None)."""
    name = draw(st.sampled_from(sorted(CALLS)))
    params = CALLS[name][1]
    bad = draw(st.sampled_from([None, *[arg for arg, (_, invalid, _) in params.items()
                                        if invalid]]))
    kwargs = {arg: draw(st.sampled_from(invalid)) if arg == bad else valid
              for arg, (valid, invalid, _) in params.items()}
    return name, kwargs, bad


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(calls())
def test_public_names_refuse_bad_arguments_by_name(tmp_path, call):
    name, kwargs, bad = call
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / f"out-{len(before)}"
    if name in WRITERS:
        kwargs[WRITERS[name]] = out if name == "emit_figure_data" else out.with_suffix(".csv")
    try:
        CALLS[name][0](**kwargs)
    except (ValueError, ArithmeticError) as error:
        assert bad is not None, (name, kwargs, error)
        assert re.search(CALLS[name][1][bad][2], str(error)), (name, bad, kwargs, error)
        assert sorted(os.listdir(tmp_path)) == before, (name, kwargs)
    else:
        assert bad is None, (name, bad, kwargs)


def test_numbers_are_read_alike():
    # numeric strings and integral floats pass for integers, as in the CLI
    assert np.array_equal(ha.transverse_field_hamiltonian("3"), H0)
    assert np.array_equal(ha.uniform_superposition(3.0), STATE)
    assert ha.derive_seed(0, "exact", 2.0, "1") == ha.derive_seed(0, "exact", 2, 1)
    assert ha.generate_instance("exact", 4.0, "2", "hebb", "0.3", "1", 1.0).n == 4
    assert np.array_equal(index_to_pattern(5.0, "3"), index_to_pattern(5, 3))
    assert ha.classical_update(KEY, WEIGHTS, max_sweeps=2.0)[2] <= 2
    assert ha.delta_energy(KEY, 1.0, WEIGHTS) == ha.delta_energy(KEY, 1, WEIGHTS)
    assert ha.BiasSpec(KEY, "0.3").gamma == 0.3
    assert ha.success_indicator("0.7", x="0.5") == 1
