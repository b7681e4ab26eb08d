import numpy as np
import pytest

from hopfield_annealing.ensembles import (
    DEFAULT_THRESHOLD,
    RESULTS_HEADER,
    anneal_time_sweep,
    bias_sweep,
    run_ensemble,
    run_instance,
    success_indicator,
    write_results_csv,
    _sweep_cells,
)
from hopfield_annealing.instances import generate_exact_instance, generate_instance
from hopfield_annealing.learning import LEARNING_RULES
from hopfield_annealing.patterns import overlapping_memories
from hopfield_annealing.instances import ProblemInstance


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

    monkeypatch.setattr(ensembles, "generate_instance", no_draw)


@pytest.mark.parametrize("kwargs, match", [
    ({"count": 0}, "count"),
    ({"x": 2.0}, "threshold"),
    ({"x": float("nan")}, "threshold"),
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
], ids=["p-list", "projection-p-list", "T-list", "sweep-N", "ensemble-N", "three-rules"])
def test_sweeps_check_every_cell_before_drawing(sweep, match, no_draws):
    with pytest.raises(ValueError, match=match):
        sweep()


def test_bias_sweep_layout_and_reseeding():
    stats = bias_sweep("exact", 4, [1, 2], "hebb", [0.2, 0.6], 60.0, count=3,
                       master_seed=3)
    assert len(stats) == 4
    keys = {(s.p, s.gamma) for s in stats}
    assert keys == {(1, 0.2), (1, 0.6), (2, 0.2), (2, 0.6)}
    with pytest.raises(ValueError):
        bias_sweep("exact", 4, [1], "hebb", [1.5], 60.0, count=2)


def test_anneal_sweep_reuses_instances_across_times():
    # the sweep must anneal the *same* instances at every T; run_ensemble
    # derives seeds the same way, so each cell must match it exactly
    times = [40.0, 90.0]
    sweep = anneal_time_sweep("exact", 4, [2], "hebb", 0.5, times, count=4,
                              master_seed=17)
    for cell, T in zip(sweep, times):
        solo = run_ensemble("exact", 4, 2, "hebb", 0.5, T, count=4, master_seed=17)
        assert cell == solo
    with pytest.raises(ValueError):
        anneal_time_sweep("exact", 4, [1], "hebb", 0.5, [100.0, 50.0], count=2)


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
