"""The benchmark workloads.

Each workload makes a cycle of op inputs from the benchmark seed, runs one op
through the package's public entry points, checks the op's output, and in
the traced run rebuilds the same op from the public calls the program makes,
with a span around each call. The rebuilt output must equal the untraced one
exactly, so the trace measures the same program.

Op inputs cycle in a fixed order that starts at the first input for every
seed; the seed only changes the instances. That keeps the work in a run the
same from seed to seed.
"""

import contextlib
import csv
import io
import json
import math
import os
import time
from functools import lru_cache

import numpy as np

from hopfield_annealing import cli
from hopfield_annealing.ensembles import (
    DEFAULT_THRESHOLD,
    RESULTS_HEADER,
    EnsembleStats,
    bias_sweep,
    run_ensemble,
    success_indicator,
    write_results_csv,
)
from hopfield_annealing.evolution import DEFAULT_DT, AnnealSchedule, evolve_batch
from hopfield_annealing.hamiltonians import (
    ground_state_mass,
    ising_hamiltonian,
    transverse_field_hamiltonian,
)
from hopfield_annealing.instances import derive_seed, generate_instance
from hopfield_annealing.learning import LEARNING_RULES, weights_for_rule
from hopfield_annealing.memio import provenance_line, write_json_atomic, write_text_atomic
from hopfield_annealing.network import BiasSpec
from hopfield_annealing.patterns import pattern_to_index
from hopfield_annealing.spectrum import min_gap, spectrum_trace

# Master seed of the C3 acceptance fixture; references are recorded at it.
DEFAULT_SEED = 20587
# Outputs compared against a reference that is not byte-compared must agree
# to this absolute tolerance.
REFERENCE_TOL = 1e-12


@lru_cache(maxsize=None)
def step_count(total_time: float, dt: float) -> int:
    """Propagator steps `evolve_batch` takes over [0, T] (its own loop)."""
    t, steps = 0.0, 0
    while t < total_time * (1.0 - 1e-9):
        t += min(dt, total_time - t)
        steps += 1
    return steps


def _is_share_of(mean: float, count: int) -> bool:
    """Whether mean is k/count for a whole k in [0, count], as an ensemble mean is."""
    k = round(mean * count)
    return 0 <= k <= count and mean == k / count


def _traced_cell(tracer, protocol, n, p, rule, gamma, anneal_time, count,
                 master_seed, gamma_index) -> EnsembleStats:
    """One ensemble cell rebuilt from public calls, as `bias_sweep` runs it."""
    x = DEFAULT_THRESHOLD
    with tracer.span("ensembles"):
        seeds = [derive_seed(master_seed, protocol, p, gamma_index, 0, i) for i in range(count)]
        instances = []
        for seed in seeds:
            with tracer.span("instances"):
                instances.append(
                    generate_instance(protocol, n, p, rule, gamma, anneal_time, seed=seed)
                )
        diagonals = []
        for inst in instances:
            with tracer.span("learning"):
                weights = weights_for_rule(inst.rule, inst.memories)
            with tracer.span("hamiltonians"):
                h1 = ising_hamiltonian(weights, BiasSpec(input_key=inst.input_key, gamma=inst.gamma))
                diagonals.append(h1.diagonal())
        diagonals = np.stack(diagonals)
        with tracer.span("evolution"):
            states = evolve_batch(diagonals, AnnealSchedule.linear(anneal_time), DEFAULT_DT)
        targets = [pattern_to_index(inst.target_pattern()) for inst in instances]
        p_ans = np.abs(states[np.arange(count), targets]) ** 2
        successes = np.fromiter(
            (success_indicator(float(q), x) for q in p_ans), dtype=float, count=count
        )
        mean = float(successes.mean())
    tracer.count("evolution.instance_steps", count * step_count(anneal_time, DEFAULT_DT))
    tracer.count("evolution.batch_columns", count)
    tracer.count("evolution.batches", 1)
    return EnsembleStats(
        protocol=protocol, rule=rule, n=n, p=p, gamma=gamma,
        anneal_time=anneal_time, count=count, threshold=x,
        mean_success=mean, variance=mean * (1.0 - mean), master_seed=master_seed,
    )


class SweepWorkload:
    """Ops are `bias_sweep` calls whose results CSV is the output."""

    n, count = 5, 100
    batch_width = count

    def __init__(self, specs, anneal_time):
        self._specs = specs
        self.anneal_time = anneal_time

    def specs(self, seed):
        return [dict(spec, seed=seed) for spec in self._specs]

    def run(self, spec, workdir):
        stats = bias_sweep(
            spec["protocol"], self.n, spec["p_list"], spec["rule"], spec["gammas"],
            self.anneal_time, count=self.count, master_seed=spec["seed"],
        )
        path = os.path.join(workdir, "results.csv")
        write_results_csv(stats, path)
        with open(path, newline="") as fh:
            return fh.read()

    def rebuild(self, spec, workdir, tracer):
        stats = [
            _traced_cell(tracer, spec["protocol"], self.n, int(p), spec["rule"], float(g),
                         self.anneal_time, self.count, spec["seed"], gi)
            for p in spec["p_list"]
            for gi, g in enumerate(spec["gammas"])
        ]
        path = os.path.join(workdir, "results.csv")
        with tracer.span("ensembles"):
            write_results_csv(stats, path)
        with open(path, newline="") as fh:
            return fh.read()

    def check(self, spec, out, ref):
        """Problems with one op's results CSV; empty when it is correct."""
        rows = list(csv.reader(io.StringIO(out)))
        problems = []
        if rows[0] != RESULTS_HEADER:
            problems.append(f"header {rows[0]}")
        cells = {(int(r[3]), float(r[4])) for r in rows[1:]}
        expected = {(int(p), float(g)) for p in spec["p_list"] for g in spec["gammas"]}
        if cells != expected or len(rows) - 1 != len(expected):
            problems.append(f"cells {sorted(cells)} != {sorted(expected)}")
        for r in rows[1:]:
            keys = (r[0], r[1], int(r[2]), float(r[5]), int(r[6]), int(r[10]))
            if keys != (spec["protocol"], spec["rule"], self.n, self.anneal_time,
                        self.count, spec["seed"]):
                problems.append(f"row keys {keys}")
            mean = float(r[8])
            if not _is_share_of(mean, self.count):
                problems.append(f"mean_success {mean} is not a count over {self.count}")
            if r[9] != f"{mean * (1.0 - mean):.17g}":
                problems.append(f"variance {r[9]} != m(1-m) for m={mean}")
        if ref is not None and out != ref:
            problems.append("results CSV differs from the reference bytes")
        return problems

    def reference(self, out):
        return out


class RecallCliWorkload:
    """Ops are in-process `recall` commands; the output is outcome.json."""

    n, p, anneal_time = 5, 3, 100.0
    batch_width = 1
    instances_per_rule = 16


    def specs(self, seed):
        return [
            {"rule": rule, "seed": derive_seed(seed, "exact", self.p, 0, 0, k)}
            for k in range(self.instances_per_rule)
            for rule in LEARNING_RULES
        ]

    def argv(self, spec, out_dir):
        return ["recall", "--n", str(self.n), "--p", str(self.p), "--rule", spec["rule"],
                "--T", f"{self.anneal_time:g}", "--seed", str(spec["seed"]), "--out", out_dir]

    def run(self, spec, workdir):
        out_dir = os.path.join(workdir, "recall")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(spec, out_dir))
        if code != 0:
            raise RuntimeError(f"recall exited {code}")
        with open(os.path.join(out_dir, "outcome.json")) as fh:
            return json.load(fh)

    def rebuild(self, spec, workdir, tracer):
        """`cli._cmd_recall` for a generated instance, call by call."""
        out_dir = os.path.join(workdir, "recall-traced")
        paths = [os.path.join(out_dir, f) for f in ("config.json", "provenance.txt", "outcome.json")]
        with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli"):
            cfg = cli.parse_config(self.argv(spec, out_dir))
            params = cfg.params
            with tracer.span("instances"):
                instance = generate_instance(
                    params["protocol"], params["n"], params["p"], params["rule"],
                    params["gamma"], params["T"], seed=params["seed"],
                )
            with tracer.span("learning"):
                weights = weights_for_rule(instance.rule, instance.memories)
            with tracer.span("hamiltonians"):
                h1 = ising_hamiltonian(weights, BiasSpec(input_key=instance.input_key,
                                                         gamma=instance.gamma))
                diagonal = h1.diagonal()
            with tracer.span("evolution"):
                psi = evolve_batch(diagonal[None, :], AnnealSchedule.linear(instance.anneal_time),
                                   params["dt"])[0]
            with tracer.span("ensembles"):
                p_ans = float(np.abs(psi[pattern_to_index(instance.target_pattern())]) ** 2)
                success = success_indicator(p_ans, params["x"])
            with tracer.span("hamiltonians"):
                overlap = ground_state_mass(psi, h1)
            os.makedirs(out_dir, exist_ok=True)
            with tracer.span("memio"):
                write_json_atomic(paths[0], {"command": cfg.command, **params})
                write_text_atomic(paths[1], provenance_line(params["seed"]) + "\n")
            payload = {
                "protocol": instance.protocol,
                "rule": instance.rule,
                "n": instance.n,
                "p": instance.p,
                "gamma": instance.gamma,
                "T": instance.anneal_time,
                "answer_index": instance.answer_index,
                "input_key": instance.input_key.tolist(),
                "target": instance.target_pattern().tolist(),
                "p_ans": p_ans,
                "success": success,
                "ground_overlap": overlap,
            }
            with tracer.span("memio"):
                write_json_atomic(paths[2], payload)
            print(f"p_ans={p_ans:.9f} success={success} ground_overlap={overlap:.9f}")
            print(f"outcome -> {paths[2]}")
        tracer.count("memio.bytes", sum(os.path.getsize(path) for path in paths))
        tracer.count("evolution.instance_steps", step_count(instance.anneal_time, params["dt"]))
        tracer.count("evolution.batch_columns", 1)
        tracer.count("evolution.batches", 1)
        with open(paths[2]) as fh:
            return json.load(fh)

    def check(self, spec, out, ref):
        problems = []
        fixed = {"protocol": "exact", "rule": spec["rule"], "n": self.n, "p": self.p,
                 "T": self.anneal_time}
        for key, value in fixed.items():
            if out[key] != value:
                problems.append(f"{key}={out[key]!r}, asked for {value!r}")
        p_ans, overlap = out["p_ans"], out["ground_overlap"]
        if not 0.0 <= p_ans <= 1.0 + 1e-12:
            problems.append(f"p_ans={p_ans} outside [0, 1]")
        if not 0.0 <= overlap <= 1.0 + 1e-12:
            problems.append(f"ground_overlap={overlap} outside [0, 1]")
        if out["success"] != int(p_ans >= DEFAULT_THRESHOLD):
            problems.append(f"success={out['success']} disagrees with p_ans={p_ans}")
        if out["input_key"] != out["target"] or len(out["target"]) != self.n:
            problems.append("exact protocol: the input key must be the target")
        if ref is not None:
            for key, value in ref.items():
                if isinstance(value, float):
                    if not abs(out[key] - value) <= REFERENCE_TOL:
                        problems.append(f"{key}={out[key]!r}, reference {value!r}")
                elif out[key] != value:
                    problems.append(f"{key}={out[key]!r}, reference {value!r}")
        return problems

    def reference(self, out):
        return out


class RegisterN8Workload:
    """Ops analyse one n=8 instance's spectrum, then anneal an N=20 ensemble."""

    n, p, gamma, anneal_time, count, samples = 8, 3, 0.3, 100.0, 20, 201
    batch_width = 20
    masters_per_rule = 2

    def specs(self, seed):
        return [
            {"rule": rule, "seed": derive_seed(seed, "exact", self.p, 0, 0, k)}
            for k in range(self.masters_per_rule)
            for rule in LEARNING_RULES
        ]

    def _instance(self, spec):
        # instance 0 of the op's ensemble
        return generate_instance(
            "exact", self.n, self.p, spec["rule"], self.gamma, self.anneal_time,
            seed=derive_seed(spec["seed"], "exact", self.p, 0, 0, 0),
        )

    def _output(self, trace, gap, stats):
        gap, t_at = gap
        return {
            "min_gap": gap,
            "t_at": t_at,
            "energies_shape": list(trace.energies.shape),
            "ascending": bool(np.all(np.diff(trace.energies, axis=1) >= -1e-9)),
            "mean_success": stats.mean_success,
            "variance": stats.variance,
        }

    def run(self, spec, workdir):
        h0 = transverse_field_hamiltonian(self.n)
        instance = self._instance(spec)
        h1 = ising_hamiltonian(weights_for_rule(instance.rule, instance.memories),
                               BiasSpec(input_key=instance.input_key, gamma=instance.gamma))
        trace = spectrum_trace(h0, h1, AnnealSchedule.linear(self.anneal_time), self.samples)
        gap = min_gap(trace)
        stats = run_ensemble("exact", self.n, self.p, spec["rule"], self.gamma,
                             self.anneal_time, count=self.count, master_seed=spec["seed"])
        return self._output(trace, gap, stats)

    def rebuild(self, spec, workdir, tracer):
        with tracer.span("hamiltonians"):
            h0 = transverse_field_hamiltonian(self.n)
        with tracer.span("instances"):
            instance = self._instance(spec)
        with tracer.span("learning"):
            weights = weights_for_rule(instance.rule, instance.memories)
        with tracer.span("hamiltonians"):
            h1 = ising_hamiltonian(weights, BiasSpec(input_key=instance.input_key,
                                                     gamma=instance.gamma))
        with tracer.span("spectrum"):
            trace = spectrum_trace(h0, h1, AnnealSchedule.linear(self.anneal_time), self.samples)
            gap = min_gap(trace)
        tracer.count("spectrum.samples", self.samples)
        stats = _traced_cell(tracer, "exact", self.n, self.p, spec["rule"], self.gamma,
                             self.anneal_time, self.count, spec["seed"], 0)
        return self._output(trace, gap, stats)

    def check(self, spec, out, ref):
        problems = []
        gap, t_at, mean = out["min_gap"], out["t_at"], out["mean_success"]
        if not (math.isfinite(gap) and gap >= 0.0):
            problems.append(f"min_gap={gap} is not a finite gap")
        if not 0.0 <= t_at <= self.anneal_time:
            problems.append(f"gap time {t_at} outside [0, T]")
        if out["energies_shape"] != [self.samples, 1 << self.n] or not out["ascending"]:
            problems.append(f"spectrum shape {out['energies_shape']} or order is wrong")
        if not _is_share_of(mean, self.count):
            problems.append(f"mean_success {mean} is not a count over {self.count}")
        if out["variance"] != mean * (1.0 - mean):
            problems.append(f"variance {out['variance']} != m(1-m)")
        if ref is not None:
            for key in ("min_gap", "mean_success"):
                if not abs(out[key] - ref[key]) <= REFERENCE_TOL:
                    problems.append(f"{key}={out[key]!r}, reference {ref[key]!r}")
        return problems

    def reference(self, out):
        return {"min_gap": out["min_gap"], "mean_success": out["mean_success"]}


C3_GAMMAS = [0.05, 0.15, 0.5]

WORKLOADS = {
    # The C3 grid split by p: instance seeds depend on p by value but on
    # gamma by grid position, so one op per p keeps C3's instances and the
    # five ops' rows together are the C3 results CSV.
    "sweep_long": SweepWorkload(
        [{"protocol": "exact", "rule": "projection", "p_list": [p], "gammas": C3_GAMMAS}
         for p in range(1, 6)],
        anneal_time=1000.0,
    ),
    "sweep_short": SweepWorkload(
        [{"protocol": protocol, "rule": rule, "p_list": [1, 2, 3, 4, 5],
          "gammas": [0.05, 0.4, 1.0]}
         for protocol in ("noisy", "failure1", "failure2")
         for rule in LEARNING_RULES],
        anneal_time=50.0,
    ),
    "recall_cli": RecallCliWorkload(),
    "register_n8": RegisterN8Workload(),
}


def set_up(workload) -> float:
    """Shared set-up before the first op: the H0 cache and a BLAS warm-up.

    Returns the seconds the first (cold) H0 build took.
    """
    start = time.perf_counter()
    transverse_field_hamiltonian(workload.n)
    h0_build_s = time.perf_counter() - start
    evolve_batch(np.zeros((workload.batch_width, 1 << workload.n)),
                 AnnealSchedule.linear(DEFAULT_DT), DEFAULT_DT)
    return h0_build_s


def expm_multiply_yardstick(seed, repeats=9) -> dict:
    """One propagator step at n=5, M=100: the package's Taylor kernel beside
    `scipy.sparse.linalg.expm_multiply` on the same block.

    The block holds 100 `sweep_long` instances (p=3, gamma=0.15); the step
    is the first one of a T=1000 anneal. scipy acts with one matrix, so the
    block is stacked into a vector under the block-diagonal generator
    I_M (x) a*H0 + diag(b*d_m). Times are medians over `repeats` calls; the
    package's call includes its per-call set-up, which is small at n=5.
    """
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import expm_multiply

    n, p, gamma, count, dt, total = 5, 3, 0.15, 100, DEFAULT_DT, 1000.0
    instances = [
        generate_instance("exact", n, p, "projection", gamma, total,
                          seed=derive_seed(seed, "exact", p, 1, 0, i))
        for i in range(count)
    ]
    diagonals = np.stack([
        ising_hamiltonian(weights_for_rule(inst.rule, inst.memories),
                          BiasSpec(input_key=inst.input_key, gamma=inst.gamma)).diagonal()
        for inst in instances
    ])
    schedule = AnnealSchedule.linear(total)
    a, b = schedule.driver_weight(dt / 2), schedule.problem_weight(dt / 2)
    dim = 1 << n
    generator = (kron(identity(count), a * transverse_field_hamiltonian(n))
                 + diags(b * diagonals.ravel())).tocsr()
    psi0 = np.full(count * dim, 1.0 / np.sqrt(dim), dtype=complex)

    def package_step():
        # evolve_batch over [0, dt] of a schedule with the same midpoint weights
        step_schedule = AnnealSchedule(dt, lambda t: a, lambda t: b)
        return evolve_batch(diagonals, step_schedule, dt)

    def scipy_step():
        return expm_multiply(-1j * dt * generator, psi0).reshape(count, dim)

    times = {}
    results = {}
    for name, fn in (("package_step_s", package_step), ("expm_multiply_s", scipy_step)):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            results[name] = fn()
            samples.append(time.perf_counter() - start)
        times[name] = sorted(samples)[repeats // 2]
    return {
        "n": n, "batch": count, "dt": dt, **times,
        "max_abs_diff": float(np.max(np.abs(results["package_step_s"]
                                            - results["expm_multiply_s"]))),
    }
