"""Command-line front end.

Subcommands: ``spectrum``, ``recall``, ``classical``, ``bias-sweep``,
``anneal-sweep``, ``figures``; each accepts only the options its handler
reads. Option values resolve with the precedence flags > config file
(``--config``, JSON) > built-in defaults, and every run echoes its effective
configuration to ``<out>/config.json`` together with a one-line provenance
record, so a run can be reproduced from its own output directory.

Exit codes: 0 success, 2 usage error, 3 numerical or convergence failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ensembles import (
    DEFAULT_ENSEMBLE_SIZE,
    DEFAULT_THRESHOLD,
    bias_response,
    run_instance,
    write_results_csv,
    _sweep_cells,
)
from .evolution import AnnealSchedule, ConvergenceError, DEFAULT_DT, check_halving
from .hamiltonians import MAX_QUBITS, ising_hamiltonian, transverse_field_hamiltonian
from .instances import PROTOCOLS, ProblemInstance, generate_instance
from .learning import LEARNING_RULES, SingularCovarianceError, weights_for_rule
from .memio import (
    FIGURE_IDS,
    FIGURES,
    emit_figure_data,
    load_memories,
    provenance_line,
    write_json_atomic,
    write_text_atomic,
)
from .network import BiasSpec, classical_update, network_energy
from .patterns import as_pattern, hadamard_memories, overlapping_memories
from .spectrum import SpectrumTrace, min_gap, spectrum_trace, write_spectrum_csv

__all__ = ["RunConfig", "parse_config", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Effective, fully validated parameters of one CLI run."""

    command: str
    params: dict


def _list_of(convert):
    """Normalizer of a list option given as a JSON list or as text like '1,2 3'."""
    def parse(value):
        if not isinstance(value, (list, tuple)):
            value = str(value).replace(",", " ").split()
        return [convert(v) for v in value]
    return parse


def _integer(value) -> int:
    """int() that rejects booleans and non-integral numbers instead of truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# a check is (predicate, message); the message is formatted with the value as {v}
_FINITE = (math.isfinite, "must be finite, got {v}")
_ALL_FINITE = (lambda vs: all(map(math.isfinite, vs)), "values must be finite, got {v}")
_POSITIVE = (lambda v: v > 0, "must be positive, got {v}")
_BOOL = (lambda v: isinstance(v, bool), "must be true or false, got {v!r}")
_NON_EMPTY = (lambda vs: len(vs) > 0, "must list at least one value")
_DISTINCT = (lambda vs: len(set(vs)) == len(vs), "values must be distinct, got {v}")


def _usable_dir(path: str) -> bool:
    """Whether `path` is a directory or `os.makedirs` could make it one; creates nothing."""
    head = os.path.abspath(path)
    while not os.path.exists(head):  # the nearest existing ancestor
        head = os.path.dirname(head)
    return bool(path) and "\0" not in path and os.path.isdir(head)


def _at_least(low):
    return (lambda v: v is None or v >= low, f"must be at least {low}, got {{v}}")


def _at_most(high):
    return (lambda v: v is None or v <= high, f"must be at most {high}, got {{v}}")


def _one_of(choices):
    return (lambda v: v in choices, f"must be one of {choices}, got {{v!r}}")


# option name -> (value normalizer, default, checks in order, help). The flag is
# "--" + name with "_" -> "-"; only options whose default is None accept null.
_OPTIONS = {
    "n": (_integer, None, [_at_least(1), _at_most(MAX_QUBITS)],
          f"number of neurons / qubits, at most {MAX_QUBITS} (dense simulation)"),
    "p": (_integer, None, [_at_least(1)], "number of stored memories"),
    "rule": (str, "hebb", [_one_of(LEARNING_RULES)], f"learning rule, one of {LEARNING_RULES}"),
    "gamma": (float, 0.1, [_FINITE, (lambda v: v >= 0, "must be non-negative, got {v}")],
              "bias energy scale"),
    "T": (float, 1000.0, [_FINITE, _POSITIVE], "annealing time"),
    "dt": (float, DEFAULT_DT, [_FINITE, _POSITIVE], "propagator time step"),
    "N": (_integer, DEFAULT_ENSEMBLE_SIZE, [_at_least(1)], "instances per ensemble cell"),
    "x": (float, DEFAULT_THRESHOLD,
          [_FINITE, (lambda v: 0 <= v <= 1, "must lie in [0, 1], got {v}")],
          "success threshold on the answer probability"),
    "seed": (_integer, 0, [], "master seed; all randomness derives from it"),
    "protocol": (str, "exact", [_one_of(PROTOCOLS)], f"instance protocol, one of {PROTOCOLS}"),
    "memories": (str, None, [], "memory-set file (see README for the format)"),
    "input": (_list_of(_integer), None, [], "input key, e.g. '+1,-1,+1,-1'"),
    "out": (str, None, [(_usable_dir, "must be a directory or creatable as one, got {v!r}")],
            "output directory"),
    "samples": (_integer, 201, [_at_least(2)], "time samples for the spectrum grid"),
    "hadamard": (bool, False, [_BOOL], "use orthogonal Hadamard-column memories"),
    "check_dt": (bool, False, [_BOOL], "verify the result is stable under dt halving"),
    "mode": (str, "asynchronous", [_one_of(("synchronous", "asynchronous"))],
             "update mode: synchronous or asynchronous"),
    "max_sweeps": (_integer, 100, [_at_least(1)], "sweep budget for the classical dynamics"),
    "p_list": (_list_of(_integer), [1, 2, 3, 4, 5],
               [_NON_EMPTY, _DISTINCT,
                (lambda ps: all(p >= 1 for p in ps), "memory counts must be at least 1")],
               "memory counts, e.g. '1,2,3,4,5'"),
    "gamma_grid": (_list_of(float), [round(0.05 * k, 2) for k in range(0, 21)],
                   [_NON_EMPTY, _ALL_FINITE, _DISTINCT,
                    (lambda gs: all(0 <= g <= 1 for g in gs), "bias values must lie in [0, 1]")],
                   "bias grid, e.g. '0.05,0.15,0.5'"),
    "T_list": (_list_of(float), [50.0, 500.0, 5000.0],
               [_NON_EMPTY, _ALL_FINITE,
                (lambda ts: ts[0] > 0 and all(a < b for a, b in zip(ts, ts[1:])),
                 "annealing times must be positive and strictly ascending")],
               "annealing times, strictly ascending"),
    "id": (str, None, [_one_of(FIGURE_IDS)], f"figure id, one of {FIGURE_IDS}"),
}

# exactly the options each command's handler reads, in config.json order
_COMMAND_PARAMS = {
    "spectrum": ("n", "p", "rule", "gamma", "T", "seed", "memories", "input", "out",
                 "samples", "hadamard"),
    "recall": ("n", "p", "rule", "gamma", "T", "dt", "x", "seed", "protocol", "memories",
               "input", "out", "check_dt"),
    "classical": ("n", "p", "rule", "gamma", "seed", "protocol", "memories", "input",
                  "out", "mode", "max_sweeps"),
    "bias-sweep": ("n", "rule", "T", "dt", "N", "x", "seed", "protocol", "out",
                   "p_list", "gamma_grid"),
    "anneal-sweep": ("n", "rule", "gamma", "dt", "N", "x", "seed", "protocol", "out",
                     "p_list", "T_list"),
    "figures": ("n", "p", "rule", "T", "dt", "N", "x", "seed", "memories", "out",
                "id", "p_list", "gamma_grid", "T_list", "samples"),
}
COMMANDS = tuple(_COMMAND_PARAMS)

_COMMAND_DEFAULTS = {
    "classical": {"gamma": 0.0},
}

# the figures options each figure kind reads besides --id and --out; any other
# one set away from its default would be ignored, so it is a usage error
_FIGURE_PARAMS = {
    "spectrum": ("n", "p", "rule", "T", "samples"),
    "bias-response": ("n", "memories", "T", "dt", "gamma_grid"),
    "bias-sweep": ("n", "T", "dt", "N", "x", "seed", "p_list", "gamma_grid"),
    "anneal-sweep": ("n", "dt", "N", "x", "seed", "p_list", "T_list"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfield-annealing",
        description="Store bipolar memories in an Ising network and recall "
                    "them by simulated quantum annealing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        # without allow_abbrev=False, `anneal-sweep --T` would parse as --T-list
        cp = sub.add_parser(command, allow_abbrev=False)
        cp.add_argument("--config", default=None,
                        help="JSON file of option values (flags win)")
        for name in _COMMAND_PARAMS[command]:
            norm, _, _, help_text = _OPTIONS[name]
            if norm is bool:
                cp.add_argument(_flag(name), dest=name, action="store_true", default=None,
                                help=help_text)
            else:
                cp.add_argument(_flag(name), dest=name, type=str, default=None,
                                help=help_text)
    return parser


def _normalize(name: str, value):
    norm, default = _OPTIONS[name][:2]
    if value is None:
        if default is not None:
            raise ValueError(f"{_flag(name)}: must not be null")
        return None
    if norm is bool:
        return value
    try:
        return norm(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{_flag(name)}: {exc}")


def parse_config(argv) -> RunConfig:
    """Resolve argv (and an optional config file) into a validated RunConfig."""
    ns = _build_parser().parse_args(argv)
    command = ns.command
    params = {name: _OPTIONS[name][1] for name in _COMMAND_PARAMS[command]}
    params.update(_COMMAND_DEFAULTS.get(command, {}))

    if ns.config is not None:
        try:
            with open(ns.config) as fh:
                file_values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {ns.config}: invalid JSON ({exc})")
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {ns.config}: expected a JSON object")
        for key, value in file_values.items():
            if key == "command":
                if value != command:
                    raise ValueError(
                        f"config file is for command {value!r}, not {command!r}"
                    )
                continue
            if key not in params:
                raise ValueError(f"unknown config key {key!r} for command {command!r}")
            params[key] = _normalize(key, value)

    for name in _COMMAND_PARAMS[command]:
        flag_value = getattr(ns, name)
        if flag_value is not None:
            params[name] = _normalize(name, flag_value)

    if params["out"] is None:
        params["out"] = f"{command}-out"
    for name, value in params.items():
        for predicate, why in _OPTIONS[name][2]:
            if not predicate(value):
                raise ValueError(f"{_flag(name)}: {why.format(v=value)}")
    return RunConfig(command=command, params=params)


def _echo_outputs(cfg: RunConfig) -> str:
    out = cfg.params["out"]
    os.makedirs(out, exist_ok=True)
    write_json_atomic(os.path.join(out, "config.json"),
                      {"command": cfg.command, **cfg.params})
    write_text_atomic(os.path.join(out, "provenance.txt"),
                      provenance_line(cfg.params["seed"]) + "\n")
    return out


def _load_memory_set(cfg: RunConfig):
    """The --memories file, the --hadamard set or `overlapping_memories()`,
    cut to its first --p patterns."""
    params = cfg.params
    if params["memories"] is not None and params.get("hadamard"):
        raise ValueError("--hadamard: cannot be combined with --memories")
    if params["memories"] is not None:
        mem = load_memories(params["memories"])
    elif params.get("hadamard"):
        if params["n"] is None:
            raise ValueError("--hadamard: requires --n")
        mem = hadamard_memories(params["n"])
    else:
        mem = overlapping_memories()
    if params["p"] is not None:
        if params["p"] > mem.shape[0]:
            raise ValueError(f"--p: memory set holds {mem.shape[0]} patterns")
        mem = mem[: params["p"]]
    if params["n"] is not None and mem.shape[1] != params["n"]:
        raise ValueError(f"--n: memory set has n={mem.shape[1]}, flag says {params['n']}")
    return mem


def _input_key(cfg: RunConfig, n: int):
    """The --input pattern, checked against the register size n; None if unset."""
    if cfg.params["input"] is None:
        return None
    key = as_pattern(cfg.params["input"])
    if key.size != n:
        raise ValueError(f"--input: pattern length {key.size} does not match n={n}")
    return key


def _spectrum(params: dict, memories, bias) -> SpectrumTrace:
    """Spectrum trace of the annealing Hamiltonian storing `memories`."""
    n = memories.shape[1]
    h1 = ising_hamiltonian(weights_for_rule(params["rule"], memories), bias)
    return spectrum_trace(transverse_field_hamiltonian(n), h1,
                          AnnealSchedule.linear(params["T"]), params["samples"])


def _cmd_spectrum(cfg: RunConfig) -> int:
    memories = _load_memory_set(cfg)
    key = _input_key(cfg, memories.shape[1])
    if key is None and cfg.params["gamma"] != _OPTIONS["gamma"][1]:
        raise ValueError("--gamma: scales the bias towards --input, which is not set")
    bias = None if key is None else BiasSpec(input_key=key, gamma=cfg.params["gamma"])
    trace = _spectrum(cfg.params, memories, bias)
    out = _echo_outputs(cfg)
    path = os.path.join(out, "spectrum.csv")
    write_spectrum_csv(trace, path)
    gap, t_at = min_gap(trace)
    print(f"spectrum: {trace.energies.shape[1]} levels x {trace.times.size} samples "
          f"-> {path}")
    print(f"min gap above ground manifold: {gap:.6g} at t={t_at:.6g}")
    return 0


def _instance(cfg: RunConfig) -> ProblemInstance:
    """A generated instance when --n and --p are set without --memories;
    otherwise an exact-protocol instance over the loaded memory set whose key
    is --input (default: the first memory)."""
    params = cfg.params
    anneal_time = params.get("T", _OPTIONS["T"][1])  # classical recall does not anneal
    if params["memories"] is None and params["n"] is not None and params["p"] is not None:
        if params["input"] is not None:
            raise ValueError("--input: a generated instance (--n and --p) draws its own key")
        return generate_instance(
            params["protocol"], params["n"], params["p"], params["rule"],
            params["gamma"], anneal_time, seed=params["seed"],
        )
    if params["protocol"] != "exact":
        raise ValueError(f"--protocol: {params['protocol']} needs --n and --p without --memories")
    memories = _load_memory_set(cfg)
    n = memories.shape[1]
    key = _input_key(cfg, n)
    if key is None:
        key = memories[0].copy()
    return ProblemInstance(
        protocol="exact",
        n=n,
        memories=memories,
        answer_index=int(np.argmin(np.count_nonzero(memories != key, axis=1))),
        input_key=key,
        rule=params["rule"],
        gamma=params["gamma"],
        anneal_time=anneal_time,
        seed=params["seed"],
    )


def _cmd_recall(cfg: RunConfig) -> int:
    params = cfg.params
    instance = _instance(cfg)
    outcome = run_instance(instance, x=params["x"], dt=params["dt"])
    if params["check_dt"]:
        half = run_instance(instance, x=params["x"], dt=params["dt"] / 2.0)
        check_halving(outcome.p_ans, half.p_ans, params["dt"])
    out = _echo_outputs(cfg)
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
        "p_ans": outcome.p_ans,
        "success": outcome.success,
        "ground_overlap": outcome.ground_overlap,
    }
    write_json_atomic(os.path.join(out, "outcome.json"), payload)
    print(f"p_ans={outcome.p_ans:.9f} success={outcome.success} "
          f"ground_overlap={outcome.ground_overlap:.9f}")
    print(f"outcome -> {os.path.join(out, 'outcome.json')}")
    return 0


def _cmd_classical(cfg: RunConfig) -> int:
    params = cfg.params
    instance = _instance(cfg)
    memories, key = instance.memories, instance.input_key
    weights = weights_for_rule(params["rule"], memories)
    bias = BiasSpec(key, params["gamma"]) if params["gamma"] > 0 else None
    state, converged, sweeps = classical_update(
        key, weights, bias, mode=params["mode"],
        max_sweeps=params["max_sweeps"], seed=params["seed"],
    )
    payload = {
        "rule": params["rule"],
        "mode": params["mode"],
        "input_key": key.tolist(),
        "final_state": state.tolist(),
        "converged": converged,
        "sweeps": sweeps,
        "energy": network_energy(state, weights, bias),
        "is_stored_memory": int((memories == state).all(axis=1).any()),
    }
    out = _echo_outputs(cfg)
    write_json_atomic(os.path.join(out, "outcome.json"), payload)
    print(f"final state {state.tolist()} converged={converged} sweeps={sweeps}")
    return 0


def _sweep(kind: str, params: dict, protocol: str, n: int, rule_gammas: dict) -> list:
    """Every cell of one sweep over the rules of `rule_gammas` (rule -> bias
    grid), all checked before the first anneal: at --T for kind "bias-sweep",
    over --T-list for "anneal-sweep"."""
    time_list = [params["T"]] if kind == "bias-sweep" else params["T_list"]
    return _sweep_cells(protocol, n, params["p_list"], rule_gammas, time_list,
                        params["N"], params["x"], params["dt"], params["seed"])


def _cmd_sweep(cfg: RunConfig) -> int:
    params = cfg.params
    if params["n"] is None:
        raise ValueError(f"--n: required for {cfg.command}")
    gammas = params["gamma_grid"] if cfg.command == "bias-sweep" else [params["gamma"]]
    stats = _sweep(cfg.command, params, params["protocol"], params["n"],
                   {params["rule"]: gammas})
    out = _echo_outputs(cfg)
    path = os.path.join(out, "results.csv")
    write_results_csv(stats, path)
    print(f"{len(stats)} cells -> {path}")
    return 0


def _cmd_figures(cfg: RunConfig) -> int:
    params = cfg.params
    fid = params["id"]
    kind, setting = FIGURES[fid]
    for name in _COMMAND_PARAMS["figures"]:
        if (name not in ("id", "out", *_FIGURE_PARAMS[kind])
                and params[name] != _OPTIONS[name][1]):
            raise ValueError(f"{_flag(name)}: figure {fid} ({kind}) does not read it")
    n = params["n"] if params["n"] is not None else (4 if kind == "spectrum" else 5)
    if kind == "spectrum":
        memories = hadamard_memories(n, params["p"])
        bias = None if setting is None else BiasSpec(memories[0], setting)
        results = _spectrum(params, memories, bias)
    elif kind == "bias-response":
        memories = _load_memory_set(cfg)
        if memories.shape[0] < setting:
            raise ValueError(f"--memories: figure {fid} stores p={setting} memories, "
                             f"the set holds {memories.shape[0]}")
        results = bias_response(memories[:setting], memories[0], params["gamma_grid"],
                                params["T"], params["dt"])
    elif kind == "anneal-sweep":
        if len(params["T_list"]) < 2:
            raise ValueError(f"--T-list: figure {fid} compares at least two annealing times")
        results = _sweep(kind, params, "exact", n, {rule: [g] for rule, g in setting.items()})
    else:
        results = _sweep(kind, params, setting, n,
                         dict.fromkeys(LEARNING_RULES, params["gamma_grid"]))
    out = _echo_outputs(cfg)
    written = emit_figure_data(results, fid, out)
    for path in written:
        print(f"wrote {path}")
    return 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "recall": _cmd_recall,
    "classical": _cmd_classical,
    "bias-sweep": _cmd_sweep,
    "anneal-sweep": _cmd_sweep,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        return _HANDLERS[cfg.command](cfg)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except (SingularCovarianceError, ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
