import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import hopfield_annealing
from hopfield_annealing.cli import RunConfig, main, parse_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_defaults():
    cfg = parse_config(["recall", "--n", "4", "--p", "1"])
    assert cfg.command == "recall"
    assert cfg.params["rule"] == "hebb"
    assert cfg.params["T"] == 1000.0
    assert cfg.params["x"] == pytest.approx(2 / 3)
    assert cfg.params["out"] == "recall-out"


def test_flag_overrides_config_overrides_default(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"T": 1000.0, "gamma": 0.4}))
    cfg = parse_config(["recall", "--config", str(config), "--T", "500"])
    assert cfg.params["T"] == 500.0      # flag wins
    assert cfg.params["gamma"] == 0.4    # config beats default
    assert cfg.params["dt"] == 0.1       # default survives


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"temperature": 3.0}))
    with pytest.raises(ValueError, match="temperature"):
        parse_config(["recall", "--config", str(config)])


def test_invalid_rule_names_choices(capsys):
    code, _, err = run(capsys, "recall", "--n", "4", "--p", "1", "--rule", "quantum")
    assert code == 2
    assert "rule" in err and "hebb" in err and "projection" in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["recall", "--bogus", "1"]) == 2


def test_range_validation(capsys):
    assert run(capsys, "recall", "--n", "4", "--p", "1", "--gamma", "-0.5")[0] == 2
    assert run(capsys, "bias-sweep", "--n", "4", "--gamma-grid", "0.2,1.4")[0] == 2
    assert run(capsys, "anneal-sweep", "--n", "4", "--T-list", "100,50")[0] == 2
    assert run(capsys, "figures", "--id", "f99")[0] == 2


def test_recall_smoke_and_echo(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "recall", "--n", "4", "--p", "1", "--rule", "hebb",
        "--gamma", "0.1", "--T", "1000", "--out", str(out),
    )
    assert code == 0
    assert "p_ans=" in stdout
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["success"] == 1
    assert outcome["p_ans"] >= 0.99
    echo = json.loads((out / "config.json").read_text())
    assert echo["command"] == "recall" and echo["T"] == 1000.0
    assert "master_seed=0" in (out / "provenance.txt").read_text()


def test_config_echo_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(
        capsys, "recall", "--n", "4", "--p", "2", "--rule", "storkey",
        "--gamma", "0.25", "--T", "120", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    original = parse_config([
        "recall", "--n", "4", "--p", "2", "--rule", "storkey",
        "--gamma", "0.25", "--T", "120", "--seed", "7", "--out", str(out),
    ])
    reparsed = parse_config(["recall", "--config", str(out / "config.json")])
    assert isinstance(reparsed, RunConfig)
    assert reparsed == original


# each command's options, exactly those its handler reads, with a cheap run
COMMAND_KEYS = {
    "spectrum": (["--hadamard", "--n", "4", "--gamma", "1.0", "--input", "+1,+1,+1,+1",
                  "--T", "10", "--samples", "5"],
                 "n p rule gamma T seed memories input out samples hadamard"),
    "recall": (["--n", "4", "--p", "2", "--rule", "storkey", "--T", "20", "--dt", "0.02",
                "--seed", "7", "--check-dt"],
               "n p rule gamma T dt x seed protocol memories input out check_dt"),
    "classical": (["--input", "+1,-1,+1,+1", "--mode", "synchronous", "--max-sweeps", "5"],
                  "n p rule gamma seed protocol memories input out mode max_sweeps"),
    "bias-sweep": (["--n", "4", "--p-list", "1", "--gamma-grid", "0.3", "--T", "20",
                    "--N", "2"],
                   "n rule T dt N x seed protocol out p_list gamma_grid"),
    "anneal-sweep": (["--n", "4", "--p-list", "1", "--gamma", "0.5", "--T-list", "10,20",
                      "--N", "2"],
                     "n rule gamma dt N x seed protocol out p_list T_list"),
    "figures": (["--id", "f1", "--n", "4", "--T", "10", "--samples", "5"],
                "n p rule T dt N x seed memories out id p_list gamma_grid T_list samples"),
}


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_config_echo_holds_only_read_options_and_round_trips(tmp_path, capsys, command):
    flags, keys = COMMAND_KEYS[command]
    argv = [command, *flags, "--out", str(tmp_path / "run")]
    assert run(capsys, *argv)[0] == 0
    echo = json.loads((tmp_path / "run" / "config.json").read_text())
    assert set(echo) == {"command", *keys.split()}
    reparsed = parse_config([command, "--config", str(tmp_path / "run" / "config.json")])
    assert reparsed == parse_config(argv)


# options a command does not read, and abbreviations of options it does: argparse
# would otherwise take `anneal-sweep --T` as --T-list and `bias-sweep --p` as --p-list
@pytest.mark.parametrize("command, flag", [
    ("spectrum", "--dt"), ("spectrum", "--N"), ("spectrum", "--x"), ("spectrum", "--protocol"),
    ("recall", "--N"),
    ("classical", "--dt"), ("classical", "--N"), ("classical", "--x"), ("classical", "--T"),
    ("bias-sweep", "--p"), ("bias-sweep", "--gamma"), ("bias-sweep", "--memories"),
    ("bias-sweep", "--input"),
    ("anneal-sweep", "--p"), ("anneal-sweep", "--T"), ("anneal-sweep", "--memories"),
    ("anneal-sweep", "--input"),
    ("figures", "--gamma"), ("figures", "--protocol"), ("figures", "--input"),
    ("bias-sweep", "--gamma-g"), ("anneal-sweep", "--T-l"), ("recall", "--check"),
])
def test_unread_or_abbreviated_flag_is_fast_usage_error(tmp_path, capsys, command, flag):
    start = time.perf_counter()
    code, _, err = run(capsys, command, "--n", "4", flag, "1", "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key", [
    ("anneal-sweep", "T"), ("bias-sweep", "gamma"), ("figures", "protocol"), ("recall", "N"),
])
def test_unread_config_key_is_usage_error(tmp_path, capsys, command, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: 1}))
    code, _, err = run(capsys, command, "--n", "4", "--config", str(config))
    assert code == 2
    assert f"unknown config key {key!r}" in err


def test_config_null_only_for_options_without_default(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"gamma": None}))
    code, _, err = run(capsys, "recall", "--n", "4", "--p", "1", "--config", str(config))
    assert code == 2
    assert "--gamma: " in err and "null" in err
    config.write_text(json.dumps({"n": None, "p": 1, "memories": None}))
    cfg = parse_config(["recall", "--config", str(config)])
    assert cfg.params["n"] is None and cfg.params["p"] == 1


@pytest.mark.parametrize("key, value", [("gamma", {"value": 1}), ("check_dt", "no")])
def test_malformed_config_value_is_usage_error(tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    code, _, err = run(capsys, "recall", "--n", "4", "--p", "1", "--config", str(config))
    assert code == 2
    assert f"--{key.replace('_', '-')}: " in err


@pytest.mark.parametrize("config_values, flag", [
    ({"n": 4.7, "p": 1}, "--n"),
    ({"n": True, "p": 1}, "--n"),
    ({"n": 4, "p": 1, "seed": 1.9}, "--seed"),
    ({"n": 4, "p": 1, "input": [1, -1, 1.5, 1]}, "--input"),
    ({"n": 4, "p": 1, "input": [1, -1, True, 1]}, "--input"),
], ids=["n-float", "n-bool", "seed-float", "input-float", "input-bool"])
def test_non_integral_config_integer_is_usage_error(tmp_path, capsys, config_values, flag):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(config_values))
    start = time.perf_counter()
    code, _, err = run(capsys, "recall", "--config", str(config), "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"{flag}: expected an integer" in err


def test_config_integers_accept_json_integers_and_numeric_strings(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": "4", "p": 1, "seed": 7, "input": ["1", -1, 1, -1]}))
    params = parse_config(["recall", "--config", str(config)]).params
    assert (params["n"], params["p"], params["seed"]) == (4, 1, 7)
    assert params["input"] == [1, -1, 1, -1]
    config.write_text(json.dumps({"p_list": [1, "2", 3]}))
    assert parse_config(["bias-sweep", "--config", str(config)]).params["p_list"] == [1, 2, 3]
    config.write_text(json.dumps({"p_list": [1, 2.5]}))
    with pytest.raises(ValueError, match="--p-list: expected an integer"):
        parse_config(["bias-sweep", "--config", str(config)])


@pytest.mark.parametrize("argv", [
    ["recall", "--n", "4", "--p", "1", "--T", "1e9"],
    ["recall", "--n", "4", "--p", "1", "--T", "10", "--gamma", "1e200"],
])
def test_runaway_anneal_is_fast_usage_error(tmp_path, capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "sub-steps" in err and "T=" in err and "dt=" in err and "gamma" in err


# requests that would run for minutes or exhaust memory, some only after a
# first cell or rule that runs: each is refused before any work. The huge
# registers ask for allocations the system refuses at once, so a missing
# check shows as a MemoryError rather than as a long run.
@pytest.mark.parametrize("argv", [
    ["spectrum", "--samples", "1000000000000"],
    ["spectrum", "--samples", "40001"],
    ["figures", "--id", "f1", "--samples", "1000000000000"],
    ["bias-sweep", "--n", "4", "--N", "1000000000000", "--p-list", "1", "--gamma-grid", "0.1",
     "--T", "1"],
    ["bias-sweep", "--n", "5", "--N", "100", "--p-list", "1,17", "--gamma-grid", "0.1"],
    ["bias-sweep", "--n", "5", "--N", "100", "--p-list", "1,6", "--gamma-grid", "0.1",
     "--rule", "projection"],
    ["anneal-sweep", "--n", "5", "--N", "100", "--p-list", "1", "--T-list", "3000,1e9"],
    ["figures", "--id", "f6", "--n", "5", "--p-list", "1,6", "--gamma-grid", "0.1,0.5",
     "--T", "1000", "--N", "100"],
    ["figures", "--id", "f6", "--n", "5", "--p-list", "6", "--gamma-grid", "0.1,0.5",
     "--T", "1000", "--N", "100"],
    ["figures", "--id", "f10", "--n", "5", "--p-list", "1,6", "--T-list", "50,500",
     "--N", "100"],
    ["recall", "--n", "1000000000000", "--p", "1"],
    ["recall", "--n", "100000", "--p", "1"],
    ["bias-sweep", "--n", "1000000000000", "--p-list", "1", "--gamma-grid", "0.1", "--T", "1"],
    ["classical", "--n", "1000000000000", "--p", "1"],
    ["classical", "--n", "100000", "--p", "1"],
    ["spectrum", "--hadamard", "--n", "1099511627776"],
    ["figures", "--id", "f1", "--n", "1099511627776"],
], ids=["spectrum-samples", "spectrum-samples-over-limit", "f1-samples", "sweep-N",
        "sweep-p-list", "sweep-projection-p-list", "sweep-T-list", "f6-projection-p-list",
        "f6-projection-only-p", "f10-projection-p-list", "recall-huge-n", "recall-large-n",
        "sweep-huge-n", "classical-huge-n", "classical-large-n", "spectrum-hadamard-huge-n",
        "f1-huge-n"])
def test_runaway_request_is_fast_usage_error(tmp_path, capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_spectrum_of_overflowing_hamiltonian_is_fast_numerical_failure(tmp_path, capsys):
    warnings.simplefilter("error", RuntimeWarning)  # the overflow is reported once, not warned
    start = time.perf_counter()
    code, _, err = run(capsys, "spectrum", "--n", "4", "--p", "1", "--gamma", "1e308",
                       "--input", "1,1,1,1", "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "not finite" in err and len(err.splitlines()) == 1


def test_non_finite_diagonal_is_fast_numerical_failure(tmp_path, capsys):
    warnings.simplefilter("error", RuntimeWarning)  # the overflow is reported once, not warned
    start = time.perf_counter()
    code, _, err = run(capsys, "recall", "--n", "4", "--p", "1", "--gamma", "1e308",
                       "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "not finite" in err and len(err.splitlines()) == 1


def test_non_finite_classical_energy_is_fast_numerical_failure(tmp_path, capsys):
    warnings.simplefilter("error", RuntimeWarning)
    start = time.perf_counter()
    code, _, err = run(capsys, "classical", "--n", "4", "--p", "1", "--gamma", "1e308",
                       "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "energy is not finite" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


# options the run would otherwise ignore: a generated instance draws its own key,
# a loaded memory set is recalled under the exact protocol, f3-f5 fix p, each
# figure kind reads only some of the figures options, and --hadamard picks a
# memory set as --memories does; and list options that leave the run nothing to
# do: an empty list, a repeated value, or f10's one annealing time where it
# compares several
@pytest.mark.parametrize("argv, flag", [
    (["recall", "--n", "4", "--p", "1", "--input", "1,1,1,1"], "--input"),
    (["classical", "--n", "4", "--p", "1", "--input", "1,1,1,1"], "--input"),
    (["recall", "--protocol", "noisy"], "--protocol"),
    (["classical", "--protocol", "noisy"], "--protocol"),
    (["recall", "--memories", "{mem}", "--p", "1", "--protocol", "failure1"], "--protocol"),
    (["classical", "--memories", "{mem}", "--n", "4", "--p", "1", "--protocol", "noisy"],
     "--protocol"),
    (["figures", "--id", "f3", "--p", "1"], "--p"),
    (["figures", "--id", "f4", "--p", "1"], "--p"),
    (["figures", "--id", "f5", "--p", "3"], "--p"),
    (["figures", "--id", "f5", "--memories", "{mem}"], "--memories"),
    (["figures", "--id", "f1", "--N", "2"], "--N"),
    (["figures", "--id", "f2", "--memories", "{mem}"], "--memories"),
    (["figures", "--id", "f2", "--gamma-grid", "0.2"], "--gamma-grid"),
    (["figures", "--id", "f3", "--rule", "storkey"], "--rule"),
    (["figures", "--id", "f4", "--seed", "3"], "--seed"),
    (["figures", "--id", "f5", "--samples", "5"], "--samples"),
    (["figures", "--id", "f6", "--p", "2"], "--p"),
    (["figures", "--id", "f7", "--memories", "{mem}"], "--memories"),
    (["figures", "--id", "f8", "--rule", "projection"], "--rule"),
    (["figures", "--id", "f9", "--T-list", "10"], "--T-list"),
    (["figures", "--id", "f10", "--T", "50"], "--T"),
    (["figures", "--id", "f10", "--gamma-grid", "0.2"], "--gamma-grid"),
    (["figures", "--id", "f10", "--p", "1"], "--p"),
    (["spectrum", "--memories", "{mem}", "--hadamard"], "--hadamard"),
    (["spectrum", "--gamma", "0.9"], "--gamma"),
    (["bias-sweep", "--n", "4", "--p-list", ","], "--p-list"),
    (["bias-sweep", "--n", "4", "--gamma-grid", ","], "--gamma-grid"),
    (["anneal-sweep", "--n", "4", "--T-list", ","], "--T-list"),
    (["figures", "--id", "f7", "--p-list", ","], "--p-list"),
    (["figures", "--id", "f10", "--T-list", ","], "--T-list"),
    (["figures", "--id", "f3", "--gamma-grid", ","], "--gamma-grid"),
    (["figures", "--id", "f10", "--n", "5", "--p-list", "1,2,3", "--T-list", "300",
      "--N", "100"], "--T-list"),
    (["bias-sweep", "--n", "4", "--p-list", "3", "--gamma-grid", "0.3,0.3", "--N", "10",
      "--T", "20"], "--gamma-grid"),
    (["anneal-sweep", "--n", "4", "--p-list", "1,1", "--T-list", "10,20", "--N", "2"],
     "--p-list"),
    (["anneal-sweep", "--n", "4", "--p-list", "1", "--T-list", "10,10", "--N", "2"],
     "--T-list"),
    (["figures", "--id", "f10", "--n", "5", "--p-list", "1,2,3", "--T-list", "300,300",
      "--N", "100"], "--T-list"),
], ids=["recall-generated-input", "classical-generated-input", "recall-default-protocol",
        "classical-default-protocol", "recall-memories-protocol",
        "classical-memories-protocol", "f3-p", "f4-p", "f5-p", "f5-short-memories",
        "f1-N", "f2-memories", "f2-gamma-grid", "f3-rule", "f4-seed", "f5-samples",
        "f6-p", "f7-memories", "f8-rule", "f9-T-list", "f10-T", "f10-gamma-grid", "f10-p",
        "spectrum-memories-hadamard", "spectrum-gamma-without-input", "sweep-empty-p-list",
        "sweep-empty-gamma-grid", "anneal-sweep-empty-T-list", "f7-empty-p-list",
        "f10-empty-T-list", "f3-empty-gamma-grid", "f10-one-T", "sweep-repeated-gamma",
        "anneal-sweep-repeated-p", "anneal-sweep-repeated-T", "f10-repeated-T"])
def test_ignored_option_is_fast_usage_error(tmp_path, capsys, argv, flag):
    mem = tmp_path / "mem.txt"
    mem.write_text("+1 -1 +1 -1\n-1 +1 +1 +1\n")
    argv = [a.format(mem=mem) for a in argv]
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"{flag}: " in err
    assert not (tmp_path / "run").exists()


# an output directory that cannot be made: refused before the sweep runs
@pytest.mark.parametrize("out", ["", "afile", "afile/x", "a\0b"],
                         ids=["empty", "file", "under-file", "nul-byte"])
def test_unusable_out_is_fast_usage_error(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    start = time.perf_counter()
    code, _, err = run(capsys, "bias-sweep", "--n", "5", "--p-list", "1,2",
                       "--gamma-grid", "0.1,0.5", "--N", "100", "--T", "500", "--out", out)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "--out: " in err and len(err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == ""


def test_p_keeps_the_first_patterns_of_any_memory_set(tmp_path, capsys):
    full, first = tmp_path / "full.txt", tmp_path / "first.txt"
    full.write_text("+1 -1 +1 -1\n-1 +1 +1 +1\n-1 -1 +1 +1\n")
    first.write_text("+1 -1 +1 -1\n-1 +1 +1 +1\n")
    spectra = {}
    for name, argv in (("cut", ["--memories", str(full), "--p", "2"]),
                       ("file", ["--memories", str(first)]),
                       ("all", ["--memories", str(full)]),
                       ("default", ["--p", "2"])):
        out = tmp_path / name
        assert run(capsys, "spectrum", *argv, "--T", "10", "--samples", "5",
                   "--out", str(out))[0] == 0
        spectra[name] = (out / "spectrum.csv").read_bytes()
    assert spectra["cut"] == spectra["file"] != spectra["all"]
    # the default set is overlapping_memories(), whose first two rows are first.txt
    assert spectra["default"] == spectra["file"]
    code, _, err = run(capsys, "recall", "--memories", str(first), "--p", "3",
                       "--out", str(tmp_path / "run"))
    assert code == 2 and "--p: memory set holds 2 patterns" in err


def test_recall_explicit_memories(tmp_path, capsys):
    mem = tmp_path / "mem.txt"
    mem.write_text("+1 -1 +1 -1\n-1 +1 +1 +1\n")
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "recall", "--memories", str(mem), "--input", "+1,-1,+1,-1",
        "--rule", "projection", "--gamma", "0.3", "--T", "300", "--out", str(out),
    )
    assert code == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["target"] == [1, -1, 1, -1]
    assert outcome["success"] == 1


def test_classical_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "classical", "--input", "+1,-1,+1,+1", "--rule", "hebb",
        "--out", str(out),
    )
    assert code == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["converged"] is True
    assert set(outcome["final_state"]) <= {-1, 1}


def test_spectrum_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "spectrum", "--hadamard", "--n", "4", "--rule", "hebb",
        "--gamma", "1.0", "--input", "+1,+1,+1,+1", "--T", "10",
        "--samples", "11", "--out", str(out),
    )
    assert code == 0
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,E_0")
    assert len(lines) == 12
    assert "min gap" in stdout


def test_bias_sweep_smoke_and_byte_identical_rerun(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["bias-sweep", "--n", "4", "--p-list", "1,2", "--rule", "hebb",
            "--gamma-grid", "0.3,0.6", "--T", "60", "--N", "3", "--seed", "2"]
    assert run(capsys, *args, "--out", str(out_a))[0] == 0
    assert run(capsys, *args, "--out", str(out_b))[0] == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    header = (out_a / "results.csv").read_text().splitlines()[0]
    assert header == "protocol,rule,n,p,gamma,T,N,x,mean_success,variance,master_seed"


def test_anneal_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(
        capsys, "anneal-sweep", "--n", "4", "--p-list", "1", "--rule", "hebb",
        "--gamma", "0.5", "--T-list", "30,60", "--N", "2", "--out", str(out),
    )
    assert code == 0
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_figures_f3_smoke(tmp_path, capsys):
    out = tmp_path / "figs"
    code, stdout, _ = run(
        capsys, "figures", "--id", "f3", "--gamma-grid", "0.1,0.5",
        "--T", "50", "--out", str(out),
    )
    assert code == 0
    assert (out / "f3_recall_vs_bias.csv").exists()
    assert (out / "f3_manifest.json").exists()


def test_figures_f1_smoke(tmp_path, capsys):
    out = tmp_path / "figs"
    code, _, _ = run(
        capsys, "figures", "--id", "f1", "--n", "4", "--T", "10",
        "--samples", "9", "--out", str(out),
    )
    assert code == 0
    assert (out / "f1_spectrum.csv").exists()


def test_figures_f7_smoke(tmp_path, capsys):
    out = tmp_path / "figs"
    code, _, _ = run(
        capsys, "figures", "--id", "f7", "--n", "4", "--p-list", "1",
        "--gamma-grid", "0.4", "--T", "40", "--N", "2", "--out", str(out),
    )
    assert code == 0
    csv_text = (out / "f7_mean_success.csv").read_text()
    assert "noisy" in csv_text
    for rule in ("hebb", "storkey", "projection"):
        assert rule in csv_text


def test_figures_f10_smoke(tmp_path, capsys):
    out = tmp_path / "figs"
    code, _, _ = run(
        capsys, "figures", "--id", "f10", "--n", "4", "--p-list", "1",
        "--T-list", "20,40", "--N", "2", "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((out / "f10_manifest.json").read_text())
    assert manifest["x_label"] == "p"
    assert any("T=20" in s for s in manifest["series"])


def test_memory_file_parse_error_is_usage_error(tmp_path, capsys):
    mem = tmp_path / "mem.txt"
    mem.write_text("+1 -1 x\n")
    code, _, err = run(capsys, "recall", "--memories", str(mem), "--T", "20")
    assert code == 2
    assert "position 3" in err


def test_singular_covariance_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import hopfield_annealing.ensembles as ensembles

    def no_anneal(*args, **kw):
        raise AssertionError("a rule was annealed")

    monkeypatch.setattr(ensembles, "_anneal", no_anneal)
    mem = tmp_path / "dup.txt"
    mem.write_text("+1 -1 +1 -1\n+1 -1 +1 -1\n-1 -1 +1 +1\n")
    # f5 stores the three patterns under every rule: the projection rule's
    # refusal comes before any rule has annealed
    for argv in (["recall", "--rule", "projection"], ["figures", "--id", "f5"]):
        code, _, err = run(capsys, *argv, "--memories", str(mem), "--T", "20",
                           "--out", str(tmp_path / "run"))
        assert code == 3
        assert "condition number" in err
        assert not (tmp_path / "run").exists()


def test_check_dt_flags_unconverged_step(tmp_path, capsys):
    code, _, err = run(
        capsys, "recall", "--n", "4", "--p", "2", "--rule", "hebb",
        "--gamma", "0.9", "--T", "60", "--dt", "15",
        "--check-dt", "--out", str(tmp_path / "run"),
    )
    assert code == 3
    assert "halving" in err or "overlap" in err


@pytest.mark.parametrize("argv, flag", [
    (["recall", "--n", "5", "--p", "3", "--T", "inf"], "--T"),
    (["recall", "--n", "5", "--p", "3", "--dt", "inf"], "--dt"),
    (["recall", "--n", "5", "--p", "3", "--gamma", "inf"], "--gamma"),
    (["recall", "--n", "5", "--p", "3", "--gamma", "nan"], "--gamma"),
    (["recall", "--n", "5", "--p", "3", "--x", "nan"], "--x"),
    (["bias-sweep", "--n", "4", "--gamma-grid", "0.5,inf"], "--gamma-grid"),
    (["anneal-sweep", "--n", "4", "--T-list", "10,inf"], "--T-list"),
])
def test_non_finite_value_is_fast_usage_error(tmp_path, capsys, argv, flag):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "run"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"{flag}: " in err and "finite" in err


# Outputs of small runs, recorded before the sweep, figure and atomic-write
# paths were folded together; the files must keep these exact bytes.
PINNED_SHA256 = {
    "bias-sweep": (
        ["bias-sweep", "--n", "4", "--p-list", "1,2", "--rule", "storkey",
         "--protocol", "noisy", "--gamma-grid", "0.2,0.7", "--T", "40", "--N", "6",
         "--seed", "11"],
        {"results.csv": "bead2600e8fb0dc8d45dfb0beaae595551cd908b37df71fb35f471e8615df469"},
    ),
    "anneal-sweep": (
        ["anneal-sweep", "--n", "4", "--p-list", "1,3", "--rule", "projection",
         "--gamma", "0.3", "--T-list", "15,45", "--N", "6", "--seed", "12"],
        {"results.csv": "9a1782172334b95d3583fea05549ab508d18c7a1e358f0f4279ec2591defcd2c"},
    ),
    "f7": (
        ["figures", "--id", "f7", "--n", "4", "--p-list", "1,2", "--gamma-grid", "0.3,0.9",
         "--T", "30", "--N", "5", "--seed", "13"],
        {"f7_mean_success.csv": "dc391de2b7db543f8df1cd828fe93807c887f00f0e5c4b92203998bd723d3f5a",
         "f7_manifest.json": "9e5486ec7720c616f2abb886514ddbacf4f08746fd8e6125373969ef32fc9e01"},
    ),
    "f10": (
        ["figures", "--id", "f10", "--n", "4", "--p-list", "1,2", "--T-list", "15,45",
         "--N", "5", "--seed", "14"],
        {"f10_mean_success.csv": "c618bd6fa59c4c69749bcb088f6e0a74a4985eb3e623b81ee877ba87983b82e6",
         "f10_manifest.json": "a9768388cf59e9341a9214dd73a90bf605eb10895fb7e8261bb36bf8be6575b5"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_sweep_outputs_match_pinned_bytes(tmp_path, capsys, name):
    argv, files = PINNED_SHA256[name]
    out = tmp_path / "run"
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    for fname, digest in files.items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest, fname


# f3 recall curve at gamma 0, 0.25, 0.5, 1 (one memory: the three rules
# coincide); the trailing digits depend on the BLAS, so compare to 1e-12
PINNED_F3_Q = [0.49984810986663741, 0.99987539415475035,
               0.9999054803454579, 0.99973241980240712]


def test_figures_f3_matches_pinned_values(tmp_path, capsys):
    out = tmp_path / "figs"
    argv = ["figures", "--id", "f3", "--gamma-grid", "0,0.25,0.5,1", "--T", "40"]
    assert run(capsys, *argv, "--out", str(out))[0] == 0
    for fname, prefix, expect in (
        ("f3_recall_vs_bias.csv", "q", PINNED_F3_Q),
        ("f3_recall_error.csv", "err", [1.0 - q for q in PINNED_F3_Q]),
    ):
        with open(out / fname, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma"] + [f"{prefix}_{r}" for r in ("hebb", "storkey", "projection")]
        assert [float(r[0]) for r in rows[1:]] == [0.0, 0.25, 0.5, 1.0]
        got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert np.abs(got - np.array(expect)[:, None]).max() <= 1e-12, fname


def test_import_and_recall_load_no_scipy(tmp_path):
    # scipy is a test dependency only; importing it would cost every run its load time
    script = (
        "import sys\n"
        "import hopfield_annealing\n"
        "from hopfield_annealing import cli\n"
        "argv = ['recall', '--n', '3', '--p', '1', '--T', '2', '--out', sys.argv[1]]\n"
        "assert cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(hopfield_annealing.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
