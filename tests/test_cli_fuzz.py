"""Property test of the CLI boundary: generated argv and config files for every
command, at sizes small enough that a whole run takes milliseconds.

Whatever the input, `main` must return 0, 2 or 3 without letting an exception
escape; a usage error (2) must come back in under a second; a runaway size
(10^12 instances, samples or annealing time) must be such a usage error; and a
successful run's `config.json` must parse back to the configuration that
produced it. No run is large enough to start the sweep worker pool.
"""

import contextlib
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hopfield_annealing.cli import COMMANDS, _COMMAND_PARAMS, _FIGURE_PARAMS, main, parse_config
from hopfield_annealing.instances import PROTOCOLS
from hopfield_annealing.learning import LEARNING_RULES
from hopfield_annealing.memio import FIGURE_IDS, FIGURES

# a size no run can afford; a request holding it must be refused before any work
RUNAWAY = "1000000000000"

# values of each option as command-line text: (valid, invalid); the sizes stay
# tiny (n <= 4, T <= 5, N <= 2, lists of at most 2 values)
TEXT = {
    "n": (["1", "2", "3", "4"], ["0", "4.5", "x"]),
    "p": (["1", "2", "3", "4"], ["9", "0"]),
    "rule": (list(LEARNING_RULES), ["quantum"]),
    "gamma": (["0", "0.3", "1"], ["1e200", "1e308", "-0.1", "nan"]),
    "T": (["1", "2.5", "5"], ["0", "-1", "inf"]),
    "dt": (["0.05", "0.5", "2", "7"], ["0", "nan"]),
    "N": (["1", "2"], ["0", RUNAWAY]),
    "x": (["0", "0.5", "1"], ["1.5"]),
    "seed": (["0", "7", "-3"], ["1.5"]),
    "protocol": (list(PROTOCOLS), ["fuzzy"]),
    "memories": (["{good}"], ["{short}", "{bad}", "{missing}"]),
    "input": (["1,1,1,1", "1,-1,1,-1"], ["-1,1", "1,-1,1,-1,1", "1,2,1,1"]),
    "samples": (["2", "3"], ["1", RUNAWAY]),
    "mode": (["synchronous", "asynchronous"], ["chaotic"]),
    "max_sweeps": (["1", "3"], ["0"]),
    "p_list": (["1", "1,2", "2,3"], ["0", "9", "2,2"]),
    "gamma_grid": (["0.2", "0,1"], ["2", "0.2,0.2"]),
    "T_list": (["1,3", "2"], ["3,1", "3,3", "0", "1," + RUNAWAY]),
    "id": (list(FIGURE_IDS), ["f0"]),
}
SWITCHES = ("hadamard", "check_dt")
# size options whose defaults would make a run take seconds: always set
SIZES = ("T", "N", "samples", "max_sweeps", "p_list", "gamma_grid", "T_list")

MEMORY_FILES = {
    "good": "+1 -1 +1 -1\n-1 +1 +1 +1\n-1 -1 +1 +1\n",
    "short": "+1 -1\n",
    "bad": "+1 -1 x\n",
}


@st.composite
def invocations(draw):
    """(command, {option: text or True}, {option: "flag" or "config"}, junk),
    where junk names a malformed config file or is None."""
    command = draw(st.sampled_from(COMMANDS))
    names = [name for name in _COMMAND_PARAMS[command] if name != "out"]
    # at most one option takes an invalid value, so most runs get past parsing
    bad = draw(st.sampled_from([None] * len(names) + [n for n in names if n in TEXT]))
    if command == "figures":
        # a figure id fixes the options its kind reads; at most one other is set
        figure = draw(st.sampled_from(FIGURE_IDS))
        unread = [n for n in names
                  if n not in ("n", "id", bad, *_FIGURE_PARAMS[FIGURES[figure][0]])]
        extra = draw(st.sampled_from([None] * len(names) + unread))
        names = [n for n in names if n not in unread or n == extra]
    values, sources = {}, {}
    for name in names:
        # sweeps require n, and the figures command's default n of 5 is above
        # the fuzzed sizes
        always = (name in SIZES or name == bad or name == "id"
                  or (name == "n" and command in ("bias-sweep", "anneal-sweep", "figures")))
        if not always and not draw(st.booleans()):
            continue
        if name in SWITCHES:
            values[name] = True
        elif name == "id" and name != bad:
            values[name] = figure
        else:
            valid, invalid = TEXT[name]
            values[name] = draw(st.sampled_from(invalid if name == bad else valid))
        sources[name] = draw(st.sampled_from(["flag", "config"]))
    junk = draw(st.sampled_from([None] * 9 + ["unknown key", "not an object", "bad json",
                                              "null gamma"]))
    return command, values, sources, junk


def _write_config(path: Path, command, entries: dict, junk) -> None:
    if junk == "bad json":
        path.write_text("{")
        return
    if junk == "not an object":
        path.write_text("[1, 2]")
        return
    body = {"command": command, **entries}
    if junk == "unknown key":
        body["temperature"] = 3.0
    elif junk == "null gamma":
        body["gamma"] = None
    path.write_text(json.dumps(body))


@pytest.mark.usefixtures("no_pool")  # fuzz-sized sweeps run in-process
@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(invocations())
# each runaway size at least once; the samples one comes from the config file
@example(invocation=("bias-sweep",
                     {"n": "4", "N": RUNAWAY, "p_list": "1", "gamma_grid": "0.2", "T": "1"},
                     dict.fromkeys(["n", "N", "p_list", "gamma_grid", "T"], "flag"), None))
@example(invocation=("spectrum", {"samples": RUNAWAY, "T": "1"},
                     {"samples": "config", "T": "flag"}, None))
@example(invocation=("anneal-sweep",
                     {"n": "4", "N": "2", "p_list": "1", "T_list": "1," + RUNAWAY},
                     dict.fromkeys(["n", "N", "p_list", "T_list"], "flag"), None))
def test_cli_boundary(tmp_path, invocation):
    command, values, sources, junk = invocation
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, text in MEMORY_FILES.items():
        (work / f"{name}.txt").write_text(text)
    paths = {name: str(work / f"{name}.txt") for name in (*MEMORY_FILES, "missing")}

    argv, entries = [command], {}
    for name, value in values.items():
        if isinstance(value, str):
            value = value.format(**paths)
        if sources[name] == "config":
            entries[name] = value
        elif value is True:
            argv.append("--" + name.replace("_", "-"))
        else:
            argv.append(f"--{name.replace('_', '-')}={value}")
    if entries or junk:
        config = work / "config-in.json"
        _write_config(config, command, entries, junk)
        argv += ["--config", str(config)]
    out = work / "out"
    argv += ["--out", str(out)]

    warnings.simplefilter("error", RuntimeWarning)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    elapsed = time.perf_counter() - start

    assert code in (0, 2, 3), argv
    if any(RUNAWAY in str(value) for value in values.values()):
        assert code == 2, argv
    if code == 2:
        assert elapsed < 1.0, (argv, elapsed)
    if code == 0:
        echoed = parse_config([command, "--config", str(out / "config.json")])
        assert echoed == parse_config(argv), argv
