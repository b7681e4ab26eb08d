#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs one traced op of every workload at the default seed, each in a fresh
process as the benchmark is run, and checks that:

- the op passes its correctness gate against the recorded references, and
  the traced rebuild gives the same output as the untraced op;
- the spans of the op nest, and the self times of its layer spans sum to
  the op's traced wall time, so no work runs outside a layer span;
- the traced wall time matches the untraced op's wall time within the
  allowed tracing overhead;
- the printed metrics are exactly those `BENCHMARK.json` names, with its
  units, for a traced and an untraced run;
- in a directory without the package source, the benchmark exits non-zero
  and prints no result.

Exits 0 when every check passes and 1 otherwise. Takes about a minute on
two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import layer_times  # noqa: E402

# Layer spans must cover the traced op to this share of its wall time.
MIN_COVERAGE = 0.99
# A traced op may take at most this factor longer or shorter than the
# untraced one; tracing adds a few spans per instance, and the rest is the
# run-to-run noise of a single op on a shared machine.
MAX_OVERHEAD = 1.5


def _run(args, root=ROOT):
    """run.py of the checkout at root, run from that root."""
    return subprocess.run(
        [sys.executable, str(root / BENCH.relative_to(ROOT) / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_metrics(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"metrics {got} != BENCHMARK.json {want}"


def _check_traced_op(details):
    with open(ROOT / details["trace_file"]) as fh:
        spans = json.load(fh)["spans"]
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    assert len(roots) == 1 and spans[roots[0]]["name"] == "op", "one root span per op"
    for s in spans:
        assert s["op"] == 0 and s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], "spans nest"
    table = layer_times(spans)
    op_s = spans[roots[0]]["end"] - spans[roots[0]]["start"]
    total_self = sum(row["self_s"] for row in table.values())
    assert abs(total_self - op_s) <= 1e-9 * max(op_s, 1.0), "self times sum to the op span"
    layers_self = total_self - table["op"]["self_s"]
    assert layers_self >= MIN_COVERAGE * op_s, (
        f"layer spans cover {layers_self:.6f} s of a {op_s:.6f} s op")
    assert abs(op_s - details["traced_op_s"][0]) <= 1e-3 * op_s
    untraced_s = details["op_latencies_s"][0]
    ratio = op_s / untraced_s
    assert 1 / MAX_OVERHEAD <= ratio <= MAX_OVERHEAD, (
        f"traced op {op_s:.4f} s vs untraced {untraced_s:.4f} s")
    return layers_self, untraced_s


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    failures = 0

    def check(label, fn):
        nonlocal failures
        try:
            note = fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}{': ' + note if note else ''}")

    def traced(name):
        details, result = _result(_run(["--workload", name, "--seconds", "0", "--trace", "1"]))
        assert details["reference_check"] == "recorded outputs"
        assert result == {**result, "correct": True, "attempted": 1, "failed": 0}, (
            f"{result} {details['problems']}")
        _check_metrics(result, bench["per_layer"])
        layers_self, untraced_s = _check_traced_op(details)
        return f"layers {layers_self:.3f} s traced, op {untraced_s:.3f} s untraced"

    def untraced():
        details, result = _result(_run(["--workload", "recall_cli", "--seconds", "0"]))
        assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
        _check_metrics(result, bench["end_to_end"])

    def without_package():
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in bench["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(["--workload", "recall_cli", "--seconds", "1", "--trace", "0"],
                        root=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        assert proc.returncode != 0, "exit code 0 without the package"
        assert '"metrics"' not in proc.stdout, "printed a result without the package"

    for workload in bench["workloads"]:
        check(f"traced op of {workload['name']}", lambda name=workload["name"]: traced(name))
    check("untraced metrics", untraced)
    check("no package source", without_package)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
