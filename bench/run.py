#!/usr/bin/env python3
"""Benchmark of the hopfield-annealing package, run from a repository checkout.

    python3 bench/run.py --workload sweep_long --seed 20587 --seconds 10 --trace 0

One process per run drives the package from `src/` in a closed loop with one
client: the next op starts when the previous one has finished and passed its
correctness gate. Ops run until `--seconds` have passed; the op in flight
then completes, so a run holds at least one op. BLAS threads are set to the
OpenBLAS default (the CPUs this process may use) before numpy loads.

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1`
every op is run untraced and then rebuilt from public calls inside spans; the
run reports per-layer metrics, checks that the rebuilt output equals the
untraced one, adds two reference points and writes its spans to
`.bench_out/`. The last line of standard output is the result as one JSON
object; the line before it records the environment and details of the run.
See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep_long", "sweep_short", "recall_cli", "register_n8")
# fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 9
# the p90 is reported only with at least ten latencies beyond it
P90_MIN_OPS = 100


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the C3 master seed 20587)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for this long; 0 runs exactly one op")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, print 'ready', exit (times setup_s)")
    return parser.parse_args(argv)


def load_package():
    """Pin BLAS threads, then import the package from this checkout's src/."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    if not (SRC / "hopfield_annealing" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import hopfield_annealing

    if Path(hopfield_annealing.__file__).resolve().parent != SRC / "hopfield_annealing":
        sys.exit(f"error: imported {hopfield_annealing.__file__}, not the checkout's package")


def _setup_sample(workload_name) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload_name],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _measure(workload, specs, refs, seconds, workdir, tracer):
    """The closed loop. Returns per-op records: latency, problems and more."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(records) % len(specs)
        spec = specs[index]
        record = {"spec": index, "problems": []}
        start = time.perf_counter()
        try:
            out, record["latency_s"] = _timed(workload.run, spec, workdir)
            record["problems"] = workload.check(spec, out, refs[index] if refs else None)
            if tracer is not None:
                tracer.op_id = len(records)
                start = time.perf_counter()
                with tracer.span("op"):
                    rebuilt = workload.rebuild(spec, workdir, tracer)
                record["traced_s"] = time.perf_counter() - start
                if rebuilt != out:
                    record["problems"].append("traced rebuild differs from the untraced op")
            record["out"] = out
        except Exception as exc:  # a failed op is counted, and the loop goes on
            record["problems"].append(f"{type(exc).__name__}: {exc}")
            record.setdefault("latency_s", time.perf_counter() - start)
        records.append(record)
        if time.perf_counter() >= deadline:
            return records


def _per_layer(tracer, layer_times, records, h0_build_s):
    ops = len(records)
    table = layer_times(tracer.spans)
    counts = tracer.counts

    def busy(layer):
        return table.get(layer, {}).get("busy_s", 0.0)

    def per_op(value):
        return value / ops

    steps = counts.get("evolution.instance_steps", 0)
    samples = counts.get("spectrum.samples", 0)
    untraced = sum(r["latency_s"] for r in records)
    traced = sum(r.get("traced_s", 0.0) for r in records)
    values = {
        "hamiltonians.h0_build_s": (h0_build_s, "s"),
        "evolution.instance_steps": (per_op(steps), "count"),
        "evolution.us_per_instance_step": (1e6 * busy("evolution") / steps if steps else 0.0, "us"),
        "evolution.batch_width": (counts.get("evolution.batch_columns", 0)
                                  / max(counts.get("evolution.batches", 0), 1), "count"),
        "spectrum.samples": (per_op(samples), "count"),
        "spectrum.ms_per_sample": (1e3 * busy("spectrum") / samples if samples else 0.0, "ms"),
        "ensembles.self_s": (per_op(table.get("ensembles", {}).get("self_s", 0.0)), "s"),
        "cli.self_s": (per_op(table.get("cli", {}).get("self_s", 0.0)), "s"),
        "memio.bytes": (per_op(counts.get("memio.bytes", 0)), "B"),
        "trace.overhead_ratio": (untraced / traced if traced else 0.0, "ratio"),
    }
    for layer in ("instances", "learning", "hamiltonians", "evolution", "spectrum", "memio"):
        values[f"{layer}.busy_s"] = (per_op(busy(layer)), "s")
    for layer in ("instances", "learning", "hamiltonians"):
        values[f"{layer}.calls"] = (per_op(table.get(layer, {}).get("calls", 0)), "count")
    return values


def _one_thread_reference(workload, spec, workdir, blas, first):
    """The first op again with one BLAS thread, beside its default-thread run."""
    if not blas.available or "out" not in first:
        return None
    threads = blas.get()
    blas.set(1)
    try:
        out, seconds = _timed(workload.run, spec, workdir)
    finally:
        blas.set(threads)
    return {
        "op_s_one_thread": seconds,
        "op_s_default_threads": first["latency_s"],
        "default_threads": threads,
        # sweeps must match byte for byte, other outputs to REFERENCE_TOL;
        # BLAS reduction order depends on the thread count
        "output_agrees": not workload.check(spec, out, workload.reference(first["out"])),
    }


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    load_package()
    import references
    import workloads
    from envinfo import BlasThreads, environment
    from tracing import Tracer, layer_times

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.set_up(workload)
        print("ready", flush=True)
        return 0

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    setup_samples = [] if args.trace else [_setup_sample(args.workload)
                                           for _ in range(SETUP_SAMPLES)]
    h0_build_s = workloads.set_up(workload)
    refs = references.load(args.workload) if seed == workloads.DEFAULT_SEED else None

    workdir = OUT / f"ops-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    blas = BlasThreads()
    try:
        specs = workload.specs(seed)
        records = _measure(workload, specs, refs, args.seconds, workdir, tracer)
        wall = sum(r["latency_s"] for r in records)
        reference_points = {}
        if args.trace:
            if args.workload in ("sweep_long", "register_n8"):
                reference_points["one_blas_thread"] = _one_thread_reference(
                    workload, specs[0], workdir, blas, records[0])
            reference_points["expm_multiply"] = workloads.expm_multiply_yardstick(seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    latencies = [r["latency_s"] for r in records]
    if args.trace:
        metrics = _per_layer(tracer, layer_times, records, h0_build_s)
    else:
        metrics = {
            "ops_per_s": ((len(records) - failed) / wall, "1/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    details = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT, blas),
        "ops": len(records),
        "fail_ratio": failed / len(records),
        "op_s_p50": statistics.median(latencies),
        "op_s_p90": (statistics.quantiles(latencies, n=10)[-1]
                     if len(latencies) >= P90_MIN_OPS else None),
        "op_latencies_s": latencies,
        "setup_samples_s": setup_samples,
        "reference_check": "recorded outputs" if refs is not None else "invariants only",
        "problems": [
            f"op {i} (input {r['spec']}): {p}"
            for i, r in enumerate(records) for p in r["problems"]
        ][:20],
    }
    if args.trace:
        details["traced_op_s"] = [r.get("traced_s") for r in records]
        details["reference_points"] = reference_points
        trace_path = OUT / f"trace_{args.workload}_seed{seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"details": details, "spans": tracer.spans, "counts": tracer.counts}, fh)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
