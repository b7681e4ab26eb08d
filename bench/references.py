#!/usr/bin/env python3
"""Reference outputs of the benchmark ops at the default seed.

    python3 bench/references.py

re-records `bench/references.json` from the package in this checkout. The
committed file was recorded at the commit that introduced the benchmark; a
later change that alters a result must say so and explain why before the
file is recorded again.

The file holds the C3 acceptance fixture's results CSV and its sha256 (the
fingerprint later speed-ups must keep), the results CSV of every
`sweep_short` op, every `recall_cli` outcome.json and the `min_gap` and
`mean_success` of every `register_n8` op. A `sweep_long` op's reference is
the slice of the C3 CSV for its p, byte for byte; recording checks that the
five ops together give exactly the C3 CSV.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def c3_slice(c3_csv: str, p: int) -> str:
    """The header and the rows of one p from a results CSV."""
    lines = c3_csv.splitlines(keepends=True)
    return lines[0] + "".join(line for line in lines[1:] if line.split(",")[3] == str(p))


def load(workload_name: str) -> list:
    """Per op input of the workload, its reference output at the default seed."""
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    c3_csv = refs["c3_results_csv"]
    if fingerprint(c3_csv) != refs["c3_sha256"]:
        raise ValueError("references.json: the C3 results CSV does not match its sha256")
    if workload_name == "sweep_long":
        return [c3_slice(c3_csv, p) for p in range(1, 6)]
    return refs["workloads"][workload_name]


def record() -> dict:
    import workloads
    from hopfield_annealing.ensembles import bias_sweep, write_results_csv

    seed = workloads.DEFAULT_SEED
    refs = {"seed": seed, "workloads": {}}
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "c3.csv")
        write_results_csv(
            bias_sweep("exact", 5, [1, 2, 3, 4, 5], "projection", workloads.C3_GAMMAS,
                       1000.0, count=100, master_seed=seed),
            path,
        )
        with open(path, newline="") as fh:
            c3_csv = fh.read()
        refs["c3_results_csv"] = c3_csv
        refs["c3_sha256"] = fingerprint(c3_csv)
        for name, workload in workloads.WORKLOADS.items():
            workloads.set_up(workload)
            outs = [workload.run(spec, workdir) for spec in workload.specs(seed)]
            for spec, out in zip(workload.specs(seed), outs):
                problems = workload.check(spec, out, None)
                if problems:
                    raise RuntimeError(f"{name}: {problems}")
            if name == "sweep_long":
                if outs != [c3_slice(c3_csv, p) for p in range(1, 6)]:
                    raise RuntimeError("the sweep_long ops do not reproduce the C3 CSV")
            else:
                refs["workloads"][name] = [workload.reference(out) for out in outs]
            print(f"{name}: {len(outs)} references", file=sys.stderr)
    return refs


if __name__ == "__main__":
    import run

    run.load_package()
    recorded = record()
    with open(REFERENCES, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"C3 sha256 {recorded['c3_sha256']} -> {REFERENCES}")
