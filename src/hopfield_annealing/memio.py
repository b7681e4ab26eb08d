"""File I/O: memory-set text files, figure data emission, run provenance.

Memory-set file format: plain text, one pattern per line, whitespace-separated
tokens ``+1``/``-1`` (a bare ``1`` is also accepted); lines starting with
``#`` are comments; all pattern lines must have equal length.

Every emitted artifact is written to a temporary file and renamed into place,
so output files are complete or absent, never partial.
"""

import os
from importlib import resources

import numpy as np

from ._atomic import write_csv_atomic, write_json_atomic, write_text_atomic
from ._version import __version__
from .ensembles import EnsembleStats, write_results_csv
from .patterns import as_memory_set
from .spectrum import SpectrumTrace, write_spectrum_csv

__all__ = [
    "MemoryFileError",
    "load_memories",
    "save_memories",
    "bundled_memories_path",
    "emit_figure_data",
    "provenance_line",
    "write_json_atomic",
    "write_text_atomic",
    "FIGURE_IDS",
    "FIGURE_PROTOCOL",
    "ERROR_FLOOR",
]

FIGURE_IDS = tuple(f"f{i}" for i in range(1, 11))

# instance protocol of the bias-sweep figures f6-f9
FIGURE_PROTOCOL = {"f6": "exact", "f7": "noisy", "f8": "failure1", "f9": "failure2"}

# log-scale recall-error series are clipped here; below this the numbers are
# double-precision noise
ERROR_FLOOR = 1e-12


class MemoryFileError(ValueError):
    """Malformed memory-set file; message carries the line number."""


def load_memories(path) -> np.ndarray:
    """Parse a memory-set file into a (p, n) pattern array."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            values = []
            for pos, token in enumerate(line.split(), start=1):
                if token in ("+1", "1"):
                    values.append(1)
                elif token == "-1":
                    values.append(-1)
                else:
                    raise MemoryFileError(
                        f"{path}: line {lineno}: invalid token {token!r} at position {pos}"
                    )
            rows.append((lineno, values))
    if not rows:
        raise MemoryFileError(f"{path}: no patterns found")
    width = len(rows[0][1])
    for lineno, values in rows:
        if len(values) != width:
            raise MemoryFileError(
                f"{path}: line {lineno}: expected {width} tokens, found {len(values)}"
            )
    return as_memory_set([values for _, values in rows])


def save_memories(memories, path) -> None:
    """Write patterns in the memory-set file format."""
    mem = as_memory_set(memories)
    lines = [" ".join(f"{v:+d}" for v in row) for row in mem]
    write_text_atomic(path, "\n".join(lines) + "\n")


def bundled_memories_path() -> str:
    """Path of the packaged overlapping 4-spin memory-set fixture."""
    return str(resources.files("hopfield_annealing") / "data" / "overlapping_memories_n4.txt")


def provenance_line(master_seed) -> str:
    """One-line run fingerprint: tool version, master seed, basis convention."""
    return (
        f"hopfield-annealing {__version__} | master_seed={master_seed} | "
        "basis=little-endian (spin i -> bit 2^i)"
    )


def _write_bias_csv(path, results: dict, prefix: str, value) -> None:
    """Per-rule series `value(q)` against gamma, columns ``<prefix>_<rule>``."""
    rules = ("hebb", "storkey", "projection")
    write_csv_atomic(
        path,
        ["gamma"] + [f"{prefix}_{rule}" for rule in rules],
        ([f"{float(g):.17g}"] + [f"{value(results[rule][i]):.17g}" for rule in rules]
         for i, g in enumerate(results["gamma"])),
    )


def _require(condition: bool, figure_id: str, why: str) -> None:
    if not condition:
        raise ValueError(f"results do not match figure {figure_id}: {why}")


def emit_figure_data(results, figure_id: str, out_dir) -> list[str]:
    """Write the CSV series and a plotting manifest for one figure id.

    f1/f2 take a `SpectrumTrace`; f3-f5 take a bias-response dict with keys
    ``gamma``, ``hebb``, ``storkey``, ``projection``; f6-f9 take the matching
    protocol's `EnsembleStats` list; f10 takes an annealing-time sweep list.
    Returns the written file paths.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; choose from {FIGURE_IDS}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    manifest = {"figure": figure_id, "basis": "little-endian (spin i -> bit 2^i)"}

    if figure_id in ("f1", "f2"):
        _require(isinstance(results, SpectrumTrace), figure_id, "expected a SpectrumTrace")
        path = os.path.join(out_dir, f"{figure_id}_spectrum.csv")
        write_spectrum_csv(results, path)
        written.append(path)
        manifest.update(
            x_label="t",
            y_label="energy",
            series=[f"E_{i}" for i in range(results.energies.shape[1])],
            files=[os.path.basename(path)],
        )
    elif figure_id in ("f3", "f4", "f5"):
        _require(isinstance(results, dict), figure_id, "expected a bias-response dict")
        missing = {"gamma", "hebb", "storkey", "projection"} - set(results)
        _require(not missing, figure_id, f"missing series {sorted(missing)}")
        path = os.path.join(out_dir, f"{figure_id}_recall_vs_bias.csv")
        _write_bias_csv(path, results, "q", float)
        err_path = os.path.join(out_dir, f"{figure_id}_recall_error.csv")
        _write_bias_csv(err_path, results, "err",
                        lambda q: max(1.0 - float(q), ERROR_FLOOR))
        written += [path, err_path]
        manifest.update(
            x_label="gamma",
            y_label="recall probability q",
            series=["q_hebb", "q_storkey", "q_projection"],
            inset={"y_label": "1 - q", "floor": ERROR_FLOOR,
                   "files": [os.path.basename(err_path)]},
            files=[os.path.basename(path), os.path.basename(err_path)],
        )
    else:  # f6-f9 bias sweeps, f10 annealing-time sweep
        stats = list(results)
        _require(
            stats and all(isinstance(s, EnsembleStats) for s in stats),
            figure_id, "expected a list of EnsembleStats",
        )
        if figure_id == "f10":
            _require(
                len({s.anneal_time for s in stats}) > 1,
                figure_id, "expected results at more than one annealing time",
            )
            x_label = "p"
            series = {f"{s.rule},T={s.anneal_time:g}" for s in stats}
        else:
            wanted = FIGURE_PROTOCOL[figure_id]
            _require(
                all(s.protocol == wanted for s in stats),
                figure_id, f"expected protocol {wanted!r}",
            )
            x_label = "gamma"
            series = {f"{s.rule},p={s.p}" for s in stats}
        path = os.path.join(out_dir, f"{figure_id}_mean_success.csv")
        write_results_csv(stats, path)
        written.append(path)
        manifest.update(
            x_label=x_label,
            y_label="mean success",
            series=sorted(series),
            files=[os.path.basename(path)],
        )

    manifest_path = os.path.join(out_dir, f"{figure_id}_manifest.json")
    write_json_atomic(manifest_path, manifest)
    written.append(manifest_path)
    return written
