"""File I/O: memory-set text files, figure data emission, run provenance.

Memory-set file format: plain text, one pattern per line, whitespace-separated
tokens ``+1``/``-1`` (a bare ``1`` is also accepted); lines starting with
``#`` are comments; all pattern lines must have equal length.

Every emitted artifact is written to a temporary file and renamed into place,
so output files are complete or absent, never partial.
"""

import os

import numpy as np

from ._atomic import write_csv_atomic, write_json_atomic, write_text_atomic
from ._guards import member, sequence
from ._version import __version__
from .ensembles import EnsembleStats, write_results_csv
from .learning import LEARNING_RULES
from .patterns import as_memory_set
from .spectrum import SpectrumTrace, write_spectrum_csv

__all__ = [
    "MemoryFileError",
    "load_memories",
    "save_memories",
    "emit_figure_data",
    "provenance_line",
    "write_json_atomic",
    "write_text_atomic",
    "FIGURES",
    "FIGURE_IDS",
    "ERROR_FLOOR",
]

# figure id -> (kind, fixed setting): the bias of f2's spectrum, the memory
# count of the f3-f5 bias responses, the instance protocol of the f6-f9 bias
# sweeps and the bias per rule of the f10 annealing-time sweep
FIGURES = {
    "f1": ("spectrum", None), "f2": ("spectrum", 1.0),
    "f3": ("bias-response", 1), "f4": ("bias-response", 2), "f5": ("bias-response", 3),
    "f6": ("bias-sweep", "exact"), "f7": ("bias-sweep", "noisy"),
    "f8": ("bias-sweep", "failure1"), "f9": ("bias-sweep", "failure2"),
    "f10": ("anneal-sweep", {"hebb": 0.5, "storkey": 0.15, "projection": 0.15}),
}
FIGURE_IDS = tuple(FIGURES)

# log-scale recall-error series are clipped here; below this the numbers are
# double-precision noise
ERROR_FLOOR = 1e-12


class MemoryFileError(ValueError):
    """Malformed memory-set file; message carries the line number."""


def load_memories(path) -> np.ndarray:
    """Parse a memory-set file into a (p, n) pattern array; `MemoryFileError`
    for a malformed file, for a path it cannot read, a directory too, and for
    a `path` that is not a file path."""
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() reads an int as a descriptor
        raise MemoryFileError(f"path: expected a file path, got {path!r}")
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as error:
        raise MemoryFileError(f"{path}: cannot read the file: {error}") from None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
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


def provenance_line(master_seed) -> str:
    """One-line run fingerprint: tool version, master seed, basis convention."""
    return (
        f"hopfield-annealing {__version__} | master_seed={master_seed} | "
        "basis=little-endian (spin i -> bit 2^i)"
    )


def _write_bias_csv(path, results: dict, prefix: str, value) -> None:
    """Per-rule series `value(q)` against gamma, columns ``<prefix>_<rule>``."""
    write_csv_atomic(
        path,
        ["gamma"] + [f"{prefix}_{rule}" for rule in LEARNING_RULES],
        ([f"{float(g):.17g}"] + [f"{value(results[rule][i]):.17g}" for rule in LEARNING_RULES]
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
    Returns the written file paths. `results` is checked before `out_dir`
    is created, so a refused call leaves nothing behind.
    """
    kind, setting = FIGURES[member(figure_id, "figure id", FIGURE_IDS)]
    written = []
    manifest = {"figure": figure_id, "basis": "little-endian (spin i -> bit 2^i)"}

    if kind == "spectrum":
        _require(isinstance(results, SpectrumTrace), figure_id, "expected a SpectrumTrace")
        os.makedirs(out_dir, exist_ok=True)
        written.append(os.path.join(out_dir, f"{figure_id}_spectrum.csv"))
        write_spectrum_csv(results, written[0])
        manifest.update(x_label="t", y_label="energy",
                        series=[f"E_{i}" for i in range(results.energies.shape[1])])
    elif kind == "bias-response":
        _require(isinstance(results, dict), figure_id, "expected a bias-response dict")
        missing = {"gamma", *LEARNING_RULES} - set(results)
        _require(not missing, figure_id, f"missing series {sorted(missing)}")
        ragged = [r for r in LEARNING_RULES if len(results[r]) != len(results["gamma"])]
        _require(not ragged, figure_id, f"series {ragged} do not match gamma in length")
        os.makedirs(out_dir, exist_ok=True)
        written += [os.path.join(out_dir, f"{figure_id}_recall_vs_bias.csv"),
                    os.path.join(out_dir, f"{figure_id}_recall_error.csv")]
        _write_bias_csv(written[0], results, "q", float)
        _write_bias_csv(written[1], results, "err", lambda q: max(1.0 - float(q), ERROR_FLOOR))
        manifest.update(x_label="gamma", y_label="recall probability q",
                        series=[f"q_{rule}" for rule in LEARNING_RULES],
                        inset={"y_label": "1 - q", "floor": ERROR_FLOOR,
                               "files": [os.path.basename(written[1])]})
    else:
        stats = sequence(results, "results")
        _require(
            stats and all(isinstance(s, EnsembleStats) for s in stats),
            figure_id, "expected a list of EnsembleStats",
        )
        if kind == "anneal-sweep":
            _require(
                len({s.anneal_time for s in stats}) > 1,
                figure_id, "expected results at more than one annealing time",
            )
            x_label = "p"
            series = {f"{s.rule},T={s.anneal_time:g}" for s in stats}
        else:
            _require(
                all(s.protocol == setting for s in stats),
                figure_id, f"expected protocol {setting!r}",
            )
            x_label = "gamma"
            series = {f"{s.rule},p={s.p}" for s in stats}
        os.makedirs(out_dir, exist_ok=True)
        written.append(os.path.join(out_dir, f"{figure_id}_mean_success.csv"))
        write_results_csv(stats, written[0])
        manifest.update(x_label=x_label, y_label="mean success", series=sorted(series))
    manifest["files"] = [os.path.basename(path) for path in written]

    manifest_path = os.path.join(out_dir, f"{figure_id}_manifest.json")
    write_json_atomic(manifest_path, manifest)
    written.append(manifest_path)
    return written
