"""Environment record and BLAS thread control for benchmark results.

The effective BLAS thread count is read, and for the single-thread
reference point set, through the OpenBLAS that numpy itself loads, so the
record states what the library really uses rather than what the environment
asked for.
"""

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class BlasThreads:
    """Get and set the thread count of numpy's OpenBLAS, when it exposes one."""

    def __init__(self):
        self._get = self._set = None
        libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for get_name, set_name in _THREAD_SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    self._get, self._set = getattr(lib, get_name), getattr(lib, set_name)
                    self._get.restype = ctypes.c_int
                    self._set.argtypes = [ctypes.c_int]
                    return

    @property
    def available(self) -> bool:
        return self._get is not None

    def get(self):
        return int(self._get()) if self._get is not None else None

    def set(self, count: int) -> None:
        if self._set is None:
            raise RuntimeError("numpy's BLAS exposes no thread control")
        self._set(count)


def cpu_count() -> int:
    """CPUs this process may run on, which is what OpenBLAS defaults to."""
    return len(os.sched_getaffinity(0))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return None


def _git_describe(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(root: Path, blas: BlasThreads) -> dict:
    """Versions, machine and BLAS threading that a result was measured with."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas_build(),
        "nproc": cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_effective": blas.get(),
        "git_describe": _git_describe(root),
    }
