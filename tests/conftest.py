"""Shared test plumbing: acceptance-criterion result collection and the
worker-pool fixtures of the sweep tests."""

import concurrent.futures

import pytest

import hopfield_annealing.ensembles as ensembles

# (criterion id, title, passed, detail) tuples registered by test_acceptance
ACCEPTANCE_RESULTS = []


def record_criterion(cid: str, title: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((cid, title, passed, detail))
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {cid} {title}: {status}" + (f" ({detail})" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for cid, title, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{cid} {title}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def two_cpus(monkeypatch):
    """Sweeps plan for two worker processes, whatever CPUs the test may use."""
    monkeypatch.setattr(ensembles, "_usable_cpus", lambda: 2)


@pytest.fixture
def no_pool(monkeypatch, two_cpus):
    """Fail the test if a sweep starts a worker pool, though two CPUs are usable."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a sweep started a worker pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool a sweep starts, in order."""
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            started.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


@pytest.fixture
def keyed_slice(monkeypatch):
    """`ensembles._draw_slice(*args)` as (class keys, rows, ids): the key of
    each row, recorded as `_class_landscape` builds the row."""
    keys, real_landscape = [], ensembles._class_landscape

    def class_landscape(key):
        keys.append(key)
        return real_landscape(key)

    def draw(*args):
        keys.clear()
        rows, ids = ensembles._draw_slice(*args)
        return list(keys), rows, ids

    monkeypatch.setattr(ensembles, "_class_landscape", class_landscape)
    return draw
