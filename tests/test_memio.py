import json

import numpy as np
import pytest

from hopfield_annealing.ensembles import bias_sweep
from hopfield_annealing.evolution import AnnealSchedule
from hopfield_annealing.hamiltonians import ising_hamiltonian, transverse_field_hamiltonian
from hopfield_annealing.learning import hebb_weights
from hopfield_annealing.memio import (
    ERROR_FLOOR,
    MemoryFileError,
    emit_figure_data,
    load_memories,
    provenance_line,
    save_memories,
)
from hopfield_annealing.patterns import hadamard_memories, overlapping_memories
from hopfield_annealing.spectrum import spectrum_trace


def test_parse_accepts_bare_ones_and_comments(tmp_path):
    path = tmp_path / "mem.txt"
    path.write_text("# two patterns\n\n1 -1 1\n+1 +1 -1\n")
    mem = load_memories(path)
    assert np.array_equal(mem, [[1, -1, 1], [1, 1, -1]])


def test_parse_rejects_bad_token(tmp_path):
    path = tmp_path / "mem.txt"
    path.write_text("+1 -1 x\n")
    with pytest.raises(MemoryFileError, match="line 1.*position 3"):
        load_memories(path)


def test_parse_rejects_ragged_lines(tmp_path):
    path = tmp_path / "mem.txt"
    path.write_text("+1 -1\n+1 -1 +1\n")
    with pytest.raises(MemoryFileError, match="line 2"):
        load_memories(path)


def test_parse_rejects_empty_file(tmp_path):
    path = tmp_path / "mem.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(MemoryFileError, match="no patterns"):
        load_memories(path)


def test_save_load_round_trip(tmp_path):
    mem = overlapping_memories()
    path = tmp_path / "mem.txt"
    save_memories(mem, path)
    assert np.array_equal(load_memories(path), mem)


def test_provenance_line_contents():
    line = provenance_line(314)
    assert "hopfield-annealing" in line
    assert "master_seed=314" in line
    assert "little-endian" in line


def test_emit_bias_response_figure(tmp_path):
    results = {
        "gamma": [0.0, 0.5, 1.0],
        "hebb": [0.2, 0.9, 1.0],
        "storkey": [0.2, 0.95, 1.0],
        "projection": [0.25, 1.0, 1.0],
    }
    written = emit_figure_data(results, "f3", tmp_path)
    csv_path = tmp_path / "f3_recall_vs_bias.csv"
    err_path = tmp_path / "f3_recall_error.csv"
    assert str(csv_path) in written and str(err_path) in written
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "gamma,q_hebb,q_storkey,q_projection"
    assert len(lines) == 4
    err_lines = err_path.read_text().strip().splitlines()
    # q = 1 rows floor at the documented noise level instead of reaching 0
    assert f"{ERROR_FLOOR:.17g}" in err_lines[-1]
    manifest = json.loads((tmp_path / "f3_manifest.json").read_text())
    assert manifest["figure"] == "f3"
    assert manifest["inset"]["floor"] == ERROR_FLOOR


def test_emit_spectrum_figure(tmp_path):
    h1 = ising_hamiltonian(hebb_weights(hadamard_memories(4)), None)
    trace = spectrum_trace(transverse_field_hamiltonian(4), h1,
                           AnnealSchedule.linear(10.0), num_samples=5)
    written = emit_figure_data(trace, "f1", tmp_path)
    assert (tmp_path / "f1_spectrum.csv").exists()
    manifest = json.loads((tmp_path / "f1_manifest.json").read_text())
    assert manifest["x_label"] == "t"
    assert len(written) == 2


def test_emit_ensemble_figure_checks_protocol(tmp_path):
    stats = bias_sweep("exact", 4, [1], "hebb", [0.5], 50.0, count=2, master_seed=0)
    written = emit_figure_data(stats, "f6", tmp_path)
    assert (tmp_path / "f6_mean_success.csv").exists()
    assert len(written) == 2
    with pytest.raises(ValueError, match="protocol"):
        emit_figure_data(stats, "f7", tmp_path)
    with pytest.raises(ValueError, match="expected a list"):
        emit_figure_data({"gamma": []}, "f6", tmp_path)


def test_emit_anneal_figure_needs_multiple_times(tmp_path):
    stats = bias_sweep("exact", 4, [1], "hebb", [0.5], 50.0, count=2, master_seed=0)
    with pytest.raises(ValueError, match="annealing time"):
        emit_figure_data(stats, "f10", tmp_path)


def test_emit_unknown_figure(tmp_path):
    with pytest.raises(ValueError, match="unknown figure id"):
        emit_figure_data({}, "f11", tmp_path)


def test_emit_wrong_payload_for_spectrum(tmp_path):
    with pytest.raises(ValueError, match="SpectrumTrace"):
        emit_figure_data({"gamma": []}, "f1", tmp_path)
