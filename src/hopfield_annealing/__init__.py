"""Associative memory recall by simulated quantum annealing.

Bipolar memories are stored in the couplings of an Ising network with one of
three learning rules (Hebb, Storkey, projection) and recalled by evolving a
transverse-field Ising Hamiltonian adiabatically, so the annealed register
collapses onto the stored pattern that best matches a biased input key.

The subpackages split along that pipeline: `patterns` and `learning` build the
classical network, `network` runs its threshold dynamics, `hamiltonians`,
`evolution` and `spectrum` handle the quantum side, and `instances`,
`ensembles`, `memio` and `cli` provide the seeded recall experiments and
their file formats.
"""

from ._version import __version__
from .ensembles import (
    EnsembleStats,
    RecallOutcome,
    anneal_time_sweep,
    bias_response,
    bias_sweep,
    run_ensemble,
    run_instance,
    success_indicator,
    write_results_csv,
)
from .evolution import AnnealSchedule, evolve_batch, magnus_step
from .hamiltonians import (
    IsingHamiltonian,
    answer_overlap,
    ising_hamiltonian,
    transverse_field_hamiltonian,
    uniform_superposition,
)
from .instances import (
    ProblemInstance,
    derive_seed,
    generate_exact_instance,
    generate_instance,
)
from .learning import (
    SingularCovarianceError,
    hebb_weights,
    projection_weights,
    storkey_weights,
    weights_for_rule,
)
from .memio import emit_figure_data, load_memories, save_memories
from .network import (
    BiasSpec,
    classical_update,
    delta_energy,
    gamma_upper_bound,
    network_energy,
)
from .patterns import (
    as_memory_set,
    as_pattern,
    hadamard_memories,
    hamming_distance,
    overlapping_memories,
)
from .spectrum import SpectrumTrace, instantaneous_spectrum, min_gap, spectrum_trace

__all__ = [
    "__version__",
    "AnnealSchedule",
    "BiasSpec",
    "EnsembleStats",
    "IsingHamiltonian",
    "ProblemInstance",
    "RecallOutcome",
    "SingularCovarianceError",
    "SpectrumTrace",
    "anneal_time_sweep",
    "answer_overlap",
    "as_memory_set",
    "as_pattern",
    "bias_response",
    "bias_sweep",
    "classical_update",
    "delta_energy",
    "derive_seed",
    "emit_figure_data",
    "evolve_batch",
    "gamma_upper_bound",
    "generate_exact_instance",
    "generate_instance",
    "hadamard_memories",
    "hamming_distance",
    "hebb_weights",
    "instantaneous_spectrum",
    "ising_hamiltonian",
    "load_memories",
    "magnus_step",
    "min_gap",
    "network_energy",
    "overlapping_memories",
    "projection_weights",
    "run_ensemble",
    "run_instance",
    "save_memories",
    "spectrum_trace",
    "storkey_weights",
    "success_indicator",
    "transverse_field_hamiltonian",
    "uniform_superposition",
    "weights_for_rule",
    "write_results_csv",
]
