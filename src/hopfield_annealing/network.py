"""Classical Hopfield network: energy, threshold dynamics, and bias bounds.

The network energy of a spin state z with couplings w and activation
thresholds theta is

    E(z; theta) = -1/2 sum_ij z_i w_ij z_j - sum_i theta_i z_i

Thresholds encode the recall key energetically: theta_i = gamma * z0_i biases
the landscape toward states matching the input pattern z0. The update rule
aligns each spin with its effective local field sum_j w_ij z_j + theta_i,
with ties falling to -1, so the energy is a Lyapunov function of the dynamics
and a positive bias attracts the state toward the key. At theta = 0 this is
the plain sign rule z_i = sign(sum_j w_ij z_j).
"""

from dataclasses import dataclass, field

import numpy as np

from .patterns import as_pattern

__all__ = [
    "BiasSpec",
    "network_energy",
    "delta_energy",
    "classical_update",
    "gamma_upper_bound",
]


@dataclass(frozen=True)
class BiasSpec:
    """Recall bias: input key z0 and energy scale gamma >= 0."""

    input_key: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "input_key", as_pattern(self.input_key))
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")

    @property
    def thresholds(self) -> np.ndarray:
        """Per-neuron activation thresholds theta_i = gamma * z0_i."""
        return self.gamma * self.input_key.astype(np.float64)

    @property
    def n(self) -> int:
        return self.input_key.size


def _check_square(weights: np.ndarray, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n, n):
        raise ValueError(f"weight matrix shape {w.shape} does not match n={n}")
    return w


def _thresholds(bias: BiasSpec | None, n: int) -> np.ndarray:
    if bias is None:
        return np.zeros(n)
    if bias.n != n:
        raise ValueError(f"bias length {bias.n} does not match n={n}")
    return bias.thresholds


def network_energy(state, weights, bias: BiasSpec | None = None) -> float:
    """Ising energy E(z; theta) of a spin state; `FloatingPointError` if it
    overflows."""
    z = as_pattern(state).astype(np.float64)
    w = _check_square(weights, z.size)
    theta = _thresholds(bias, z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(-0.5 * z @ w @ z - theta @ z)
    if not np.isfinite(energy):
        raise FloatingPointError("network energy is not finite")
    return energy


def delta_energy(state, flip_index: int, weights) -> float:
    """Energy change score -2 (z_k' - z_k) sum_j w_jk z_j for updating spin k.

    z_k' is the unbiased update-rule choice (sign of the local field, ties to
    -1). The score is non-positive by construction and vanishes exactly when
    spin k already satisfies the update rule. It carries a conventional factor
    2 relative to the raw difference of `network_energy` values.
    """
    z = as_pattern(state).astype(np.float64)
    w = _check_square(weights, z.size)
    if not 0 <= flip_index < z.size:
        raise ValueError(f"flip_index {flip_index} out of range for n={z.size}")
    local = float(w[:, flip_index] @ z)
    z_new = 1.0 if local > 0 else -1.0
    return float(-2.0 * (z_new - z[flip_index]) * local)


def classical_update(
    state,
    weights,
    bias: BiasSpec | None = None,
    mode: str = "asynchronous",
    max_sweeps: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, bool, int]:
    """Iterate the threshold update rule until a sweep changes nothing.

    Asynchronous mode visits neurons in a fresh seeded random permutation each
    sweep and updates in place; synchronous mode updates every neuron from the
    same snapshot. Returns (final state, converged flag, sweeps used).
    """
    z = as_pattern(state).astype(np.float64)
    n = z.size
    w = _check_square(weights, n)
    theta = _thresholds(bias, n)
    if mode not in ("synchronous", "asynchronous"):
        raise ValueError(f"mode must be 'synchronous' or 'asynchronous', got {mode!r}")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")

    rng = np.random.default_rng(seed)
    for sweep in range(1, max_sweeps + 1):
        if mode == "synchronous":
            z_next = np.where(w @ z + theta > 0, 1.0, -1.0)
            changed = not np.array_equal(z_next, z)
            z = z_next
        else:
            changed = False
            for i in rng.permutation(n):
                zi = 1.0 if w[i] @ z + theta[i] > 0 else -1.0
                if zi != z[i]:
                    z[i] = zi
                    changed = True
        if not changed:
            return z.astype(np.int64), True, sweep
    return z.astype(np.int64), False, max_sweeps


def gamma_upper_bound(memory, input_key, weights) -> float | None:
    """Largest bias that keeps a non-memory input from beating a stored memory.

    Evaluates
        [sum_ij (xi_i w_ij xi_j - z0_i w_ij z0_j)] / [2 (n - sum_i z0_i xi_i)]
    and returns None when the input equals the memory (zero denominator, no
    finite bound exists).
    """
    xi = as_pattern(memory).astype(np.float64)
    z0 = as_pattern(input_key).astype(np.float64)
    if xi.size != z0.size:
        raise ValueError(f"length mismatch: {xi.size} vs {z0.size}")
    w = _check_square(weights, xi.size)
    denom = 2.0 * (xi.size - z0 @ xi)
    if denom == 0.0:
        return None
    return float((xi @ w @ xi - z0 @ w @ z0) / denom)
