"""Deterministic generation of recall problem instances.

Four generation protocols, named after what the input key knows about the
stored answer:

- ``exact``:    p distinct uniform-random memories; the input key *is* the
                answer memory (Hamming distance 0).
- ``noisy``:    every non-answer memory is kept at Hamming distance >= 2 from
                the answer; the input key is the answer with one randomly
                flipped spin (Hamming distance 1), so the key is strictly
                closest to the answer.
- ``failure1``: the input key is at Hamming distance exactly 1 from the
                nearest memory but is itself not stored. Recalling the key is
                a content-addressable-memory failure, which is what this
                protocol measures.
- ``failure2``: as failure1 at distance exactly 2.

Randomness is fully reproducible: each instance owns a 64-bit seed that keys a
Philox counter-based generator, and per-instance seeds are derived from the
ensemble master seed with a SplitMix64 hash over the labelled run coordinates
(protocol, p, bias-grid index, time index, instance index). Both the hash and
the generator are part of the package's reproducibility contract.
"""

import contextlib
import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .learning import LEARNING_RULES, SingularCovarianceError, _storable_covariance
from .patterns import all_patterns, as_memory_set, as_pattern, random_pattern

__all__ = [
    "PROTOCOLS",
    "ProblemInstance",
    "derive_seed",
    "instance_rng",
    "generate_exact_instance",
    "generate_instance",
    "REJECTION_CAP",
]

# attempts allowed per rejection-sampling loop before declaring infeasibility
REJECTION_CAP = 10_000

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One SplitMix64 scrambling round (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(
    master_seed: int,
    protocol: str,
    p: int,
    gamma_index: int = 0,
    time_index: int = 0,
    instance_index: int = 0,
) -> int:
    """64-bit per-instance seed mixed from the run coordinates.

    The fields are folded into a SplitMix64 chain in a fixed order, so any
    run with the same coordinates regenerates the same instance stream.
    Annealing-time sweeps pass time_index=0 for every T on purpose: the same
    instances are reused so curves differ only by annealing time.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    acc = _splitmix64(master_seed & _MASK64)
    for field in (PROTOCOLS.index(protocol), p, gamma_index, time_index, instance_index):
        acc = _splitmix64(acc ^ (field & _MASK64))
    return acc


def instance_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One fully specified recall run."""

    protocol: str
    n: int
    memories: np.ndarray
    answer_index: int
    input_key: np.ndarray
    rule: str
    gamma: float
    anneal_time: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "memories", as_memory_set(self.memories))
        object.__setattr__(self, "input_key", as_pattern(self.input_key))
        if self.memories.shape[1] != self.n:
            raise ValueError(
                f"memories have length {self.memories.shape[1]}, expected n={self.n}"
            )
        if self.input_key.size != self.n:
            raise ValueError(
                f"input key has length {self.input_key.size}, expected n={self.n}"
            )
        if not 0 <= self.answer_index < self.memories.shape[0]:
            raise ValueError(
                f"answer_index {self.answer_index} out of range for p={self.memories.shape[0]}"
            )
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}")

    @property
    def p(self) -> int:
        return self.memories.shape[0]

    @property
    def answer(self) -> np.ndarray:
        return self.memories[self.answer_index]

    def target_pattern(self) -> np.ndarray:
        """Pattern whose recall probability defines this instance's score.

        The stored answer for exact/noisy runs; the (non-stored) input key for
        the failure protocols, where recalling the key means the memory failed.
        """
        if self.protocol in ("failure1", "failure2"):
            return self.input_key
        return self.answer


def _integer(value, name: str = "") -> int:
    """int() that refuses booleans, non-integral numbers (numpy's included) and
    what int() cannot read, with a ValueError whose message starts with `name`."""
    with contextlib.suppress(TypeError, ValueError):
        if not isinstance(value, (bool, np.bool_)) and (
                not isinstance(value, numbers.Real) or isinstance(value, numbers.Integral)
                or float(value).is_integer()):
            return int(value)
    raise ValueError(f"{name}{': ' if name else ''}expected an integer, got {value!r}")


def _validate_request(protocol: str, n: int, p: int, rule: str, gamma: float,
                      anneal_time: float) -> None:
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (p >= 1 and (p - 1).bit_length() <= n - 1):  # p <= 2^(n-1), never building 2^(n-1)
        raise ValueError(f"p={p} infeasible for n={n} (need 1 <= p <= 2^(n-1))")
    if rule not in LEARNING_RULES:
        raise ValueError(f"unknown learning rule {rule!r}; choose from {LEARNING_RULES}")
    if rule == "projection" and p > n:  # p patterns of length n span at most n dimensions
        raise ValueError(f"p={p} infeasible for the projection rule at n={n} (need p <= n)")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    if not 0 < anneal_time < math.inf:
        raise ValueError(f"anneal_time must be positive and finite, got {anneal_time}")


def _draw_memory_set(rng, n: int, p: int, rule: str, spacing: int = 1) -> np.ndarray:
    """p distinct random memories that `rule` can store, every one at Hamming
    distance >= `spacing` from the first; a set the rule refuses is redrawn."""
    for _ in range(REJECTION_CAP):
        first = random_pattern(n, rng)
        memories, seen = [first], {tuple(first)}
        for _ in range(p - 1):
            for _ in range(REJECTION_CAP):
                cand = random_pattern(n, rng)
                if tuple(cand) not in seen and np.count_nonzero(cand != first) >= spacing:
                    break
            else:
                raise ValueError(f"could not draw a feasible pattern in {REJECTION_CAP} attempts")
            memories.append(cand)
            seen.add(tuple(cand))
        memories = np.stack(memories)
        try:
            if rule == "projection":  # the only rule that can refuse a set
                _storable_covariance(memories.astype(np.float64))
        except SingularCovarianceError:
            continue
        return memories
    raise ValueError("could not draw a usable memory set (covariance singular)")


def _draw_exact(rng, n: int, p: int, rule: str):
    """Exact-input protocol: the key equals the chosen answer memory."""
    memories = _draw_memory_set(rng, n, p, rule)
    answer_index = int(rng.integers(p))
    return memories, answer_index, memories[answer_index].copy()


def _draw_noisy(rng, n: int, p: int, rule: str):
    """Noisy-input protocol: key at distance 1, other memories at distance >= 2."""
    if rule == "projection" and n == p == 2:  # the second memory can only be -first
        raise ValueError("the projection rule cannot store p=2 noisy memories at n=2")
    memories = _draw_memory_set(rng, n, p, rule, spacing=2)
    input_key = memories[0].copy()
    input_key[rng.integers(n)] *= -1
    return memories, 0, input_key


def _draw_failure(rng, n: int, p: int, rule: str, distance: int):
    """Failure protocol: key at Hamming distance exactly `distance` from the
    nearest memory, so it is never stored itself. Random keys are tried
    first; if they all miss, the key is drawn from every pattern at that
    distance, and a set that leaves none is redrawn. Some set fits exactly
    when the p memories fit among the patterns at distance >= `distance`
    from one key; a request no set fits is refused before any draw."""
    if p > sum(math.comb(n, k) for k in range(distance, n + 1)):
        raise ValueError(f"no set of p={p} memories at n={n} leaves a pattern at "
                         f"distance {distance} from its nearest memory")
    memories = _draw_memory_set(rng, n, p, rule)
    for _ in range(REJECTION_CAP):
        key = random_pattern(n, rng)
        dists = np.count_nonzero(memories != key, axis=1)
        if dists.min() == distance:
            return memories, int(np.argmin(dists)), key
    patterns = all_patterns(n)
    for _ in range(REJECTION_CAP):
        dists = np.count_nonzero(patterns[:, None, :] != memories, axis=2)
        fits = np.flatnonzero(dists.min(axis=1) == distance)
        if fits.size:
            key = fits[rng.integers(fits.size)]
            return memories, int(np.argmin(dists[key])), patterns[key].copy()
        memories = _draw_memory_set(rng, n, p, rule)
    raise ValueError(
        f"could not place an input key at distance {distance} from {REJECTION_CAP} "
        f"memory sets of p={p} at n={n}"
    )


# protocol -> draw(rng, n, p, rule) returning (memories, answer_index, input_key);
# PROTOCOLS keeps this order, and `derive_seed` hashes a protocol's index in it
_DRAWS = {
    "exact": _draw_exact,
    "noisy": _draw_noisy,
    "failure1": partial(_draw_failure, distance=1),
    "failure2": partial(_draw_failure, distance=2),
}
PROTOCOLS = tuple(_DRAWS)


def generate_instance(
    protocol: str, n: int, p: int, rule: str, gamma: float, anneal_time: float, seed: int
) -> ProblemInstance:
    """Generate an instance for any named protocol from its 64-bit seed."""
    _validate_request(protocol, n, p, rule, gamma, anneal_time)
    memories, answer_index, input_key = _DRAWS[protocol](instance_rng(seed), n, p, rule)
    return ProblemInstance(
        protocol=protocol,
        n=n,
        memories=memories,
        answer_index=answer_index,
        input_key=input_key,
        rule=rule,
        gamma=gamma,
        anneal_time=anneal_time,
        seed=seed,
    )


def generate_exact_instance(
    n: int, p: int, rule: str, gamma: float, anneal_time: float, seed: int
) -> ProblemInstance:
    """`generate_instance` under the exact-input protocol."""
    return generate_instance("exact", n, p, rule, gamma, anneal_time, seed)
