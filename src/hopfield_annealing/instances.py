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
Philox4x64-10 counter-based keystream (Salmon et al., SC'11), and
per-instance seeds are derived from the ensemble master seed with a
SplitMix64 hash over the labelled run coordinates (protocol, p, bias-grid
index, time index, instance index). The hash, the keystream and the way a
draw reads it are the package's reproducibility contract:

- The keystream is `Philox(key=seed).random_raw()`, counter 0 first. It is
  read as uint32 words: each uint64 gives its low half, then its high half.
- A pattern of n spins is n words; spin i is +1 when the top bit of word i
  is set. As a code, the pattern's basis index (`pattern_to_index`), that
  top bit is bit i.
- An index below k (k > 1) is Lemire's bounded-integer method (ACM TOMACS
  29(1), 2019) on one word w at a time: m = w * k, taken when
  m mod 2^32 >= (2^32 - k) mod k, giving m >> 32. An index below 1 is 0
  and reads no word.

These are the words numpy's `Generator.integers` reads from the same
keystream (`instance_rng`), so `integers(0, 2, size=n)` and `integers(k)`
make the same draws; the contract rests on the two published algorithms,
not on numpy's implementation.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from ._guards import integer, member, real
from .learning import LEARNING_RULES, SingularCovarianceError, _storable_covariance
from .patterns import _code_patterns, as_memory_set, as_pattern

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
_WORD = (1 << 32) - 1
# a keystream reads this many uint64s at a time; two top bits of each make
# one uint64 of `_tops` at shifts 0, 2, ..., 62
_CHUNK = 32
_TOP_SHIFTS = np.arange(0, 64, 2, dtype=np.uint64)


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
    return _instance_seeds(
        integer(master_seed, "master_seed"), member(protocol, "protocol", PROTOCOLS),
        integer(p, "p"), integer(gamma_index, "gamma_index"), integer(time_index, "time_index"),
        [integer(instance_index, "instance_index")])[0]


def _instance_seeds(master_seed: int, protocol: str, p: int, gamma_index: int,
                    time_index: int, instances) -> list:
    """`derive_seed` of each index of `instances` from checked coordinates;
    the chain up to the instance index is folded once."""
    acc = _splitmix64(master_seed & _MASK64)
    for field in (PROTOCOLS.index(protocol), p, gamma_index, time_index):
        acc = _splitmix64(acc ^ (field & _MASK64))
    return [_splitmix64(acc ^ (index & _MASK64)) for index in instances]


def instance_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by a 64-bit seed: the generator
    whose words an instance's draws read (see the module docstring)."""
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
        object.__setattr__(self, "answer_index", integer(
            self.answer_index, "answer_index", 0, self.memories.shape[0] - 1))
        member(self.protocol, "protocol", PROTOCOLS)

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


def _validate_request(protocol: str, n: int, p: int, rule: str, gamma: float,
                      anneal_time: float) -> tuple:
    """The request's (n, p, gamma, anneal_time) as guarded values; a request
    no memory set can fit is refused before any draw."""
    member(protocol, "protocol", PROTOCOLS)
    n, p = integer(n, "n", 1), integer(p, "p")
    if not (p >= 1 and (p - 1).bit_length() <= n - 1):  # p <= 2^(n-1), never building 2^(n-1)
        raise ValueError(f"p={p} infeasible for n={n} (need 1 <= p <= 2^(n-1))")
    member(rule, "learning rule", LEARNING_RULES)
    if rule == "projection" and p > n:  # p patterns of length n span at most n dimensions
        raise ValueError(f"p={p} infeasible for the projection rule at n={n} (need p <= n)")
    checked = n, p, real(gamma, "gamma", 0.0), real(anneal_time, "anneal_time", positive=True)
    # at n = p = 2 a noisy set's second memory can only be -first
    if protocol == "noisy" and rule == "projection" and n == p == 2:
        raise ValueError("the projection rule cannot store p=2 noisy memories at n=2")
    # a key at distance d fits when the p memories fit among the patterns at
    # distance >= d from it
    distance = _FAILURE_DISTANCES.get(protocol)
    if distance and p > sum(math.comb(n, k) for k in range(distance, n + 1)):
        raise ValueError(f"no set of p={p} memories at n={n} leaves a pattern at "
                         f"distance {distance} from its nearest memory")
    return checked


class _Keystream:
    """The uint32 words a numpy Generator over `Philox(key=seed)` reads, from
    `philox` re-keyed to (key = seed, counter 0): each uint64 of `random_raw`
    gives its low half, then its high half."""

    __slots__ = ("_philox", "_raw", "_tops", "_pos")

    def __init__(self, seed: int, philox: np.random.Philox):
        philox.state = {"bit_generator": "Philox",
                        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, 0)},
                        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._philox, self._raw, self._tops, self._pos = philox, [], 0, 0

    def _read(self) -> None:
        """The next _CHUNK uint64s; bit i of `_tops` is the top bit of word i."""
        raw = self._philox.random_raw(_CHUNK)
        tops = (raw >> 31 & 1 | raw >> 62 & 2) << _TOP_SHIFTS
        self._tops |= int(tops.sum()) << 2 * len(self._raw)
        self._raw += raw.tolist()

    def _take(self, count: int) -> int:
        """The index of the first of the next `count` words; a read first
        drops the uint64s already used, so the buffer stays under
        count + 2 _CHUNK words."""
        if self._pos + count > 2 * len(self._raw):
            used = self._pos >> 1
            self._raw, self._tops = self._raw[used:], self._tops >> 2 * used
            self._pos &= 1
            while self._pos + count > 2 * len(self._raw):
                self._read()
        self._pos += count
        return self._pos - count

    def pattern(self, n: int) -> int:
        """The code of `integers(0, 2, size=n)`: bit i is word i's top bit."""
        start = self._take(n)  # before `_tops`, which a read extends
        return self._tops >> start & (1 << n) - 1

    def below(self, k: int) -> int:
        """`integers(k)`: Lemire's method with numpy's rejection threshold; k = 1
        reads no word."""
        threshold = ((1 << 32) - k) % k
        while k > 1:
            i = self._take(1)
            m = (self._raw[i >> 1] >> (i & 1) * 32 & _WORD) * k
            if m & _WORD >= threshold:
                return m >> 32
        return 0


def _draw_memory_set(stream: _Keystream, n: int, p: int, rule: str, spacing: int = 1) -> list:
    """The codes of p distinct random memories that `rule` can store, every
    one at Hamming distance >= `spacing` from the first; a set the rule
    refuses is redrawn."""
    for _ in range(REJECTION_CAP):
        first = stream.pattern(n)
        codes, seen = [first], {first}
        for _ in range(p - 1):
            for _ in range(REJECTION_CAP):
                cand = stream.pattern(n)
                if cand not in seen and (cand ^ first).bit_count() >= spacing:
                    break
            else:
                raise ValueError(f"could not draw a feasible pattern in {REJECTION_CAP} attempts")
            codes.append(cand)
            seen.add(cand)
        try:
            if rule == "projection":  # the only rule that can refuse a set
                _storable_covariance(_code_patterns(codes, n).astype(np.float64))
        except SingularCovarianceError:
            continue
        return codes
    raise ValueError("could not draw a usable memory set (covariance singular)")


def _draw_exact(stream: _Keystream, n: int, p: int, rule: str):
    """Exact-input protocol: the key equals the chosen answer memory."""
    codes = _draw_memory_set(stream, n, p, rule)
    answer_index = stream.below(p)
    return codes, answer_index, codes[answer_index]


def _draw_noisy(stream: _Keystream, n: int, p: int, rule: str):
    """Noisy-input protocol: key at distance 1, other memories at distance >= 2."""
    codes = _draw_memory_set(stream, n, p, rule, spacing=2)
    return codes, 0, codes[0] ^ 1 << stream.below(n)


@lru_cache(maxsize=None)
def _shell(n: int, distance: int) -> tuple:
    """The XOR masks that take a pattern to each pattern at `distance`."""
    return tuple(sum(1 << i for i in spins) for spins in combinations(range(n), distance))


def _draw_failure(stream: _Keystream, n: int, p: int, rule: str, distance: int):
    """Failure protocol: key at Hamming distance exactly `distance` from the
    nearest memory, so it is never stored itself. Random keys are tried
    first; if they all miss, the key is drawn from every pattern at that
    distance, listed from the memories' neighbours, and a set that leaves
    none is redrawn. The answer is the first memory at that distance from
    the key."""

    def distances(key: int) -> list:
        return [(code ^ key).bit_count() for code in codes]

    def fits(key: int) -> bool:
        return min(distances(key)) == distance

    codes = _draw_memory_set(stream, n, p, rule)
    for _ in range(REJECTION_CAP):
        if fits(key := stream.pattern(n)):
            return codes, distances(key).index(distance), key
    for _ in range(REJECTION_CAP):
        # in code order, as row s of all_patterns(n) is code s; every key at
        # the distance is a memory's neighbour, so no 2^n patterns are scanned
        keys = sorted({code ^ m for code in codes for m in _shell(n, distance) if fits(code ^ m)})
        if keys:
            key = keys[stream.below(len(keys))]
            return codes, distances(key).index(distance), key
        codes = _draw_memory_set(stream, n, p, rule)
    raise ValueError(
        f"could not place an input key at distance {distance} from {REJECTION_CAP} "
        f"memory sets of p={p} at n={n}"
    )


_FAILURE_DISTANCES = {"failure1": 1, "failure2": 2}
# protocol -> draw(stream, n, p, rule) returning (memory codes, answer_index,
# key code); PROTOCOLS keeps this order, and `derive_seed` hashes a
# protocol's index in it
_DRAWS = {
    "exact": _draw_exact,
    "noisy": _draw_noisy,
    **{name: partial(_draw_failure, distance=d) for name, d in _FAILURE_DISTANCES.items()},
}
PROTOCOLS = tuple(_DRAWS)


def _draw_codes(philox: np.random.Philox, protocol: str, n: int, p: int, rule: str,
                seed: int) -> tuple:
    """(memory codes, answer index, key code) of the instance `seed` draws on
    `philox`, for a request already checked; a code is a basis index, as in
    `pattern_to_index`."""
    return _DRAWS[protocol](_Keystream(seed, philox), n, p, rule)


def generate_instance(
    protocol: str, n: int, p: int, rule: str, gamma: float, anneal_time: float, seed: int
) -> ProblemInstance:
    """Generate an instance for any named protocol from its 64-bit seed."""
    n, p, gamma, anneal_time = _validate_request(protocol, n, p, rule, gamma, anneal_time)
    seed = integer(seed, "seed")
    codes, answer_index, key = _draw_codes(np.random.Philox(key=0), protocol, n, p, rule, seed)
    rows = _code_patterns([*codes, key], n)
    return ProblemInstance(
        protocol=protocol,
        n=n,
        memories=rows[:-1],
        answer_index=answer_index,
        input_key=rows[-1],
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
