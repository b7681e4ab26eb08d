"""Classical Hopfield recall: basins of attraction and their failure modes.

Part 1 stores two orthogonal 8-spin memories and corrupts them one spin at a
time: every corrupted key falls straight back into its memory, the textbook
content-addressable behavior.

Part 2 takes the 4-spin set `overlapping_memories()` at three stored patterns
(three quarters of capacity). Here single-spin corruptions land on spurious
fixed points or sit ambiguously between two memories, and the over-bias bound
reports, key by key, the largest bias for which the intended memory can still
win the energy contest at all. A non-positive bound means no bias helps: the
corrupted key itself already matches or beats the memory's energy.
"""

import numpy as np

from hopfield_annealing import (
    BiasSpec,
    classical_update,
    gamma_upper_bound,
    hadamard_memories,
    hamming_distance,
    hebb_weights,
    network_energy,
    overlapping_memories,
    weights_for_rule,
)

print("=== part 1: orthogonal memories, clean recovery (n=8, p=2) ===")
big = hadamard_memories(8, 2)
weights = hebb_weights(big)
recovered = 0
for k in range(8):
    start = big[0].copy()
    start[k] *= -1
    out, converged, sweeps = classical_update(start, weights, seed=k)
    recovered += int(np.array_equal(out, big[0]))
print(f"single-flip keys recovered: {recovered}/8 "
      f"(complement -xi^1 is of course also stable: "
      f"{np.array_equal(classical_update(-big[0], weights)[0], -big[0])})")

print("\n=== part 2: overlapping memories near capacity (n=4, p=3) ===")
memories = overlapping_memories()[:3]
for k, m in enumerate(memories):
    print(f"  xi^{k + 1} = {m.tolist()}")

for rule in ("hebb", "storkey", "projection"):
    weights = weights_for_rule(rule, memories)
    print(f"\n{rule} rule; memory energy {network_energy(memories[0], weights):+.2f}")
    for k in range(4):
        key = memories[0].copy()
        key[k] *= -1
        out, _, _ = classical_update(key, weights, seed=k)
        bound = gamma_upper_bound(memories[0], key, weights)
        verdict = ("recovers xi^1" if np.array_equal(out, memories[0])
                   else f"stuck at {out.tolist()} "
                        f"(distance {hamming_distance(out, memories[0])} from xi^1)")
        print(f"  flip spin {k}: {verdict}; E(key) = "
              f"{network_energy(key, weights):+.2f}; safe bias < {bound:+.2f}")

print(
    "\nNear capacity the corrupted keys are spurious minima themselves: the\n"
    "bound is ~zero or negative, so no activation threshold can push the\n"
    "network back to the stored pattern. The annealing demos (03-05) probe\n"
    "the same landscapes through the quantum route."
)
