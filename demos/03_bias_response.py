"""Recall probability versus applied bias for `overlapping_memories()`.

Anneals the first pattern of the overlapping set back out of the network for
p = 1, 2, 3 stored memories and a grid of bias strengths, once per learning
rule. With one memory any bias suffices; as overlapping memories are added,
the Hebb rule needs visibly more bias while Storkey and projection stay
nearly unaffected. A shortened anneal keeps the demo quick; T = 1000
reproduces the reference behavior with sharper corners.
"""

import numpy as np

from hopfield_annealing import bias_response, overlapping_memories

T = 300.0
DT = 0.1
GAMMAS = np.arange(0.0, 1.0001, 0.1)
RULES = ("hebb", "storkey", "projection")

memories = overlapping_memories()
# p -> {"gamma": [...], rule: recall probability of memories[0] per gamma}
curves = {p: bias_response(memories[:p], memories[0], GAMMAS, T, DT) for p in (1, 2, 3)}

for p in (1, 2, 3):
    print(f"\np = {p}: recall probability of the answer state")
    print("  gamma:", "  ".join(f"{g:5.2f}" for g in GAMMAS))
    for rule in RULES:
        print(f"  {rule:>10s}:", "  ".join(f"{q:5.3f}" for q in curves[p][rule]))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.6), sharey=True)
    for ax, p in zip(axes, (1, 2, 3)):
        for rule in RULES:
            ax.plot(GAMMAS, curves[p][rule], marker="o", ms=3, label=rule)
        ax.set_title(f"p = {p}")
        ax.set_xlabel("bias gamma")
    axes[0].set_ylabel("recall probability")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("bias_response.png", dpi=150)
    print("\nwrote bias_response.png")
