"""Length-weighted seed selection, measured against uniform choice.

Seeds are weighted log10(length + 1), so long sequence templates get
more executions (the lever that pushes the fuzzer toward hard-to-reach
states) without starving short ones completely.
"""

from collections import Counter

from restfuzz.draws import Draws
from restfuzz.sequences import select_seed, selection_weights

# A sequence template is a plain tuple of request-template ids.
seeds = [("POST /groups",) * n for n in range(1, 10)]

print("length   weight      probability")
for seed, weight, prob in selection_weights(seeds):
    print(f"  {len(seed)}      {weight:.5f}     {prob:.4f}")

rng = Draws(0)
draws = 100_000
counts = Counter(len(select_seed(seeds, rng)) for _ in range(draws))

print(f"\nempirical frequencies over {draws:,} draws:")
for length in sorted(counts):
    bar = "#" * round(300 * counts[length] / draws)
    print(f"  {length}: {counts[length] / draws:.4f} {bar}")

mean = sum(length * count for length, count in counts.items()) / draws
print(f"\nmean selected length: {mean:.3f} (uniform would give 5.0)")
print("longest seed is drawn "
      f"{counts[9] / counts[1]:.2f}x as often as the shortest")
