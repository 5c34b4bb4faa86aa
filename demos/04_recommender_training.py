"""Train the next-pair model on a synthetic corpus and sample lists.

Each request template in this corpus always uses one fixed chain of
param-value pairs, so a model that learns the data will regenerate each
chain almost every time it samples.  The run prints the loss trajectory,
validation accuracy and a few generated lists.
"""

import logging
import time

import numpy as np

from restfuzz.collection import ParamValuePair
from restfuzz.recommender import ModelConfig, generate_lists, train

logging.basicConfig(level=logging.INFO, format="%(message)s")

corpus = []
for i in range(2000):
    t = i % 5
    corpus.append((
        f"GET /things{t}",
        [ParamValuePair(f"p{t}_{j}", f"v{t}_{j}") for j in range(4)],
    ))

config = ModelConfig(max_examples=None)
print(f"corpus: {len(corpus)} examples, 5 templates x 4-pair chains")
print(f"model: embed {config.embed_dim}, hidden {config.hidden_dim}, "
      f"{config.epochs} epochs, lr {config.learning_rate}\n")

started = time.perf_counter()
result = train(corpus, config, np.random.default_rng(42), label="demo")
print(f"\ntrained in {time.perf_counter() - started:.1f}s, "
      f"validation top-1 accuracy {result.val_accuracy:.3f}")
print(f"loss: {result.epoch_losses[0]:.3f} -> {result.epoch_losses[-1]:.4f}")
print(f"generation length cap: {result.max_len} "
      "(twice the longest training list, plus slack)")

rng = np.random.default_rng(7)
print("\nsampled param-value lists:")
for t in (0, 3):
    lists = generate_lists(result.params, result.vocab, f"GET /things{t}",
                           3, rng, result.max_len)
    for plist in lists:
        rendered = ", ".join(f"{p.param_name}={p.value}" for p in plist)
        print(f"  GET /things{t}: [{rendered}]")
