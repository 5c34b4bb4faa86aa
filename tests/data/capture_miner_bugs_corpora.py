"""Capture the training corpora of a seed-0 ``miner-bugs`` run as test data.

Usage (from the repository root)::

    PYTHONPATH=src python tests/data/capture_miner_bugs_corpora.py

The run has the ``miner-bugs`` configuration: ``miner`` mode, seed 0, 6000
requests, a training round every 2000 requests, both checkers, against an
in-process mock target with every seeded bug armed.  Each call of
``recommender.train`` is recorded with the corpus it was given and the
state of the trainer's rng as it was handed over, so a test can repeat the
round (training, then list generation from the same rng) outside a run.
The output, ``miner_bugs_corpora.json`` next to this script, holds one
entry per round in call order.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from restfuzz import recommender
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import ALL_BUGS, BugConfig, packaged_grammar_path, serve
from restfuzz.orchestrator import FuzzConfig, fuzz_loop

OUTPUT = Path(__file__).resolve().parent / "miner_bugs_corpora.json"


def capture() -> list[dict]:
    rounds: list[dict] = []
    real_train = recommender.train

    def recording_train(corpus, config, rng, *args, **kwargs):
        rounds.append({
            "rng_state": rng.bit_generator.state,
            "corpus": [
                [template_id, [[pair.param_name, pair.value] for pair in pairs]]
                for template_id, pairs in corpus
            ],
        })
        return real_train(corpus, config, rng, *args, **kwargs)

    grammar = parse_spec(packaged_grammar_path().read_bytes())
    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    recommender.train = recording_train
    try:
        fuzz_loop(
            FuzzConfig(
                target=handle.base_url, mode="miner", max_requests=6000, seed=0,
                train_every_requests=2000, enable_uaf_checker=True,
                enable_datadriven_checker=True,
            ),
            grammar,
        )
    finally:
        recommender.train = real_train
        handle.stop()
    return rounds


def dump(rounds: list[dict]) -> str:
    """JSON with one training example per line."""
    chunks = []
    for entry in rounds:
        examples = ",\n  ".join(json.dumps(example) for example in entry["corpus"])
        chunks.append(
            f'{{"rng_state": {json.dumps(entry["rng_state"])},\n'
            f' "corpus": [\n  {examples}\n ]}}'
        )
    return "[\n" + ",\n".join(chunks) + "\n]\n"


def main() -> int:
    rounds = capture()
    OUTPUT.write_text(dump(rounds))
    sizes = ", ".join(str(len(entry["corpus"])) for entry in rounds)
    print(f"wrote {len(rounds)} corpora ({sizes} examples) to {OUTPUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
