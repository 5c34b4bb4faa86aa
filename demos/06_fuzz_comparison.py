"""Baseline vs full data-driven fuzzing, head to head on the mock target.

Both runs get the same request budget against the same armed target.  The
baseline keeps a BFS frontier and renders every request from random
dictionary draws; the data-driven mode selects long seeds, renders all but
the last request from recommender output, and runs both rule checkers.
Expect a much higher pass rate, longer executed sequences and the
undefined-parameter bug only on the data-driven side.
"""

import time

from restfuzz.client import HttpClient
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import ALL_BUGS, BugConfig, packaged_grammar_path, serve
from restfuzz.orchestrator import FuzzConfig, Fuzzer
from restfuzz.rendering import ReadyRequest

REQUESTS = 6000

grammar = parse_spec(packaged_grammar_path().read_bytes())
handle = serve(0, BugConfig(frozenset(ALL_BUGS)))

runs = {}
for mode in ("baseline", "miner"):
    with HttpClient(handle.base_url) as client:
        client.send(ReadyRequest("POST", "/__reset"))
    config = FuzzConfig(
        target=handle.base_url,
        mode=mode,
        max_requests=REQUESTS,
        seed=1,
        train_interval=None,
        train_every_requests=800,
        enable_uaf_checker=True,
        enable_datadriven_checker=(mode == "miner"),
    )
    fuzzer = Fuzzer(config, grammar)
    started = time.perf_counter()
    metrics = fuzzer.run()
    runs[mode] = (metrics, fuzzer.errors.records(), time.perf_counter() - started)
handle.stop()

print(f"{REQUESTS} requests per mode, same seed, all bugs armed\n")
print(f"{'':34s}{'baseline':>12s}{'miner':>12s}")
rows = [
    ("pass rate", lambda m: f"{m.pass_rate():.3f}"),
    ("median executed length", lambda m: f"{m.median_executed_length():.0f}"),
    ("templates reaching 2xx", lambda m: str(len(m.per_template_2xx))),
    ("unique errors", lambda m: str(m.unique_errors)),
    ("iterations", lambda m: str(m.iterations)),
    ("wall time (s)", lambda m: f"{m.wall_time:.1f}"),
]
for label, fmt in rows:
    b = fmt(runs["baseline"][0])
    m = fmt(runs["miner"][0])
    print(f"{label:34s}{b:>12s}{m:>12s}")

for mode in ("baseline", "miner"):
    print(f"\nerror buckets found by {mode}:")
    for record in runs[mode][1]:
        print(f"  [{record.kind}] {record.template_id} -> {record.status} "
              f"(hits {record.hits})")
