"""Time the fuzzer's own Python per request, with no socket and no target.

Usage (from the repository root)::

    PYTHONPATH=src python tests/data/time_fuzzer_loop.py

First a seed-0 ``seq-only`` run of ``REQUESTS`` requests (weighted
selection, no checkers, no training) goes against an in-process mock
target with every seeded bug armed, and each reply is recorded.  Then the
same configuration runs again ``REPEATS`` times with ``HttpClient.send``
swapped for a stub that encodes each request, as the client does before
it writes one, and hands back a fresh copy of the recorded reply.  Nothing is sent and no target
runs, so the process CPU of a replayed run is the fuzzer's own: selection,
extension, rendering, encoding, recording and metrics.  The script prints
the best of the repeats in µs per request.  Socket I/O and reply parsing
are left out.
"""

from __future__ import annotations

import time

from restfuzz.client import HttpClient
from restfuzz.grammar import CompiledGrammar, parse_spec
from restfuzz.mock_service import ALL_BUGS, BugConfig, packaged_grammar_path, serve
from restfuzz.orchestrator import FuzzConfig, fuzz_loop
from restfuzz.responses import ResponseRecord

REQUESTS = 3000  # the request budget of every run
REPEATS = 7  # replayed runs; the best one is printed


def _config(target: str, requests: int) -> FuzzConfig:
    return FuzzConfig(target=target, mode="seq-only", max_requests=requests, seed=0)


def record_run(
    grammar: CompiledGrammar, requests: int
) -> tuple[str, list[bytes], list[ResponseRecord]]:
    """The target's URL, the bytes of every request a live run sends, and the reply to each."""
    sent: list[bytes] = []
    replies: list[ResponseRecord] = []
    real_send = HttpClient.send

    def recording_send(client, request):
        reply = real_send(client, request)
        sent.append(client._encode(request))
        replies.append(reply)
        return reply

    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    HttpClient.send = recording_send
    try:
        fuzz_loop(_config(handle.base_url, requests), grammar)
    finally:
        HttpClient.send = real_send
        handle.stop()
    return handle.base_url, sent, replies


def replay_run(
    grammar: CompiledGrammar, target: str, replies: list[ResponseRecord], requests: int
) -> tuple[list[bytes], float]:
    """The bytes a run fed ``replies`` in order encodes, and the process CPU it took.

    ``target`` is the recorded run's, so the Host field is the same; nothing
    connects to it.
    """
    sent: list[bytes] = []
    queued = iter(replies)
    real_send = HttpClient.send

    def stub_send(client, request):
        sent.append(client._encode(request))
        reply = next(queued)
        return ResponseRecord(reply.status, reply.klass, reply.body, reply.latency)

    HttpClient.send = stub_send
    try:
        started = time.process_time()
        fuzz_loop(_config(target, requests), grammar)
        cpu = time.process_time() - started
    finally:
        HttpClient.send = real_send
    return sent, cpu


def main() -> None:
    grammar = parse_spec(packaged_grammar_path().read_bytes())
    target, live, replies = record_run(grammar, REQUESTS)
    per_request = []
    for _ in range(REPEATS):
        sent, cpu = replay_run(grammar, target, replies, REQUESTS)
        if sent != live:
            raise SystemExit("the replayed run sent other requests than the live run")
        per_request.append(cpu * 1e6 / len(sent))
    runs = ", ".join(f"{us:.1f}" for us in per_request)
    print(f"fuzzer loop: {min(per_request):.1f} us per request, best of {REPEATS} "
          f"({len(live)} requests each; runs: {runs})")


if __name__ == "__main__":
    main()
