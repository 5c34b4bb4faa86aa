"""``tests/data/time_fuzzer_loop.py``: its stubbed run repeats the live run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from restfuzz.client import HttpClient

SCRIPT = Path(__file__).resolve().parent / "data" / "time_fuzzer_loop.py"


def load_timer():
    spec = importlib.util.spec_from_file_location("time_fuzzer_loop", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_stubbed_run_sends_the_live_runs_requests(mock_grammar):
    timer = load_timer()
    real_send = HttpClient.send
    target, live, replies = timer.record_run(mock_grammar, 300)
    sent, cpu = timer.replay_run(mock_grammar, target, replies, 300)
    assert HttpClient.send is real_send  # both runs put the client back
    assert len(live) == 301  # the reachability probe, then the budget
    assert sent == live
    assert cpu > 0
