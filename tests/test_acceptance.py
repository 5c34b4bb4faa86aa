"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  The end-to-end criteria drive the real fuzzer over HTTP
against the bundled mock target.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from restfuzz import cli, model
from restfuzz.client import HttpClient, ReadyRequest
from restfuzz.collection import ParamValuePair
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import ALL_BUGS, BugConfig, packaged_grammar_path, serve
from restfuzz.orchestrator import FuzzConfig, Fuzzer
from restfuzz.recommender import ModelConfig, generate_lists, train
from restfuzz.reporting import load_replay, pass_rate, run_replay
from restfuzz.responses import ResponseClass
from restfuzz.sequences import SequenceTemplate, select_seed, selection_weights

pytestmark = pytest.mark.acceptance

GRAMMAR = parse_spec(packaged_grammar_path().read_bytes())

# How each seeded bug shows up in the error report.
BUG_SIGNATURES = {
    "b-uaf": ("GET /groups/{id}/attributes", 500),
    "b-undef": ("PUT /groups/{id}", 500),
    "b-perpage": ("GET /groups", 500),
    "b-parentid": ("POST /groups", 500),
}

# Branches that stand in for executed handler code, the line-coverage
# analogue: successful CRUD behaviors plus armed-bug branches.  Rejection
# branches model the shallow checking path and are excluded.
BEHAVIOR_BRANCHES = ("created", "listed", "empty_page", "ok", "updated",
                     "deleted", "bug_")


_uncaptured = nullcontext


@pytest.fixture(autouse=True)
def _report_past_capture(capsys):
    # Criterion pass/fail lines stay visible without -s.
    global _uncaptured
    _uncaptured = capsys.disabled
    yield
    _uncaptured = nullcontext


def _announce(line: str) -> None:
    with _uncaptured():
        print(line, flush=True)


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {number} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    _announce(f"ACCEPTANCE {number} PASS  {title} ({elapsed:.1f}s)")


def behavior_coverage(base_url: str) -> int:
    with HttpClient(base_url) as client:
        payload = json.loads(client.send(ReadyRequest("GET", "/__coverage")).body)
    return sum(
        1 for label in payload
        if label.split(":", 1)[1].startswith(BEHAVIOR_BRANCHES)
    )


def reset(base_url: str) -> None:
    with HttpClient(base_url) as client:
        client.send(ReadyRequest("POST", "/__reset"))


def test_criterion_1_pass_rate_formula():
    with criterion(1, "pass-rate formula matches its definition", 1.0):
        counts = {
            ResponseClass.PASS_2XX: 5,
            ResponseClass.ERROR_5XX: 1,
            ResponseClass.REJECT_4XX: 2,
        }
        assert pass_rate(counts) == 0.75

        rng = np.random.default_rng(17)
        for _ in range(1000):
            n2, n4, n5 = (int(x) for x in rng.integers(0, 500, size=3))
            if n2 + n4 + n5 == 0:
                continue
            got = pass_rate({
                ResponseClass.PASS_2XX: n2,
                ResponseClass.REJECT_4XX: n4,
                ResponseClass.ERROR_5XX: n5,
                ResponseClass.TRANSPORT: int(rng.integers(0, 50)),
            })
            # independent recomputation straight from the definition
            assert got == pytest.approx((n2 + n5) / (n2 + n4 + n5), abs=1e-12)


def test_criterion_2_selection_weights():
    with criterion(2, "log10(l+1) weights and selection frequencies", 5.0):
        seeds = {
            length: SequenceTemplate(("POST /groups",) * length)
            for length in range(1, 10)
        }
        ((_, w1, _),) = selection_weights([seeds[1]])
        ((_, w9, _),) = selection_weights([seeds[9]])
        assert abs(w1 - math.log10(2)) < 1e-12
        assert abs(w9 - 1.0) < 1e-12

        pair = [seeds[1], seeds[9]]
        probs = [p for _, _, p in selection_weights(pair)]
        rng = np.random.default_rng(23)
        counts = Counter(len(select_seed(pair, rng)) for _ in range(100_000))
        assert abs(counts[1] / 100_000 - probs[0]) < 0.01
        assert abs(counts[9] / 100_000 - probs[1]) < 0.01

        everything = list(seeds.values())
        mean_length = np.mean(
            [len(select_seed(everything, rng)) for _ in range(100_000)]
        )
        assert mean_length > 5.0  # uniform selection would average 5.0


def test_criterion_3_gradient_check():
    with criterion(3, "analytic gradients match finite differences", 30.0):
        from test_model import numeric_gradient

        rng = np.random.default_rng(99)
        for _ in range(20):
            params = model.init_params(6, 4, 5, rng, scale=0.3)
            tokens = rng.integers(0, 6, size=(1, 4))
            _, grads, _ = model.batch_loss_and_grads(params, tokens)
            for name in model.GRAD_BLOCKS:
                numeric = numeric_gradient(params, tokens, name)
                scale = max(np.abs(grads[name]).max(), np.abs(numeric).max(), 1e-8)
                assert np.abs(grads[name] - numeric).max() / scale < 1e-4


def test_criterion_4_model_learning_oracle():
    with criterion(4, "synthetic-corpus learning and list generation", 90.0):
        corpus = []
        for i in range(2000):
            t = i % 5
            corpus.append((
                f"GET /things{t}",
                [ParamValuePair(f"p{t}_{j}", f"v{t}_{j}") for j in range(4)],
            ))
        started = time.perf_counter()
        result = train(corpus, ModelConfig(max_examples=None), np.random.default_rng(42))
        training_wall = time.perf_counter() - started
        assert training_wall < 60.0
        assert result.val_accuracy is not None and result.val_accuracy >= 0.95

        rng = np.random.default_rng(7)
        for t in range(5):
            expected = tuple(
                ParamValuePair(f"p{t}_{j}", f"v{t}_{j}") for j in range(4)
            )
            hits = sum(
                bool(lists and lists[0] == expected)
                for lists in (
                    generate_lists(result.params, result.vocab, f"GET /things{t}",
                                   1, rng, result.max_len)
                    for _ in range(50)
                )
            )
            assert hits / 50 > 0.9


@pytest.fixture(scope="module")
def bug_discovery(tmp_path_factory):
    """Criterion 5's 20k-request run, shared with criterion 8."""
    report_dir = tmp_path_factory.mktemp("bug-discovery")
    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    started = time.perf_counter()
    exit_code = cli.main([
        "fuzz",
        "--spec", str(packaged_grammar_path()),
        "--target", handle.base_url,
        "--mode", "miner",
        "--max-requests", "20000",
        "--seed", "0",
        "--train-every-requests", "2000",
        "--train-sync",
        "--enable-uaf-checker",
        "--enable-datadriven-checker",
        "--report-dir", str(report_dir),
    ])
    wall = time.perf_counter() - started
    records = [
        json.loads(line)
        for line in (report_dir / "errors.jsonl").read_text().splitlines()
    ]
    yield {
        "handle": handle,
        "exit_code": exit_code,
        "records": records,
        "wall": wall,
        "report_dir": report_dir,
    }
    handle.stop()


def test_criterion_5_end_to_end_bug_discovery(bug_discovery):
    with criterion(5, "all four seeded bugs found; undef needs the checker", 300.0):
        assert bug_discovery["exit_code"] == 0
        assert bug_discovery["wall"] < 300.0
        found = {
            (record["template_id"], record["status"])
            for record in bug_discovery["records"]
        }
        for bug, signature in BUG_SIGNATURES.items():
            assert signature in found, f"{bug} not discovered"
        kinds = {
            (record["template_id"], record["kind"])
            for record in bug_discovery["records"]
        }
        assert ("GET /groups/{id}/attributes", "use_after_free") in kinds
        assert ("PUT /groups/{id}", "incorrect_param_usage") in kinds

        # Without the data-driven checker the undefined-parameter bug stays
        # out of reach: rendering only ever sends defined parameters.
        reset(bug_discovery["handle"].base_url)
        config = FuzzConfig(
            target=bug_discovery["handle"].base_url,
            mode="miner",
            max_requests=20000,
            seed=0,
            train_every_requests=2000,
            enable_uaf_checker=True,
            enable_datadriven_checker=False,
        )
        fuzzer = Fuzzer(config, GRAMMAR)
        fuzzer.run()
        without_checker = {
            (record.template_id, record.status)
            for record in fuzzer.errors.records()
        }
        assert BUG_SIGNATURES["b-undef"] not in without_checker
        for bug in ("b-uaf", "b-perpage", "b-parentid"):
            assert BUG_SIGNATURES[bug] in without_checker


def test_criterion_6_ablation_analogues():
    with criterion(6, "miner vs baseline: length, pass rate, coverage", 900.0):
        handle = serve(0, BugConfig())
        try:
            baseline_hist: Counter = Counter()
            miner_hist: Counter = Counter()
            baseline_rates, miner_rates = [], []
            per_seed_coverage_ok = []
            for seed in range(1, 6):
                results = {}
                for mode in ("baseline", "miner"):
                    reset(handle.base_url)
                    config = FuzzConfig(
                        target=handle.base_url,
                        mode=mode,
                        max_requests=10000,
                        seed=seed,
                        train_every_requests=800,
                    )
                    metrics = Fuzzer(config, GRAMMAR).run()
                    results[mode] = (metrics, behavior_coverage(handle.base_url))
                baseline_metrics, baseline_cov = results["baseline"]
                miner_metrics, miner_cov = results["miner"]
                baseline_hist.update(baseline_metrics.length_histogram)
                miner_hist.update(miner_metrics.length_histogram)
                baseline_rates.append(baseline_metrics.pass_rate())
                after = miner_metrics.pass_rate_after_first_training()
                assert after is not None, "miner never trained"
                miner_rates.append(after)
                per_seed_coverage_ok.append(miner_cov >= baseline_cov)

            def pooled_median(hist: Counter) -> float:
                total = sum(hist.values())
                midpoint = (total + 1) // 2
                running = 0
                for length in sorted(hist):
                    running += hist[length]
                    if running >= midpoint:
                        return float(length)
                raise AssertionError("empty histogram")

            assert pooled_median(miner_hist) > pooled_median(baseline_hist)
            # shape analogue: the classic frontier keeps dying and
            # restarting, so its executed-length mass sits at 1 and 2
            short = baseline_hist[1] + baseline_hist[2]
            assert short / sum(baseline_hist.values()) > 0.5
            margin = np.mean(miner_rates) - np.mean(baseline_rates)
            assert margin >= 0.10, f"pass-rate margin only {margin:.3f}"
            assert all(per_seed_coverage_ok)
        finally:
            handle.stop()


def test_criterion_7_checker_precision():
    with criterion(7, "no false positives with every bug disarmed", 300.0):
        handle = serve(0, BugConfig())
        try:
            config = FuzzConfig(
                target=handle.base_url,
                mode="miner",
                max_requests=50000,
                seed=13,
                train_every_requests=20000,
                enable_uaf_checker=True,
                enable_datadriven_checker=True,
            )
            fuzzer = Fuzzer(config, GRAMMAR)
            metrics = fuzzer.run()
            assert metrics.requests_sent >= 50000
            assert len(fuzzer.errors) == 0
            assert metrics.counts[ResponseClass.ERROR_5XX] == 0
        finally:
            handle.stop()


def test_criterion_8_replay_fidelity(bug_discovery):
    with criterion(8, "every error record replays to the same classes", 60.0):
        handle = bug_discovery["handle"]
        records = bug_discovery["records"]
        assert records
        for record in records:
            reset(handle.base_url)
            with HttpClient(handle.base_url) as client:
                lines = load_replay(record["replay_path"])
                steps = run_replay(lines, client)
            for line, step in zip(lines, steps):
                assert step.response.klass.value == line["expected_class"], record["bucket_id"]
