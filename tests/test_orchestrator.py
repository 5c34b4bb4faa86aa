from __future__ import annotations

import hashlib
import json
import time

import pytest

from restfuzz import grammar as grammar_module
from restfuzz import model, sequences
from restfuzz import orchestrator as orch
from restfuzz.client import HttpClient, TargetUnreachable
from restfuzz.execution import ExecutedSequence, ExecutedStep
from restfuzz.mock_service import ALL_BUGS, BugConfig, serve
from restfuzz.orchestrator import MODES, FuzzConfig, Fuzzer, fuzz_loop
from restfuzz.rendering import ReadyRequest
from restfuzz.reporting import load_replay, run_replay
from restfuzz.responses import ResponseRecord


@pytest.fixture(scope="module")
def target():
    handle = serve(0, BugConfig())
    yield handle
    handle.stop()


@pytest.fixture(autouse=True)
def reset_target(request):
    if "target" in request.fixturenames:
        handle = request.getfixturevalue("target")
        with HttpClient(handle.base_url) as client:
            client.send(ReadyRequest("POST", "/__reset"))


def quick_config(base_url, mode="miner", requests=400, seed=3, **overrides):
    defaults = dict(
        target=base_url,
        mode=mode,
        max_requests=requests,
        seed=seed,
        train_interval=None,
        train_every_requests=150,
    )
    defaults.update(overrides)
    return FuzzConfig(**defaults)


class TestFuzzLoop:
    def test_zero_budget_yields_empty_metrics(self, mock_grammar, target):
        metrics = fuzz_loop(quick_config(target.base_url, requests=0), mock_grammar)
        assert metrics.requests_sent == 0
        assert metrics.iterations == 0
        assert metrics.unique_errors == 0

    def test_unreachable_target_fails_fast(self, mock_grammar):
        config = quick_config("http://127.0.0.1:9", requests=10)
        with pytest.raises(TargetUnreachable):
            fuzz_loop(config, mock_grammar)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_mode_runs_and_conserves_counts(self, mock_grammar, target, mode):
        metrics = fuzz_loop(quick_config(target.base_url, mode=mode), mock_grammar)
        assert metrics.requests_sent >= 400
        assert sum(metrics.counts.values()) == metrics.requests_sent
        assert metrics.iterations > 0
        assert metrics.pass_rate() > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(target="http://x", mode="turbo", max_requests=1)

    def test_budget_required(self):
        with pytest.raises(ValueError):
            FuzzConfig(target="http://x", mode="miner")

    def test_reports_written(self, mock_grammar, target, tmp_path):
        config = quick_config(
            target.base_url, requests=300, report_dir=tmp_path / "run",
            enable_uaf_checker=True, enable_datadriven_checker=True,
        )
        metrics = fuzz_loop(config, mock_grammar)
        report_dir = tmp_path / "run"
        on_disk = json.loads((report_dir / "metrics.json").read_text())
        assert on_disk["requests_sent"] == metrics.requests_sent
        lengths = {int(length): count for length, count in on_disk["length_histogram"].items()}
        assert lengths == metrics.length_histogram
        assert 0 < sum(lengths.values()) <= metrics.iterations
        assert not (report_dir / "lengths.csv").exists()  # metrics.json holds the histogram
        assert (report_dir / "errors.jsonl").exists()
        assert (report_dir / "collection.jsonl").stat().st_size > 0

    def test_training_happens_and_is_noted(self, mock_grammar, target):
        metrics = fuzz_loop(quick_config(target.base_url, requests=600), mock_grammar)
        assert metrics.train_rounds >= 1
        assert metrics.counts_at_first_training is not None
        assert metrics.pass_rate_after_first_training() is not None

    def test_failed_rounds_are_counted_and_the_run_goes_on(
        self, mock_grammar, target, tmp_path, monkeypatch, caplog
    ):
        def failing_round(self, corpus, label="", should_stop=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(orch.Recommender, "train_and_publish", failing_round)
        config = quick_config(target.base_url, requests=600, report_dir=tmp_path / "run")
        metrics = fuzz_loop(config, mock_grammar)
        assert metrics.requests_sent == 600
        assert metrics.train_rounds == 0
        assert metrics.train_rounds_failed >= 1
        on_disk = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert on_disk["train_rounds_failed"] == metrics.train_rounds_failed
        failures = [r for r in caplog.records if r.getMessage().endswith(" failed")]
        # Every attempt carries its own number, failed ones too.
        assert [r.getMessage() for r in failures] == [
            f"training round round={attempt} failed"
            for attempt in range(1, metrics.train_rounds_failed + 1)
        ]
        assert all(r.exc_info is not None for r in failures)

    def test_a_failed_rounds_window_is_trained_on_by_the_next_round(
        self, mock_grammar, target, monkeypatch
    ):
        corpora = []
        real = orch.Recommender.train_and_publish

        def fails_once(self, corpus, label="", should_stop=None):
            corpora.append(list(corpus))
            if len(corpora) == 1:
                raise RuntimeError("boom")
            return real(self, corpus, label, should_stop)

        monkeypatch.setattr(orch.Recommender, "train_and_publish", fails_once)
        metrics = fuzz_loop(quick_config(target.base_url, requests=400), mock_grammar)
        assert metrics.train_rounds_failed == 1
        assert len(corpora) >= 2
        failed_window, next_window = corpora[0], corpora[1]
        assert failed_window, "the failed round had events to train on"
        assert next_window[: len(failed_window)] == failed_window
        assert len(next_window) > len(failed_window)

    def test_a_round_stops_at_the_duration_budget(self, mock_grammar, target, monkeypatch):
        calls = 0
        real = model.batch_loss_and_grads

        def slow(*args, **kwargs):
            nonlocal calls
            calls += 1
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "batch_loss_and_grads", slow)
        config = quick_config(
            target.base_url, requests=None, duration=1.0, train_every_requests=500,
        )
        started = time.monotonic()
        metrics = fuzz_loop(config, mock_grammar)
        assert time.monotonic() - started < config.duration + 1.0
        assert calls > 0, "no round started inside the budget"
        assert metrics.train_rounds == 0
        assert metrics.train_rounds_failed == 0


POST = "POST /groups"
GET_ID = "GET /groups/{id}"


def bfs_fuzzer(grammar, max_sequence_length=10):
    config = FuzzConfig(target="http://x", mode="baseline", max_requests=1,
                        max_sequence_length=max_sequence_length)
    return Fuzzer(config, grammar)


def note(fuzzer, candidate, last_status):
    """Tell the BFS that ``candidate`` ran whole and its last request got ``last_status``."""
    statuses = [201] * (candidate.length - 1) + [last_status]
    steps = [
        ExecutedStep(template_id, ReadyRequest("GET", "/"), {},
                     ResponseRecord.from_status(status))
        for template_id, status in zip(candidate.template_ids, statuses)
    ]
    executed = ExecutedSequence(candidate.template_ids, steps, completed=True)
    fuzzer._bfs_note_result(candidate, executed)


def run_round(fuzzer, last_status):
    """Draw every candidate of the next round, noting each with ``last_status``."""
    drawn = [fuzzer._next_candidate_bfs()]
    note(fuzzer, drawn[0], last_status)
    while fuzzer._round_queue:
        drawn.append(fuzzer._next_candidate_bfs())
        note(fuzzer, drawn[-1], last_status)
    return [candidate.template_ids for candidate in drawn]


class TestBfsFrontier:
    """The BFS baseline on the two-template grammar, where only POST starts a sequence."""

    def test_rounds_extend_what_the_last_round_extended(self, two_template_grammar):
        fuzzer = bfs_fuzzer(two_template_grammar)
        assert run_round(fuzzer, 201) == [(POST,)]
        assert run_round(fuzzer, 201) == [(POST, GET_ID), (POST, POST)]
        assert run_round(fuzzer, 201)[:2] == [(POST, GET_ID, GET_ID), (POST, GET_ID, POST)]

    def test_a_round_that_extends_nothing_restarts(self, two_template_grammar):
        fuzzer = bfs_fuzzer(two_template_grammar)
        run_round(fuzzer, 201)
        assert run_round(fuzzer, 400) == [(POST, GET_ID), (POST, POST)]
        assert fuzzer._frontier == []
        assert run_round(fuzzer, 201) == [(POST,)]

    def test_a_frontier_at_the_length_cap_restarts(self, two_template_grammar):
        fuzzer = bfs_fuzzer(two_template_grammar, max_sequence_length=1)
        assert run_round(fuzzer, 201) == [(POST,)]
        assert [seed.template_ids for seed in fuzzer._frontier] == [(POST,)]
        assert run_round(fuzzer, 201) == [(POST,)]

    def test_the_frontier_stops_growing_at_its_limit(self, two_template_grammar, monkeypatch):
        monkeypatch.setattr(orch, "_FRONTIER_LIMIT", 2)
        fuzzer = bfs_fuzzer(two_template_grammar)
        run_round(fuzzer, 201)
        run_round(fuzzer, 201)
        assert len(run_round(fuzzer, 201)) == 4
        assert [seed.template_ids for seed in fuzzer._frontier] == [
            (POST, GET_ID, GET_ID), (POST, GET_ID, POST),
        ]
        assert len(run_round(fuzzer, 201)) == 4  # two seeds, two extensions each


class TestAblationIndependence:
    def test_disabling_the_model_leaves_selection_unchanged(
        self, mock_grammar, target, monkeypatch
    ):
        """Same seed, training off: miner degrades to exactly seq-only.

        Selection draws from its own rng stream and never consults the list
        snapshot; rendering falls back to the traditional path when no lists
        exist.  The executed-template streams must therefore be identical.
        """
        streams: dict[str, list[tuple[str, ...]]] = {}
        real = orch.execute_candidate

        def record(mode_name):
            def wrapper(candidate_ids, *args, **kwargs):
                streams[mode_name].append(tuple(candidate_ids))
                return real(candidate_ids, *args, **kwargs)
            return wrapper

        for mode in ("miner", "seq-only"):
            streams[mode] = []
            with HttpClient(target.base_url) as client:
                client.send(ReadyRequest("POST", "/__reset"))
            monkeypatch.setattr(orch, "execute_candidate", record(mode))
            config = quick_config(
                target.base_url, mode=mode, requests=500, seed=21,
                train_every_requests=None,
            )
            fuzz_loop(config, mock_grammar)
        assert streams["miner"] == streams["seq-only"]


class TestReplayFidelity:
    def test_stored_errors_reproduce_after_reset(self, mock_grammar, tmp_path):
        handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
        try:
            config = quick_config(
                handle.base_url, requests=2500, seed=5,
                report_dir=tmp_path / "armed",
                enable_uaf_checker=True, enable_datadriven_checker=True,
            )
            fuzzer = Fuzzer(config, mock_grammar)
            fuzzer.run()
            records = fuzzer.errors.records()
            assert records, "expected some errors against the armed target"
            for record in records:
                with HttpClient(handle.base_url) as client:
                    client.send(ReadyRequest("POST", "/__reset"))
                    results = run_replay(load_replay(record.replay_path), client)
                for expected, actual in results:
                    assert actual.klass.value == expected, record.bucket_id
        finally:
            handle.stop()


# sha256 over (method, path, query, body, status) of every request of a
# seed-0, 1500-request run with both checkers against the fully armed mock.
# Any change to which bytes go out, or in what order, changes the digest.
GOLDEN_STREAMS = {
    "miner": "2115a8c53ff08750dc029e8a88817295de7fbc7babc00894c3e9b443a59b6961",
    "model-only": "a74f7f4314f49fc3deb35a256411f18eb8e399e6173951556afdb22a8230606a",
    "baseline": "69ef32b18ff1c59fadad04ca5c6b99d9d6b2954cc653a73e4c9dd796652623f4",
    "seq-only": "95695e694bd5f3e5c99f7939b246ab318ca588797ab301588fed91fb0440272e",
    "rec1": "509ac44e568db86f32f2fde9764f97ef156a32bac1df19efd6b3f3e5185c19f1",
    "reclist": "00298069da036cb6840b41f1705baf0d02d36948f81d9ee04ba0ef8a5888feef",
}

# The same digest for runs that leave the data-driven checker off: they pin
# the main loop and the use-after-free probe.
DATADRIVEN_OFF_STREAMS = {
    ("baseline", False): "9133511cdcdc851b80a4ee4356f1c033b42c230e5eb48eba1033c216a346f955",
    ("seq-only", False): "30520ecce36e42dbeb7514b33417e93b8a134605f0c422b1a96c228f13d789d2",
    ("baseline", True): "5171feb4462934e1366cedf11d0859d2e3ca1d28a1459b16be5afa9a8d5cfc93",
}


def stream_digest(grammar, monkeypatch, mode, uaf, datadriven):
    digest = hashlib.sha256()
    real_send = HttpClient.send

    def send(client, request):
        record = real_send(client, request)
        line = [request.method, request.path, request.query, request.body,
                record.status]
        digest.update(json.dumps(line).encode() + b"\n")
        return record

    monkeypatch.setattr(HttpClient, "send", send)
    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    try:
        config = quick_config(
            handle.base_url, mode=mode, requests=1500, seed=0,
            enable_uaf_checker=uaf, enable_datadriven_checker=datadriven,
        )
        fuzz_loop(config, grammar)
    finally:
        handle.stop()
    return digest.hexdigest()


class TestRequestStream:
    @pytest.mark.parametrize("mode", sorted(GOLDEN_STREAMS))
    def test_stream_matches_golden_digest(self, mock_grammar, mode, monkeypatch):
        digest = stream_digest(mock_grammar, monkeypatch, mode, uaf=True, datadriven=True)
        assert digest == GOLDEN_STREAMS[mode]

    @pytest.mark.parametrize(("mode", "uaf"), sorted(DATADRIVEN_OFF_STREAMS))
    def test_stream_without_datadriven_checker(self, mock_grammar, mode, uaf, monkeypatch):
        digest = stream_digest(mock_grammar, monkeypatch, mode, uaf=uaf, datadriven=False)
        assert digest == DATADRIVEN_OFF_STREAMS[mode, uaf]


class TestPerIterationWork:
    def test_seq_only_run_computes_per_seed_change_not_per_request(
        self, mock_grammar, monkeypatch
    ):
        """Counts, not timings: what the loop recomputes while it runs."""
        calls = {"table": 0, "admitted": 0, "frozenset": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sequences, "selection_weights",
                            counted("table", sequences.selection_weights))
        monkeypatch.setattr(sequences.SeedPool, "append",
                            counted("admitted", sequences.SeedPool.append))
        # Any frozenset grammar code builds, such as a template's consumed types.
        monkeypatch.setattr(grammar_module, "frozenset",
                            counted("frozenset", frozenset), raising=False)
        digest = stream_digest(mock_grammar, monkeypatch, "seq-only", uaf=True, datadriven=True)
        assert digest == GOLDEN_STREAMS["seq-only"]
        assert calls["admitted"] > 0
        assert calls["table"] <= calls["admitted"]
        assert calls["frozenset"] == 0


class TestRequestBudget:
    @pytest.mark.parametrize(("mode", "seed", "budget"), [
        ("seq-only", 0, 600),
        ("baseline", 1, 4000),
    ])
    def test_checkers_stay_inside_the_budget(self, mock_grammar, mode, seed, budget):
        # both runs end mid-checker: a replay or a probe would overrun
        handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
        try:
            config = FuzzConfig(
                target=handle.base_url, mode=mode, max_requests=budget, seed=seed,
                enable_uaf_checker=True, enable_datadriven_checker=True,
            )
            metrics = fuzz_loop(config, mock_grammar)
        finally:
            handle.stop()
        assert metrics.requests_sent == budget
