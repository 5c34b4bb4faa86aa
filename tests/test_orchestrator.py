from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from restfuzz import grammar as grammar_module
from restfuzz import model, recommender, sequences
from restfuzz import orchestrator as orch
from restfuzz.client import HttpClient, ReadyRequest, TargetUnreachable
from restfuzz.execution import ExecutedStep
from restfuzz.mock_service import ALL_BUGS, BugConfig, serve
from restfuzz.orchestrator import MODES, FuzzConfig, Fuzzer, fuzz_loop
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
        train_every_requests=150,
    )
    defaults.update(overrides)
    return FuzzConfig(**defaults)


class TestFuzzLoop:
    def test_zero_budget_yields_empty_metrics(self, mock_grammar, target):
        # The budget is spent by the reachability probe, before the first iteration.
        config = quick_config(target.base_url, requests=None, duration=1e-9)
        metrics = fuzz_loop(config, mock_grammar)
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

    @pytest.mark.parametrize("field,value", [
        ("max_requests", 0), ("max_requests", -5), ("duration", 0.0), ("duration", -1.0),
        ("duration", float("nan")),
        ("train_every_requests", 0), ("train_interval", 0.0), ("max_sequence_length", 0),
    ])
    def test_values_that_are_not_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            FuzzConfig(**{"target": "http://x", "max_requests": 1, field: value})

    def test_unsupported_target_rejected(self):
        with pytest.raises(ValueError, match="unsupported target url"):
            FuzzConfig(target="http://127.0.0.1:9/api", max_requests=1)

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

    def test_each_returned_round_dumps_its_arrays(
        self, mock_grammar, target, tmp_path, monkeypatch
    ):
        returned = []
        real = orch.Recommender.train_and_publish

        def keep(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            if result is not None:
                returned.append(result.params.blocks())
            return result

        monkeypatch.setattr(orch.Recommender, "train_and_publish", keep)
        config = quick_config(target.base_url, requests=600, report_dir=tmp_path / "run",
                              dump_weights=True)
        metrics = fuzz_loop(config, mock_grammar)
        assert metrics.train_rounds == len(returned) >= 2
        dumps = sorted((tmp_path / "run" / "weights").iterdir())
        assert [path.name for path in dumps] == [
            f"round_{number:03d}.npz" for number in range(1, len(returned) + 1)
        ]
        for path, blocks in zip(dumps, returned):
            with np.load(path) as arrays:
                assert sorted(arrays.files) == sorted(model.GRAD_BLOCKS)
                for name in model.GRAD_BLOCKS:
                    np.testing.assert_array_equal(arrays[name], blocks[name])
            (vocab, embed), hidden = blocks["emb"].shape, blocks["u_c"].shape[0]
            assert {name: block.shape for name, block in blocks.items()} == {
                "emb": (vocab, embed), "w_x": (embed, 3 * hidden), "b_x": (3 * hidden,),
                "u_zr": (hidden, 2 * hidden), "u_c": (hidden, hidden),
                "w_att": (hidden, hidden), "w_out": (2 * hidden, vocab), "b_out": (vocab,),
            }

    def test_no_weights_without_the_flag(self, mock_grammar, target, tmp_path):
        config = quick_config(target.base_url, requests=600, report_dir=tmp_path / "run")
        assert fuzz_loop(config, mock_grammar).train_rounds >= 1
        assert not (tmp_path / "run" / "weights").exists()

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
        """A clock that passes the budget once the round's first minibatch has run."""
        batches = accuracy_passes = 0
        real_batch, real_accuracy = model.batch_loss_and_grads, recommender._accuracy

        def counted_batch(*args, **kwargs):
            nonlocal batches
            batches += 1
            return real_batch(*args, **kwargs)

        def counted_accuracy(*args, **kwargs):
            nonlocal accuracy_passes
            accuracy_passes += 1
            return real_accuracy(*args, **kwargs)

        monkeypatch.setattr(model, "batch_loss_and_grads", counted_batch)
        monkeypatch.setattr(recommender, "_accuracy", counted_accuracy)
        monkeypatch.setattr(orch, "time", SimpleNamespace(
            monotonic=lambda: 3600.0 if batches else 0.0
        ))
        config = quick_config(
            target.base_url, requests=None, duration=1.0, train_every_requests=500,
        )
        metrics = fuzz_loop(config, mock_grammar)
        assert batches > 0, "no round started inside the budget"
        assert accuracy_passes == 1, "the round went on past the epoch the budget ran out in"
        assert metrics.train_rounds == 0
        assert metrics.train_rounds_failed == 0


def rounds_started_at(config, grammar, monkeypatch) -> list[int]:
    """Requests sent when each round started, on a clock that reads an hour later each time."""
    clock = itertools.count(0.0, 3600.0)
    monkeypatch.setattr(orch, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    fuzzer = Fuzzer(config, grammar)
    sent: list[int] = []
    real = fuzzer.recommender.train_and_publish

    def noting(*args, **kwargs):
        sent.append(fuzzer.metrics.requests_sent)
        return real(*args, **kwargs)

    monkeypatch.setattr(fuzzer.recommender, "train_and_publish", noting)
    fuzzer.run()
    return sent


class TestTrainingTrigger:
    """``train_every_requests`` replaces the time trigger; it does not add to it."""

    def test_with_both_set_rounds_follow_requests_only(self, mock_grammar, target, monkeypatch):
        config = quick_config(target.base_url, requests=400, train_interval=1.0)
        sent = rounds_started_at(config, mock_grammar, monkeypatch)
        assert len(sent) == 2
        assert sent[0] >= 150 and sent[1] - sent[0] >= 150

    def test_without_a_request_trigger_rounds_follow_time(
        self, mock_grammar, target, monkeypatch
    ):
        config = quick_config(target.base_url, requests=40, train_every_requests=None,
                              train_interval=1800.0)
        sent = rounds_started_at(config, mock_grammar, monkeypatch)
        assert len(sent) >= 2
        assert sent[0] < 10  # due at the first iteration: an hour has passed


class TestPublishedLists:
    def test_each_list_names_only_its_templates_non_consumer_parameters(
        self, mock_grammar, target
    ):
        config = quick_config(target.base_url, requests=600,
                              enable_uaf_checker=True, enable_datadriven_checker=True)
        fuzzer = Fuzzer(config, mock_grammar)
        assert fuzzer.run().train_rounds >= 1
        published = fuzzer.recommender.published
        assert published
        for template_id, lists in published.items():
            own = mock_grammar.templates[template_id].defaults().keys()
            assert lists and all(name in own for pairs in lists for name, _ in pairs)


POST = "POST /groups"
GET_ID = "GET /groups/{id}"


def bfs_fuzzer(grammar, max_sequence_length=10):
    config = FuzzConfig(target="http://x", mode="baseline", max_requests=1,
                        max_sequence_length=max_sequence_length)
    return Fuzzer(config, grammar)


def note(fuzzer, candidate, last_status):
    """Tell the BFS that ``candidate`` ran whole and its last request got ``last_status``."""
    statuses = [201] * (len(candidate) - 1) + [last_status]
    steps = [
        ExecutedStep(template_id, ReadyRequest("GET", "/"), {},
                     ResponseRecord.from_status(status))
        for template_id, status in zip(candidate, statuses)
    ]
    fuzzer._bfs_note_result(candidate, steps)


def run_round(fuzzer, last_status):
    """Draw every candidate of the next round, noting each with ``last_status``."""
    drawn = [fuzzer._next_candidate_bfs()]
    note(fuzzer, drawn[0], last_status)
    while fuzzer._round_queue:
        drawn.append(fuzzer._next_candidate_bfs())
        note(fuzzer, drawn[-1], last_status)
    return drawn


class TestBfsFrontier:
    """The BFS baseline on the two-template grammar, where only POST starts a sequence."""

    def test_rounds_extend_what_the_last_round_extended(self, two_template_grammar):
        fuzzer = bfs_fuzzer(two_template_grammar)
        assert run_round(fuzzer, 201) == [(POST,)]
        assert run_round(fuzzer, 201) == [(POST, GET_ID), (POST, POST)]
        assert run_round(fuzzer, 201)[:2] == [(POST, GET_ID, GET_ID), (POST, GET_ID, POST)]

    def test_a_round_that_extends_nothing_restarts(self, two_template_grammar):
        for last_status in (400, 500):  # only a 2xx last reply extends
            fuzzer = bfs_fuzzer(two_template_grammar)
            run_round(fuzzer, 201)
            assert run_round(fuzzer, last_status) == [(POST, GET_ID), (POST, POST)]
            assert fuzzer._frontier == []
            assert run_round(fuzzer, 201) == [(POST,)]

    def test_a_cut_run_extends_nothing(self, two_template_grammar):
        fuzzer = bfs_fuzzer(two_template_grammar)
        run_round(fuzzer, 201)
        candidate = fuzzer._next_candidate_bfs()
        assert candidate == (POST, GET_ID)
        sent = ExecutedStep(POST, ReadyRequest("POST", "/groups"), {},
                            ResponseRecord.from_status(201))
        fuzzer._bfs_note_result(candidate, [sent])
        assert fuzzer._frontier == []

    def test_a_frontier_at_the_length_cap_restarts(self, two_template_grammar):
        fuzzer = bfs_fuzzer(two_template_grammar, max_sequence_length=1)
        assert run_round(fuzzer, 201) == [(POST,)]
        assert fuzzer._frontier == [(POST,)]
        assert run_round(fuzzer, 201) == [(POST,)]

    def test_the_frontier_stops_growing_at_its_limit(self, two_template_grammar, monkeypatch):
        monkeypatch.setattr(orch, "_FRONTIER_LIMIT", 2)
        fuzzer = bfs_fuzzer(two_template_grammar)
        run_round(fuzzer, 201)
        run_round(fuzzer, 201)
        assert len(run_round(fuzzer, 201)) == 4
        assert fuzzer._frontier == [
            (POST, GET_ID, GET_ID), (POST, GET_ID, POST),
        ]
        assert len(run_round(fuzzer, 201)) == 4  # two seeds, two extensions each


class TestAblationIndependence:
    def test_disabling_the_model_leaves_selection_unchanged(
        self, mock_grammar, target, monkeypatch
    ):
        """Same seed, training off: miner degrades to exactly seq-only.

        Selection draws from its own rng stream and never consults the
        published lists; rendering falls back to the traditional path when no lists
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
                    lines = load_replay(record.replay_path)
                    steps = run_replay(lines, client)
                for line, step in zip(lines, steps):
                    assert step.response.klass.value == line["expected_class"], record.bucket_id
        finally:
            handle.stop()


    def test_a_5xx_replay_file_ends_at_the_offending_reply(
        self, mock_grammar, target, tmp_path, monkeypatch
    ):
        real = orch.execute_candidate
        failed_mid_run = []

        def first_reply_fails(*args, **kwargs):
            steps = real(*args, **kwargs)
            if len(steps) > 1:
                steps[0] = dataclasses.replace(
                    steps[0], response=ResponseRecord.from_status(500, '{"message": "boom"}')
                )
                failed_mid_run.append(steps[0].template_id)
            return steps

        monkeypatch.setattr(orch, "execute_candidate", first_reply_fails)
        config = quick_config(target.base_url, mode="seq-only", requests=300,
                              report_dir=tmp_path / "run")
        fuzzer = Fuzzer(config, mock_grammar)
        fuzzer.run()
        records = fuzzer.errors.records()
        assert {record.template_id for record in records} == set(failed_mid_run)
        for record in records:
            (line,) = load_replay(record.replay_path)
            assert line["template_id"] == record.template_id
            assert line["expected_status"] == 500


# sha256 over (method, path, query, body, status) of every request of a
# seed-0, 1500-request run with both checkers against the fully armed mock.
# Any change to which bytes go out, or in what order, changes the digest.
GOLDEN_STREAMS = {
    "miner": "6c328e83602d3c3ad7980f10db1a7b0d3cd5e3656ddf431d0c8ef8a6e4cbfe69",
    "model-only": "4385b0367519917bce3e3e436c2b3b960ce3d8cf30d0cab0235b6627e5762d49",
    "baseline": "951edb2aa5819eec25fba2fe2ce4d1032660696ffa51c8565fdd0b07852165ad",
    "seq-only": "81388bf6f94c7761906876e96cc64351b0ca95c421c08dd529a878d5e09bb89e",
    "rec1": "de50f8b008e2b246bcf4dc8fb2e013a4698ae0bb5df570176f7fa64fbe55a69b",
    "reclist": "3cdf1617d95e72357d0970597cd5c283f59f0773d4c0bda866f0a1bd3fb8be79",
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
