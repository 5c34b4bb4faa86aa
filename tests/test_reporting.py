from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz.execution import ExecutedStep
from restfuzz.grammar import parse_spec
from restfuzz.client import ReadyRequest
from restfuzz.reporting import (
    KIND_RESPONSE_5XX,
    ErrorReport,
    RunMetrics,
    body_signature,
    load_replay,
    pass_rate,
    run_replay,
)
from restfuzz.responses import ResponseClass, ResponseRecord

from conftest import build_spec, groups_paths


def counts(n2=0, n4=0, n5=0, transport=0):
    return {
        ResponseClass.PASS_2XX: n2,
        ResponseClass.REJECT_4XX: n4,
        ResponseClass.ERROR_5XX: n5,
        ResponseClass.TRANSPORT: transport,
    }


class TestPassRate:
    def test_worked_example(self):
        assert pass_rate(counts(n2=5, n5=1, n4=2)) == pytest.approx(0.75)

    def test_all_rejections_is_zero(self):
        assert pass_rate(counts(n4=10)) == 0.0

    def test_no_rejections_is_one(self):
        assert pass_rate(counts(n2=3, n5=2)) == 1.0

    def test_transport_excluded_from_both_sides(self):
        assert pass_rate(counts(n2=1, n4=1, transport=100)) == pytest.approx(0.5)

    def test_no_responses_is_none(self):
        assert pass_rate(counts(transport=3)) is None

    @given(
        n2=st.integers(0, 10_000),
        n4=st.integers(0, 10_000),
        n5=st.integers(0, 10_000),
        transport=st.integers(0, 10_000),
    )
    @settings(max_examples=1000, deadline=None)
    def test_matches_independent_recomputation(self, n2, n4, n5, transport):
        total = n2 + n4 + n5
        if total == 0:
            assert pass_rate(counts(n2, n4, n5, transport)) is None
            return
        expected = (n2 + n5) / total
        got = pass_rate(counts(n2, n4, n5, transport))
        assert got == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= got <= 1.0


class TestBodySignature:
    def test_numeric_ids_are_stripped(self):
        a = body_signature('{"message": "group 17 missing"}')
        b = body_signature('{"message": "group 90210 missing"}')
        assert a == b

    def test_hex_ids_are_stripped(self):
        a = body_signature('{"token": "deadbeefcafe1234"}')
        b = body_signature('{"token": "0123456789abcdef"}')
        assert a == b

    def test_distinct_messages_distinct_signatures(self):
        assert body_signature("boom") != body_signature("crash")

    def test_case_insensitive(self):
        assert body_signature("Internal Error") == body_signature("internal error")


def make_step(template_id="POST /groups", status=500, body='{"m":"e"}'):
    return ExecutedStep(
        template_id=template_id,
        request=ReadyRequest("POST", "/groups", body={"name": "dev-team"}),
        rendered_params={"name": "dev-team"},
        response=ResponseRecord.from_status(status, body),
    )


@pytest.fixture
def report(two_template_grammar, tmp_path):
    return ErrorReport(two_template_grammar, tmp_path / "replays")


class TestErrorBucketing:
    def test_id_differences_merge_into_one_bucket(self, report):
        first = make_step(body='{"msg": "cannot load group 17"}')
        second = make_step(body='{"msg": "cannot load group 23"}')
        _, new1 = report.bucket_error([first], KIND_RESPONSE_5XX, iteration=1, requests=3)
        record, new2 = report.bucket_error([second], KIND_RESPONSE_5XX, iteration=2, requests=9)
        assert new1 and not new2
        assert record.hits == 2
        assert (record.first_seen_iteration, record.first_seen_requests) == (1, 3)
        assert len(report) == 1

    def test_status_code_distinguishes_buckets(self, report):
        report.bucket_error([make_step(status=500)], KIND_RESPONSE_5XX, 1, 1)
        report.bucket_error([make_step(status=503)], KIND_RESPONSE_5XX, 1, 2)
        assert len(report) == 2

    def test_kind_distinguishes_buckets(self, report):
        report.bucket_error([make_step()], KIND_RESPONSE_5XX, 1, 1)
        report.bucket_error([make_step()], "incorrect_param_usage", 1, 2)
        assert len(report) == 2

    def test_replay_file_written_once(self, report, tmp_path):
        record, _ = report.bucket_error([make_step()], KIND_RESPONSE_5XX, 1, 1)
        report.bucket_error([make_step()], KIND_RESPONSE_5XX, 2, 4)
        replays = list((tmp_path / "replays").glob("*.jsonl"))
        assert [str(p) for p in replays] == [record.replay_path]
        (line,) = [json.loads(l) for l in Path(record.replay_path).read_text().splitlines()]
        assert line["expected_class"] == "5xx"
        assert line["method"] == "POST"
        assert "headers" not in line

    def test_errors_jsonl_round_trips(self, report, tmp_path):
        report.bucket_error([make_step()], KIND_RESPONSE_5XX, 7, 52)
        out = tmp_path / "errors.jsonl"
        with open(out, "w", encoding="utf-8") as fh:
            report.write_jsonl(fh)
        (entry,) = [json.loads(l) for l in out.read_text().splitlines()]
        assert entry["first_seen_iteration"] == 7
        assert entry["first_seen_requests"] == 52
        assert entry["kind"] == KIND_RESPONSE_5XX
        assert list(entry) == ["bucket_id", "template_id", "status", "kind", "signature",
                               "replay_path", "first_seen_iteration", "first_seen_requests",
                               "hits"]


    @pytest.mark.parametrize("templates", [("GET /groups/{id}", "GET /groups/id"),
                                           ("GET /a_b", "GET /a-b")],
                             ids=["placeholder", "punctuation"])
    def test_buckets_whose_ids_would_clash_keep_their_own_replays(self, tmp_path, templates):
        """Two templates with one slug and one body signature: two ids, two files."""
        paths = groups_paths()
        for path in ("/groups/id", "/a_b", "/a-b"):
            paths[path] = {"GET": {"parameters": []}}
        report = ErrorReport(parse_spec(build_spec(paths)), tmp_path)
        records = []
        for template_id in templates:
            step = make_step(template_id)
            step.rendered_params = {"id": "7"}
            records.append(report.bucket_error([step], KIND_RESPONSE_5XX, 1, 1)[0])
        first, second = records
        assert second.bucket_id == first.bucket_id + "-2"
        assert first.replay_path != second.replay_path
        for record in records:
            (line,) = load_replay(record.replay_path)
            assert line["template_id"] == record.template_id


class TestRunMetrics:
    def test_conservation_and_template_set(self):
        metrics = RunMetrics()
        metrics.observe("a", ResponseRecord.from_status(200))
        metrics.observe("a", ResponseRecord.from_status(200))
        metrics.observe("b", ResponseRecord.from_status(404))
        metrics.observe("c", ResponseRecord.transport())
        assert metrics.requests_sent == 4
        assert metrics.per_template_2xx == {"a"}

    def test_unique_templates_counts_types_not_hits(self):
        metrics = RunMetrics()
        for _ in range(1000):
            metrics.observe("a", ResponseRecord.from_status(201))
        assert metrics.to_json()["unique_request_templates"] == 1
        assert RunMetrics().to_json()["unique_request_templates"] == 0

    def test_median_executed_length(self):
        metrics = RunMetrics()
        for length, count in [(1, 5), (2, 1), (7, 4)]:
            for _ in range(count):
                metrics.note_executed_length(length)
        assert metrics.median_executed_length() == 1.0
        for _ in range(10):
            metrics.note_executed_length(7)
        assert metrics.median_executed_length() == 7.0
        assert RunMetrics().median_executed_length() is None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(histogram=st.dictionaries(st.integers(1, 40), st.integers(1, 50), min_size=1))
    def test_median_executed_length_is_median_low(self, histogram):
        metrics = RunMetrics(length_histogram=Counter(histogram))
        expected = statistics.median_low(Counter(histogram).elements())
        assert metrics.median_executed_length() == float(expected)

    def test_pass_rate_after_first_training_uses_tail_counts(self):
        metrics = RunMetrics()
        for _ in range(4):
            metrics.observe("a", ResponseRecord.from_status(400))
        metrics.note_first_training()
        for _ in range(6):
            metrics.observe("a", ResponseRecord.from_status(200))
        assert metrics.pass_rate() == pytest.approx(0.6)
        assert metrics.pass_rate_after_first_training() == pytest.approx(1.0)

    def test_json_shape(self):
        metrics = RunMetrics()
        metrics.observe("a", ResponseRecord.from_status(200))
        doc = metrics.to_json()
        assert doc["responses"]["2xx"] == 1
        assert doc["pass_rate"] == 1.0
        assert doc["pass_rate_after_first_training"] is None


class TestPassRateMonotonicity:
    @given(
        n2=st.integers(0, 300),
        n4=st.integers(0, 300),
        n5=st.integers(0, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_rejections_pull_down_passes_pull_up(self, n2, n4, n5):
        if n2 + n4 + n5 == 0:
            return
        base = pass_rate(counts(n2, n4, n5))
        plus_reject = pass_rate(counts(n2, n4 + 1, n5))
        if base > 0:
            assert plus_reject < base
        else:
            assert plus_reject == 0.0
        plus_pass = pass_rate(counts(n2 + 1, n4, n5))
        plus_error = pass_rate(counts(n2, n4, n5 + 1))
        if base < 1:
            assert plus_pass > base
            assert plus_error > base
        else:
            assert plus_pass == plus_error == 1.0


def producer_line(new_id, status=201):
    """A group create; the fake target answers it with ``status`` and ``new_id``.

    It carries the ``headers`` key older versions wrote, which replay ignores.
    """
    return {
        "template_id": "POST /groups", "method": "POST", "path_template": "/groups",
        "path_params": {}, "query": {},
        "body": {"new_id": str(new_id), "status": str(status)},
        "headers": {"X-Old": "1"}, "rebind": {},
        "produces": {"type": "group", "pointer": "/id"},
        "expected_class": "2xx",
    }


def consumer_line(recorded_id="7"):
    return {
        "template_id": "GET /groups/{id}", "method": "GET",
        "path_template": "/groups/{id}", "path_params": {"id": recorded_id},
        "query": {"with_projects": "true"}, "body": {},
        "rebind": {"id": "group"}, "produces": None, "expected_class": "2xx",
    }


class EchoTarget:
    """A fake client: creates answer with the status and id their body names."""

    def __init__(self):
        self.sent = []

    def send(self, request):
        self.sent.append(request)
        if request.method == "POST":
            body = json.dumps({"id": int(request.body["new_id"])})
            return ResponseRecord.from_status(int(request.body["status"]), body)
        return ResponseRecord.from_status(200, "{}")


class ScriptedTarget:
    """A fake client: answers each request with the next of ``records``."""

    def __init__(self, *records):
        self._records = iter(records)
        self.sent = []

    def send(self, request):
        self.sent.append(request)
        return next(self._records)


class TestRunReplay:
    def test_consumers_rebind_to_live_producer_ids(self):
        target = EchoTarget()
        observed = []
        lines = [consumer_line(), producer_line(40), consumer_line(),
                 producer_line(41, status=400), consumer_line()]
        steps = run_replay(lines, target,
                           lambda tid, record: observed.append((tid, record)))
        assert [r.path for r in target.sent if r.method == "GET"] == [
            "/groups/7", "/groups/40", "/groups/40",
        ]
        assert target.sent[1] == ReadyRequest(
            "POST", "/groups", body={"new_id": "40", "status": "201"})
        assert target.sent[2].query == {"with_projects": "true"}
        assert observed == [(step.template_id, step.response) for step in steps]
        assert [step.template_id for step in steps] == [line["template_id"] for line in lines]
        assert [step.request for step in steps] == target.sent
        assert steps[2].rendered_params == {"id": "40", "with_projects": "true"}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("create"), st.integers(1, 10**6), st.sampled_from([201, 400, 500])),
        st.tuples(st.just("read"), st.just(0), st.just(0)),
    ), max_size=12))
    def test_each_consumer_gets_the_latest_2xx_id(self, ops):
        lines, expected, latest = [], [], "7"
        for kind, new_id, status in ops:
            if kind == "create":
                lines.append(producer_line(new_id, status))
                if status == 201:
                    latest = str(new_id)
            else:
                lines.append(consumer_line())
                expected.append(f"/groups/{latest}")
        target = EchoTarget()
        steps = run_replay(lines, target)
        assert len(steps) == len(lines) == len(target.sent)
        assert [r.path for r in target.sent if r.method == "GET"] == expected

    def test_a_transport_outcome_ends_the_replay_after_its_step(self):
        """A consumer after a cut producer would reach the recorded id's object."""
        target = ScriptedTarget(ResponseRecord.from_status(201, '{"id": 40}'),
                                ResponseRecord.transport("connection reset"),
                                ResponseRecord.from_status(200, "{}"))
        lines = [producer_line(40), producer_line(41), consumer_line(), consumer_line()]
        steps = run_replay(lines, target)
        assert [step.response.klass for step in steps] == [
            ResponseClass.PASS_2XX, ResponseClass.TRANSPORT]
        assert [step.request for step in steps] == target.sent

    def test_a_path_value_that_holds_a_placeholder_is_sent_as_it_is(self):
        # The id recorded for the group holds the text of the next placeholder.
        line = {
            "template_id": "GET /groups/{id}/members/{user}", "method": "GET",
            "path_template": "/groups/{id}/members/{user}",
            "path_params": {"id": "{user}", "user": "7"},
            "query": {}, "body": {}, "rebind": {}, "produces": None,
        }
        target = EchoTarget()
        steps = run_replay([line], target)
        assert target.sent[0].path == "/groups/{user}/members/7"
        assert steps[0].rendered_params == {"id": "{user}", "user": "7"}
