from __future__ import annotations

import json

import numpy as np
import pytest

from restfuzz import orchestrator
from restfuzz.checkers import (
    KIND_INCORRECT_PARAM_USAGE,
    UafTarget,
    datadriven_check,
    uaf_plan,
    use_after_free_check,
)
from restfuzz.client import HttpClient, ReadyRequest
from restfuzz.collection import CollectionStore, ParamValuePair
from restfuzz.execution import send_step
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import ALL_BUGS, BugConfig, packaged_grammar_path, serve
from restfuzz.orchestrator import FuzzConfig, Fuzzer, fuzz_loop
from restfuzz.rendering import note_produced_id, render_with_list
from restfuzz.reporting import ErrorReport, load_replay
from restfuzz.responses import ResponseClass, ResponseRecord

from conftest import build_spec


@pytest.fixture(scope="module")
def armed():
    handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
    client = HttpClient(handle.base_url)
    yield client
    client.close()
    handle.stop()


@pytest.fixture(scope="module")
def disarmed():
    handle = serve(0, BugConfig())
    client = HttpClient(handle.base_url)
    yield client
    client.close()
    handle.stop()


@pytest.fixture(autouse=True)
def reset(request):
    for name in ("armed", "disarmed"):
        if name in request.fixturenames:
            request.getfixturevalue(name).send(ReadyRequest("POST", "/__reset"))


def execute_recorded(steps, grammar, client, store):
    """Run (template id, overrides) steps through the main loop's send path; return the steps."""
    pool: dict[str, str] = {}
    executed = []
    for template_id, overrides in steps:
        template = grammar.templates[template_id]
        pairs = tuple(ParamValuePair(*item) for item in overrides.items())
        step = send_step(render_with_list(template, pairs, pool), client, store)
        executed.append(step)
        note_produced_id(pool, template.produces, step.response)
    return executed


def execute_defaults(template_ids, grammar, client):
    """Run a sequence rendered entirely with default values."""
    return execute_recorded([(t, {}) for t in template_ids], grammar, client, None)


class RecordingClient:
    """Passes requests through to a real client and keeps what was sent."""

    def __init__(self, client):
        self._client = client
        self.sent = []

    def send(self, request):
        record = self._client.send(request)
        self.sent.append((request, record))
        return record


NON_DEFAULT_GROUP = [
    ("POST /groups", {"name": "qa-team", "path": "ops", "initialize_with_readme": "true"}),
    ("PUT /groups/{id}", {"description": "beta"}),
]


README = ParamValuePair("initialize_with_readme", "true")
# The pairs the main loop hands the checker for a run that ends in PUT /groups/{id}
# or GET /groups once a 2xx POST /groups sent README: neither template defines it.
UNDEFINED = (README,)


class TestDataDrivenChecker:
    def test_armed_bug_yields_violation(self, mock_grammar, armed, rng):
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, armed)
        assert executed[-1].response.status == 200
        violation = datadriven_check(executed, UNDEFINED, mock_grammar, rng, armed, set())
        # a finding is the replayed steps, the offending reply last
        assert [step.template_id for step in violation] == ["POST /groups", "PUT /groups/{id}"]
        # the PUT defines no initialize_with_readme: the drawn pair, injected
        assert violation[-1].request.body["initialize_with_readme"] == "true"
        assert violation[-1].response.status == 500

    def test_disarmed_bug_is_ignored(self, mock_grammar, disarmed, rng):
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, disarmed)
        assert datadriven_check(executed, UNDEFINED, mock_grammar, rng, disarmed, set()) is None

    def test_empty_pair_store_is_a_noop(self, mock_grammar, disarmed, rng):
        executed = execute_defaults(["POST /groups"], mock_grammar, disarmed)
        sent = []
        violation = datadriven_check(
            executed, (), mock_grammar, rng, disarmed, set(),
            observe=lambda tid, record: sent.append(tid),
        )
        assert violation is None
        assert sent == []  # nothing was re-sent

    def test_injection_changes_exactly_one_request(self, mock_grammar, armed, rng):
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, armed)
        violation = datadriven_check(executed, UNDEFINED, mock_grammar, rng, armed, set())
        assert violation is not None
        # every request before the last is byte-identical
        for original, replayed in zip(executed[:-1], violation[:-1]):
            assert original.request == replayed.request
        original_last = executed[-1].request
        injected_last = violation[-1].request
        replayed_id = json.loads(violation[0].response.body)["id"]
        assert injected_last.method == original_last.method
        assert injected_last.path == f"/groups/{replayed_id}"
        assert injected_last.query == original_last.query
        extra = set(injected_last.body) - set(original_last.body)
        assert extra == {"initialize_with_readme"}
        for key in original_last.body:
            assert injected_last.body[key] == original_last.body[key]

    def test_violation_holds_what_its_replay_sent(self, mock_grammar, armed, rng, tmp_path):
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, armed)
        original_id = json.loads(executed[0].response.body)["id"]
        violation = datadriven_check(executed, UNDEFINED, mock_grammar, rng, armed, set())
        assert violation is not None
        replayed_id = json.loads(violation[0].response.body)["id"]
        assert replayed_id != original_id
        injected = violation[-1]
        assert injected.request.path == f"/groups/{replayed_id}"
        assert injected.rendered_params["id"] == str(replayed_id)
        assert injected.rendered_params["initialize_with_readme"] == "true"

        report = ErrorReport(mock_grammar, tmp_path)
        record, is_new = report.bucket_error(violation, KIND_INCORRECT_PARAM_USAGE, 1, 2)
        assert is_new
        lines = load_replay(record.replay_path)
        assert lines[-1]["path_params"] == {"id": str(replayed_id)}
        assert lines[-1]["body"]["initialize_with_readme"] == "true"
        assert [line["expected_status"] for line in lines] == [201, 500]

    def test_injected_param_is_never_defined_on_last_template(self, mock_grammar, armed, rng):
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, armed)
        violation = datadriven_check(executed, UNDEFINED, mock_grammar, rng, armed, set())
        defined = mock_grammar.templates["PUT /groups/{id}"].param_names
        (injected,) = set(violation[-1].request.body) - set(executed[-1].request.body)
        assert injected not in defined

    def test_get_request_gets_query_injection(self, mock_grammar, disarmed, rng):
        executed = execute_defaults(["GET /groups"], mock_grammar, disarmed)
        observed = []
        datadriven_check(
            executed, UNDEFINED, mock_grammar, rng, disarmed, set(),
            observe=lambda tid, record: observed.append(tid),
        )
        assert observed == ["GET /groups"]

    def test_replay_adds_no_training_data(self, mock_grammar, disarmed, rng):
        store = CollectionStore(mock_grammar)
        executed = execute_recorded(NON_DEFAULT_GROUP, mock_grammar, disarmed, store)
        assert [step.response.klass for step in executed] == [ResponseClass.PASS_2XX] * 2
        corpus = store.training_corpus(since=-1)
        pairs = store.pair_observations()
        undefined = store.undefined_pairs_for("PUT /groups/{id}")
        assert corpus and undefined

        sent = []
        datadriven_check(executed, undefined, mock_grammar, rng, disarmed, set(),
                         observe=lambda tid, record: sent.append(tid))
        assert sent == ["POST /groups", "PUT /groups/{id}"]
        assert store.training_corpus(since=-1) == corpus
        assert store.pair_observations() == pairs

    def test_injected_request_targets_the_replayed_object(self, mock_grammar, disarmed, rng):
        store = CollectionStore(mock_grammar)
        executed = execute_recorded(NON_DEFAULT_GROUP, mock_grammar, disarmed, store)
        original_id = json.loads(executed[0].response.body)["id"]

        client = RecordingClient(disarmed)
        undefined = store.undefined_pairs_for("PUT /groups/{id}")
        datadriven_check(executed, undefined, mock_grammar, rng, client, set())
        (create, created), (injected, _) = client.sent
        replayed_id = json.loads(created.body)["id"]
        assert create.body == executed[0].request.body
        assert replayed_id != original_id
        assert injected.path == f"/groups/{replayed_id}"


class AnsweringClient:
    """Answers every request with one fixed record and counts what it was sent."""

    def __init__(self, record):
        self.record = record
        self.sent = 0

    def send(self, request):
        self.sent += 1
        return self.record


GROUP_AND_PUT = ("POST /groups", "PUT /groups/{id}")


class TestDataDrivenMemo:
    """Each (template ids, pair) key is replayed once."""

    @pytest.fixture
    def executed(self, mock_grammar, disarmed):
        return execute_defaults(list(GROUP_AND_PUT), mock_grammar, disarmed)

    def test_a_repeated_key_sends_nothing(self, mock_grammar, disarmed, executed, rng):
        replayed = set()
        client = RecordingClient(disarmed)
        datadriven_check(executed, UNDEFINED, mock_grammar, rng, client, replayed)
        assert len(client.sent) == 2 and replayed == {(GROUP_AND_PUT, README)}
        assert datadriven_check(executed, UNDEFINED, mock_grammar, rng, client, replayed) is None
        assert len(client.sent) == 2

    @pytest.mark.parametrize("recorded", [
        (GROUP_AND_PUT, ParamValuePair("initialize_with_readme", "false")),
        (("POST /groups",) + GROUP_AND_PUT, README),
    ], ids=["same-sequence-other-pair", "other-sequence-same-pair"])
    def test_a_key_that_differs_in_either_part_is_replayed(
        self, mock_grammar, disarmed, executed, rng, recorded
    ):
        replayed = {recorded}
        client = RecordingClient(disarmed)
        datadriven_check(executed, UNDEFINED, mock_grammar, rng, client, replayed)
        assert len(client.sent) == 2
        assert replayed == {recorded, (GROUP_AND_PUT, README)}

    @pytest.mark.parametrize("record", [
        ResponseRecord.from_status(400, '{"message": "bad"}'),
        ResponseRecord.transport("connection refused"),
    ], ids=["4xx", "transport"])
    def test_a_key_stays_recorded_whatever_its_replay_got(
        self, mock_grammar, executed, rng, record
    ):
        replayed = set()
        client = AnsweringClient(record)
        assert datadriven_check(executed, UNDEFINED, mock_grammar, rng, client, replayed) is None
        assert client.sent == 2 and replayed == {(GROUP_AND_PUT, README)}
        datadriven_check(executed, UNDEFINED, mock_grammar, rng, client, replayed)
        assert client.sent == 2

    def test_a_skipped_key_draws_from_the_rng_as_a_replay_does(
        self, mock_grammar, disarmed, executed
    ):
        internal = ParamValuePair("visibility", "internal")
        candidates = (README, internal)  # two: a draw takes bits
        replaying, skipping = np.random.default_rng(7), np.random.default_rng(7)
        datadriven_check(executed, candidates, mock_grammar, replaying, disarmed, set())
        client = AnsweringClient(ResponseRecord.transport())
        datadriven_check(executed, candidates, mock_grammar, skipping, client,
                         {(GROUP_AND_PUT, README), (GROUP_AND_PUT, internal)})
        assert client.sent == 0
        assert skipping.bit_generator.state == replaying.bit_generator.state
        assert skipping.random() == replaying.random()


class TestUndefinedParameterPanel:
    def test_miner_reaches_b_undef_on_most_of_five_seeds(self, mock_grammar):
        """The paper's full pipeline on seeds 0-4, the mock reset between them.

        ``b-undef`` answers an undefined ``initialize_with_readme`` on
        ``PUT /groups/{id}`` with a 500, which only the data-driven checker
        sends.  Seeds 0, 2 and 3 reach it; a checker that spends its rare
        whole runs ending in that template on repeated keys reaches it on
        seed 0 alone.
        """
        reached = {}
        handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
        try:
            for seed in range(5):
                with HttpClient(handle.base_url) as client:
                    client.send(ReadyRequest("POST", "/__reset"))
                fuzzer = Fuzzer(FuzzConfig(
                    target=handle.base_url, mode="miner", max_requests=6000, seed=seed,
                    train_every_requests=2000,
                    enable_uaf_checker=True, enable_datadriven_checker=True,
                ), mock_grammar)
                fuzzer.run()
                reached.update(
                    (seed, record.first_seen_requests) for record in fuzzer.errors.records()
                    if (record.template_id, record.status, record.kind)
                    == ("PUT /groups/{id}", 500, KIND_INCORRECT_PARAM_USAGE)
                )
        finally:
            handle.stop()
        assert len(reached) >= 3, f"seed -> requests at first b-undef: {reached}"


def grammar_with_bad_names():
    """The mock grammar with defaults that fail the target's validation."""
    doc = json.loads(packaged_grammar_path().read_bytes())
    for operations in doc["paths"].values():
        for entry in operations.values():
            for param in entry["parameters"]:
                if param["name"] == "name":
                    param["x-dictionary"] = ["Bad Name!"]
                    param["x-default"] = "Bad Name!"
    return parse_spec(json.dumps(doc).encode())


def grammar_with_nested_projects():
    """Groups as in the mock, plus projects that can only be created inside a group."""
    group_id = {"name": "id", "in": "path", "type": "integer", "x-consumes": "group"}
    project_id = {"name": "pid", "in": "path", "type": "integer", "x-consumes": "project"}
    return parse_spec(build_spec({
        "/groups": {"POST": {"parameters": [], "x-produces": {"type": "group", "pointer": "/id"}}},
        "/groups/{id}": {"GET": {"parameters": [group_id]},
                         "DELETE": {"parameters": [group_id]}},
        "/groups/{id}/projects": {"POST": {
            "parameters": [group_id], "x-produces": {"type": "project", "pointer": "/id"},
        }},
        "/groups/{id}/projects/{pid}": {"GET": {"parameters": [group_id, project_id]}},
        "/projects/{pid}": {"GET": {"parameters": [project_id]},
                            "DELETE": {"parameters": [project_id]}},
    }))


class StubClient:
    """Answers a create with 201 and a new id, a delete with 204, anything else with 404."""

    def __init__(self):
        self.sent = []

    def send(self, request):
        self.sent.append(request)
        if request.method == "POST":
            return ResponseRecord.from_status(201, json.dumps({"id": len(self.sent)}))
        return ResponseRecord.from_status(204 if request.method == "DELETE" else 404)


class TestUseAfterFreePlan:
    def test_packaged_grammar_plans_groups_and_projects(self, mock_grammar):
        templates = mock_grammar.templates
        assert uaf_plan(mock_grammar) == tuple(
            UafTarget(
                resource_type,
                templates[f"POST /{collection}"],
                templates[f"DELETE /{collection}/{{id}}"],
                (templates[f"GET /{collection}/{{id}}"],
                 templates[f"GET /{collection}/{{id}}/attributes"]),
            )
            for resource_type, collection in (("group", "groups"), ("project", "projects"))
        )

    def test_type_whose_create_consumes_another_type_is_left_out(self):
        grammar = grammar_with_nested_projects()
        plan = uaf_plan(grammar)
        assert [target.resource_type for target in plan] == ["group"]
        # the GET that also needs a project id is no access of a group
        assert [t.template_id for t in plan[0].accesses] == ["GET /groups/{id}"]

        client = StubClient()
        assert use_after_free_check(plan, client) is None
        assert [(r.method, r.path) for r in client.sent] == [
            ("POST", "/groups"), ("DELETE", "/groups/1"), ("GET", "/groups/1"),
        ]


class TestUseAfterFreeChecker:
    def test_armed_bug_detected(self, mock_grammar, armed):
        violation = use_after_free_check(uaf_plan(mock_grammar), armed)
        assert violation is not None
        assert violation[-1].response.status == 500
        assert mock_grammar.templates[violation[0].template_id].produces[0] == "group"
        assert [step.template_id for step in violation] == [
            "POST /groups",
            "DELETE /groups/{id}",
            "GET /groups/{id}/attributes",
        ]

    def test_disarmed_service_is_clean(self, mock_grammar, disarmed):
        assert use_after_free_check(uaf_plan(mock_grammar), disarmed) is None

    def test_failed_create_skips_its_type(self, armed):
        # Both creates are refused (400), so neither type is deleted or read.
        client = RecordingClient(armed)
        assert use_after_free_check(uaf_plan(grammar_with_bad_names()), client) is None
        assert [(request.path, record.status) for request, record in client.sent] == [
            ("/groups", 400), ("/projects", 400),
        ]

    def test_probe_cut_short_is_no_verdict(self, mock_grammar, armed):
        client = RecordingClient(armed)
        violation = use_after_free_check(
            uaf_plan(mock_grammar), client, should_stop=lambda: len(client.sent) >= 2
        )
        assert violation is None
        assert [request.method for request, _ in client.sent] == ["POST", "DELETE"]

    def test_probe_cut_short_after_a_failed_create_is_no_verdict(self, armed):
        client = RecordingClient(armed)
        violation = use_after_free_check(
            uaf_plan(grammar_with_bad_names()), client,
            should_stop=lambda: len(client.sent) >= 1,
        )
        assert violation is None
        assert len(client.sent) == 1

    def test_transport_failure_is_no_verdict(self, mock_grammar, disarmed):
        class DroppingClient:
            def send(self, request):
                if request.method == "GET" and request.path.endswith("/attributes"):
                    return ResponseRecord.transport("connection reset")
                return disarmed.send(request)

        assert use_after_free_check(uaf_plan(mock_grammar), DroppingClient()) is None


class TestCheckerTraffic:
    def test_only_main_loop_requests_reach_the_store(self, mock_grammar, monkeypatch):
        main_loop_sends = []
        recorded = []
        execute_candidate = orchestrator.execute_candidate
        record_request_outcome = CollectionStore.record_request_outcome

        def counting_execute(*args, **kwargs):
            steps = execute_candidate(*args, **kwargs)
            main_loop_sends.append(len(steps))
            return steps

        def counting_record(store, *args):
            recorded.append(args[0])
            return record_request_outcome(store, *args)

        monkeypatch.setattr(orchestrator, "execute_candidate", counting_execute)
        monkeypatch.setattr(CollectionStore, "record_request_outcome", counting_record)
        handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
        try:
            config = FuzzConfig(
                target=handle.base_url, mode="seq-only", max_requests=600, seed=0,
                enable_uaf_checker=True, enable_datadriven_checker=True,
            )
            metrics = fuzz_loop(config, mock_grammar)
        finally:
            handle.stop()
        assert len(recorded) == sum(main_loop_sends) < metrics.requests_sent

    def test_only_whole_runs_are_replayed(self, mock_grammar, monkeypatch):
        runs, replayed = [], []
        execute_candidate = orchestrator.execute_candidate
        datadriven = orchestrator.datadriven_check

        def noting_execute(candidate, *args, **kwargs):
            steps = execute_candidate(candidate, *args, **kwargs)
            runs.append((len(steps) == len(candidate), steps))
            return steps

        def noting_check(steps, *args, **kwargs):
            replayed.append(steps)
            return datadriven(steps, *args, **kwargs)

        monkeypatch.setattr(orchestrator, "execute_candidate", noting_execute)
        monkeypatch.setattr(orchestrator, "datadriven_check", noting_check)
        handle = serve(0, BugConfig(frozenset(ALL_BUGS)))
        try:
            fuzz_loop(FuzzConfig(
                target=handle.base_url, mode="seq-only", max_requests=600, seed=0,
                enable_datadriven_checker=True,
            ), mock_grammar)
        finally:
            handle.stop()
        whole = [steps for is_whole, steps in runs if is_whole]
        assert len(whole) < len(runs), "no run was cut short"
        assert replayed and all(any(steps is run for run in whole) for steps in replayed)
