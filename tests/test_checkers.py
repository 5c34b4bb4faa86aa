from __future__ import annotations

import json

import pytest

from restfuzz import orchestrator
from restfuzz.checkers import (
    KIND_INCORRECT_PARAM_USAGE,
    KIND_USE_AFTER_FREE,
    UafTarget,
    datadriven_check,
    uaf_plan,
    use_after_free_check,
)
from restfuzz.client import HttpClient
from restfuzz.collection import CollectionStore, ParamValuePair
from restfuzz.execution import ExecutedSequence, send_step
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import ALL_BUGS, BugConfig, packaged_grammar_path, serve
from restfuzz.orchestrator import FuzzConfig, fuzz_loop
from restfuzz.rendering import read_produced_id, render_with_list
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
    from restfuzz.rendering import ReadyRequest

    for name in ("armed", "disarmed"):
        if name in request.fixturenames:
            request.getfixturevalue(name).send(ReadyRequest("POST", "/__reset"))


def execute_recorded(steps, grammar, client, store):
    """Run (template id, overrides) steps through the main loop's send path."""
    pool: dict[str, str] = {}
    executed = []
    for template_id, overrides in steps:
        template = grammar.templates[template_id]
        pairs = tuple(ParamValuePair(*item) for item in overrides.items())
        step = send_step(render_with_list(template, pairs, pool), client, store)
        executed.append(step)
        if step.response.klass is ResponseClass.PASS_2XX and template.produces:
            resource_type, pointer = template.produces
            value = read_produced_id(step.response.body, pointer)
            if value is not None:
                pool[resource_type] = value
    return ExecutedSequence(tuple(t for t, _ in steps), executed, completed=True)


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


def store_with_undef_pair(grammar):
    """A store holding exactly one pair, undefined for the PUT template."""
    store = CollectionStore(grammar)
    store.record_request_outcome(
        "POST /groups",
        {"name": "dev-team", "path": "eng", "parent_id": "0",
         "visibility": "private", "initialize_with_readme": "true"},
        ResponseClass.PASS_2XX,
    )
    return store


class TestDataDrivenChecker:
    def test_armed_bug_yields_violation(self, mock_grammar, armed, rng):
        store = store_with_undef_pair(mock_grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, armed)
        assert executed.steps[-1].response.status == 200
        violation = datadriven_check(executed, mock_grammar, store, rng, armed)
        assert violation is not None
        assert violation.kind == KIND_INCORRECT_PARAM_USAGE
        # the PUT defines no initialize_with_readme: the drawn pair, injected
        assert violation.steps[-1].request.body["initialize_with_readme"] == "true"
        assert violation.steps[violation.offending_index].response.status == 500

    def test_disarmed_bug_is_ignored(self, mock_grammar, disarmed, rng):
        store = store_with_undef_pair(mock_grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, disarmed)
        assert datadriven_check(executed, mock_grammar, store, rng, disarmed) is None

    def test_empty_pair_store_is_a_noop(self, mock_grammar, disarmed, rng):
        executed = execute_defaults(["POST /groups"], mock_grammar, disarmed)
        sent = []
        violation = datadriven_check(
            executed, mock_grammar, CollectionStore(mock_grammar), rng, disarmed,
            observe=lambda tid, record: sent.append(tid),
        )
        assert violation is None
        assert sent == []  # nothing was re-sent

    def test_injection_changes_exactly_one_request(self, mock_grammar, armed, rng):
        store = store_with_undef_pair(mock_grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, armed)
        violation = datadriven_check(executed, mock_grammar, store, rng, armed)
        assert violation is not None
        # every request before the last is byte-identical
        for original, replayed in zip(executed.steps[:-1], violation.steps[:-1]):
            assert original.request == replayed.request
        original_last = executed.steps[-1].request
        injected_last = violation.steps[-1].request
        assert injected_last.method == original_last.method
        assert injected_last.path == original_last.path
        assert injected_last.query == original_last.query
        extra = set(injected_last.body) - set(original_last.body)
        assert extra == {"initialize_with_readme"}
        for key in original_last.body:
            assert injected_last.body[key] == original_last.body[key]

    def test_injected_param_is_never_defined_on_last_template(self, mock_grammar, armed, rng):
        store = store_with_undef_pair(mock_grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], mock_grammar, armed)
        violation = datadriven_check(executed, mock_grammar, store, rng, armed)
        defined = mock_grammar.templates["PUT /groups/{id}"].param_names
        (injected,) = set(violation.steps[-1].request.body) - set(executed.steps[-1].request.body)
        assert injected not in defined

    def test_get_request_gets_query_injection(self, mock_grammar, disarmed, rng):
        store = store_with_undef_pair(mock_grammar)
        executed = execute_defaults(["GET /groups"], mock_grammar, disarmed)
        observed = []
        datadriven_check(
            executed, mock_grammar, store, rng, disarmed,
            observe=lambda tid, record: observed.append(tid),
        )
        assert observed == ["GET /groups"]

    def test_replay_adds_no_training_data(self, mock_grammar, disarmed, rng):
        store = CollectionStore(mock_grammar)
        executed = execute_recorded(NON_DEFAULT_GROUP, mock_grammar, disarmed, store)
        assert executed.response_classes == [ResponseClass.PASS_2XX] * 2
        corpus = store.training_corpus(since=-1)
        pairs = store.pair_observations()
        assert corpus and store.undefined_pairs_for("PUT /groups/{id}")

        sent = []
        datadriven_check(executed, mock_grammar, store, rng, disarmed,
                         observe=lambda tid, record: sent.append(tid))
        assert sent == ["POST /groups", "PUT /groups/{id}"]
        assert store.training_corpus(since=-1) == corpus
        assert store.pair_observations() == pairs

    def test_injected_request_targets_the_replayed_object(self, mock_grammar, disarmed, rng):
        store = CollectionStore(mock_grammar)
        executed = execute_recorded(NON_DEFAULT_GROUP, mock_grammar, disarmed, store)
        original_id = json.loads(executed.steps[0].response.body)["id"]

        client = RecordingClient(disarmed)
        datadriven_check(executed, mock_grammar, store, rng, client)
        (create, created), (injected, _) = client.sent
        replayed_id = json.loads(created.body)["id"]
        assert create.body == executed.steps[0].request.body
        assert replayed_id != original_id
        assert injected.path == f"/groups/{replayed_id}"


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
        assert violation.kind == KIND_USE_AFTER_FREE
        assert violation.steps[violation.offending_index].response.status == 500
        assert mock_grammar.templates[violation.steps[0].template_id].produces[0] == "group"
        assert [step.template_id for step in violation.steps] == [
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
            executed = execute_candidate(*args, **kwargs)
            main_loop_sends.append(executed.sent)
            return executed

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
