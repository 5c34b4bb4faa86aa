from __future__ import annotations

import json

import pytest

from restfuzz.checkers import (
    KIND_INCORRECT_PARAM_USAGE,
    KIND_USE_AFTER_FREE,
    SetupFailed,
    datadriven_check,
    use_after_free_check,
)
from restfuzz.client import HttpClient
from restfuzz.collection import CollectionStore
from restfuzz.execution import ExecutedSequence, ExecutedStep
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import (
    ALL_BUGS,
    BugConfig,
    mock_grammar_bytes,
    serve,
)
from restfuzz.rendering import ObjectIdPool, ParamValueList, render_with_list
from restfuzz.responses import ResponseClass


@pytest.fixture(scope="module")
def grammar():
    return parse_spec(mock_grammar_bytes())


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


def execute_defaults(template_ids, grammar, client):
    """Run a sequence rendered entirely with default values."""
    pool = ObjectIdPool()
    steps = []
    for position, template_id in enumerate(template_ids):
        template = grammar.templates[template_id]
        rendered = render_with_list(
            template, ParamValueList(template_id, ()), pool
        )
        record = client.send(rendered.request)
        steps.append(
            ExecutedStep(position, template_id, rendered.request,
                         rendered.rendered_params, rendered.defaults,
                         rendered.consumer_bindings, record)
        )
        if record.klass is ResponseClass.PASS_2XX and template.produces:
            body = json.loads(record.body)
            pool.add(template.produces[0], str(body["id"]))
    return ExecutedSequence(tuple(template_ids), steps, completed=True)


def store_with_undef_pair(grammar):
    """A store holding exactly one pair, undefined for the PUT template."""
    store = CollectionStore(grammar)
    store.record_request_outcome(
        "POST /groups",
        {"name": "dev-team", "path": "eng", "parent_id": "0",
         "visibility": "private", "initialize_with_readme": "true"},
        grammar.templates["POST /groups"].defaults(),
        ResponseClass.PASS_2XX,
    )
    return store


class TestDataDrivenChecker:
    def test_armed_bug_yields_violation(self, grammar, armed, rng):
        store = store_with_undef_pair(grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], grammar, armed)
        assert executed.steps[-1].response.status == 200
        violation = datadriven_check(executed, grammar, store, rng, armed)
        assert violation is not None
        assert violation.kind == KIND_INCORRECT_PARAM_USAGE
        assert violation.injected_pair.param_name == "initialize_with_readme"
        assert violation.response.status == 500

    def test_disarmed_bug_is_ignored(self, grammar, disarmed, rng):
        store = store_with_undef_pair(grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], grammar, disarmed)
        assert datadriven_check(executed, grammar, store, rng, disarmed) is None

    def test_empty_pair_store_is_a_noop(self, grammar, disarmed, rng):
        executed = execute_defaults(["POST /groups"], grammar, disarmed)
        sent = []
        violation = datadriven_check(
            executed, grammar, CollectionStore(grammar), rng, disarmed,
            observe=lambda tid, record: sent.append(tid),
        )
        assert violation is None
        assert sent == []  # nothing was re-sent

    def test_injection_changes_exactly_one_request(self, grammar, armed, rng):
        store = store_with_undef_pair(grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], grammar, armed)
        violation = datadriven_check(executed, grammar, store, rng, armed)
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

    def test_injected_param_is_never_defined_on_last_template(self, grammar, armed, rng):
        store = store_with_undef_pair(grammar)
        executed = execute_defaults(["POST /groups", "PUT /groups/{id}"], grammar, armed)
        violation = datadriven_check(executed, grammar, store, rng, armed)
        defined = grammar.templates["PUT /groups/{id}"].param_names
        assert violation.injected_pair.param_name not in defined

    def test_get_request_gets_query_injection(self, grammar, disarmed, rng):
        store = store_with_undef_pair(grammar)
        executed = execute_defaults(["GET /groups"], grammar, disarmed)
        observed = []
        datadriven_check(
            executed, grammar, store, rng, disarmed,
            observe=lambda tid, record: observed.append(tid),
        )
        assert observed == ["GET /groups"]


class TestUseAfterFreeChecker:
    def test_armed_bug_detected(self, grammar, armed):
        violation = use_after_free_check(grammar, armed)
        assert violation is not None
        assert violation.kind == KIND_USE_AFTER_FREE
        assert violation.response.status == 500
        assert violation.deleted_resource[0] == "group"
        assert [step.template_id for step in violation.steps] == [
            "POST /groups",
            "DELETE /groups/{id}",
            "GET /groups/{id}/attributes",
        ]

    def test_disarmed_service_is_clean(self, grammar, disarmed):
        assert use_after_free_check(grammar, disarmed) is None

    def test_failed_create_is_setup_failure(self, disarmed):
        # defaults in this grammar variant fail the target's validation
        doc = json.loads(mock_grammar_bytes())
        for operations in doc["paths"].values():
            for entry in operations.values():
                for param in entry["parameters"]:
                    if param["name"] == "name":
                        param["x-dictionary"] = ["Bad Name!"]
                        param["x-default"] = "Bad Name!"
        broken = parse_spec(json.dumps(doc).encode())
        with pytest.raises(SetupFailed):
            use_after_free_check(broken, disarmed)

    def test_checker_traffic_flows_through_standard_recording(self, grammar, disarmed):
        store = CollectionStore(grammar)
        use_after_free_check(grammar, disarmed, store=store)
        # default-valued setup requests carry no non-default mutations
        assert store.pair_observations() == []
