from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from restfuzz.collection import CollectionStore, ParamValuePair
from restfuzz.grammar import parse_spec
from restfuzz.rendering import (
    MissingProducerId,
    RenderMode,
    note_produced_id,
    read_produced_id,
    render_sequence,
    render_traditional,
    render_with_list,
    resolve_consumer,
)
from restfuzz.responses import ResponseRecord

from conftest import build_spec, groups_paths

GET_ID = "GET /groups/{id}"
POST = "POST /groups"


def members_paths() -> dict:
    """A template whose path consumes two types, and a producer of each."""
    def producer(resource_type):
        return {"POST": {"parameters": [], "x-produces": {"type": resource_type, "pointer": "/id"}}}

    def member_id(name, resource_type):
        return {"name": name, "in": "path", "type": "integer", "required": True,
                "x-consumes": resource_type}

    return {
        "/groups": producer("group"),
        "/users": producer("user"),
        "/groups/{id}/members/{user}": {
            "GET": {"parameters": [member_id("id", "group"), member_id("user", "user")]}
        },
    }


class LoggingRng:
    """An rng that logs the bound of each ``integers`` draw and passes it on."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bounds = []

    def integers(self, bound):
        self.bounds.append(bound)
        return self._rng.integers(bound)


@pytest.fixture
def get_template(two_template_grammar):
    return two_template_grammar.templates[GET_ID]


@pytest.fixture
def pool_with_group():
    return {"group": "7"}


class TestRenderTraditional:
    def test_values_come_from_dictionaries(self, get_template, pool_with_group, rng):
        step = render_traditional(get_template, pool_with_group, rng)
        assert step.request.path == "/groups/7"
        assert step.request.query["with_projects"] in {"3", "true", "false"}
        assert step.request.query["with_custom_attributes"] in {"true", "false"}
        assert step.request.body == {}

    def test_no_params_renders_empty_request(self, two_template_grammar, rng):
        import dataclasses

        post = two_template_grammar.templates[POST]
        bare = dataclasses.replace(post, params=())
        step = render_traditional(bare, {}, rng)
        assert step.request.query == {} and step.request.body == {}

    def test_missing_producer_id_raises(self, get_template, rng):
        with pytest.raises(MissingProducerId):
            render_traditional(get_template, {}, rng)

    def test_a_path_value_that_holds_a_placeholder_is_sent_as_it_is(self):
        grammar = parse_spec(build_spec(members_paths()))
        template = grammar.templates["GET /groups/{id}/members/{user}"]
        pool = {"group": "{user}", "user": "7"}
        step = render_traditional(template, pool, np.random.default_rng(0))
        assert step.request.path == "/groups/{user}/members/7"
        assert step.rendered_params == {"id": "{user}", "user": "7"}
        assert render_with_list(template, (), pool).request.path == "/groups/{user}/members/7"

    def test_replay_is_byte_identical_under_same_seed(self, get_template, pool_with_group):
        first = render_traditional(get_template, pool_with_group, np.random.default_rng(3))
        second = render_traditional(get_template, pool_with_group, np.random.default_rng(3))
        assert first.request == second.request


class TestDrawOrder:
    """Rendering's draws from the rng: which, how many and in what order."""

    def test_one_draw_per_non_consumer_parameter_in_template_order(self, mock_grammar):
        for template in mock_grammar.templates.values():
            pool = {resource_type: "7" for resource_type in template.consumed_types}
            rng = LoggingRng(0)
            render_traditional(template, pool, rng)
            assert rng.bounds == [
                len(spec.dictionary) for spec in template.params if spec.consumes is None
            ], template.template_id

    def test_a_missing_id_raises_after_the_draws_ahead_of_its_consumer(self):
        paths = groups_paths()
        get = paths["/groups/{id}"]["GET"]
        # The consumer between two queries: one draw before it, none after.
        get["parameters"].insert(1, get["parameters"].pop(0))
        template = parse_spec(build_spec(paths)).templates[GET_ID]
        assert [spec.name for spec in template.params][1] == "id"
        rng = LoggingRng(0)
        with pytest.raises(MissingProducerId):
            render_traditional(template, {}, rng)
        assert rng.bounds == [2]  # with_custom_attributes' dictionary only

    def test_a_list_draws_nothing(self, mock_grammar):
        """A position rendered from a list draws once, to choose the list, and no more."""
        lists = ((), (), ())
        for template in mock_grammar.templates.values():
            pool = {resource_type: "7" for resource_type in template.consumed_types}
            rng = LoggingRng(0)
            steps = render_sequence([template.template_id] * 2, mock_grammar,
                                    {template.template_id: lists}, RenderMode.MODEL, rng, pool)
            assert next(steps) == render_with_list(template, (), pool)
            assert rng.bounds == [len(lists)], template.template_id


class TestRenderWithList:
    def test_defaults_plus_overrides(self, get_template, pool_with_group):
        pairs = (ParamValuePair("with_projects", "false"),)
        step = render_with_list(get_template, pairs, pool_with_group)
        assert step.request.query == {
            "with_custom_attributes": "false",
            "with_projects": "false",
        }

    def test_empty_list_means_all_defaults(self, get_template, pool_with_group):
        step = render_with_list(get_template, (), pool_with_group)
        assert step.request.query == {
            "with_custom_attributes": "false",
            "with_projects": "true",
        }

    def test_full_override_uses_list_values_exactly(self, get_template, pool_with_group):
        pairs = (
            ParamValuePair("with_custom_attributes", "true"),
            ParamValuePair("with_projects", "3"),
        )
        step = render_with_list(get_template, pairs, pool_with_group)
        assert step.request.query == {
            "with_custom_attributes": "true",
            "with_projects": "3",
        }


class TestChooseList:
    """How ``render_sequence`` chooses a list for a position before the last."""

    def test_uniform_over_lists(self, two_template_grammar, rng):
        lists = {POST: [(ParamValuePair("name", str(i)),) for i in range(4)]}
        counts = Counter(
            next(render_sequence([POST, POST], two_template_grammar, lists,
                                 RenderMode.MODEL, rng, {})).request.body["name"]
            for _ in range(100_000)
        )
        for value in counts:
            assert counts[value] / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_single_list_always_chosen(self, two_template_grammar):
        lists = {POST: [(ParamValuePair("name", "qa-team"),)]}
        for mode in (RenderMode.MODEL, RenderMode.REC1, RenderMode.RECLIST):
            for seed in range(20):
                gen = render_sequence([POST, POST], two_template_grammar, lists, mode,
                                      np.random.default_rng(seed), {})
                assert next(gen).request.body == {"name": "qa-team"}, mode

    def test_no_lists_yields_none(self, two_template_grammar):
        """No list renders defaults outside the model mode, and draws nothing."""
        for mode in (RenderMode.REC1, RenderMode.RECLIST):
            rng = LoggingRng(0)
            gen = render_sequence([POST, POST], two_template_grammar, {POST: ()}, mode, rng, {})
            assert next(gen).request.body == {"name": "dev-team"}, mode  # the default
            assert rng.bounds == [], mode


class TestExtractProducerIds:
    """A producer's id, read from its response body by ``read_produced_id``."""

    def test_pointer_read(self):
        assert read_produced_id('{"id": 42, "name": "x"}', "/id") == "42"
        assert read_produced_id('{"group": {"id": "g-1"}}', "/group/id") == "g-1"

    @pytest.mark.parametrize(("body", "pointer", "expected"), [
        ('{"data": [{"id": 7}]}', "/data/0/id", "7"),
        ('{"a/b": 5}', "/a~1b", "5"),
        ('{"m~n": 6}', "/m~0n", "6"),
        ('{"~1": 8}', "/~01", "8"),  # ~0 then 1, not ~ then /
        ("42", "", "42"),
        ('{"": {"id": 3}}', "//id", "3"),
    ], ids=["array-index", "escaped-slash", "escaped-tilde", "unescape-order",
            "whole-body", "empty-member"])
    def test_pointer_read_by_rfc_6901(self, body, pointer, expected):
        assert read_produced_id(body, pointer) == expected

    @pytest.mark.parametrize(("body", "pointer"), [
        ('{"data": [{"id": 7}]}', "/data/1/id"),
        ('{"data": [{"id": 7}]}', "/data/-/id"),
        ('{"data": [{"id": 7}]}', "/data/00/id"),
        ('{"data": [{"id": 7}]}', "/data/+0/id"),
        ('{"id": 7}', ""),
    ], ids=["past-the-end", "dash", "leading-zero", "sign", "whole-body-object"])
    def test_pointer_that_names_no_id_reads_none(self, body, pointer):
        assert read_produced_id(body, pointer) is None

    def test_missing_field_is_tolerated(self):
        assert read_produced_id('{"name": "x"}', "/id") is None
        assert read_produced_id("not json", "/id") is None
        assert read_produced_id("", "/id") is None
        assert read_produced_id('{"id": [42]}', "/id") is None
        assert read_produced_id('{"id": true}', "/id") is None
        assert read_produced_id('{"id": false}', "/id") is None

    def test_non_producer_yields_nothing(self, two_template_grammar, rng):
        # The GET answers with an id of its own; only the POST's id is bound.
        steps = drive(two_template_grammar, [POST, GET_ID, GET_ID], RenderMode.BASELINE, rng,
                      [ResponseRecord.from_status(201, '{"id": 7}'),
                       ResponseRecord.from_status(200, '{"id": 42}')])
        assert [step.request.path for step in steps[1:]] == ["/groups/7", "/groups/7"]

    def test_only_a_2xx_reply_files_an_id(self):
        produces = ("group", "/id")
        pool = {"group": "7"}
        note_produced_id(pool, produces, ResponseRecord.from_status(400, '{"id": 8}'))
        note_produced_id(pool, produces, ResponseRecord.from_status(500, '{"id": 9}'))
        note_produced_id(pool, None, ResponseRecord.from_status(200, '{"id": 10}'))
        note_produced_id(pool, produces, ResponseRecord.from_status(201, '{"name": "x"}'))
        assert pool == {"group": "7"}
        note_produced_id(pool, produces, ResponseRecord.from_status(201, '{"id": 11}'))
        assert pool == {"group": "11"}


class TestResolveConsumer:
    def test_most_recent_id_wins(self, two_template_grammar, rng):
        steps = drive(two_template_grammar, [POST, POST, GET_ID], RenderMode.BASELINE, rng,
                      [ResponseRecord.from_status(201, '{"id": 7}'),
                       ResponseRecord.from_status(201, '{"id": 9}')])
        assert steps[2].request.path == "/groups/9"

    def test_single_id(self, two_template_grammar, pool_with_group):
        param = two_template_grammar.templates[GET_ID].param("id")
        assert resolve_consumer(param, pool_with_group) == "7"

    def test_empty_pool_raises(self, two_template_grammar):
        param = two_template_grammar.templates[GET_ID].param("id")
        with pytest.raises(MissingProducerId):
            resolve_consumer(param, {})


def drive(grammar, candidate_ids, mode, rng, responses, lists=None):
    """Render a sequence as the main loop does, answered by canned responses.

    Each response's producer id goes into the pool before the next position
    is rendered; steps past the last response render with no reply.
    """
    pool: dict[str, str] = {}
    replies = iter(responses)
    steps = []
    for step in render_sequence(candidate_ids, grammar, lists or {}, mode, rng, pool):
        steps.append(step)
        response = next(replies, None)
        if response is not None:
            note_produced_id(pool, grammar.templates[step.template_id].produces, response)
    return steps


class TestRenderSequence:
    def test_single_request_is_traditional_in_every_mode(self, two_template_grammar):
        requests = {}
        for mode in RenderMode:
            gen = render_sequence(
                [POST], two_template_grammar, {POST: ((),)}, mode, np.random.default_rng(5), {},
            )
            requests[mode] = next(gen).request
        baseline = requests[RenderMode.BASELINE]
        assert all(req == baseline for req in requests.values())

    def test_miner_uses_lists_before_last_position(self, two_template_grammar, rng):
        lists = {POST: ((ParamValuePair("name", "qa-team"),),)}
        created = ResponseRecord.from_status(201, '{"id": 1}')
        steps = drive(two_template_grammar, [POST, POST, POST], RenderMode.MODEL, rng,
                      [created, created, created], lists)
        assert steps[0].request.body == {"name": "qa-team"}
        assert steps[1].request.body == {"name": "qa-team"}
        # the final request ignores lists and draws from the dictionary
        assert steps[2].rendered_params["name"] in {"dev-team", "qa-team"}

    def test_miner_renders_an_all_defaults_list(self, two_template_grammar):
        # () is falsy but a list all the same: defaults, never the fallback
        for seed in range(20):
            gen = render_sequence(
                [POST, POST], two_template_grammar, {POST: ((),)},
                RenderMode.MODEL, np.random.default_rng(seed), {},
            )
            assert next(gen).request.body == {"name": "dev-team"}

    def test_miner_falls_back_to_traditional_without_lists(self, two_template_grammar):
        seed = 11
        created = ResponseRecord.from_status(201, '{"id": 1}')
        miner_steps = drive(two_template_grammar, [POST, POST], RenderMode.MODEL,
                            np.random.default_rng(seed), [created, created])
        baseline_steps = drive(two_template_grammar, [POST, POST], RenderMode.BASELINE,
                               np.random.default_rng(seed), [created, created])
        assert [s.request for s in miner_steps] == [s.request for s in baseline_steps]

    def test_rec1_with_empty_store_renders_defaults(self, two_template_grammar, rng):
        store = CollectionStore(two_template_grammar)
        created = ResponseRecord.from_status(201, '{"id": 1}')
        steps = drive(two_template_grammar, [POST, POST], RenderMode.REC1, rng,
                      [created, created], store.recorded_pairs())
        assert steps[0].request.body == {"name": "dev-team"}  # the default

    def test_rec1_overrides_one_recorded_pair(self, two_template_grammar, rng):
        from restfuzz.responses import ResponseClass

        store = CollectionStore(two_template_grammar)
        store.record_request_outcome(POST, {"name": "qa-team"}, ResponseClass.PASS_2XX)
        created = ResponseRecord.from_status(201, '{"id": 1}')
        steps = drive(two_template_grammar, [POST, POST], RenderMode.REC1, rng,
                      [created, created], store.recorded_pairs())
        assert steps[0].request.body == {"name": "qa-team"}

    def test_reclist_draws_over_2xx_and_5xx_lists(self, two_template_grammar):
        from restfuzz.responses import ResponseClass

        store = CollectionStore(two_template_grammar)
        store.record_request_outcome(
            GET_ID, {"id": "7", "with_custom_attributes": "true", "with_projects": "true"},
            ResponseClass.PASS_2XX,
        )
        store.record_request_outcome(
            GET_ID, {"id": "7", "with_custom_attributes": "false", "with_projects": "false"},
            ResponseClass.ERROR_5XX,
        )
        created = ResponseRecord.from_status(201, '{"id": 1}')
        queries = set()
        for seed in range(50):
            steps = drive(two_template_grammar, [POST, GET_ID, GET_ID], RenderMode.RECLIST,
                          np.random.default_rng(seed), [created, created, created],
                          store.recorded_lists())
            queries.add(tuple(sorted(steps[1].request.query.items())))
        assert queries == {
            (("with_custom_attributes", "true"), ("with_projects", "true")),
            (("with_custom_attributes", "false"), ("with_projects", "false")),
        }

    def test_producer_ids_flow_into_later_positions(self, two_template_grammar, rng):
        steps = drive(two_template_grammar, [POST, GET_ID], RenderMode.BASELINE, rng,
                      [ResponseRecord.from_status(201, '{"id": 42}'),
                       ResponseRecord.from_status(200, "{}")])
        assert steps[1].request.path == "/groups/42"
        assert steps[1].rendered_params["id"] == "42"

    def test_failed_producer_aborts_at_consumer(self, two_template_grammar, rng):
        with pytest.raises(MissingProducerId):
            drive(two_template_grammar, [POST, GET_ID], RenderMode.BASELINE, rng,
                  [ResponseRecord.from_status(400, '{"id": 7}')])
