from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from restfuzz.collection import CollectionStore, ParamValuePair
from restfuzz.rendering import (
    MissingProducerId,
    RenderMode,
    choose_list,
    note_produced_id,
    read_produced_id,
    render_sequence,
    render_traditional,
    render_with_list,
    resolve_consumer,
)
from restfuzz.responses import ResponseRecord

GET_ID = "GET /groups/{id}"
POST = "POST /groups"


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

    def test_replay_is_byte_identical_under_same_seed(self, get_template, pool_with_group):
        first = render_traditional(get_template, pool_with_group, np.random.default_rng(3))
        second = render_traditional(get_template, pool_with_group, np.random.default_rng(3))
        assert first.request == second.request


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
    def test_uniform_over_lists(self, rng):
        lists = [(ParamValuePair("p", str(i)),) for i in range(4)]
        counts = Counter(choose_list(lists, rng)[0].value for _ in range(100_000))
        for value in counts:
            assert counts[value] / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_single_list_always_chosen(self, rng):
        lists = [()]
        assert choose_list(lists, rng) is lists[0]

    def test_no_lists_yields_none(self, rng):
        assert choose_list([], rng) is None


class TestExtractProducerIds:
    """A producer's id, read from its response body by ``read_produced_id``."""

    def test_pointer_read(self):
        assert read_produced_id('{"id": 42, "name": "x"}', "/id") == "42"
        assert read_produced_id('{"group": {"id": "g-1"}}', "/group/id") == "g-1"

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


def drive(grammar, candidate_ids, mode, rng, responses, snapshot=None, store=None):
    """Render a sequence as the main loop does, answered by canned responses.

    Each response's producer id goes into the pool before the next position
    is rendered; steps past the last response render with no reply.
    """
    pool: dict[str, str] = {}
    replies = iter(responses)
    steps = []
    for step in render_sequence(candidate_ids, grammar, snapshot or {}, mode, rng, pool, store):
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
                [POST], two_template_grammar, {}, mode, np.random.default_rng(5), {},
                CollectionStore(two_template_grammar),
            )
            requests[mode] = next(gen).request
        baseline = requests[RenderMode.BASELINE]
        assert all(req == baseline for req in requests.values())

    def test_miner_uses_lists_before_last_position(self, two_template_grammar, rng):
        snapshot = {POST: ((ParamValuePair("name", "qa-team"),),)}
        created = ResponseRecord.from_status(201, '{"id": 1}')
        steps = drive(two_template_grammar, [POST, POST, POST], RenderMode.MODEL, rng,
                      [created, created, created], snapshot)
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
                      [created, created], store=store)
        assert steps[0].request.body == {"name": "dev-team"}  # the default

    def test_rec1_overrides_one_recorded_pair(self, two_template_grammar, rng):
        from restfuzz.responses import ResponseClass

        store = CollectionStore(two_template_grammar)
        store.record_request_outcome(POST, {"name": "qa-team"}, ResponseClass.PASS_2XX)
        created = ResponseRecord.from_status(201, '{"id": 1}')
        steps = drive(two_template_grammar, [POST, POST], RenderMode.REC1, rng,
                      [created, created], store=store)
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
                          store=store)
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
