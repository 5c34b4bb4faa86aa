from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz.collection import CollectionStore, ParamValuePair
from restfuzz.responses import ResponseClass


@pytest.fixture
def store(two_template_grammar):
    return CollectionStore(two_template_grammar)


GET_ID = "GET /groups/{id}"
POST = "POST /groups"


def record_get(store, *, wca="false", wp="true", klass=ResponseClass.PASS_2XX):
    store.record_request_outcome(
        GET_ID,
        {"id": "7", "with_custom_attributes": wca, "with_projects": wp},
        klass,
    )


class TestRecordRequestOutcome:
    def test_only_non_default_values_become_pairs(self, store):
        record_get(store, wp="false", wca="false")
        observations = store.pair_observations()
        assert [obs.pair for obs in observations] == [
            ParamValuePair("with_projects", "false")
        ]
        # the consumer parameter id=7 was skipped even though it is non-default

    def test_rejection_records_nothing(self, store):
        record_get(store, wp="false", klass=ResponseClass.REJECT_4XX)
        assert store.pair_observations() == []
        assert store.training_corpus(since=0) == []

    def test_error_response_records_tagged_pairs(self, store):
        record_get(store, wp="false", wca="true", klass=ResponseClass.ERROR_5XX)
        observations = store.pair_observations()
        assert len(observations) == 2
        assert {obs.response_class for obs in observations} == {ResponseClass.ERROR_5XX}

    def test_duplicate_pairs_are_stored_once(self, store):
        record_get(store, wp="false")
        record_get(store, wp="false")
        (obs,) = store.pair_observations()
        assert obs.pair == ParamValuePair("with_projects", "false")

    def test_transport_records_nothing(self, store):
        record_get(store, wp="false", klass=ResponseClass.TRANSPORT)
        assert store.pair_observations() == []


class TestAdmitSequence:
    def test_valid_sequence_admitted(self, store):
        admitted = store.admit_sequence(
            (POST, GET_ID), [ResponseClass.PASS_2XX, ResponseClass.PASS_2XX]
        )
        assert admitted
        assert list(store.seed_templates()) == [(POST, GET_ID)]

    def test_rejection_blocks_admission(self, store):
        admitted = store.admit_sequence(
            (POST, GET_ID), [ResponseClass.PASS_2XX, ResponseClass.REJECT_4XX]
        )
        assert not admitted
        assert list(store.seed_templates()) == []

    def test_error_response_still_admits(self, store):
        assert store.admit_sequence((POST,), [ResponseClass.ERROR_5XX])

    def test_duplicate_admission_is_a_no_op(self, store):
        for _ in range(2):
            store.admit_sequence(
                (POST, GET_ID), [ResponseClass.PASS_2XX, ResponseClass.PASS_2XX]
            )
        assert len(store.seed_templates()) == 1


class TestTrainingCorpus:
    def test_one_pass_observation_yields_one_example(self, store):
        store.iteration = 1
        record_get(store, wp="false")
        assert store.training_corpus(since=0) == [
            (GET_ID, (ParamValuePair("with_projects", "false"),))
        ]

    def test_since_latest_iteration_is_empty(self, store):
        store.iteration = 1
        record_get(store, wp="false")
        assert store.training_corpus(since=1) == []

    def test_error_only_store_trains_nothing(self, store):
        store.iteration = 1
        record_get(store, wp="false", klass=ResponseClass.ERROR_5XX)
        assert store.training_corpus(since=0) == []

    def test_corpus_monotone_in_since(self, store):
        for iteration in range(1, 6):
            store.iteration = iteration
            record_get(store, wp="false")
        newer = store.training_corpus(since=3)
        older = store.training_corpus(since=1)
        assert len(older) > len(newer)
        for example in newer:
            assert example in older

    def test_pair_order_follows_template_order(self, store):
        store.iteration = 1
        record_get(store, wca="true", wp="false")
        ((_, pairs),) = store.training_corpus(since=0)
        assert [p.param_name for p in pairs] == [
            "with_custom_attributes", "with_projects",
        ]


class TestUndefinedPairsFor:
    def test_pair_from_other_template_is_undefined(self, store):
        # name is not a parameter of GET /groups/{id}
        store.record_request_outcome(POST, {"name": "qa-team"}, ResponseClass.PASS_2XX)
        assert store.undefined_pairs_for(GET_ID) == [ParamValuePair("name", "qa-team")]
        assert store.undefined_pairs_for(POST) == []

    def test_defined_params_are_filtered_out(self, store):
        record_get(store, wp="false")
        assert store.undefined_pairs_for(GET_ID) == []
        # but the same pair is undefined for the POST template
        assert store.undefined_pairs_for(POST) == [
            ParamValuePair("with_projects", "false")
        ]

    def test_error_observations_feed_the_checker(self, store):
        record_get(store, wp="false", klass=ResponseClass.ERROR_5XX)
        assert store.undefined_pairs_for(POST) == [
            ParamValuePair("with_projects", "false")
        ]

    def test_rejected_pairs_never_appear(self, store):
        record_get(store, wp="false", klass=ResponseClass.REJECT_4XX)
        assert store.undefined_pairs_for(POST) == []


class TestPersistence:
    def test_jsonl_stream_has_pair_and_seed_lines(self, two_template_grammar, tmp_path):
        import json

        path = tmp_path / "collection.jsonl"
        with open(path, "w") as fh:
            store = CollectionStore(two_template_grammar, persist=fh)
            store.iteration = 3
            record_get(store, wp="false")
            store.admit_sequence((POST,), [ResponseClass.PASS_2XX])
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {line["kind"] for line in lines}
        assert kinds == {"pair", "seed"}
        pair_line = next(line for line in lines if line["kind"] == "pair")
        assert pair_line["param"] == "with_projects"
        assert pair_line["iteration"] == 3


def _record(template_ids):
    return st.tuples(
        st.just("record"),
        st.sampled_from(template_ids),
        st.lists(st.integers(0, 3), min_size=8, max_size=8),
        st.sampled_from(list(ResponseClass)),
    )


def _admit(template_ids):
    return st.tuples(
        st.just("admit"),
        st.lists(st.tuples(st.sampled_from(template_ids), st.sampled_from(list(ResponseClass))),
                 max_size=4),
    )


def _unique(pairs):
    return list(dict.fromkeys(pairs))


def _rendered(template, picks):
    return {
        spec.name: "7" if spec.is_consumer
        else spec.dictionary[picks[i % len(picks)] % len(spec.dictionary)]
        for i, spec in enumerate(template.params)
    }


def _logged(template, rendered, klass):
    """The pairs a scan of one recorded op expects, or ``None`` when nothing is kept."""
    defaults = template.defaults()
    pairs = tuple(
        ParamValuePair(name, value) for name, value in rendered.items()
        if name in defaults and value != defaults[name]
    )
    if klass not in (ResponseClass.PASS_2XX, ResponseClass.ERROR_5XX) or not pairs:
        return None
    return pairs


class TestIndexesMatchScans:
    """Random record/admit sequences: every index equals a scan of the ops."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_indexes_equal_naive_scans(self, mock_grammar, data):
        template_ids = sorted(mock_grammar.templates)
        ops = data.draw(st.lists(st.one_of(_record(template_ids), _admit(template_ids)),
                                 max_size=60))
        store = CollectionStore(mock_grammar)
        admitted = []
        log = []  # (template id, pairs, class) of every op the store keeps
        for iteration, op in enumerate(ops, start=1):
            store.iteration = iteration
            if op[0] == "record":
                _, template_id, picks, klass = op
                template = mock_grammar.templates[template_id]
                rendered = _rendered(template, picks)
                store.record_request_outcome(template_id, rendered, klass)
                pairs = _logged(template, rendered, klass)
                if pairs is not None:
                    log.append((template_id, pairs, klass))
            else:
                ids = tuple(template_id for template_id, _ in op[1])
                classes = [klass for _, klass in op[1]]
                if store.admit_sequence(ids, classes) and ids not in admitted:
                    admitted.append(ids)

        assert list(store.seed_templates()) == admitted
        assert [
            (obs.template_id, obs.pair, obs.response_class)
            for obs in store.pair_observations()
        ] == _unique(
            (template_id, pair, klass) for template_id, pairs, klass in log for pair in pairs
        )
        for template_id in template_ids:
            template = mock_grammar.templates[template_id]
            assert list(store.undefined_pairs_for(template_id)) == _unique(
                pair for _, pairs, _ in log for pair in pairs
                if pair.param_name not in template.param_names
            )
            assert list(store.recorded_pairs().get(template_id, ())) == _unique(
                (pair,) for logged_id, pairs, _ in log if logged_id == template_id
                for pair in pairs
            )
            assert list(store.recorded_lists().get(template_id, ())) == [
                pairs for logged_id, pairs, _ in log if logged_id == template_id
            ]
            # rec1/reclist render these without a check: valid by construction
            defaults = template.defaults()
            for pairs in store.recorded_lists().get(template_id, ()):
                assert all(pair.param_name in defaults for pair in pairs)

    def test_pair_seen_as_5xx_then_2xx_is_recorded_once(self, store):
        record_get(store, wp="false", klass=ResponseClass.ERROR_5XX)
        record_get(store, wca="true")
        record_get(store, wca="true", wp="false")
        assert store.recorded_pairs()[GET_ID] == [
            (ParamValuePair("with_projects", "false"),),
            (ParamValuePair("with_custom_attributes", "true"),),
        ]

    def test_queries_return_the_stored_sequence(self, store):
        pairs, lists = store.recorded_pairs(), store.recorded_lists()
        record_get(store, wp="false")
        assert store.undefined_pairs_for(POST) is store.undefined_pairs_for(POST)
        # the mappings are live: taken before a record, they hold it
        assert pairs is store.recorded_pairs() and lists is store.recorded_lists()
        assert pairs[GET_ID] == [(ParamValuePair("with_projects", "false"),)]
        assert lists[GET_ID] == [(ParamValuePair("with_projects", "false"),)]


class TestTrainingCorpusMatchesScan:
    """Random records at non-decreasing iterations: the bisected window
    equals a scan of the recorded ops, in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), sinces=st.lists(st.integers(-2, 70), min_size=1, max_size=5))
    def test_equals_naive_scan(self, mock_grammar, data, sinces):
        record = _record(sorted(mock_grammar.templates))
        records = data.draw(st.lists(st.tuples(st.integers(0, 2), record), max_size=60))
        store = CollectionStore(mock_grammar)
        log = []  # (iteration, template id, pairs) of every 2xx op with a pair
        for step, (_, template_id, picks, klass) in records:
            store.iteration += step
            template = mock_grammar.templates[template_id]
            rendered = _rendered(template, picks)
            store.record_request_outcome(template_id, rendered, klass)
            pairs = _logged(template, rendered, klass)
            if pairs is not None and klass is ResponseClass.PASS_2XX:
                log.append((store.iteration, template_id, pairs))
        for since in sinces + [-1, store.iteration]:
            assert store.training_corpus(since) == [
                (template_id, pairs)
                for iteration, template_id, pairs in log
                if iteration > since
            ]
