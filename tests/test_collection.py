from __future__ import annotations

import pytest

from restfuzz.collection import CollectionStore, ParamValuePair
from restfuzz.responses import ResponseClass


@pytest.fixture
def store(two_template_grammar):
    return CollectionStore(two_template_grammar)


GET_ID = "GET /groups/{id}"
POST = "POST /groups"
GET_DEFAULTS = {"with_custom_attributes": "false", "with_projects": "true"}


def record_get(store, *, wca="false", wp="true", klass=ResponseClass.PASS_2XX):
    store.record_request_outcome(
        GET_ID,
        {"id": "7", "with_custom_attributes": wca, "with_projects": wp},
        GET_DEFAULTS,
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
            [POST, GET_ID], [ResponseClass.PASS_2XX, ResponseClass.PASS_2XX]
        )
        assert admitted
        (seed,) = store.seed_templates()
        assert seed.template_ids == (POST, GET_ID)
        assert seed.length == 2

    def test_rejection_blocks_admission(self, store):
        admitted = store.admit_sequence(
            [POST, GET_ID], [ResponseClass.PASS_2XX, ResponseClass.REJECT_4XX]
        )
        assert not admitted
        assert store.seed_templates() == []

    def test_error_response_still_admits(self, store):
        assert store.admit_sequence([POST], [ResponseClass.ERROR_5XX])

    def test_duplicate_admission_is_a_no_op(self, store):
        for _ in range(2):
            store.admit_sequence(
                [POST, GET_ID], [ResponseClass.PASS_2XX, ResponseClass.PASS_2XX]
            )
        assert len(store.seed_templates()) == 1

    def test_length_mismatch_rejected(self, store):
        with pytest.raises(ValueError):
            store.admit_sequence([POST], [])


class TestTrainingCorpus:
    def test_one_pass_observation_yields_one_example(self, store):
        store.iteration = 1
        record_get(store, wp="false")
        assert store.training_corpus(since=0) == [
            (GET_ID, [ParamValuePair("with_projects", "false")])
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
        # min_access_level is not a parameter of GET /groups/{id}
        store.record_request_outcome(
            POST,
            {"name": "dev-team", "min_access_level": "1"},
            {"name": "dev-team", "min_access_level": "0"},
            ResponseClass.PASS_2XX,
        )
        assert store.undefined_pairs_for(GET_ID) == [
            ParamValuePair("min_access_level", "1")
        ]

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
            store.admit_sequence([POST], [ResponseClass.PASS_2XX])
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {line["kind"] for line in lines}
        assert kinds == {"pair", "seed"}
        pair_line = next(line for line in lines if line["kind"] == "pair")
        assert pair_line["param"] == "with_projects"
        assert pair_line["iteration"] == 3
