from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz.grammar import (
    DefaultNotInDictionary,
    MalformedSpec,
    UnresolvableConsumer,
    parse_spec,
)

from conftest import build_spec, groups_paths


class TestParseSpec:
    def test_worked_example_compiles(self, two_template_grammar):
        g = two_template_grammar
        assert set(g.templates) == {"POST /groups", "GET /groups/{id}"}
        get = g.templates["GET /groups/{id}"]
        assert get.param("with_projects").dictionary == ("3", "true", "false")
        assert get.param("with_projects").default == "true"
        assert get.param("id").consumes == "group"
        assert get.param("id").required  # path params are always required
        post = g.templates["POST /groups"]
        assert post.produces == ("group", "/id")

    def test_consumer_without_producer_rejected(self):
        with pytest.raises(UnresolvableConsumer):
            parse_spec(build_spec(groups_paths(with_producer=False)))

    def test_unresolvable_consumer_names_every_missing_type_sorted(self):
        consumer = {"name": "id", "in": "path", "type": "integer", "x-consumes": "user"}
        paths = {"/t/{id}/{oid}": {"GET": {"parameters": [
            consumer, {**consumer, "name": "oid", "x-consumes": "org"},
        ]}}}
        with pytest.raises(UnresolvableConsumer,
                           match=r"^GET /t/\{id\}/\{oid\}: consumes 'org', 'user' which"):
            parse_spec(build_spec(paths))

    def test_empty_spec_compiles_to_empty_grammar(self):
        g = parse_spec(build_spec({}))
        assert g.templates == {}
        assert g.resource_types == frozenset()
        assert g.producers_of("group") == g.consumers_of("group") == ()

    def test_dependency_edge_derived_from_annotations(self, two_template_grammar):
        g = two_template_grammar
        assert g.producers_of("group") == (g.templates["POST /groups"],)
        assert g.consumers_of("group") == (g.templates["GET /groups/{id}"],)
        assert g.producers_of("project") == g.consumers_of("project") == ()

    def test_identical_bytes_identical_grammar(self):
        raw = build_spec(groups_paths())
        first, second = parse_spec(raw), parse_spec(raw)
        assert first == second
        assert list(first.templates) == list(second.templates)

    def test_invalid_json_is_malformed(self):
        with pytest.raises(MalformedSpec):
            parse_spec(b"{not json")

    def test_default_outside_dictionary_rejected(self):
        paths = groups_paths()
        params = paths["/groups/{id}"]["GET"]["parameters"]
        params[1]["x-default"] = "maybe"
        with pytest.raises(DefaultNotInDictionary):
            parse_spec(build_spec(paths))

    def test_missing_dictionary_rejected(self):
        paths = groups_paths()
        del paths["/groups/{id}"]["GET"]["parameters"][1]["x-dictionary"]
        with pytest.raises(MalformedSpec):
            parse_spec(build_spec(paths))

    def test_unknown_method_rejected(self):
        with pytest.raises(MalformedSpec):
            parse_spec(build_spec({"/x": {"PATCH": {"parameters": []}}}))

    def test_placeholder_without_path_param_rejected(self):
        paths = {"/t/{id}": {"GET": {"parameters": []}}}
        with pytest.raises(MalformedSpec):
            parse_spec(build_spec(paths))

    @pytest.mark.parametrize("pointer", ["id", "data/0/id", "~1id"])
    def test_a_produces_pointer_that_is_not_a_json_pointer_is_refused(self, pointer):
        paths = groups_paths()
        paths["/groups"]["POST"]["x-produces"]["pointer"] = pointer
        with pytest.raises(MalformedSpec, match=r"POST /groups: x-produces pointer"):
            parse_spec(build_spec(paths))

    @pytest.mark.parametrize("pointer", ["", "/", "/id", "//id", "/data/0/id"])
    def test_a_produces_pointer_may_be_empty_or_start_with_a_slash(self, pointer):
        paths = groups_paths()
        paths["/groups"]["POST"]["x-produces"]["pointer"] = pointer
        assert parse_spec(build_spec(paths)).templates["POST /groups"].produces == (
            "group", pointer)

    def test_mock_target_grammar_ships_and_parses(self, mock_grammar):
        assert len(mock_grammar.templates) == 12
        assert mock_grammar.resource_types == frozenset({"group", "project"})


class TestTemplateFacts:
    def test_fields_derived_from_params(self, two_template_grammar):
        get = two_template_grammar.templates["GET /groups/{id}"]
        assert get.param_names == {"id", "with_custom_attributes", "with_projects"}
        assert get.consumed_types == {"group"}
        assert dict(get.defaults()) == {
            "with_custom_attributes": "false", "with_projects": "true",
        }
        assert list(get.defaults()) == ["with_custom_attributes", "with_projects"]

    def test_defaults_are_shared_and_read_only(self, two_template_grammar):
        get = two_template_grammar.templates["GET /groups/{id}"]
        assert get.defaults() is get.defaults()
        with pytest.raises(TypeError):
            get.defaults()["with_projects"] = "false"

    def test_derived_fields_stay_out_of_equality(self, two_template_grammar):
        get = two_template_grammar.templates["GET /groups/{id}"]
        twin = parse_spec(build_spec(groups_paths())).templates["GET /groups/{id}"]
        assert get == twin and hash(get) == hash(twin)
        assert "consumed_types" not in repr(get)


def scan(grammar, available):
    """The satisfiable ids by definition: every consumed type is available, sorted."""
    return tuple(sorted(
        template_id for template_id, template in grammar.templates.items()
        if all(rtype in available for rtype in template.consumed_types)
    ))


TYPES = st.frozensets(st.sampled_from(["group", "project", "user"]))


class TestSatisfiableTemplates:
    def test_no_resources_yields_only_independent_templates(self, two_template_grammar):
        assert two_template_grammar.satisfiable_ids(frozenset()) == ("POST /groups",)

    def test_group_available_yields_both(self, two_template_grammar):
        assert two_template_grammar.satisfiable_ids(frozenset({"group"})) == (
            "GET /groups/{id}", "POST /groups",
        )

    def test_unrelated_resource_yields_only_producer(self, two_template_grammar):
        assert two_template_grammar.satisfiable_ids(frozenset({"project"})) == ("POST /groups",)

    def test_returned_iff_consumes_subset(self, two_template_grammar):
        g = two_template_grammar
        available = frozenset({"group"})
        returned = set(g.satisfiable_ids(available))
        for template_id, template in g.templates.items():
            if template_id in returned:
                assert template.consumed_types <= available
            else:
                assert not template.consumed_types <= available

    @given(available=TYPES)
    @settings(max_examples=30, deadline=None)
    def test_satisfiable_ids_are_the_sorted_scan(self, mock_grammar, available):
        assert mock_grammar.satisfiable_ids(available) == scan(mock_grammar, available)

    @given(a=TYPES, extra=TYPES)
    @settings(max_examples=50, deadline=None)
    def test_monotonic_in_available_set(self, mock_grammar, a, extra):
        b = a | extra
        assert set(mock_grammar.satisfiable_ids(a)) <= set(mock_grammar.satisfiable_ids(b))
