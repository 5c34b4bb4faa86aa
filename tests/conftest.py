from __future__ import annotations

import json

import pytest

from restfuzz.draws import Draws
from restfuzz.grammar import parse_spec
from restfuzz.mock_service import packaged_grammar_path


def build_spec(paths: dict) -> bytes:
    return json.dumps({"paths": paths}).encode()


def groups_paths(with_producer: bool = True) -> dict:
    """The worked example grammar: a group producer plus its GET consumer."""
    paths = {
        "/groups/{id}": {
            "GET": {
                "parameters": [
                    {"name": "id", "in": "path", "type": "integer",
                     "required": True, "x-consumes": "group"},
                    {"name": "with_custom_attributes", "in": "query", "type": "boolean",
                     "x-dictionary": ["true", "false"], "x-default": "false"},
                    {"name": "with_projects", "in": "query", "type": "boolean",
                     "x-dictionary": ["3", "true", "false"], "x-default": "true"},
                ]
            }
        }
    }
    if with_producer:
        paths["/groups"] = {
            "POST": {
                "parameters": [
                    {"name": "name", "in": "body", "type": "string",
                     "required": True,
                     "x-dictionary": ["dev-team", "qa-team"], "x-default": "dev-team"},
                ],
                "x-produces": {"type": "group", "pointer": "/id"},
            }
        }
    return paths


@pytest.fixture(scope="session")
def mock_grammar():
    """The mock target's grammar: the packaged file, which is also the mock's schema."""
    return parse_spec(packaged_grammar_path().read_bytes())


@pytest.fixture
def two_template_grammar():
    return parse_spec(build_spec(groups_paths()))


@pytest.fixture
def rng():
    """The fuzz loop's kind of rng; the model and trainer tests override it with numpy's."""
    return Draws(12345)
