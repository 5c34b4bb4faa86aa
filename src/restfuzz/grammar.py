"""Compile a JSON API grammar into request templates.

The grammar format is a small Swagger-v2 subset with extension fields:
``x-dictionary`` (candidate literal values), ``x-default`` (the value used
when nothing overrides it), ``x-consumes`` (this parameter is filled with a
previously produced object id) and ``x-produces`` (where in a 2xx response
body the created object id lives, as an RFC 6901 JSON pointer).  Each
template records the type it produces and the types it consumes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

METHODS = ("GET", "POST", "PUT", "DELETE")
LOCATIONS = ("path", "query", "body")
VALUE_TYPES = ("string", "integer", "boolean", "datetime")

_PLACEHOLDER_RE = re.compile(r"\{([^{}/]+)\}")


class GrammarError(Exception):
    """Base class for grammar compilation failures."""


class MalformedSpec(GrammarError):
    """The document does not follow the grammar format."""


class UnresolvableConsumer(GrammarError):
    """A parameter consumes a resource type that no template produces."""


class DefaultNotInDictionary(GrammarError):
    """A parameter default is missing from its value dictionary."""


@dataclass(frozen=True)
class ParamSpec:
    """One request parameter with its candidate-value dictionary."""

    name: str
    location: str
    value_type: str
    required: bool
    dictionary: tuple[str, ...]
    default: str | None
    consumes: str | None = None

    @property
    def is_consumer(self) -> bool:
        return self.consumes is not None


def is_json_pointer(pointer: str) -> bool:
    """Whether ``pointer`` has RFC 6901's form: empty, or starting with ``/``."""
    return pointer[:1] in ("", "/")


def split_path(path: str) -> tuple[str, ...]:
    """``path`` cut at its ``{name}`` placeholders: text at even indices, names at odd ones."""
    return tuple(_PLACEHOLDER_RE.split(path))


@dataclass(frozen=True)
class RequestTemplate:
    """A parameterized request type: method, path skeleton and parameters.

    ``param_names``, ``consumed_types``, ``path_parts`` (the path as
    :func:`split_path` cuts it) and the defaults are computed once, at
    construction; the fuzz loop reads them on every request.
    """

    template_id: str
    method: str
    path: str
    params: tuple[ParamSpec, ...]
    produces: tuple[str, str] | None = None  # (resource type, response-field pointer)
    param_names: frozenset[str] = field(init=False, repr=False, compare=False)
    consumed_types: frozenset[str] = field(init=False, repr=False, compare=False)
    path_parts: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _defaults: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Frozen, so the derived fields are set past __setattr__.
        set_field = object.__setattr__
        set_field(self, "param_names", frozenset(spec.name for spec in self.params))
        set_field(self, "consumed_types",
                  frozenset(spec.consumes for spec in self.params if spec.consumes))
        set_field(self, "path_parts", split_path(self.path))
        set_field(self, "_defaults", MappingProxyType({
            spec.name: spec.default
            for spec in self.params
            if not spec.is_consumer and spec.default is not None
        }))

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def defaults(self) -> Mapping[str, str]:
        """Default value per non-consumer parameter, in template order.

        One read-only mapping per template, shared by every caller.
        """
        return self._defaults


@dataclass(frozen=True)
class CompiledGrammar:
    """Immutable compilation result, shared by the whole run."""

    templates: dict[str, RequestTemplate]
    resource_types: frozenset[str]

    def producers_of(self, resource_type: str) -> tuple[RequestTemplate, ...]:
        return tuple(
            t for t in self.templates.values()
            if t.produces and t.produces[0] == resource_type
        )

    def consumers_of(self, resource_type: str) -> tuple[RequestTemplate, ...]:
        return tuple(
            t for t in self.templates.values()
            if resource_type in t.consumed_types
        )

    def satisfiable_ids(self, available: frozenset[str]) -> tuple[str, ...]:
        """Sorted ids of the templates whose every consumed type is in ``available``."""
        return tuple(sorted(
            template_id
            for template_id, template in self.templates.items()
            if template.consumed_types <= available
        ))


def _parse_param(template_id: str, raw: object, path_placeholders: set[str]) -> ParamSpec:
    if not isinstance(raw, dict):
        raise MalformedSpec(f"{template_id}: parameter entry is not an object")
    try:
        name = raw["name"]
        location = raw["in"]
        value_type = raw["type"]
    except KeyError as exc:
        raise MalformedSpec(f"{template_id}: parameter missing key {exc}") from None
    if not isinstance(name, str) or not name:
        raise MalformedSpec(f"{template_id}: parameter name must be a non-empty string")
    if location not in LOCATIONS:
        raise MalformedSpec(f"{template_id}: parameter {name!r} has bad location {location!r}")
    if value_type not in VALUE_TYPES:
        raise MalformedSpec(f"{template_id}: parameter {name!r} has bad type {value_type!r}")
    if location == "path" and name not in path_placeholders:
        raise MalformedSpec(f"{template_id}: path parameter {name!r} has no {{placeholder}}")

    consumes = raw.get("x-consumes")
    if consumes is not None and (not isinstance(consumes, str) or not consumes):
        raise MalformedSpec(f"{template_id}: x-consumes of {name!r} must be a non-empty string")

    required = bool(raw.get("required", False)) or location == "path"

    if consumes is not None:
        # Consumer parameters are filled from the object-id pool; any
        # dictionary or default in the document is ignored.
        return ParamSpec(name, location, value_type, required, (), None, consumes)

    dictionary = raw.get("x-dictionary")
    if not isinstance(dictionary, list) or not dictionary:
        raise MalformedSpec(f"{template_id}: parameter {name!r} needs a non-empty x-dictionary")
    if not all(isinstance(v, str) for v in dictionary):
        raise MalformedSpec(f"{template_id}: dictionary of {name!r} must hold strings")
    if "x-default" not in raw:
        raise MalformedSpec(f"{template_id}: parameter {name!r} is missing x-default")
    default = raw["x-default"]
    if default not in dictionary:
        raise DefaultNotInDictionary(
            f"{template_id}: default {default!r} of {name!r} not in dictionary"
        )
    return ParamSpec(name, location, value_type, required, tuple(dictionary), default, None)


def _parse_template(path: str, method: str, raw: object) -> RequestTemplate:
    template_id = f"{method} {path}"
    if not isinstance(raw, dict):
        raise MalformedSpec(f"{template_id}: operation entry is not an object")

    placeholders = set(_PLACEHOLDER_RE.findall(path))
    params = tuple(
        _parse_param(template_id, entry, placeholders)
        for entry in raw.get("parameters", [])
    )
    names = [spec.name for spec in params]
    if len(names) != len(set(names)):
        raise MalformedSpec(f"{template_id}: duplicate parameter names")

    path_params = {spec.name for spec in params if spec.location == "path"}
    if path_params != placeholders:
        missing = placeholders - path_params
        extra = path_params - placeholders
        raise MalformedSpec(
            f"{template_id}: path placeholders and path parameters disagree "
            f"(missing={sorted(missing)}, extra={sorted(extra)})"
        )

    produces = None
    if "x-produces" in raw:
        decl = raw["x-produces"]
        if (
            not isinstance(decl, dict)
            or not isinstance(decl.get("type"), str)
            or not isinstance(decl.get("pointer"), str)
        ):
            raise MalformedSpec(f"{template_id}: x-produces needs 'type' and 'pointer' strings")
        pointer = decl["pointer"]
        if not is_json_pointer(pointer):
            raise MalformedSpec(
                f"{template_id}: x-produces pointer {pointer!r} is not a JSON pointer "
                "(empty, or starting with '/')"
            )
        produces = (decl["type"], pointer)

    return RequestTemplate(template_id, method, path, params, produces)


def parse_spec(document: bytes | str) -> CompiledGrammar:
    """Parse grammar bytes into a :class:`CompiledGrammar`.

    Deterministic: identical bytes yield an identical grammar with templates
    in document order.  Raises :class:`MalformedSpec`,
    :class:`UnresolvableConsumer` or :class:`DefaultNotInDictionary`.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        doc = json.loads(document)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedSpec(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("paths"), dict):
        raise MalformedSpec("top level must be an object with a 'paths' object")

    templates: dict[str, RequestTemplate] = {}
    for path, operations in doc["paths"].items():
        if not isinstance(operations, dict):
            raise MalformedSpec(f"{path}: operations entry is not an object")
        for method, raw in operations.items():
            upper = method.upper()
            if upper not in METHODS:
                raise MalformedSpec(f"{path}: unsupported method {method!r}")
            template = _parse_template(path, upper, raw)
            if template.template_id in templates:
                raise MalformedSpec(f"duplicate template {template.template_id}")
            templates[template.template_id] = template

    produced = frozenset(t.produces[0] for t in templates.values() if t.produces)
    for template in templates.values():
        if missing := template.consumed_types - produced:
            raise UnresolvableConsumer(
                f"{template.template_id}: consumes {', '.join(map(repr, sorted(missing)))} "
                "which nothing produces"
            )
    return CompiledGrammar(templates, produced)


def parse_spec_file(path) -> CompiledGrammar:
    with open(path, "rb") as fh:
        return parse_spec(fh.read())
