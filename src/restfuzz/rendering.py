"""Turn request templates into ready-to-send requests.

Two rendering strategies: the traditional one draws a random dictionary
value for every parameter; the list-backed one starts from defaults and
overrides only the parameters named in a param-value list, a plain
:data:`~restfuzz.collection.PairList` whether the model generated it or the
store recorded it.  The caller hands :func:`render_sequence` the template to
lists mapping a mode draws from; rendering reads no store.
Consumer parameters are always resolved from the object-id pool built up
while the sequence executes: the latest id per resource type, a plain
``dict[str, str]`` owned by whoever sends the sequence.  The main loop,
replay (:func:`restfuzz.reporting.run_replay`) and the use-after-free
probe all file a producer's id into it through :func:`note_produced_id`.
Rendering and replay alike fill a path's placeholders in one pass, with
:func:`fill_path`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .client import ReadyRequest
from .collection import PairList
from .config import RenderMode
from .draws import Draws
from .grammar import CompiledGrammar, ParamSpec, RequestTemplate
from .responses import ResponseClass, ResponseRecord

_ARRAY_INDEX = re.compile(r"0|[1-9][0-9]*")  # an RFC 6901 array index: no sign, no leading 0


class MissingProducerId(Exception):
    """A consumer parameter found no id of its resource type in the pool."""


def resolve_consumer(param: ParamSpec, pool: dict[str, str]) -> str:
    """Most recently produced id of the required type (create-then-act)."""
    value = pool.get(param.consumes)
    if value is None:
        raise MissingProducerId(
            f"no {param.consumes!r} id available for parameter {param.name!r}"
        )
    return value


@dataclass(slots=True)
class RenderedStep:
    """A rendered request plus the parameter values it was rendered from."""

    template_id: str
    request: ReadyRequest
    rendered_params: dict[str, str]  # every value sent, by name; template order here


def fill_path(parts: Sequence[str], values: Mapping[str, str]) -> str:
    """The path :func:`~restfuzz.grammar.split_path` cut into ``parts``, filled in one pass.

    Each placeholder takes its value from ``values``, or stays as it is when
    ``values`` has none.  A value is never searched for placeholders, so one
    that holds ``{name}`` goes out as it is.
    """
    if len(parts) == 1:
        return parts[0]
    filled = list(parts)
    for index in range(1, len(parts), 2):
        value = values.get(parts[index])
        if value is not None:
            filled[index] = value
        else:
            filled[index] = "{" + parts[index] + "}"
    return "".join(filled)


def _step(template: RequestTemplate, values: dict[str, str]) -> RenderedStep:
    """The step that sends ``values``, one for each of the template's parameters."""
    query: dict[str, str] = {}
    body: dict[str, str] = {}
    for spec in template.params:
        if spec.location == "query":
            query[spec.name] = values[spec.name]
        elif spec.location == "body":
            body[spec.name] = values[spec.name]
    request = ReadyRequest(template.method, fill_path(template.path_parts, values), query, body)
    return RenderedStep(template.template_id, request, values)


def render_traditional(
    template: RequestTemplate, pool: dict[str, str], rng: Draws
) -> RenderedStep:
    """Uniform random dictionary value for every non-consumer parameter.

    One ``rng.integers`` draw per non-consumer parameter, in template order.
    A consumer whose type has no id in ``pool`` raises
    :class:`MissingProducerId` after the draws for the parameters ahead of it.
    """
    integers = rng.integers
    values: dict[str, str] = {}
    for spec in template.params:
        if spec.consumes is None:
            dictionary = spec.dictionary
            values[spec.name] = dictionary[integers(len(dictionary))]
        else:
            values[spec.name] = resolve_consumer(spec, pool)
    return _step(template, values)


def render_with_list(
    template: RequestTemplate, pairs: PairList, pool: dict[str, str]
) -> RenderedStep:
    """Defaults everywhere, overridden by ``pairs``.

    ``pairs`` names only the template's own non-consumer parameters by
    construction, so nothing checks it: the store records no other
    parameter, and model output draws only the template's own pair tokens.
    """
    overrides = dict(pairs)
    values: dict[str, str] = {}
    for spec in template.params:
        if spec.consumes is None:
            values[spec.name] = overrides.get(spec.name, spec.default)
        else:
            values[spec.name] = resolve_consumer(spec, pool)
    return _step(template, values)


def read_produced_id(body: str, pointer: str) -> str | None:
    """The id at ``pointer``, an RFC 6901 JSON pointer, in a JSON response body, as a string.

    ``""`` is the whole body; each ``/``-separated token, ``~1`` read as
    ``/`` and ``~0`` as ``~``, names an object member or an array index.
    Tolerant: an unparsable body, a missing member or index, or a value
    that is not a string or an integer (a boolean is not) yields ``None``
    rather than an error.  ``parse_spec`` and ``load_replay`` refuse a
    pointer that is neither ``""`` nor starts with ``/``.
    """
    try:
        node = json.loads(body) if body else None
    except json.JSONDecodeError:
        return None
    for token in pointer.split("/")[1:]:
        if "~" in token:
            token = token.replace("~1", "/").replace("~0", "~")
        if isinstance(node, dict):
            if token not in node:
                return None
            node = node[token]
        elif isinstance(node, list) and _ARRAY_INDEX.fullmatch(token) and int(token) < len(node):
            node = node[int(token)]
        else:
            return None
    return str(node) if type(node) in (str, int) else None  # bool is an int subclass


def note_produced_id(
    pool: dict[str, str], produces: tuple[str, str] | None, response: ResponseRecord
) -> None:
    """File the id a 2xx reply to a producer returned as its type's latest."""
    if produces is not None and response.klass is ResponseClass.PASS_2XX:
        resource_type, pointer = produces
        value = read_produced_id(response.body, pointer)
        if value is not None:
            pool[resource_type] = value


def render_sequence(
    candidate_ids: Sequence[str],
    grammar: CompiledGrammar,
    lists: Mapping[str, Sequence[PairList]],
    mode: RenderMode,
    rng: Draws,
    pool: dict[str, str],
) -> Iterator[RenderedStep]:
    """Render a candidate one request at a time from the caller's id pool.

    Each position is rendered only when the next step is asked for, so the
    caller sends a step and files its producer id into ``pool``
    (:func:`note_produced_id`) before a later consumer reads it; the rng
    draws happen in that same order.

    The last position, and every position in baseline mode, is rendered
    traditionally.  Any other position whose template has lists in
    ``lists`` renders one of them, drawn uniformly with one ``rng.integers``
    draw; an all-defaults list ``()`` is a list all the same.  A template
    with none renders traditionally in the model mode and with defaults in
    rec1/reclist.
    """
    last = len(candidate_ids) - 1
    for position, template_id in enumerate(candidate_ids):
        template = grammar.templates[template_id]
        if position == last or mode is RenderMode.BASELINE:
            yield render_traditional(template, pool, rng)
        elif choices := lists.get(template_id):
            yield render_with_list(template, choices[rng.integers(len(choices))], pool)
        elif mode is RenderMode.MODEL:
            yield render_traditional(template, pool, rng)
        else:
            yield render_with_list(template, (), pool)
