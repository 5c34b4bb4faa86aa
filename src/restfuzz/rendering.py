"""Turn request templates into ready-to-send requests.

Two rendering strategies: the traditional one draws a random dictionary
value for every parameter; the list-backed one starts from defaults and
overrides only the parameters named in a param-value list, a plain
:data:`~restfuzz.collection.PairList` whether the model generated it or the
store recorded it.
Consumer parameters are always resolved from the object-id pool built up
while the sequence executes: the latest id per resource type, a plain
``dict[str, str]`` that replay (:func:`restfuzz.reporting.run_replay`) and
the use-after-free probe keep the same way.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Generator, Mapping, Sequence

import numpy as np

from .collection import CollectionStore, PairList
from .grammar import CompiledGrammar, ParamSpec, RequestTemplate
from .responses import ResponseClass, ResponseRecord


class RenderError(Exception):
    pass


class MissingProducerId(RenderError):
    """A consumer parameter found no id of its resource type in the pool."""


class RenderMode(enum.Enum):
    BASELINE = "baseline"
    REC1 = "rec1"
    RECLIST = "reclist"
    MODEL = "model"


@dataclass(frozen=True)
class ReadyRequest:
    """A complete request: resolved path and string-valued params."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    body: dict[str, str] = field(default_factory=dict)


def resolve_consumer(param: ParamSpec, pool: dict[str, str]) -> str:
    """Most recently produced id of the required type (create-then-act)."""
    value = pool.get(param.consumes)
    if value is None:
        raise MissingProducerId(
            f"no {param.consumes!r} id available for parameter {param.name!r}"
        )
    return value


@dataclass(frozen=True)
class RenderedStep:
    """A rendered request plus the parameter values it was rendered from."""

    template_id: str
    request: ReadyRequest
    rendered_params: dict[str, str]  # every parameter, template order


def _render(
    template: RequestTemplate,
    pool: dict[str, str],
    choose_value,
) -> RenderedStep:
    values: dict[str, str] = {}
    path = template.path
    query: dict[str, str] = {}
    body: dict[str, str] = {}
    for spec in template.params:
        if spec.consumes is not None:
            value = resolve_consumer(spec, pool)
        else:
            value = choose_value(spec)
        values[spec.name] = value
        if spec.location == "path":
            path = path.replace("{" + spec.name + "}", value)
        elif spec.location == "query":
            query[spec.name] = value
        else:
            body[spec.name] = value
    return RenderedStep(
        template.template_id,
        ReadyRequest(template.method, path, query, body),
        values,
    )


def render_traditional(
    template: RequestTemplate, pool: dict[str, str], rng: np.random.Generator
) -> RenderedStep:
    """Uniform random dictionary value for every non-consumer parameter."""
    return _render(
        template,
        pool,
        lambda spec: spec.dictionary[int(rng.integers(len(spec.dictionary)))],
    )


def render_with_list(
    template: RequestTemplate, pairs: PairList, pool: dict[str, str]
) -> RenderedStep:
    """Defaults everywhere, overridden by ``pairs``.

    ``pairs`` is checked where it is made: model output when it is
    published, recorded pairs and lists by construction (the store keeps
    only the template's own non-consumer parameters).
    """
    overrides = dict(pairs)
    return _render(template, pool, lambda spec: overrides.get(spec.name, spec.default))


def choose_list(
    lists: Sequence[PairList], rng: np.random.Generator
) -> PairList | None:
    """Uniform draw over available lists; ``None`` when there are none.

    An all-defaults list ``()`` is falsy, so test the result with ``is None``.
    """
    if not lists:
        return None
    return lists[int(rng.integers(len(lists)))]


def read_produced_id(body: str, pointer: str) -> str | None:
    """The id at ``pointer`` in a JSON response body, as a string.

    Tolerant: an unparsable body, a missing field or a value that is not a
    string or an integer yields ``None`` rather than an error.
    """
    try:
        node = json.loads(body) if body else None
    except json.JSONDecodeError:
        return None
    for key in pointer.lstrip("/").split("/"):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return str(node) if isinstance(node, (str, int)) else None


def render_sequence(
    candidate_ids: Sequence[str],
    grammar: CompiledGrammar,
    list_snapshot: Mapping[str, Sequence[PairList]],
    mode: RenderMode,
    rng: np.random.Generator,
    store: CollectionStore | None = None,
) -> Generator[RenderedStep, ResponseRecord, None]:
    """Render a candidate one request at a time, fed by response feedback.

    A generator: it yields each :class:`RenderedStep` and must be sent the
    resulting :class:`ResponseRecord` before it renders the next position.
    Producer ids from 2xx responses flow into the pool between positions.

    The last position is always rendered traditionally; positions before it
    follow ``mode``: the model mode uses a chosen param-value list (falling
    back to traditional when none exists yet), rec1/reclist replay one recorded
    pair / one recorded pair list on top of defaults, baseline stays fully
    random.
    """
    pool: dict[str, str] = {}
    last = len(candidate_ids) - 1
    for position, template_id in enumerate(candidate_ids):
        template = grammar.templates[template_id]
        if position == last or mode is RenderMode.BASELINE:
            step = render_traditional(template, pool, rng)
        elif mode is RenderMode.MODEL:
            chosen = choose_list(list_snapshot.get(template_id, ()), rng)
            if chosen is None:
                step = render_traditional(template, pool, rng)
            else:
                step = render_with_list(template, chosen, pool)
        elif mode is RenderMode.REC1:
            pairs = store.recorded_pairs_for(template_id) if store else ()
            chosen = (pairs[int(rng.integers(len(pairs)))],) if pairs else ()
            step = render_with_list(template, chosen, pool)
        else:  # RenderMode.RECLIST
            lists = store.recorded_lists_for(template_id) if store else ()
            chosen = lists[int(rng.integers(len(lists)))] if lists else ()
            step = render_with_list(template, chosen, pool)

        response = yield step
        if response is None:
            raise RuntimeError("render_sequence must be sent the response record")
        if response.klass is ResponseClass.PASS_2XX and template.produces:
            resource_type, pointer = template.produces
            value = read_produced_id(response.body, pointer)
            if value is not None:
                pool[resource_type] = value
