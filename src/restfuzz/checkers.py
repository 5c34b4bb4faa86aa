"""Security rule checkers run after each executed sequence.

The data-driven checker replays an executed sequence, consumer ids rebound
to the objects the replayed producers return, with one randomly chosen
param-value pair the last template does not define added to the last
request; a 5xx answer flags an incorrect-parameter-usage error.  The
use-after-free checker issues create, delete, then access on the deleted
object; a 2xx or 5xx answer to the access flags a violation.  Checker
requests are reported to ``observe`` but never recorded as training data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .client import HttpClient
from .collection import CollectionStore, ParamValuePair
from .execution import ExecutedSequence, ExecutedStep, Observer, send_step
from .grammar import CompiledGrammar, RequestTemplate
from .rendering import (
    MissingProducerId,
    ObjectIdPool,
    ParamValueList,
    RenderedStep,
    extract_producer_ids,
    render_with_list,
)
from .reporting import replay_line, run_replay
from .responses import ResponseClass, ResponseRecord

KIND_INCORRECT_PARAM_USAGE = "incorrect_param_usage"
KIND_USE_AFTER_FREE = "use_after_free"


class SetupFailed(Exception):
    """The checker could not establish its precondition; no verdict."""


@dataclass(frozen=True)
class Violation:
    kind: str
    steps: tuple[ExecutedStep, ...]
    offending_index: int
    response: ResponseRecord
    injected_pair: ParamValuePair | None = None
    deleted_resource: tuple[str, str] | None = None  # (resource type, id)


def datadriven_check(
    executed: ExecutedSequence,
    grammar: CompiledGrammar,
    store: CollectionStore,
    rng: np.random.Generator,
    client: HttpClient,
    observe: Observer | None = None,
) -> Violation | None:
    """Replay the sequence with one undefined pair added to the last request.

    No-op when the store holds no pair the last template leaves undefined.
    The sequence goes out through :func:`run_replay`, so consumer ids are
    rebound to the objects the replayed producers return; the pair goes
    into the query string for GET/DELETE and into the body for POST/PUT.
    """
    if not executed.steps or not executed.completed:
        return None
    last = executed.steps[-1]
    candidates = store.undefined_pairs_for(last.template_id)
    if not candidates:
        return None
    pair = candidates[int(rng.integers(len(candidates)))]

    lines = [replay_line(step, grammar) for step in executed.steps]
    location = "query" if last.request.method in ("GET", "DELETE") else "body"
    lines[-1][location][pair.param_name] = pair.value
    results = run_replay(lines, client, observe)

    response = results[-1][1]
    if response.klass is not ResponseClass.ERROR_5XX:
        return None
    # The replay file then expects the classes this replay saw.
    steps = [
        replace(step, response=record)
        for step, (_, record) in zip(executed.steps, results)
    ]
    injected = replace(last.request, **{location: lines[-1][location]})
    steps[-1] = replace(steps[-1], request=injected)
    return Violation(
        KIND_INCORRECT_PARAM_USAGE,
        tuple(steps),
        offending_index=len(steps) - 1,
        response=response,
        injected_pair=pair,
    )


def _render_defaults(template: RequestTemplate, pool: ObjectIdPool) -> RenderedStep:
    return render_with_list(template, ParamValueList(template.template_id, ()), pool)


def use_after_free_check(
    grammar: CompiledGrammar,
    client: HttpClient,
    observe: Observer | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> Violation | None:
    """Create, delete, then access each deleted resource; 2xx or 5xx flags it.

    Probes every resource type that has a POST producer, a DELETE consumer
    and at least one GET consumer.  Every request renders with default
    values; a 4xx or transport failure on the access is no violation.
    Raises :class:`SetupFailed` when no type got past its create and delete
    steps.  ``should_stop`` is asked before every request; once it answers
    true the probe ends with no verdict.
    """
    stopped = should_stop or (lambda: False)
    any_setup_ok = False
    eligible = False
    for resource_type in sorted(grammar.resource_types):
        producers = [
            t for t in grammar.producers_of(resource_type) if t.method == "POST"
        ]
        deleters = [
            t for t in grammar.consumers_of(resource_type) if t.method == "DELETE"
        ]
        accessors = [
            t for t in grammar.consumers_of(resource_type) if t.method == "GET"
        ]
        if not producers or not deleters or not accessors:
            continue
        eligible = True
        pool = ObjectIdPool()
        if stopped():
            return None
        try:
            create = send_step(_render_defaults(producers[0], pool), 0,
                               client, observe=observe)
        except MissingProducerId:
            continue
        if create.response.klass is not ResponseClass.PASS_2XX:
            continue
        produced = extract_producer_ids(producers[0], create.response.body)
        if not produced:
            continue
        for rtype, value in produced:
            pool.add(rtype, value)
        deleted_id = produced[0][1]

        if stopped():
            return None
        try:
            delete = send_step(_render_defaults(deleters[0], pool), 1,
                               client, observe=observe)
        except MissingProducerId:
            continue
        if delete.response.klass is not ResponseClass.PASS_2XX:
            continue
        any_setup_ok = True

        for accessor in sorted(accessors, key=lambda t: t.template_id):
            if stopped():
                return None
            try:
                access = send_step(_render_defaults(accessor, pool), 2,
                                   client, observe=observe)
            except MissingProducerId:
                continue
            if access.response.klass in (ResponseClass.PASS_2XX, ResponseClass.ERROR_5XX):
                return Violation(
                    KIND_USE_AFTER_FREE,
                    (create, delete, access),
                    offending_index=2,
                    response=access.response,
                    deleted_resource=(resource_type, deleted_id),
                )
    if eligible and not any_setup_ok:
        raise SetupFailed("no resource type completed create + delete with 2xx")
    return None
