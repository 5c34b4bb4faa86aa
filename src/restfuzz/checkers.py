"""Security rule checkers run after each executed sequence.

The data-driven checker re-sends an executed sequence byte-identically,
except that the last request additionally carries one randomly chosen
param-value pair the template does not define; a 5xx answer flags an
incorrect-parameter-usage error.  The use-after-free checker issues
create, delete, then access on the deleted object; any non-4xx answer to
the access flags a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .client import HttpClient
from .collection import CollectionStore, ParamValuePair
from .execution import ExecutedSequence, ExecutedStep, Observer, send_step
from .grammar import CompiledGrammar, RequestTemplate
from .rendering import (
    MissingProducerId,
    ObjectIdPool,
    ParamValueList,
    ReadyRequest,
    RenderedStep,
    extract_producer_ids,
    render_with_list,
)
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
    Every byte other than the injected parameter matches the original
    rendering; the pair goes into the query string for GET/DELETE and into
    the body for POST/PUT.
    """
    if not executed.steps or not executed.completed:
        return None
    last = executed.steps[-1]
    candidates = store.undefined_pairs_for(last.template_id)
    if not candidates:
        return None
    pair = candidates[int(rng.integers(len(candidates)))]

    for step in executed.steps[:-1]:
        send_step(step, step.position, client, store, observe)

    query = dict(last.request.query)
    body = dict(last.request.body)
    if last.request.method in ("GET", "DELETE"):
        query[pair.param_name] = pair.value
    else:
        body[pair.param_name] = pair.value
    injected = ReadyRequest(last.request.method, last.request.path, query, body,
                            dict(last.request.headers))
    # The injected parameter has no default on this template, so the
    # standard recording path never stores it as a pair.
    sent = send_step(replace(last, request=injected), last.position, client,
                     store, observe)

    if sent.response.klass is ResponseClass.ERROR_5XX:
        # Replay data pairs the original prefix (whose responses a reset
        # target reproduces once ids are rebound) with the injected request.
        steps = (*executed.steps[:-1], sent)
        return Violation(
            KIND_INCORRECT_PARAM_USAGE,
            steps,
            offending_index=len(steps) - 1,
            response=sent.response,
            injected_pair=pair,
        )
    return None


def _render_defaults(template: RequestTemplate, pool: ObjectIdPool) -> RenderedStep:
    return render_with_list(template, ParamValueList(template.template_id, ()), pool)


def use_after_free_check(
    grammar: CompiledGrammar,
    client: HttpClient,
    store: CollectionStore | None = None,
    observe: Observer | None = None,
) -> Violation | None:
    """Create, delete, then access each deleted resource; non-4xx flags it.

    Probes every resource type that has a POST producer, a DELETE consumer
    and at least one GET consumer.  Setup requests render with default
    values.  Raises :class:`SetupFailed` when no type got past its create
    and delete steps.
    """
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
        try:
            create = send_step(_render_defaults(producers[0], pool), 0,
                               client, store, observe)
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

        try:
            delete = send_step(_render_defaults(deleters[0], pool), 1,
                               client, store, observe)
        except MissingProducerId:
            continue
        if delete.response.klass is not ResponseClass.PASS_2XX:
            continue
        any_setup_ok = True

        for accessor in sorted(accessors, key=lambda t: t.template_id):
            try:
                access = send_step(_render_defaults(accessor, pool), 2,
                                   client, store, observe)
            except MissingProducerId:
                continue
            if access.response.klass is not ResponseClass.REJECT_4XX:
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
