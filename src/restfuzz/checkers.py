"""Security rule checkers run after each executed sequence.

The data-driven checker replays an executed sequence, consumer ids rebound
to the objects the replayed producers return, with one randomly chosen
param-value pair the last template does not define added to the last
request; a 5xx answer flags an incorrect-parameter-usage error.  The
use-after-free checker walks a plan fixed per grammar: for each resource
type it issues create, delete, then access on the deleted object; a 2xx or
5xx answer to the access flags a violation.  Checker requests are reported
to ``observe`` but never recorded as training data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .client import HttpClient
from .collection import CollectionStore
from .execution import ExecutedSequence, ExecutedStep, Observer, send_step
from .grammar import CompiledGrammar, RequestTemplate
from .rendering import RenderedStep, read_produced_id, render_with_list
from .reporting import replay_line, run_replay
from .responses import ResponseClass

KIND_INCORRECT_PARAM_USAGE = "incorrect_param_usage"
KIND_USE_AFTER_FREE = "use_after_free"


@dataclass(frozen=True)
class Violation:
    """A checker's finding; the offending reply is ``steps[offending_index].response``."""

    kind: str
    steps: tuple[ExecutedStep, ...]
    offending_index: int


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

    if results[-1][1].klass is not ResponseClass.ERROR_5XX:
        return None
    # The replay file then expects the classes this replay saw.
    steps = [
        replace(step, response=record)
        for step, (_, record) in zip(executed.steps, results)
    ]
    injected = replace(last.request, **{location: lines[-1][location]})
    steps[-1] = replace(steps[-1], request=injected)
    return Violation(KIND_INCORRECT_PARAM_USAGE, tuple(steps), offending_index=len(steps) - 1)


class UafTarget(NamedTuple):
    """One resource type the use-after-free probe creates, deletes and reads."""

    resource_type: str
    create: RequestTemplate
    delete: RequestTemplate
    accesses: tuple[RequestTemplate, ...]  # GET consumers, in template-id order


def uaf_plan(grammar: CompiledGrammar) -> tuple[UafTarget, ...]:
    """The probe's targets, one per resource type, in type order.

    A type qualifies with a POST producer, a DELETE consumer and at least one
    GET consumer that need no id other than the one the probe creates; the
    first such create and delete in grammar order are used.
    """
    plan = []
    for resource_type in sorted(grammar.resource_types):
        own_id = {resource_type}
        creates = [t for t in grammar.producers_of(resource_type)
                   if t.method == "POST" and not t.consumed_types]
        consumers = [t for t in grammar.consumers_of(resource_type)
                     if t.consumed_types <= own_id]
        deletes = [t for t in consumers if t.method == "DELETE"]
        accesses = sorted((t for t in consumers if t.method == "GET"),
                          key=lambda t: t.template_id)
        if creates and deletes and accesses:
            plan.append(UafTarget(resource_type, creates[0], deletes[0], tuple(accesses)))
    return tuple(plan)


def _render_defaults(template: RequestTemplate, pool: dict[str, str]) -> RenderedStep:
    return render_with_list(template, (), pool)


def use_after_free_check(
    plan: Sequence[UafTarget],
    client: HttpClient,
    observe: Observer | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> Violation | None:
    """Create, delete, then access each planned type; a 2xx or 5xx access flags it.

    Every request renders with default values.  A create or delete that is
    not 2xx skips its type, and a 4xx or transport failure on an access is
    no violation.  ``should_stop`` is asked before every request; once it
    answers true the probe ends with no verdict.
    """
    stopped = should_stop or (lambda: False)
    for target in plan:
        if stopped():
            return None
        create = send_step(_render_defaults(target.create, {}), client, observe=observe)
        if create.response.klass is not ResponseClass.PASS_2XX:
            continue
        deleted_id = read_produced_id(create.response.body, target.create.produces[1])
        if deleted_id is None:
            continue
        pool = {target.resource_type: deleted_id}

        if stopped():
            return None
        delete = send_step(_render_defaults(target.delete, pool), client, observe=observe)
        if delete.response.klass is not ResponseClass.PASS_2XX:
            continue

        for accessor in target.accesses:
            if stopped():
                return None
            access = send_step(_render_defaults(accessor, pool), client, observe=observe)
            if access.response.klass in (ResponseClass.PASS_2XX, ResponseClass.ERROR_5XX):
                return Violation(KIND_USE_AFTER_FREE, (create, delete, access), offending_index=2)
    return None
