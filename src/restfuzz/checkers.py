"""Security rule checkers run after each executed sequence.

The data-driven checker replays the steps of a whole run, consumer ids rebound
to the objects the replayed producers return, with one param-value pair
the last template does not define, drawn from those the caller passes,
added to the last request; a 5xx answer flags an incorrect-parameter-usage error.  It sends
each (template ids, pair) key once: a key drawn again sends nothing.  The
use-after-free checker walks a plan fixed per grammar: for each resource
type it issues create, delete, then access on the deleted object; a 2xx or
5xx answer to the access flags a violation.  Both send through
:func:`execution.send_step`, so checker requests are reported to
``observe`` but never recorded as training data.  A finding is the list of
steps a checker sent, exactly as they were sent, the offending reply last;
no finding is ``None``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .client import HttpClient
from .collection import ParamValuePair
from .execution import ExecutedStep, Observer, send_step
from .grammar import CompiledGrammar, RequestTemplate
from .rendering import note_produced_id, render_with_list
from .reporting import replay_line, run_replay
from .responses import ResponseClass
from .sequences import SequenceTemplate

KIND_INCORRECT_PARAM_USAGE = "incorrect_param_usage"
KIND_USE_AFTER_FREE = "use_after_free"

# A replay's memo key: the whole run's template ids and the injected pair.
ReplayKey = tuple[SequenceTemplate, ParamValuePair]


def datadriven_check(
    steps: Sequence[ExecutedStep],
    candidates: Sequence[ParamValuePair],
    grammar: CompiledGrammar,
    rng: np.random.Generator,
    client: HttpClient,
    replayed: set[ReplayKey],
    observe: Observer | None = None,
) -> list[ExecutedStep] | None:
    """Replay a whole run's steps with one of ``candidates`` added to the last request.

    ``candidates`` are the recorded pairs the last template leaves undefined.
    No-op when there are none, or when the drawn pair's key is already in
    ``replayed``; the pair is drawn either way, and a new key is added
    before its replay goes out, whatever the replay's outcome.  Rendered values are not in the key:
    every run renders fresh ones, so such a key would almost never repeat.
    The sequence goes out through :func:`run_replay`, so consumer ids are
    rebound to the objects the replayed producers return; the pair goes
    into the query string for GET/DELETE and into the body for POST/PUT.
    A finding is the replayed steps, ids and injected pair as sent.
    """
    if not candidates:
        return None
    pair = candidates[int(rng.integers(len(candidates)))]
    key = (tuple(step.template_id for step in steps), pair)
    if key in replayed:
        return None
    replayed.add(key)

    lines = [replay_line(step, grammar) for step in steps]
    location = "query" if steps[-1].request.method in ("GET", "DELETE") else "body"
    lines[-1][location][pair.param_name] = pair.value
    sent = run_replay(lines, client, observe)
    return sent if sent[-1].response.klass is ResponseClass.ERROR_5XX else None


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


def use_after_free_check(
    plan: Sequence[UafTarget],
    client: HttpClient,
    observe: Observer | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> list[ExecutedStep] | None:
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
        pool: dict[str, str] = {}
        create = send_step(render_with_list(target.create, (), pool), client, observe=observe)
        note_produced_id(pool, target.create.produces, create.response)
        if target.resource_type not in pool:
            continue

        if stopped():
            return None
        delete = send_step(render_with_list(target.delete, (), pool), client, observe=observe)
        if delete.response.klass is not ResponseClass.PASS_2XX:
            continue

        for accessor in target.accesses:
            if stopped():
                return None
            access = send_step(render_with_list(accessor, (), pool), client, observe=observe)
            if access.response.klass in (ResponseClass.PASS_2XX, ResponseClass.ERROR_5XX):
                return [create, delete, access]
    return None
