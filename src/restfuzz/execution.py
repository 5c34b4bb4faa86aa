"""Send and record one request, the path every sender takes; drive a rendered sequence.

An executed sequence is the list of :class:`ExecutedStep` it sent.

This is the per-request path, and the benchmark (``bench/``) times it by
patching names from outside the package, so an edit here or in the modules
it calls keeps them: :func:`render_sequence` is looked up in this module
and stays a generator that yields one step per position (each ``next()``
is timed as one rendering); ``HttpClient.send`` keeps its name;
``RunMetrics.observe`` runs once per request (the benchmark counts requests
with it); ``orchestrator`` looks up ``execute_candidate``, ``select_seed``
and ``extend`` by name; and the ``CollectionStore`` methods
``record_request_outcome``, ``undefined_pairs_for``, ``training_corpus``,
``admit_sequence`` and ``seed_templates`` keep their names.
``tests/test_bench_hooks.py`` runs those hooks on a short traced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .client import HttpClient, ReadyRequest
from .collection import CollectionStore, PairList
from .config import RenderMode
from .draws import Draws
from .grammar import CompiledGrammar
from .rendering import MissingProducerId, RenderedStep, note_produced_id, render_sequence
from .responses import ResponseRecord
from .sequences import SequenceTemplate

Observer = Callable[[str, ResponseRecord], None]


@dataclass(slots=True)
class ExecutedStep:
    template_id: str
    request: ReadyRequest
    rendered_params: dict[str, str]
    response: ResponseRecord


def send_step(
    step: RenderedStep,
    client: HttpClient,
    store: CollectionStore | None = None,
    observe: Observer | None = None,
) -> ExecutedStep:
    """Send one request, report it to ``observe`` and record its outcome.

    Only the main loop passes a ``store``: replay and checker requests are
    reported to ``observe`` but never become training data.
    """
    record = client.send(step.request)
    if observe is not None:
        observe(step.template_id, record)
    if store is not None:
        store.record_request_outcome(step.template_id, step.rendered_params, record.klass)
    return ExecutedStep(step.template_id, step.request, step.rendered_params, record)


def execute_candidate(
    candidate: SequenceTemplate,
    grammar: CompiledGrammar,
    lists: Mapping[str, Sequence[PairList]],
    mode: RenderMode,
    rng: Draws,
    client: HttpClient,
    store: CollectionStore | None = None,
    observe: Observer | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> list[ExecutedStep]:
    """Render, send and record a candidate sequence; return the steps sent.

    Producer ids flow into the pool between positions; outcomes are written
    through the collection store's standard recording path.  A consumer
    whose producer never yielded an id, or a budget that runs out, cuts the
    run short: it ran whole exactly when there is one step per template id.
    """
    steps: list[ExecutedStep] = []
    pool: dict[str, str] = {}
    rendered_steps = render_sequence(candidate, grammar, lists, mode, rng, pool)
    try:
        for rendered in rendered_steps:
            if should_stop is not None and should_stop():
                break
            step = send_step(rendered, client, store, observe)
            steps.append(step)
            note_produced_id(pool, grammar.templates[step.template_id].produces, step.response)
    except MissingProducerId:
        pass
    return steps
