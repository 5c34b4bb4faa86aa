"""Send one request and record it; drive a rendered sequence against the target."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .client import HttpClient
from .collection import CollectionStore, PairList
from .grammar import CompiledGrammar
from .rendering import (
    MissingProducerId,
    ReadyRequest,
    RenderedStep,
    RenderMode,
    render_sequence,
)
from .responses import ResponseClass, ResponseRecord

Observer = Callable[[str, ResponseRecord], None]


@dataclass(frozen=True)
class ExecutedStep:
    template_id: str
    request: ReadyRequest
    rendered_params: dict[str, str]
    response: ResponseRecord


@dataclass
class ExecutedSequence:
    template_ids: tuple[str, ...]
    steps: list[ExecutedStep]
    completed: bool

    @property
    def response_classes(self) -> list[ResponseClass]:
        return [step.response.klass for step in self.steps]

    @property
    def sent(self) -> int:
        return len(self.steps)


def send_step(
    step: RenderedStep,
    client: HttpClient,
    store: CollectionStore | None = None,
    observe: Observer | None = None,
) -> ExecutedStep:
    """Send one request, report it to ``observe`` and record its outcome.

    The path every request of the main loop and the use-after-free probe
    takes; replayed sequences go through :func:`reporting.run_replay`.
    """
    record = client.send(step.request)
    if observe is not None:
        observe(step.template_id, record)
    if store is not None:
        store.record_request_outcome(step.template_id, step.rendered_params, record.klass)
    return ExecutedStep(step.template_id, step.request, step.rendered_params, record)


def execute_candidate(
    candidate_ids: Sequence[str],
    grammar: CompiledGrammar,
    list_snapshot: Mapping[str, Sequence[PairList]],
    mode: RenderMode,
    rng: np.random.Generator,
    client: HttpClient,
    store: CollectionStore | None = None,
    observe: Observer | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> ExecutedSequence:
    """Render, send and record a candidate sequence request by request.

    Producer ids flow into the pool between positions; outcomes are written
    through the collection store's standard recording path.  A consumer
    whose producer never yielded an id, or a budget that runs out, ends the
    execution incomplete.
    """
    executed = ExecutedSequence(tuple(candidate_ids), [], completed=False)
    generator = render_sequence(candidate_ids, grammar, list_snapshot, mode, rng, store)
    record: ResponseRecord | None = None
    try:
        while True:
            rendered = generator.send(record) if record is not None else next(generator)
            if should_stop is not None and should_stop():
                return executed
            step = send_step(rendered, client, store, observe)
            executed.steps.append(step)
            record = step.response
    except StopIteration:
        executed.completed = True
    except MissingProducerId:
        pass
    return executed
