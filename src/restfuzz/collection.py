"""Historical datasets gathered while fuzzing.

Three stores feed the data-driven designs: valid sequence templates (seeds
for length-weighted selection), param-value pairs from 2xx responses
(recommender training data) and param-value pairs from 5xx responses (extra
ammunition for the undefined-parameter checker).  4xx and transport
outcomes are never recorded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

from .grammar import CompiledGrammar
from .responses import ResponseClass
from .sequences import SequenceTemplate

_RECORDED_CLASSES = (ResponseClass.PASS_2XX, ResponseClass.ERROR_5XX)


@dataclass(frozen=True, order=True)
class ParamValuePair:
    """A mutated parameter and the exact string sent on the wire."""

    param_name: str
    value: str


@dataclass(frozen=True)
class PairObservation:
    template_id: str
    pair: ParamValuePair
    response_class: ResponseClass


@dataclass(frozen=True)
class _RequestEvent:
    """Per-request observation: the non-default pairs one execution used."""

    iteration: int
    template_id: str
    pairs: tuple[ParamValuePair, ...]
    response_class: ResponseClass


class CollectionStore:
    """Single-writer store owned by the fuzz loop."""

    def __init__(self, grammar: CompiledGrammar, persist: IO[str] | None = None):
        self._grammar = grammar
        self._persist = persist
        self.iteration = 0
        # Insertion-ordered; one entry per distinct observation.
        self._pairs: dict[tuple[str, ParamValuePair, ResponseClass], PairObservation] = {}
        self._events: list[_RequestEvent] = []
        self._seeds: dict[tuple[str, ...], SequenceTemplate] = {}

    # -- recording ---------------------------------------------------------

    def record_request_outcome(
        self,
        template_id: str,
        rendered_params: Mapping[str, str],
        defaults: Mapping[str, str],
        response_class: ResponseClass,
    ) -> None:
        """Store the key mutations of one executed request.

        ``rendered_params`` must iterate in template parameter order;
        ``defaults`` holds the defaults of non-consumer parameters only, so
        consumer (object-id) parameters are skipped implicitly.  Only 2xx
        and 5xx outcomes are recorded.
        """
        if response_class not in _RECORDED_CLASSES:
            return
        pairs = tuple(
            ParamValuePair(name, value)
            for name, value in rendered_params.items()
            if name in defaults and value != defaults[name]
        )
        if not pairs:
            return
        self._events.append(
            _RequestEvent(self.iteration, template_id, pairs, response_class)
        )
        for pair in pairs:
            key = (template_id, pair, response_class)
            if key not in self._pairs:
                self._pairs[key] = PairObservation(template_id, pair, response_class)
                self._write_line(
                    kind="pair",
                    iteration=self.iteration,
                    template=template_id,
                    param=pair.param_name,
                    value=pair.value,
                    response_class=response_class.value,
                )

    def admit_sequence(
        self,
        template_ids: Sequence[str],
        response_classes: Sequence[ResponseClass],
    ) -> bool:
        """Admit a fully executed sequence as a seed template.

        Admission requires every response in {2xx, 5xx}.  Producers whose
        ids were consumed later are 2xx by construction: ids only enter the
        pool from 2xx responses, and a consumer that finds no id aborts the
        sequence before it gets here.
        """
        if len(response_classes) != len(template_ids):
            raise ValueError("one response class per request required")
        if not template_ids:
            return False
        if any(klass not in _RECORDED_CLASSES for klass in response_classes):
            return False
        key = tuple(template_ids)
        if key not in self._seeds:
            self._seeds[key] = SequenceTemplate(key)
            self._write_line(kind="seed", iteration=self.iteration, templates=list(key))
        return True

    # -- queries -----------------------------------------------------------

    def seed_templates(self) -> list[SequenceTemplate]:
        return list(self._seeds.values())

    def training_corpus(self, since: int) -> list[tuple[str, list[ParamValuePair]]]:
        """Pair lists of 2xx requests observed after iteration ``since``.

        5xx observations are excluded: too rare to train on, though the
        checker still uses them.
        """
        return [
            (event.template_id, list(event.pairs))
            for event in self._events
            if event.response_class is ResponseClass.PASS_2XX and event.iteration > since
        ]

    def undefined_pairs_for(self, template_id: str) -> list[ParamValuePair]:
        """Stored pairs whose parameter the given template does not define."""
        defined = self._grammar.templates[template_id].param_names
        out: list[ParamValuePair] = []
        seen: set[ParamValuePair] = set()
        for observation in self._pairs.values():
            pair = observation.pair
            if pair.param_name not in defined and pair not in seen:
                seen.add(pair)
                out.append(pair)
        return out

    def recorded_pairs_for(self, template_id: str) -> list[ParamValuePair]:
        """Deduplicated pairs observed on one template (2xx and 5xx)."""
        out: list[ParamValuePair] = []
        seen: set[ParamValuePair] = set()
        for observation in self._pairs.values():
            if observation.template_id != template_id:
                continue
            if observation.pair not in seen:
                seen.add(observation.pair)
                out.append(observation.pair)
        return out

    def recorded_lists_for(self, template_id: str) -> list[tuple[ParamValuePair, ...]]:
        """Whole per-request pair lists observed on one template."""
        return [
            event.pairs for event in self._events if event.template_id == template_id
        ]

    def pair_observations(self) -> list[PairObservation]:
        return list(self._pairs.values())

    # -- persistence -------------------------------------------------------

    def _write_line(self, **payload) -> None:
        if self._persist is not None:
            self._persist.write(json.dumps(payload, sort_keys=True) + "\n")
