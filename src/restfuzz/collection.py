"""Historical datasets gathered while fuzzing.

Three stores feed the data-driven designs: valid sequence templates (seeds
for length-weighted selection, each the tuple of template ids of a whole
run), param-value pairs from 2xx responses
(recommender training data) and param-value pairs from 5xx responses (extra
ammunition for the undefined-parameter checker).  4xx and transport
outcomes are never recorded.

A param-value list is a plain :data:`PairList`, a tuple of pairs in
template parameter order; the same tuple goes from the store to the model,
into the published snapshot and into rendering.  Queries return the stored
sequences themselves, which callers must not mutate.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Mapping, NamedTuple, Sequence

from .grammar import CompiledGrammar
from .responses import ResponseClass
from .sequences import SeedPool, SequenceTemplate

_RECORDED_CLASSES = (ResponseClass.PASS_2XX, ResponseClass.ERROR_5XX)


class ParamValuePair(NamedTuple):
    """A mutated parameter and the exact string sent on the wire."""

    param_name: str
    value: str


PairList = tuple[ParamValuePair, ...]


@dataclass(frozen=True)
class PairObservation:
    template_id: str
    pair: ParamValuePair
    response_class: ResponseClass


class CollectionStore:
    """Single-writer store owned by the fuzz loop."""

    def __init__(self, grammar: CompiledGrammar, persist: IO[str] | None = None):
        self._grammar = grammar
        self._persist = persist
        self.iteration = 0  # set by the fuzz loop; never decreases
        # Insertion-ordered keys, one per distinct (template, pair, class) observation.
        self._pairs: dict[tuple[str, ParamValuePair, ResponseClass], None] = {}
        # (iteration, template id, pairs) of every 2xx request with a pair.
        self._events: list[tuple[int, str, PairList]] = []
        self._seed_keys: set[SequenceTemplate] = set()
        self._seeds = SeedPool()
        # Query indexes, kept at record time, each in first-seen order.
        self._pairs_by_template: dict[str, list[ParamValuePair]] = {}
        self._lists_by_template: dict[str, list[PairList]] = {}
        self._distinct_pairs: set[ParamValuePair] = set()
        self._undefined_by_template: dict[str, list[ParamValuePair]] = {
            template_id: [] for template_id in grammar.templates
        }

    # -- recording ---------------------------------------------------------

    def record_request_outcome(
        self,
        template_id: str,
        rendered_params: Mapping[str, str],
        response_class: ResponseClass,
    ) -> None:
        """Store the key mutations of one executed request.

        ``rendered_params`` must iterate in template parameter order.  A
        pair is a value that differs from the template's default; consumer
        (object-id) parameters have no default, so they are skipped.  Only
        2xx and 5xx outcomes are recorded, and only 2xx ones as training
        events.
        """
        if response_class not in _RECORDED_CLASSES:
            return
        defaults = self._grammar.templates[template_id].defaults()
        pairs = tuple(
            ParamValuePair(name, value)
            for name, value in rendered_params.items()
            if name in defaults and value != defaults[name]
        )
        if not pairs:
            return
        if response_class is ResponseClass.PASS_2XX:
            self._events.append((self.iteration, template_id, pairs))
            other_class = ResponseClass.ERROR_5XX
        else:
            other_class = ResponseClass.PASS_2XX
        self._lists_by_template.setdefault(template_id, []).append(pairs)
        for pair in pairs:
            key = (template_id, pair, response_class)
            if key not in self._pairs:
                # A pair new to the template, or new altogether, has a new key;
                # it is new to the template unless the other class has it.
                self._pairs[key] = None
                if (template_id, pair, other_class) not in self._pairs:
                    self._pairs_by_template.setdefault(template_id, []).append(pair)
                if pair not in self._distinct_pairs:
                    self._distinct_pairs.add(pair)
                    self._index_undefined(pair)
                self._write_line(
                    kind="pair",
                    iteration=self.iteration,
                    template=template_id,
                    param=pair.param_name,
                    value=pair.value,
                    response_class=response_class.value,
                )

    def admit_sequence(
        self, seed: SequenceTemplate, response_classes: Sequence[ResponseClass]
    ) -> bool:
        """Admit a fully executed sequence as a seed template.

        ``response_classes`` holds one class per template id of ``seed``.
        Admission requires every response in {2xx, 5xx}.  Producers whose
        ids were consumed later are 2xx by construction: ids only enter the
        pool from 2xx responses, and a consumer that finds no id aborts the
        sequence before it gets here.
        """
        if not seed:
            return False
        if any(klass not in _RECORDED_CLASSES for klass in response_classes):
            return False
        if seed not in self._seed_keys:
            self._seed_keys.add(seed)
            self._seeds.append(seed)
            self._write_line(kind="seed", iteration=self.iteration, templates=list(seed))
        return True

    # -- queries -----------------------------------------------------------

    def seed_templates(self) -> SeedPool:
        """The admitted seeds in admission order (read-only to callers)."""
        return self._seeds

    def training_corpus(self, since: int) -> list[tuple[str, PairList]]:
        """Pair lists of 2xx requests observed after iteration ``since``.

        5xx observations are not kept as events: too rare to train on,
        though the checker and ``reclist`` still use them.  Event iterations
        never decrease, so the window starts at a bisection, not a scan of
        the whole log.
        """
        first = bisect_right(self._events, since, key=itemgetter(0))
        return [(template_id, pairs) for _, template_id, pairs in self._events[first:]]

    def undefined_pairs_for(self, template_id: str) -> Sequence[ParamValuePair]:
        """Stored pairs whose parameter the given template does not define."""
        return self._undefined_by_template[template_id]

    def recorded_pairs_for(self, template_id: str) -> Sequence[ParamValuePair]:
        """Deduplicated pairs observed on one template (2xx and 5xx)."""
        return self._pairs_by_template.get(template_id, ())

    def recorded_lists_for(self, template_id: str) -> Sequence[PairList]:
        """Whole per-request pair lists observed on one template (2xx and 5xx)."""
        return self._lists_by_template.get(template_id, ())

    def pair_observations(self) -> list[PairObservation]:
        return [PairObservation(*key) for key in self._pairs]

    # -- indexes -----------------------------------------------------------

    def _index_undefined(self, pair: ParamValuePair) -> None:
        """File a pair seen for the first time under every template lacking its parameter."""
        for template_id, undefined in self._undefined_by_template.items():
            if pair.param_name not in self._grammar.templates[template_id].param_names:
                undefined.append(pair)

    # -- persistence -------------------------------------------------------

    def _write_line(self, **payload) -> None:
        if self._persist is not None:
            self._persist.write(json.dumps(payload, sort_keys=True) + "\n")
