"""Historical datasets gathered while fuzzing.

Three stores feed the data-driven designs: valid sequence templates (seeds
for length-weighted selection, each the tuple of template ids of a whole
run), param-value pairs from 2xx responses
(recommender training data) and param-value pairs from 5xx responses (extra
ammunition for the undefined-parameter checker).  4xx and transport
outcomes are never recorded.

A param-value list is a plain :data:`PairList`, a tuple of pairs in
template parameter order; the same tuple goes from the store to the model,
into the recommender's published mapping and into rendering.  Queries return
the stored sequences and mappings themselves, which grow as the store records
and which callers must not mutate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

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
    """Single-writer store owned by the fuzz loop.

    The store keeps no clock: ``note`` is handed each new pair and each new
    seed as a dict, for the owner to stamp and write.
    """

    def __init__(self, grammar: CompiledGrammar, note: Callable[[dict], None] = lambda _: None):
        self._grammar = grammar
        self._note = note
        # Insertion-ordered keys, one per distinct (template, pair, class) observation.
        self._pairs: dict[tuple[str, ParamValuePair, ResponseClass], None] = {}
        # (template id, pairs) of every 2xx request with a pair.
        self._events: list[tuple[str, PairList]] = []
        self._seed_keys: set[SequenceTemplate] = set()
        self._seeds = SeedPool()
        # Query indexes, kept at record time, each in first-seen order.
        self._pairs_by_template: dict[str, list[PairList]] = {}  # one-pair lists
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
            self._events.append((template_id, pairs))
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
                    self._pairs_by_template.setdefault(template_id, []).append((pair,))
                if pair not in self._distinct_pairs:
                    self._distinct_pairs.add(pair)
                    self._index_undefined(pair)
                self._note({"kind": "pair", "template": template_id, "param": pair.param_name,
                            "value": pair.value, "response_class": response_class.value})

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
            self._note({"kind": "seed", "templates": list(seed)})
        return True

    # -- queries -----------------------------------------------------------

    def seed_templates(self) -> SeedPool:
        """The admitted seeds in admission order (read-only to callers)."""
        return self._seeds

    def training_corpus(self, since: int) -> list[tuple[str, PairList]]:
        """Pair lists of 2xx requests, in order, after the one at index ``since``.

        ``since=-1`` is every event; a caller that keeps the index of the
        last event it trained on gets only what came after.  5xx observations
        are not kept as events: too rare to train on, though the checker and
        ``reclist`` still use them.
        """
        return self._events[since + 1 :]

    def undefined_pairs_for(self, template_id: str) -> Sequence[ParamValuePair]:
        """Stored pairs whose parameter the given template does not define."""
        return self._undefined_by_template[template_id]

    def recorded_pairs(self) -> Mapping[str, Sequence[PairList]]:
        """Each template's distinct observed pairs (2xx and 5xx), each a one-pair list."""
        return self._pairs_by_template

    def recorded_lists(self) -> Mapping[str, Sequence[PairList]]:
        """Each template's whole per-request pair lists observed (2xx and 5xx)."""
        return self._lists_by_template

    def pair_observations(self) -> list[PairObservation]:
        return [PairObservation(*key) for key in self._pairs]

    # -- indexes -----------------------------------------------------------

    def _index_undefined(self, pair: ParamValuePair) -> None:
        """File a pair seen for the first time under every template lacking its parameter."""
        for template_id, undefined in self._undefined_by_template.items():
            if pair.param_name not in self._grammar.templates[template_id].param_names:
                undefined.append(pair)
