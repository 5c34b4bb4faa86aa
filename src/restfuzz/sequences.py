"""Sequence templates: length-weighted seed selection and BFS extension."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .grammar import CompiledGrammar
from .responses import ResponseClass

DEFAULT_MAX_SEQUENCE_LENGTH = 10


class EmptySeedSet(Exception):
    """Selection was asked to draw from zero seeds."""


@dataclass(frozen=True)
class SequenceTemplate:
    """An ordered, dependency-satisfiable list of request-template ids."""

    template_ids: tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.template_ids)

    def extended_with(self, template_id: str) -> "SequenceTemplate":
        return SequenceTemplate(self.template_ids + (template_id,))


EMPTY_SEQUENCE = SequenceTemplate()


class ExtensionResult:
    EXTENDED = "extended"
    FAILED = "failed"


def selection_weights(
    seeds: Sequence[SequenceTemplate],
) -> list[tuple[SequenceTemplate, float, float]]:
    """Weight each seed by log10(length + 1) and normalize to probabilities.

    Longer seeds get larger selection probability; the weights grow slowly
    enough that short seeds still get executions.
    """
    if not seeds:
        raise EmptySeedSet("no seed sequence templates to select from")
    weights = [math.log10(seed.length + 1) for seed in seeds]
    total = sum(weights)
    if total <= 0.0:
        # All seeds have length 0 (only possible with bootstrap-only pools);
        # fall back to uniform so selection stays well defined.
        probs = [1.0 / len(seeds)] * len(seeds)
    else:
        probs = [w / total for w in weights]
    return list(zip(seeds, weights, probs))


class SeedPool(Sequence[SequenceTemplate]):
    """Append-only seed list with a cached cumulative selection table.

    The table (the cumulative sum of the :func:`selection_weights`
    probabilities) is computed at the first draw after a change to the
    pool, not on every draw; a draw picks the same seed as a draw over a
    plain list of the same seeds.  The pool keeps every seed it is given,
    duplicates too; deduplication is the caller's business.
    """

    def __init__(self, seeds: Iterable[SequenceTemplate] = ()):
        self._seeds: list[SequenceTemplate] = list(seeds)
        self._cumulative: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, index):
        return self._seeds[index]

    def __iter__(self) -> Iterator[SequenceTemplate]:
        return iter(self._seeds)

    def append(self, seed: SequenceTemplate) -> None:
        self._seeds.append(seed)
        self._cumulative = None

    def draw(self, rng: np.random.Generator) -> SequenceTemplate:
        if self._cumulative is None:
            self._cumulative = np.cumsum(
                [prob for _, _, prob in selection_weights(self._seeds)]
            )
        draw = rng.random()
        index = int(self._cumulative.searchsorted(draw, side="right"))
        return self._seeds[min(index, len(self._seeds) - 1)]


def select_seed(seeds: Sequence[SequenceTemplate], rng: np.random.Generator) -> SequenceTemplate:
    """Draw one seed according to :func:`selection_weights`.

    A :class:`SeedPool` draws from its cached table; any other sequence
    goes through a throwaway pool.
    """
    pool = seeds if isinstance(seeds, SeedPool) else SeedPool(seeds)
    return pool.draw(rng)


def produced_types(seq: SequenceTemplate, grammar: CompiledGrammar) -> frozenset[str]:
    types = set()
    for template_id in seq.template_ids:
        produces = grammar.templates[template_id].produces
        if produces:
            types.add(produces[0])
    return frozenset(types)


def extend(
    seed: SequenceTemplate,
    grammar: CompiledGrammar,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> list[SequenceTemplate]:
    """All one-request extensions of ``seed`` that stay dependency-satisfiable.

    One candidate per template whose consumed types the seed prefix already
    produces, ordered by appended template id.  Empty when the seed sits at
    the length cap.
    """
    if seed.length >= max_sequence_length:
        return []
    available = produced_types(seed, grammar)
    return [
        seed.extended_with(template_id)
        for template_id in grammar.satisfiable_ids(available)
    ]


def classify_extension(
    candidate: SequenceTemplate, responses: Sequence[ResponseClass]
) -> str:
    """A candidate extends successfully iff its last response is 2xx."""
    if len(responses) != candidate.length:
        raise ValueError("one response class per request required")
    if responses and responses[-1] is ResponseClass.PASS_2XX:
        return ExtensionResult.EXTENDED
    return ExtensionResult.FAILED
