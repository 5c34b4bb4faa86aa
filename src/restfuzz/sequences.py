"""Sequence templates: length-weighted seed selection and BFS extension.

A sequence template is a plain tuple of request-template ids; the empty
tuple is the template every extension process starts from.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate

from .config import DEFAULT_MAX_SEQUENCE_LENGTH
from .draws import Draws
from .grammar import CompiledGrammar


class EmptySeedSet(Exception):
    """Selection was asked to draw from zero seeds."""


# An ordered, dependency-satisfiable list of request-template ids.
SequenceTemplate = tuple[str, ...]


def selection_weights(
    seeds: Sequence[SequenceTemplate],
) -> list[tuple[SequenceTemplate, float, float]]:
    """Weight each seed by log10(length + 1) and normalize to probabilities.

    Longer seeds get larger selection probability; the weights grow slowly
    enough that short seeds still get executions.
    """
    if not seeds:
        raise EmptySeedSet("no seed sequence templates to select from")
    weights = [math.log10(len(seed) + 1) for seed in seeds]
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
        self._cumulative: list[float] | None = None

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, index):
        return self._seeds[index]

    def __iter__(self) -> Iterator[SequenceTemplate]:
        return iter(self._seeds)

    def append(self, seed: SequenceTemplate) -> None:
        self._seeds.append(seed)
        self._cumulative = None

    def draw(self, rng: Draws) -> SequenceTemplate:
        if self._cumulative is None:
            self._cumulative = list(
                accumulate(prob for _, _, prob in selection_weights(self._seeds))
            )
        index = bisect_right(self._cumulative, rng.random())
        return self._seeds[min(index, len(self._seeds) - 1)]


def select_seed(seeds: Sequence[SequenceTemplate], rng: Draws) -> SequenceTemplate:
    """Draw one seed according to :func:`selection_weights`.

    A :class:`SeedPool` draws from its cached table; any other sequence
    goes through a throwaway pool.
    """
    pool = seeds if isinstance(seeds, SeedPool) else SeedPool(seeds)
    return pool.draw(rng)


def produced_types(seq: SequenceTemplate, grammar: CompiledGrammar) -> frozenset[str]:
    types = set()
    for template_id in seq:
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
    if len(seed) >= max_sequence_length:
        return []
    available = produced_types(seed, grammar)
    return [seed + (template_id,) for template_id in grammar.satisfiable_ids(available)]
