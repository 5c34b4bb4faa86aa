from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz.draws import Draws
from restfuzz.sequences import (
    EmptySeedSet,
    SeedPool,
    SequenceTemplate,
    extend,
    select_seed,
    selection_weights,
)


def is_satisfiable(seq: SequenceTemplate, grammar) -> bool:
    """Positional satisfiability re-derived from the grammar: ``extend``'s oracle."""
    available: set[str] = set()
    for template_id in seq:
        template = grammar.templates.get(template_id)
        if template is None or not template.consumed_types <= available:
            return False
        if template.produces:
            available.add(template.produces[0])
    return True


def seeds_of_lengths(*lengths: int) -> list[SequenceTemplate]:
    return [("POST /groups",) * n for n in lengths]


class TestSelectionWeights:
    def test_weight_is_log10_of_length_plus_one(self):
        ((_, w1, _),) = selection_weights(seeds_of_lengths(1))
        assert w1 == pytest.approx(math.log10(2), abs=1e-12)
        ((_, w9, _),) = selection_weights(seeds_of_lengths(9))
        assert w9 == pytest.approx(1.0, abs=1e-12)

    def test_two_seed_normalization(self):
        weighted = selection_weights(seeds_of_lengths(1, 9))
        probs = [p for _, _, p in weighted]
        assert probs[0] == pytest.approx(0.2314, abs=1e-4)
        assert probs[1] == pytest.approx(0.7686, abs=1e-4)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_longer_seed_always_weighs_more(self):
        weighted = selection_weights(seeds_of_lengths(*range(1, 11)))
        weights = [w for _, w, _ in weighted]
        assert weights == sorted(weights)
        assert len(set(weights)) == len(weights)

    def test_empty_seed_set_raises(self):
        with pytest.raises(EmptySeedSet):
            selection_weights([])


class TestSelectSeed:
    def test_single_seed_always_selected(self, rng):
        (seed,) = seeds_of_lengths(4)
        assert select_seed([seed], rng) is seed

    def test_frequencies_follow_weights(self, rng):
        seeds = seeds_of_lengths(1, 9)
        counts = Counter(len(select_seed(seeds, rng)) for _ in range(100_000))
        assert counts[1] / 100_000 == pytest.approx(0.2314, abs=0.01)
        assert counts[9] / 100_000 == pytest.approx(0.7686, abs=0.01)

    def test_equal_lengths_select_uniformly(self, rng):
        seeds = [(f"t{i}",) * 3 for i in range(4)]
        counts = Counter(select_seed(seeds, rng)[0] for _ in range(100_000))
        for template_id in counts:
            assert counts[template_id] / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_mean_selected_length_beats_uniform(self, rng):
        # the point of length weighting: long templates get more executions
        seeds = seeds_of_lengths(*range(1, 10))
        mean = np.mean([len(select_seed(seeds, rng)) for _ in range(100_000)])
        assert mean > 5.0

    def test_deterministic_under_fixed_rng(self):
        seeds = seeds_of_lengths(1, 5, 9)
        draws1 = [len(select_seed(seeds, Draws(7))) for _ in range(1)]
        draws2 = [len(select_seed(seeds, Draws(7))) for _ in range(1)]
        assert draws1 == draws2


class FixedDraw:
    """An rng whose ``random()`` always answers ``value``."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


class TestSeedPool:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(st.integers(0, 10), st.just("draw")), min_size=1, max_size=40
        ),
        rng_seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_draws_equal_list_draws(self, ops, rng_seed):
        """Seeds admitted between draws: the cached table never goes stale."""
        pool = SeedPool()
        rng, twin = Draws(rng_seed), Draws(rng_seed)
        for op in ops:
            if op != "draw":
                pool.append(("POST /groups",) * op)
                continue
            if not pool:
                continue
            assert select_seed(pool, rng) is select_seed(list(pool), twin)
        assert rng.integers(2**32) == twin.integers(2**32)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(0, 20), min_size=1, max_size=30),
        data=st.data(),
    )
    def test_bisect_over_accumulate_picks_what_cumsum_and_searchsorted_pick(
        self, lengths, data
    ):
        """The same float64 sums, so the same index, a draw on a sum included."""
        seeds = [(f"t{i}",) * n for i, n in enumerate(lengths)]
        probs = [prob for _, _, prob in selection_weights(seeds)]
        sums = list(accumulate(probs))
        assert sums == np.cumsum(probs).tolist()
        draw = data.draw(st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(sums),
        ))
        index = int(np.cumsum(probs).searchsorted(draw, side="right"))
        assert SeedPool(seeds).draw(FixedDraw(draw)) is seeds[min(index, len(seeds) - 1)]

    def test_empty_pool_raises(self, rng):
        with pytest.raises(EmptySeedSet):
            select_seed(SeedPool(), rng)

    def test_table_is_built_once_per_change(self, rng, monkeypatch):
        from restfuzz import sequences

        builds = []
        real = sequences.selection_weights
        monkeypatch.setattr(
            sequences, "selection_weights", lambda seeds: builds.append(1) or real(seeds)
        )
        pool = SeedPool(seeds_of_lengths(1, 2))
        for _ in range(5):
            select_seed(pool, rng)
        pool.append(("POST /groups",) * 3)
        for _ in range(5):
            select_seed(pool, rng)
        assert len(builds) == 2


class TestExtend:
    def test_empty_seed_extends_with_producers_only(self, two_template_grammar):
        candidates = extend((), two_template_grammar)
        assert candidates == [("POST /groups",)]

    def test_producer_seed_extends_with_both(self, two_template_grammar):
        (post,) = extend((), two_template_grammar)
        candidates = extend(post, two_template_grammar)
        assert candidates == [
            ("POST /groups", "GET /groups/{id}"),
            ("POST /groups", "POST /groups"),
        ]

    def test_seed_at_cap_extends_to_nothing(self, two_template_grammar):
        seed = ("POST /groups",) * 10
        assert extend(seed, two_template_grammar, max_sequence_length=10) == []

    def test_candidates_are_always_satisfiable(self, two_template_grammar):
        frontier = [()]
        for _ in range(4):
            frontier = [
                candidate
                for seed in frontier
                for candidate in extend(seed, two_template_grammar)
            ]
            for candidate in frontier:
                assert is_satisfiable(candidate, two_template_grammar)

    def test_consumer_first_sequence_is_unsatisfiable(self, two_template_grammar):
        bad = ("GET /groups/{id}",)
        assert not is_satisfiable(bad, two_template_grammar)
