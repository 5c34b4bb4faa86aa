from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz.responses import ResponseClass
from restfuzz.sequences import (
    EMPTY_SEQUENCE,
    EmptySeedSet,
    ExtensionResult,
    SeedPool,
    SequenceTemplate,
    classify_extension,
    extend,
    select_seed,
    selection_weights,
)


def is_satisfiable(seq: SequenceTemplate, grammar) -> bool:
    """Positional satisfiability re-derived from the grammar: ``extend``'s oracle."""
    available: set[str] = set()
    for template_id in seq.template_ids:
        template = grammar.templates.get(template_id)
        if template is None or not template.consumed_types <= available:
            return False
        if template.produces:
            available.add(template.produces[0])
    return True


def seeds_of_lengths(*lengths: int) -> list[SequenceTemplate]:
    return [SequenceTemplate(("POST /groups",) * n) for n in lengths]


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
        counts = Counter(select_seed(seeds, rng).length for _ in range(100_000))
        assert counts[1] / 100_000 == pytest.approx(0.2314, abs=0.01)
        assert counts[9] / 100_000 == pytest.approx(0.7686, abs=0.01)

    def test_equal_lengths_select_uniformly(self, rng):
        seeds = [SequenceTemplate((f"t{i}",) * 3) for i in range(4)]
        counts = Counter(
            select_seed(seeds, rng).template_ids[0] for _ in range(100_000)
        )
        for template_id in counts:
            assert counts[template_id] / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_mean_selected_length_beats_uniform(self, rng):
        # the point of length weighting: long templates get more executions
        seeds = seeds_of_lengths(*range(1, 10))
        mean = np.mean([select_seed(seeds, rng).length for _ in range(100_000)])
        assert mean > 5.0

    def test_deterministic_under_fixed_rng(self):
        seeds = seeds_of_lengths(1, 5, 9)
        draws1 = [
            select_seed(seeds, np.random.default_rng(7)).length for _ in range(1)
        ]
        draws2 = [
            select_seed(seeds, np.random.default_rng(7)).length for _ in range(1)
        ]
        assert draws1 == draws2


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
        rng = np.random.default_rng(rng_seed)
        for op in ops:
            if op != "draw":
                pool.append(SequenceTemplate(("POST /groups",) * op))
                continue
            if not pool:
                continue
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            assert select_seed(pool, rng) is select_seed(list(pool), twin)
            assert rng.bit_generator.state == twin.bit_generator.state

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
        pool.append(SequenceTemplate(("POST /groups",) * 3))
        for _ in range(5):
            select_seed(pool, rng)
        assert len(builds) == 2


class TestExtend:
    def test_empty_seed_extends_with_producers_only(self, two_template_grammar):
        candidates = extend(EMPTY_SEQUENCE, two_template_grammar)
        assert [c.template_ids for c in candidates] == [("POST /groups",)]

    def test_producer_seed_extends_with_both(self, two_template_grammar):
        (post,) = extend(EMPTY_SEQUENCE, two_template_grammar)
        candidates = extend(post, two_template_grammar)
        assert [c.template_ids for c in candidates] == [
            ("POST /groups", "GET /groups/{id}"),
            ("POST /groups", "POST /groups"),
        ]

    def test_seed_at_cap_extends_to_nothing(self, two_template_grammar):
        seed = SequenceTemplate(("POST /groups",) * 10)
        assert extend(seed, two_template_grammar, max_sequence_length=10) == []

    def test_candidates_are_always_satisfiable(self, two_template_grammar):
        frontier = [EMPTY_SEQUENCE]
        for _ in range(4):
            frontier = [
                candidate
                for seed in frontier
                for candidate in extend(seed, two_template_grammar)
            ]
            for candidate in frontier:
                assert is_satisfiable(candidate, two_template_grammar)

    def test_consumer_first_sequence_is_unsatisfiable(self, two_template_grammar):
        bad = SequenceTemplate(("GET /groups/{id}",))
        assert not is_satisfiable(bad, two_template_grammar)


class TestClassifyExtension:
    @pytest.mark.parametrize(
        "klass,expected",
        [
            (ResponseClass.PASS_2XX, ExtensionResult.EXTENDED),
            (ResponseClass.ERROR_5XX, ExtensionResult.FAILED),
            (ResponseClass.REJECT_4XX, ExtensionResult.FAILED),
        ],
    )
    def test_last_response_decides(self, klass, expected):
        candidate = SequenceTemplate(("POST /groups", "GET /groups/{id}"))
        got = classify_extension(candidate, [ResponseClass.PASS_2XX, klass])
        assert got == expected

    def test_response_count_must_match(self):
        with pytest.raises(ValueError):
            classify_extension(SequenceTemplate(("a",)), [])
