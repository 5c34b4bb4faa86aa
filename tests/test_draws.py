"""``Draws`` returns what ``np.random.default_rng`` returns for the same calls."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restfuzz.draws import Draws

# Edge bounds: no draw, the halves of the 32-bit range, a bound that
# rejects a quarter of its draws, and the whole 32-bit range.
EDGE_BOUNDS = [1, 2, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]

calls = st.one_of(
    st.just("random"),
    st.sampled_from(EDGE_BOUNDS),
    st.integers(1, 2**32),
)


class TestEqualToNumpy:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        pattern=st.lists(calls, min_size=1, max_size=40),
        repeats=st.integers(1, 30),
    )
    def test_any_mixed_sequence_of_calls(self, seed, pattern, repeats):
        """Up to 1200 calls: long runs read past the first block of words."""
        ours, numpy_rng = Draws(seed), np.random.default_rng(seed)
        for call in pattern * repeats:
            if call == "random":
                got, expected = ours.random(), numpy_rng.random()
                assert type(got) is float
            else:
                got, expected = ours.integers(call), numpy_rng.integers(call)
                assert type(got) is int
            assert got == expected, call

    def test_past_several_blocks(self):
        ours, numpy_rng = Draws(2024), np.random.default_rng(2024)
        assert [ours.integers(7) for _ in range(2000)] == numpy_rng.integers(7, size=2000).tolist()
        assert [ours.random() for _ in range(700)] == numpy_rng.random(700).tolist()

    def test_random_leaves_the_spare_half(self):
        """The high half of a word whose low half was drawn outlives a ``random()``."""
        ours, numpy_rng = Draws(5), np.random.default_rng(5)
        for rng in (ours, numpy_rng):
            rng.integers(2**32)
        assert ours.random() == numpy_rng.random()
        assert ours.integers(2**32) == numpy_rng.integers(2**32)

    def test_a_bound_of_one_draws_nothing(self):
        ours, twin = Draws(9), Draws(9)
        assert [ours.integers(1) for _ in range(5)] == [0] * 5
        assert ours.integers(2**32) == twin.integers(2**32)


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_a_bound_outside_one_to_two_to_the_32_raises(n):
    with pytest.raises(ValueError):
        Draws(0).integers(n)
