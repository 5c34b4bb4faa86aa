"""The fuzz loop's random draws, read from PCG64's raw words in blocks.

:class:`Draws` offers the two calls the loop makes, ``integers(n)`` and
``random()``, and returns for them exactly what
``np.random.default_rng(seed)`` returns, as plain Python numbers.  numpy's
``Generator.integers(n)`` for ``n`` up to 2**32 is Lemire's
multiply-and-reject on 32-bit outputs (Lemire, "Fast Random Integer
Generation in an Interval", ACM TOMACS 2019), and PCG64 hands out the low
then the high half of each 64-bit word, keeping the high half as a spare;
``random()`` is the top 53 bits of the next whole word and leaves the
spare as it is.  Doing that arithmetic here on words read with
``PCG64.random_raw`` saves numpy's per-call argument handling, and the
values rest on PCG64's raw stream, which NEP 19 keeps stable.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 256  # 64-bit words read per call into numpy
_TWO_32 = 1 << 32
_LOW_32 = _TWO_32 - 1
_TWO_NEG_53 = 1.0 / (1 << 53)


class Draws:
    """A PCG64 stream that draws as ``np.random.default_rng(seed)`` does."""

    __slots__ = ("_bits", "_words", "_spare")

    def __init__(self, seed: int | np.random.SeedSequence):
        self._bits = np.random.PCG64(seed)
        self._words = iter(())  # the rest of the current block
        self._spare: int | None = None  # the high half of a word whose low half was drawn

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._bits.random_raw(_BLOCK).tolist())
            word = next(self._words)
        return word

    def random(self) -> float:
        """A float in [0, 1), as ``Generator.random()``."""
        return (self._word() >> 11) * _TWO_NEG_53

    def integers(self, n: int) -> int:
        """An int in [0, n) for 1 <= n <= 2**32, as ``Generator.integers(n)``.

        ``n == 1`` draws nothing.
        """
        if not 1 <= n <= _TWO_32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, not {n}")
        if n == 1:
            return 0
        threshold = _TWO_32 % n  # the lowest low half that carries no bias
        while True:
            half = self._spare
            if half is None:
                word = self._word()
                self._spare = word >> 32
                half = word & _LOW_32
            else:
                self._spare = None
            scaled = half * n
            if scaled & _LOW_32 >= threshold:
                return scaled >> 32
