"""Words over {L, R} as finite ordered bisets.

A word ``alpha`` over the two-symbol alphabet ``{L, R}`` turns its set of
positions ``{1, ..., n}`` into an ordered biset: each position is *left* or
*right*, and besides the natural order the positions carry the *standard
order*, written ``i lessdot j``:

* left positions come first, in increasing natural order,
* right positions follow, in decreasing natural order.

In the two-string diagram of a word (left positions on a left string, right
positions on a right string, natural order top-down) the standard order is
the order in which the dots are met when walking down the left string and
back up the right one.

Positions are 1-based throughout.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

LEFT = "L"
RIGHT = "R"


def check_lr_word(alpha: str) -> str:
    """Validate a word over {L, R} and return it unchanged."""
    for ch in alpha:
        if ch not in (LEFT, RIGHT):
            raise ValueError(f"not an L/R word: {alpha!r}")
    return alpha


class StdOrder:
    """The standard order on the positions of an {L, R}-word.

    ``perm`` lists the positions ``1..n`` in increasing standard order; the
    derived comparison helpers (:meth:`lt`, :meth:`min_of`, :meth:`max_of`,
    :meth:`is_interval`) are all expressed through it.
    """

    __slots__ = ("alpha", "perm", "_rank")

    def __init__(self, alpha: str):
        check_lr_word(alpha)
        lefts = [i for i, ch in enumerate(alpha, start=1) if ch == LEFT]
        rights = [i for i, ch in enumerate(alpha, start=1) if ch == RIGHT]
        self.alpha = alpha
        self.perm = tuple(lefts + rights[::-1])
        rank = [0] * (len(alpha) + 1)
        for r, pos in enumerate(self.perm, start=1):
            rank[pos] = r
        self._rank = rank

    def __len__(self) -> int:
        return len(self.perm)

    def __repr__(self) -> str:
        return f"StdOrder({self.alpha!r}, perm={self.perm})"

    def rank(self, i: int) -> int:
        """1-based rank of position ``i`` in the standard order."""
        if not 1 <= i <= len(self.perm):
            raise ValueError(f"position {i} out of range 1..{len(self.perm)}")
        return self._rank[i]

    def lt(self, i: int, j: int) -> bool:
        """True iff ``i lessdot j``."""
        return self.rank(i) < self.rank(j)

    def sort_positions(self, positions: Iterable[int]) -> tuple[int, ...]:
        """Positions sorted into increasing standard order."""
        return tuple(sorted(positions, key=self.rank))

    def min_of(self, positions: Iterable[int]) -> int:
        """The lessdot-minimum of a nonempty position set."""
        positions = list(positions)
        if not positions:
            raise ValueError("min_of of an empty position set")
        return min(positions, key=self.rank)

    def max_of(self, positions: Iterable[int]) -> int:
        """The lessdot-maximum of a nonempty position set."""
        positions = list(positions)
        if not positions:
            raise ValueError("max_of of an empty position set")
        return max(positions, key=self.rank)

    def is_interval(self, positions: Iterable[int]) -> bool:
        """True iff the set occupies consecutive slots of ``perm``.

        The empty set counts as an interval.
        """
        ranks = sorted(self._rank[i] for i in positions)
        if not ranks:
            return True
        return ranks[-1] - ranks[0] + 1 == len(ranks)

    def before(self, i: int) -> tuple[int, ...]:
        """Positions strictly lessdot-smaller than ``i``, in natural order."""
        r = self.rank(i)
        return tuple(sorted(self.perm[: r - 1]))

    def after(self, i: int) -> tuple[int, ...]:
        """Positions strictly lessdot-larger than ``i``, in natural order."""
        r = self.rank(i)
        return tuple(sorted(self.perm[r:]))


@lru_cache(maxsize=65536)
def standard_order(alpha: str) -> StdOrder:
    """Standard order of an {L, R}-word (cached per word)."""
    return StdOrder(alpha)


def restrict_lr(alpha: str, positions: Iterable[int]) -> str:
    """Subword of ``alpha`` at the given positions, in natural order."""
    n = len(alpha)
    out = []
    for i in sorted(set(positions)):
        if not 1 <= i <= n:
            raise ValueError(f"position {i} out of range 1..{n}")
        out.append(alpha[i - 1])
    return "".join(out)
