"""Incomplete words on a two-faced family of variables.

An *incomplete word* mixes concrete variable letters (opaque) with the
placeholder letters ``L`` and ``R`` (translucent).  Its *type* is the
translucent word recording side and opacity per position.  Words compose
like translucent words do: the left word overwrites the placeholders of the
right one.  Dually, the decomposition coproduct of a word sums its
*admissible cuts* ``(restriction, translucidation)`` over all position sets
sandwiched between the translucent positions and everything.  Those sets
depend on the type alone, so the type's record in :mod:`bifc.translucent`
holds them compiled into letter pickers (``_facts(t).plan(keep_min)``),
which the types of all side patterns of one mask share.

The reduced coproduct splits in two according to whether the cut keeps the
lessdot-first opaque letter in the left factor (``coproduct_left``) or in
the right factor (``coproduct_right``); both keep only terms whose factors
each contain at least one variable.

Words also carry a partial *horizontal product*: two words whose types are
the two splits of an ambient translucent word ``t`` at a translucent
position ``i`` concatenate, in standard order, into a word of type ``t``
with a placeholder at ``i``.  The ambient pair ``(t, i)`` is always passed
explicitly since it is not determined by the factors.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .biset import LEFT, RIGHT, standard_order
from .translucent import TranslucentWord, _facts, _split_at, translucent_positions

PLACEHOLDERS = (LEFT, RIGHT)


class Alphabet(NamedTuple):
    left: frozenset[str]
    right: frozenset[str]

    @classmethod
    def make(cls, left: Iterable[str], right: Iterable[str]) -> "Alphabet":
        left, right = frozenset(left), frozenset(right)
        for name in left | right:
            if name in PLACEHOLDERS:
                raise ValueError(f"variable name {name!r} collides with a placeholder")
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"bad variable name {name!r}")
        if left & right:
            raise ValueError(f"left/right names overlap: {sorted(left & right)}")
        return cls(left, right)

    def side_of(self, name: str) -> str:
        if name in self.left or name == LEFT:
            return LEFT
        if name in self.right or name == RIGHT:
            return RIGHT
        raise ValueError(f"unknown letter name {name!r}")

    def word(self, letters: Iterable[str] | str) -> "IncompleteWord":
        """Build a word from letters, or from a space-separated string."""
        if isinstance(letters, str):
            letters = letters.split()
        letters = tuple(letters)
        return IncompleteWord(letters, "".join(self.side_of(x) for x in letters))

    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(self.left)) + tuple(sorted(self.right))

    def complete_words(self, max_len: int, min_len: int = 0) -> Iterator["IncompleteWord"]:
        """All variable-only words with ``min_len <= length <= max_len``."""
        for n in range(min_len, max_len + 1):
            for combo in product(self.letters(), repeat=n):
                yield self.word(combo)

    def words(self, max_len: int, min_len: int = 0) -> Iterator["IncompleteWord"]:
        """All incomplete words (placeholders allowed) up to ``max_len``."""
        pool = self.letters() + PLACEHOLDERS
        for n in range(min_len, max_len + 1):
            for combo in product(pool, repeat=n):
                yield self.word(combo)

    def words_of_type(self, t: TranslucentWord) -> Iterator["IncompleteWord"]:
        """All words with the given type."""
        pools = []
        for side, bit in zip(t.alpha, t.mask):
            if bit == "0":
                pools.append((side,))
            elif side == LEFT:
                pools.append(tuple(sorted(self.left)))
            else:
                pools.append(tuple(sorted(self.right)))
        for combo in product(*pools):
            yield IncompleteWord(tuple(combo), t.alpha)


class IncompleteWord(NamedTuple):
    letters: tuple[str, ...]
    sides: str

    @property
    def text(self) -> str:
        return " ".join(self.letters)

    def __str__(self) -> str:
        return self.text if self.letters else "(empty)"

    def __len__(self) -> int:
        return len(self.letters)


EMPTY_WORD = IncompleteWord((), "")


@lru_cache(maxsize=65536)
def type_of(w: IncompleteWord) -> TranslucentWord:
    """Type: the side pattern with mask 1 exactly on the variable letters."""
    mask = "".join("0" if x in PLACEHOLDERS else "1" for x in w.letters)
    return TranslucentWord(w.sides, mask)


def opaque_positions_w(w: IncompleteWord) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(w.letters, start=1) if x not in PLACEHOLDERS)


def translucent_positions_w(w: IncompleteWord) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(w.letters, start=1) if x in PLACEHOLDERS)


def is_complete(w: IncompleteWord) -> bool:
    return all(x not in PLACEHOLDERS for x in w.letters)


def is_placeholder_only(w: IncompleteWord) -> bool:
    return all(x in PLACEHOLDERS for x in w.letters)


def placeholder_word(alpha: str) -> IncompleteWord:
    """The placeholder-only word with side pattern ``alpha``."""
    return IncompleteWord(tuple(alpha), alpha)


def _restrict_sorted(w: IncompleteWord, pos) -> IncompleteWord:
    # pos must be sorted, in-range and duplicate-free
    return IncompleteWord(
        tuple(w.letters[i - 1] for i in pos),
        "".join(w.sides[i - 1] for i in pos),
    )


def restrict_word(w: IncompleteWord, positions: Iterable[int]) -> IncompleteWord:
    """Subword at the given positions, natural order."""
    pos = sorted(set(positions))
    n = len(w.letters)
    for i in pos:
        if not 1 <= i <= n:
            raise ValueError(f"position {i} out of range 1..{n}")
    return _restrict_sorted(w, pos)


def _translucidate_set(w: IncompleteWord, pos) -> IncompleteWord:
    # pos is any container of in-range positions
    letters = tuple(
        w.sides[i - 1] if i in pos else x for i, x in enumerate(w.letters, start=1)
    )
    return IncompleteWord(letters, w.sides)


def translucidate_word(w: IncompleteWord, positions: Iterable[int]) -> IncompleteWord:
    """Replace the letters at the given positions by their placeholder."""
    pos = set(positions)
    n = len(w.letters)
    for i in pos:
        if not 1 <= i <= n:
            raise ValueError(f"position {i} out of range 1..{n}")
    return _translucidate_set(w, pos)


def compose_words(w: IncompleteWord, wp: IncompleteWord) -> IncompleteWord:
    """``w`` overwrites the placeholders of ``wp``.

    Requires ``source(type_of(w)) == target(type_of(wp))``.
    """
    facts = _facts(type_of(wp))
    if w.sides != facts.target:
        raise ValueError(
            f"words not composable: source {w.sides!r} != target {facts.target!r}"
        )
    letters = list(wp.letters)
    for k, i in enumerate(facts.translucent):
        letters[i - 1] = w.letters[k]
    return IncompleteWord(tuple(letters), wp.sides)


class WordSum:
    """Finite multiset of (left, right) word pairs with integer multiplicities."""

    __slots__ = ("counter",)

    def __init__(self, pairs: Iterable[tuple[IncompleteWord, IncompleteWord]] = ()):
        self.counter: Counter = Counter(pairs)

    def add(self, pair: tuple[IncompleteWord, IncompleteWord], mult: int = 1) -> None:
        self.counter[pair] += mult

    def items(self):
        return self.counter.items()

    def __iter__(self):
        return iter(self.counter.elements())

    def __len__(self) -> int:
        return sum(self.counter.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and self.counter == other.counter

    def __add__(self, other: "WordSum") -> "WordSum":
        out = WordSum()
        out.counter = self.counter + other.counter
        return out

    def __repr__(self) -> str:
        terms = sorted(
            (f"{l.text!r} (x) {r.text!r}" + (f" *{m}" if m != 1 else ""))
            for (l, r), m in self.counter.items()
        )
        return "WordSum[" + " + ".join(terms) + "]"


def min_opaque(w: IncompleteWord) -> int:
    """The lessdot-first opaque position; error on placeholder-only words."""
    first = _facts(type_of(w)).first
    if first is None:
        raise ValueError(f"word has no opaque letter: {w.text!r}")
    return first


def admissible_cuts(
    w: IncompleteWord, keep_min: bool | None = None
) -> Iterator[tuple[IncompleteWord, IncompleteWord]]:
    """Cuts ``(restriction, translucidation)`` at the kept sets of ``w``.

    ``2**(number of variables)`` of them with ``keep_min=None``; half as
    many when ``keep_min`` keeps (``True``) or drops (``False``) the
    lessdot-first opaque position.  The trivial cuts are included.  The
    kept sets depend on the type only; see :meth:`bifc.translucent._Facts.plan`.
    """
    letters, sides = w.letters, w.sides
    both = letters + tuple(sides)
    for restrict, kept_sides, translucidate in _facts(type_of(w)).plan(keep_min):
        yield (IncompleteWord(restrict(letters), kept_sides),
               IncompleteWord(translucidate(both), sides))


def coproduct(w: IncompleteWord) -> WordSum:
    """Decomposition coproduct: the sum of all admissible cuts of ``w``."""
    return WordSum(admissible_cuts(w))


def coproduct_left(w: IncompleteWord) -> WordSum:
    """Left half of the reduced coproduct.

    Sums the cuts keeping the lessdot-first opaque letter on the left,
    with both factors required to contain a variable.
    """
    out = WordSum()
    for left, right in admissible_cuts(w, True):
        if not is_placeholder_only(right):
            out.add((left, right))
    return out


def coproduct_right(w: IncompleteWord) -> WordSum:
    """Right half of the reduced coproduct: the first opaque letter moves right."""
    out = WordSum()
    for left, right in admissible_cuts(w, False):
        if not is_placeholder_only(left):
            out.add((left, right))
    return out


def reduced_coproduct(w: IncompleteWord) -> WordSum:
    """Coproduct minus its two trivial terms; equals left plus right halves."""
    out = WordSum()
    for left, right in admissible_cuts(w):
        if not is_placeholder_only(left) and not is_placeholder_only(right):
            out.add((left, right))
    return out


# ---------------------------------------------------------------------------
# horizontal product

def horizontal_product(
    w_minus: IncompleteWord,
    w_plus: IncompleteWord,
    t: TranslucentWord,
    i: int,
) -> IncompleteWord:
    """Concatenate two words inside the ambient ``(t, i)``.

    ``i`` must be translucent in ``t`` and the factor types must equal the
    two splits of ``t`` at ``i``.  The result is the unique word of type
    ``t`` that restricts to ``w_minus`` before ``i`` (standard order), has
    the placeholder of ``t`` at ``i`` and restricts to ``w_plus`` after.
    """
    if t.mask[i - 1] != "0":
        raise ValueError(f"ambient position {i} is not translucent in {t}")
    before, after, t_minus, t_plus = _split_at(t, i)
    if type_of(w_minus) != t_minus:
        raise ValueError(f"left factor type {type_of(w_minus)} != split {t_minus}")
    if type_of(w_plus) != t_plus:
        raise ValueError(f"right factor type {type_of(w_plus)} != split {t_plus}")
    letters: list[str] = list(t.alpha)
    for k, p in enumerate(before):
        letters[p - 1] = w_minus.letters[k]
    for k, p in enumerate(after):
        letters[p - 1] = w_plus.letters[k]
    return IncompleteWord(tuple(letters), t.alpha)


def opaque_factorize(w: IncompleteWord) -> list[IncompleteWord]:
    """Cut ``w`` at its translucent positions, in standard order.

    With ``p`` translucent positions ``i_1 lessdot ... lessdot i_p`` the
    result has ``p + 1`` factors, the restrictions of ``w`` to the open
    standard-order segments between consecutive cut points (with virtual
    sentinels at both ends).  :func:`reassemble` inverts this.
    """
    t = type_of(w)
    so = standard_order(t.alpha)
    cut_ranks = sorted(so.rank(i) for i in translucent_positions(t))
    factors = []
    prev = 0
    for r in cut_ranks + [len(w.letters) + 1]:
        segment = so.perm[prev : r - 1]
        factors.append(restrict_word(w, segment))
        prev = r
    return factors


def reassemble(factors: list[IncompleteWord], t: TranslucentWord) -> IncompleteWord:
    """Rebuild a word of type ``t`` from its opaque factors.

    Inverse of :func:`opaque_factorize`, realized by folding the horizontal
    product right-to-left over the cut positions of ``t``.
    """
    so = standard_order(t.alpha)
    cuts = so.sort_positions(translucent_positions(t))
    if len(factors) != len(cuts) + 1:
        raise ValueError(f"expected {len(cuts) + 1} factors, got {len(factors)}")
    w = factors[-1]
    for j in range(len(cuts) - 1, -1, -1):
        if j:
            _, ambient_positions, _, ambient = _split_at(t, cuts[j - 1])
        else:
            ambient_positions, ambient = tuple(range(1, len(t.alpha) + 1)), t
        i_local = ambient_positions.index(cuts[j]) + 1
        w = horizontal_product(factors[j], w, ambient, i_local)
    return w
