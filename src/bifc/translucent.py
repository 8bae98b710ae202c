"""Translucent words and their composition.

A *translucent word* is an {L, R}-word together with a 0/1 mask of the same
length: mask-0 positions are *translucent* (placeholders, still open),
mask-1 positions are *opaque* (already filled).  Translucent words compose:
``compose(s, t)`` is defined when the left-right pattern of ``s`` matches
the translucent pattern of ``t``, and overwrites the zeroes of ``t``'s mask
with the mask of ``s``.  Every translucent word factors in exactly
``2**(number of opaque positions)`` ways into such a composition.

The canonical text encoding is ``"ALPHA,MASK"``, e.g.
``"LLRLRLRR,01100101"``.

What the package keeps about a type alone is one cached record per type,
:func:`_facts`.  Its cut plans share their letter pickers, compiled once
per mask by :func:`_mask_cuts`, with every side pattern of the mask.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .biset import check_lr_word, standard_order


class TranslucentWord(NamedTuple):
    alpha: str
    mask: str

    @classmethod
    def parse(cls, text: str) -> "TranslucentWord":
        """Parse the ``"ALPHA,MASK"`` encoding."""
        head, sep, tail = text.partition(",")
        if not sep:
            raise ValueError(f"expected 'ALPHA,MASK', got {text!r}")
        return make(head, tail)

    def encode(self) -> str:
        return f"{self.alpha},{self.mask}"

    def __str__(self) -> str:
        return self.encode()


def make(alpha: str, mask: str) -> TranslucentWord:
    """Validated constructor."""
    check_lr_word(alpha)
    if len(alpha) != len(mask):
        raise ValueError(f"alpha and mask lengths differ: {alpha!r} vs {mask!r}")
    for ch in mask:
        if ch not in ("0", "1"):
            raise ValueError(f"mask must be over 0/1: {mask!r}")
    return TranslucentWord(alpha, mask)


EMPTY = TranslucentWord("", "")


def identity(alpha: str) -> TranslucentWord:
    """The all-translucent word on ``alpha``; the identity for composition."""
    check_lr_word(alpha)
    return TranslucentWord(alpha, "0" * len(alpha))


def fully_opaque(alpha: str) -> TranslucentWord:
    """The all-opaque word on ``alpha``; the unique map to the empty word."""
    check_lr_word(alpha)
    return TranslucentWord(alpha, "1" * len(alpha))


class _Facts:
    """What the package keeps of one type ``t``; see :func:`_facts`.

    ``translucent``, ``opaque``, ``target`` and ``intervals`` hold the values
    of :func:`translucent_positions`, :func:`opaque_positions`, :func:`target`
    and :func:`opaque_intervals`; ``first`` is the lessdot-first opaque
    position (``None`` if there is none).  :meth:`split` and :meth:`plan`
    fill their tables on first use.
    """

    __slots__ = ("t", "translucent", "opaque", "target", "first", "intervals",
                 "_splits", "_plans")

    def __init__(self, t: TranslucentWord):
        alpha, mask = self.t = t
        self.translucent = tuple(i for i, b in enumerate(mask, start=1) if b == "0")
        self.opaque = tuple(i for i, b in enumerate(mask, start=1) if b == "1")
        self.target = "".join(alpha[i - 1] for i in self.translucent)
        perm = standard_order(alpha).perm
        self.first = next((p for p in perm if mask[p - 1] == "1"), None)
        self.intervals = tuple(tuple(sorted(run)) for bit, run in
                               groupby(perm, key=lambda p: mask[p - 1]) if bit == "1")
        self._splits, self._plans = {}, {}

    def split(self, i: int):
        """``(before, after, t_minus, t_plus)`` at a translucent position ``i``."""
        if i not in self._splits:
            so = standard_order(self.t.alpha)
            before, after = so.before(i), so.after(i)
            self._splits[i] = (before, after, _restrict_sorted(self.t, before),
                               _restrict_sorted(self.t, after))
        return self._splits[i]

    def cuts(self, keep_min: bool | None):
        """The entries of :func:`_mask_cuts` whose set holds (``True``) or
        lacks (``False``) the lessdot-first opaque position; all for ``None``."""
        table = _mask_cuts(self.t.mask)
        if keep_min is None:
            return table
        if self.first is None:
            raise ValueError(f"type has no opaque position: {self.t}")
        return tuple(cut for cut in table if (self.first in cut[0]) == keep_min)

    def plan(self, keep_min: bool | None):
        """The admissible cuts of the words of this type: one ``(restrict,
        sides, translucidate)`` per set of :func:`cut_sets` ``(t, keep_min)``,
        with ``sides`` the side string of the kept positions."""
        if keep_min not in self._plans:
            self._plans[keep_min] = tuple(
                (restrict, "".join(restrict(self.t.alpha)), translucidate)
                for _kept, restrict, translucidate in self.cuts(keep_min))
        return self._plans[keep_min]


@lru_cache(maxsize=65536)
def _facts(t: TranslucentWord) -> _Facts:
    """The one cached record of the type ``t``."""
    return _Facts(t)


def translucent_positions(t: TranslucentWord) -> tuple[int, ...]:
    """Mask-0 positions, in natural order."""
    return _facts(t).translucent


def opaque_positions(t: TranslucentWord) -> tuple[int, ...]:
    """Mask-1 positions, in natural order."""
    return _facts(t).opaque


def source(t: TranslucentWord) -> str:
    return t.alpha


def target(t: TranslucentWord) -> str:
    return _facts(t).target


def _restrict_sorted(t: TranslucentWord, pos) -> TranslucentWord:
    # pos must be sorted, in-range and duplicate-free
    return TranslucentWord(
        "".join(t.alpha[i - 1] for i in pos),
        "".join(t.mask[i - 1] for i in pos),
    )


def restrict(t: TranslucentWord, positions: Iterable[int]) -> TranslucentWord:
    """Both components restricted to the given positions (natural order)."""
    pos = sorted(set(positions))
    n = len(t.alpha)
    for i in pos:
        if not 1 <= i <= n:
            raise ValueError(f"position {i} out of range 1..{n}")
    return _restrict_sorted(t, pos)


def translucidate(t: TranslucentWord, positions: Iterable[int]) -> TranslucentWord:
    """Turn the given positions translucent; the word component is kept."""
    pos = set(positions)
    n = len(t.alpha)
    for i in pos:
        if not 1 <= i <= n:
            raise ValueError(f"position {i} out of range 1..{n}")
    mask = "".join("0" if i in pos else b for i, b in enumerate(t.mask, start=1))
    return TranslucentWord(t.alpha, mask)


def composable(s: TranslucentWord, t: TranslucentWord) -> bool:
    return source(s) == target(t)


def compose(s: TranslucentWord, t: TranslucentWord) -> TranslucentWord:
    """Composition ``s o t``: the mask of ``s`` overwrites the zeroes of ``t``.

    Requires ``source(s) == target(t)``.  Opaque positions of ``t`` stay
    opaque; the translucent positions of ``t`` are coloured by ``s``.
    """
    facts = _facts(t)
    if s.alpha != facts.target:
        raise ValueError(
            f"not composable: source {s.alpha!r} != target {facts.target!r}"
        )
    mask = list(t.mask)
    for k, i in enumerate(facts.translucent):
        mask[i - 1] = s.mask[k]
    return TranslucentWord(t.alpha, "".join(mask))


def factorizations(t: TranslucentWord) -> list[tuple[TranslucentWord, TranslucentWord]]:
    """All pairs ``(r, s)`` with ``compose(r, s) == t``.

    They are in bijection with the sets ``J`` squeezed between the
    translucent positions of ``t`` and all of ``1..|t|``, via
    ``r = restrict(t, J)`` and ``s = translucidate(t, J)``; hence there are
    exactly ``2**(number of opaque positions)`` of them.  Pairs are listed
    with ``J`` in the order of :func:`cut_sets`.
    """
    return [(_restrict_sorted(t, j), translucidate(t, j)) for j in cut_sets(t, None)]


def cut_sets(t: TranslucentWord, keep_min: bool | None) -> tuple[tuple[int, ...], ...]:
    """The sets ``J`` of :func:`factorizations`, each sorted naturally.

    Every set holds all translucent positions of ``t`` and some of the
    opaque ones, chosen in binary counting order (the naturally last
    opaque position toggles fastest).  ``keep_min`` splits the sets at the
    lessdot-first opaque position: ``True`` keeps it, ``False`` drops it,
    ``None`` yields both kinds.  Either half is the ``None`` list filtered
    on that position, so all come from one table per mask, :func:`_mask_cuts`.
    """
    return tuple(cut[0] for cut in _facts(t).cuts(keep_min))


def _picker(indices: tuple[int, ...]):
    """Function taking the items at the 0-based ``indices`` as a tuple."""
    if not indices:
        return lambda seq: ()
    if len(indices) == 1:
        i = indices[0]
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=65536)
def _mask_cuts(mask: str):
    """``(kept, restrict, translucidate)`` per cut set of the types with ``mask``.

    The sets ``kept`` come in the ``keep_min=None`` order of :func:`cut_sets`.
    ``restrict`` takes the kept letters from a word's letter tuple;
    ``translucidate`` takes the translucidation's letters from ``letters +
    tuple(sides)``: the placeholder at kept positions, the letter elsewhere.
    """
    n = len(mask)
    base = tuple(i for i, b in enumerate(mask, start=1) if b == "0")
    free = tuple(i for i, b in enumerate(mask, start=1) if b == "1")
    table = []
    for bits in product((False, True), repeat=len(free)):
        kept = tuple(sorted(base + tuple(p for p, b in zip(free, bits) if b)))
        table.append((kept, _picker(tuple(p - 1 for p in kept)), _picker(tuple(
            n + p - 1 if p in kept else p - 1 for p in range(1, n + 1)))))
    return tuple(table)


def split(t: TranslucentWord, i: int) -> tuple[TranslucentWord, TranslucentWord]:
    """Restrictions of ``t`` to the positions lessdot-before and -after ``i``.

    ``i`` must be translucent; the split forgets ``t(i)`` itself.
    """
    if t.mask[i - 1] != "0":
        raise ValueError(f"split position {i} is not translucent in {t}")
    return _split_at(t, i)[2:]


def _split_at(t: TranslucentWord, i: int):
    """``(before, after, t_minus, t_plus)`` at a translucent position ``i``."""
    return _facts(t).split(i)


def is_right_factor(s: TranslucentWord, t: TranslucentWord) -> bool:
    """True iff some ``r`` satisfies ``compose(r, s) == t``.

    Equivalently, ``s`` arises from ``t`` by turning opaque positions
    translucent: same word component, and ``s`` is opaque only where ``t``
    is.
    """
    if s.alpha != t.alpha:
        return False
    return all(b == "0" or c == "1" for b, c in zip(s.mask, t.mask))


@lru_cache(maxsize=65536)
def exchange(
    s_minus: TranslucentWord,
    s_plus: TranslucentWord,
    t: TranslucentWord,
    i: int,
) -> tuple[TranslucentWord, TranslucentWord]:
    """Merge right factors of the two splits of ``t`` at ``i`` into one.

    Given ``s_minus``, ``s_plus`` that are right factors of ``split(t, i)``,
    returns the unique pair ``(r, s)`` with ``compose(r, s) == t`` such that
    ``s`` restricts to ``s_minus`` before ``i``, to ``s_plus`` after ``i``
    and keeps ``t``'s entry at ``i``; ``r`` is ``t`` restricted to the
    translucent positions of ``s``.

    Results are kept in a bounded cache, so the validation and the
    recomposition check run once per distinct argument tuple; an invalid
    argument raises on every call, since exceptions are not cached.
    """
    if t.mask[i - 1] != "0":
        raise ValueError(f"exchange position {i} is not translucent in {t}")
    before, after, t_minus, t_plus = _split_at(t, i)
    if not is_right_factor(s_minus, t_minus):
        raise ValueError(f"{s_minus} is not a right factor of {t_minus}")
    if not is_right_factor(s_plus, t_plus):
        raise ValueError(f"{s_plus} is not a right factor of {t_plus}")
    mask = list(t.mask)
    for k, p in enumerate(before):
        mask[p - 1] = s_minus.mask[k]
    for k, p in enumerate(after):
        mask[p - 1] = s_plus.mask[k]
    mask[i - 1] = t.mask[i - 1]
    s = TranslucentWord(t.alpha, "".join(mask))
    r = _restrict_sorted(t, translucent_positions(s))
    if compose(r, s) != t:
        raise AssertionError(f"exchange failed to recompose {t}")
    return r, s


def opaque_intervals(t: TranslucentWord) -> tuple[tuple[int, ...], ...]:
    """Connected components of the opaque positions for the standard order.

    Components are maximal runs of opaque positions that are consecutive in
    the standard order of the whole word; they are listed in standard order,
    each as a tuple of positions in natural order.
    """
    return _facts(t).intervals


def iota(t: TranslucentWord) -> tuple[int, ...]:
    """The strictly increasing position map induced by ``t``.

    Sends the k-th position of ``target(t)`` to the k-th translucent
    position of ``t``; composition of maps mirrors composition of words.
    """
    return translucent_positions(t)


def all_words(max_len: int, min_len: int = 0):
    """All translucent words of length ``min_len..max_len`` (lexicographic)."""
    for n in range(min_len, max_len + 1):
        for alpha in product("LR", repeat=n):
            for mask in product("01", repeat=n):
                yield TranslucentWord("".join(alpha), "".join(mask))
