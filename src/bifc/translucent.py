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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple

from .biset import check_lr_word, restrict_lr, standard_order


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


@lru_cache(maxsize=65536)
def translucent_positions(t: TranslucentWord) -> tuple[int, ...]:
    """Mask-0 positions, in natural order."""
    return tuple(i for i, b in enumerate(t.mask, start=1) if b == "0")


@lru_cache(maxsize=65536)
def opaque_positions(t: TranslucentWord) -> tuple[int, ...]:
    """Mask-1 positions, in natural order."""
    return tuple(i for i, b in enumerate(t.mask, start=1) if b == "1")


def source(t: TranslucentWord) -> str:
    return t.alpha


@lru_cache(maxsize=65536)
def target(t: TranslucentWord) -> str:
    return restrict_lr(t.alpha, translucent_positions(t))


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
    if not composable(s, t):
        raise ValueError(
            f"not composable: source {source(s)!r} != target {target(t)!r}"
        )
    mask = list(t.mask)
    for k, i in enumerate(translucent_positions(t)):
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
    ``None`` yields both kinds.  The sets depend on the side pattern only
    through that position, so they are built once per mask and position
    (see :func:`_cut_key`).
    """
    return _mask_cut_sets(*_cut_key(t, keep_min))


def _cut_key(t: TranslucentWord, keep_min: bool | None) -> tuple[str, int, bool | None]:
    """``(mask, first, keep_min)``: all that :func:`cut_sets` reads of ``t``.

    ``first`` is the lessdot-first opaque position when ``keep_min`` is
    set, else 0.
    """
    if keep_min is None:
        return t.mask, 0, None
    free = opaque_positions(t)
    if not free:
        raise ValueError(f"type has no opaque position: {t}")
    return t.mask, standard_order(t.alpha).min_of(free), keep_min


@lru_cache(maxsize=65536)
def _mask_cut_sets(mask: str, first: int, keep_min: bool | None):
    base = tuple(i for i, b in enumerate(mask, start=1) if b == "0")
    free = tuple(i for i, b in enumerate(mask, start=1) if b == "1" and i != first)
    head = (first,) if keep_min else ()
    return tuple(
        tuple(sorted(base + head + tuple(p for p, b in zip(free, bits) if b)))
        for bits in product((False, True), repeat=len(free))
    )


def split(t: TranslucentWord, i: int) -> tuple[TranslucentWord, TranslucentWord]:
    """Restrictions of ``t`` to the positions lessdot-before and -after ``i``.

    ``i`` must be translucent; the split forgets ``t(i)`` itself.
    """
    if t.mask[i - 1] != "0":
        raise ValueError(f"split position {i} is not translucent in {t}")
    return _split_at(t, i)[2:]


@lru_cache(maxsize=65536)
def _split_at(t: TranslucentWord, i: int):
    """``(before, after, t_minus, t_plus)`` at a translucent position ``i``."""
    so = standard_order(t.alpha)
    before, after = so.before(i), so.after(i)
    return before, after, _restrict_sorted(t, before), _restrict_sorted(t, after)


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


@lru_cache(maxsize=65536)
def opaque_intervals(t: TranslucentWord) -> tuple[tuple[int, ...], ...]:
    """Connected components of the opaque positions for the standard order.

    Components are maximal runs of opaque positions that are consecutive in
    the standard order of the whole word; they are listed in standard order,
    each as a tuple of positions in natural order.
    """
    so = standard_order(t.alpha)
    runs: list[list[int]] = []
    current: list[int] = []
    for pos in so.perm:
        if t.mask[pos - 1] == "1":
            current.append(pos)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return tuple(tuple(sorted(run)) for run in runs)


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
