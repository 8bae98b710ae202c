"""Incomplete bipartitions of translucent words.

A bipartition of a translucent word ``t`` is a set partition of its opaque
positions; the translucent positions form an implicit *translucent block*
that is never stored.  Class predicates (noncrossing, interval, monotone,
shaded) are all taken with respect to the standard order of ``t``'s word
component:

* *noncrossing*: the partition extended by the translucent block has no
  crossing, i.e. no ``a lessdot b lessdot c lessdot d`` with ``a ~ c``,
  ``b ~ d`` in different blocks;
* *interval*: every stored block is contiguous inside the opaque positions
  sorted by the standard order (the translucent block is exempt);
* *monotone*: noncrossing plus an injective block labelling, translucent
  block lowest, such that blocks nested inside another are labelled higher;
* *shaded*: noncrossing such that a straight vertical chord from the top of
  the diagram can reach the translucent block without crossing an arc.
  With no translucent positions the condition is vacuous, so shaded means
  plain noncrossing there.

Each class is one growth rule (:func:`_grow`): the positions are met in
standard order and each opaque one joins an allowed block or opens a new
one.  Enumeration walks that rule as a tree, in lexicographic
restricted-growth order; the predicates replay a given partition through
it.  The monotone rule grows the block sets that admit a monotone
labelling; each leaf carries its number of labellings by the hook-length
formula, so counting and the weighted terms of :func:`class_terms` take
one walk and list nothing.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .biset import standard_order
from .translucent import (
    TranslucentWord,
    compose,
    composable,
    opaque_positions,
    restrict,
    source,
    target,
    translucent_positions,
    translucidate,
)

Blocks = tuple[tuple[int, ...], ...]

CLASSES = ("all", "nc", "interval", "monotone", "shaded_nc")

DEFAULT_MAX_OPAQUE = 14
HARD_MAX_OPAQUE = 16
MAX_ENUM_ENV = "BIFC_MAX_ENUM"


class EnumerationLimitError(RuntimeError):
    """Raised when an enumeration would exceed the configured size cap."""


class Bipartition(NamedTuple):
    type: TranslucentWord
    blocks: Blocks

    def to_json(self) -> dict:
        return {"type": self.type.encode(), "blocks": [list(b) for b in self.blocks]}

    def __str__(self) -> str:
        body = "|".join(",".join(map(str, b)) for b in self.blocks)
        return f"{self.type.encode()};{body}"


class LabeledBipartition(NamedTuple):
    base: Bipartition
    order: Blocks  # blocks listed from label 1 upward

    def to_json(self) -> dict:
        data = self.base.to_json()
        index = {b: k for k, b in enumerate(self.base.blocks)}
        data["order"] = [index[b] for b in self.order]
        return data

    def __str__(self) -> str:
        body = "|".join(",".join(map(str, b)) for b in self.order)
        return f"{self.base.type.encode()};labels:{body}"


def make_bipartition(t: TranslucentWord, blocks: Iterable[Iterable[int]]) -> Bipartition:
    """Validated constructor; blocks are stored in canonical order.

    Blocks must be disjoint, nonempty and cover exactly the opaque positions
    of ``t``; canonically each block is sorted naturally and blocks are
    sorted by their lessdot-minimum.
    """
    so = standard_order(t.alpha)
    cleaned = [tuple(sorted(set(b))) for b in blocks]
    seen: set[int] = set()
    for b in cleaned:
        if not b:
            raise ValueError("empty block")
        for i in b:
            if i in seen:
                raise ValueError(f"position {i} occurs in two blocks")
            seen.add(i)
    if seen != set(opaque_positions(t)):
        raise ValueError(f"blocks {cleaned} do not cover the opaque positions of {t}")
    cleaned.sort(key=lambda b: so.rank(so.min_of(b)))
    return Bipartition(t, tuple(cleaned))


def make_labeled(t: TranslucentWord, blocks: Iterable[Iterable[int]],
                 order: Iterable[Iterable[int]]) -> LabeledBipartition:
    base = make_bipartition(t, blocks)
    ordered = tuple(tuple(sorted(set(b))) for b in order)
    if sorted(ordered) != sorted(base.blocks):
        raise ValueError("order is not a permutation of the blocks")
    return LabeledBipartition(base, ordered)


def from_json(data: dict) -> Bipartition | LabeledBipartition:
    t = TranslucentWord.parse(data["type"])
    blocks = [tuple(b) for b in data["blocks"]]
    bp = make_bipartition(t, blocks)
    if "order" in data:
        return LabeledBipartition(bp, tuple(bp.blocks[k] for k in data["order"]))
    return bp


# ---------------------------------------------------------------------------
# class rules: one growth step per class

_TRANSLUCENT = -1  # the translucent block on a growth stack


def _grow(t: TranslucentWord, cls: str, leaf, owner: dict[int, int] | None = None) -> None:
    """Walk the growth tree of class ``cls`` on ``t``, calling ``leaf(blocks)`` per leaf.

    The positions are met in standard order.  Each opaque one joins a block
    of ``stack``, in opening order, or opens a new block, so the leaves come
    in lexicographic restricted-growth order.  ``stack`` holds the joinable
    blocks: all of them for ``all``, the block of the previous opaque
    position for ``interval``.  For the noncrossing classes it is the stack
    of open blocks, translucent block included: joining a block closes the
    blocks above it; a translucent position does the same for the
    translucent block, pushes it the first time, and kills the branch if it
    was closed.  ``shaded_nc`` also closes every opaque block at the
    naturally first translucent position, and ``monotone`` at every
    translucent position: the translucent block has the lowest label, so
    it may not nest inside an opaque block.

    ``leaf`` gets the live block lists.  With ``owner`` (opaque position to
    block index in opening order) only that choice is taken: one partition
    is replayed, and it reaches a leaf iff it is in the class.
    """
    perm = standard_order(t.alpha).perm
    opaque = [t.mask[p - 1] == "1" for p in perm]
    transl = translucent_positions(t)
    shade_at = transl[0] if cls == "shaded_nc" and transl else None
    stacked = cls in ("nc", "shaded_nc", "monotone")
    blocks: list[list[int]] = []

    def step(k: int, stack: tuple[int, ...], seen: bool) -> None:
        while k < len(perm) and not opaque[k]:
            if stacked:
                if _TRANSLUCENT in stack:
                    stack = stack[:stack.index(_TRANSLUCENT) + 1]
                elif seen:
                    return
                else:
                    stack += (_TRANSLUCENT,)
                if cls == "monotone" or perm[k] == shade_at:
                    stack = (_TRANSLUCENT,)
            seen = True
            k += 1
        if k == len(perm):
            leaf(blocks)
            return
        p = perm[k]
        for i, b in enumerate(stack):
            if b != _TRANSLUCENT and (owner is None or owner[p] == b):
                blocks[b].append(p)
                step(k + 1, stack[:i + 1] if stacked else stack, seen)
                blocks[b].pop()
        new = len(blocks)
        if owner is None or owner[p] == new:
            blocks.append([p])
            step(k + 1, (new,) if cls == "interval" else stack + (new,), seen)
            blocks.pop()

    step(0, (), False)


def _replays(pi: Bipartition, cls: str) -> bool:
    """Whether ``pi`` survives the growth rule of ``cls`` with its own choices."""
    rank = standard_order(pi.type.alpha).rank
    opened = sorted(pi.blocks, key=lambda b: min(map(rank, b)))
    owner = {p: j for j, block in enumerate(opened) for p in block}
    leaves: list = []
    _grow(pi.type, cls, leaves.append, owner)
    return bool(leaves)


def is_noncrossing(pi: Bipartition) -> bool:
    """Noncrossing for the standard order, translucent block included."""
    return _replays(pi, "nc")


def is_interval(pi: Bipartition) -> bool:
    """Every block contiguous inside the opaque positions, standard order."""
    return _replays(pi, "interval")


def _nesting_violation(blocks: Blocks, labels: dict[tuple[int, ...], int], rank) -> bool:
    spans = {}
    for b in blocks:
        rs = [rank(p) for p in b]
        spans[b] = (min(rs), max(rs))
    for outer in blocks:
        lo, hi = spans[outer]
        for inner in blocks:
            if inner is outer:
                continue
            if any(lo < rank(p) < hi for p in inner):
                if labels[outer] > labels[inner]:
                    return True
    return False


def is_monotone(lp: LabeledBipartition) -> bool:
    """Noncrossing with inner blocks labelled higher; translucent block lowest."""
    pi = lp.base
    if not is_noncrossing(pi):
        return False
    so = standard_order(pi.type.alpha)
    labels = {b: k for k, b in enumerate(lp.order, start=1)}
    extra = translucent_positions(pi.type)
    blocks = pi.blocks
    if extra:
        blocks = blocks + (extra,)
        labels = dict(labels)
        labels[extra] = 0
    return not _nesting_violation(blocks, labels, so.rank)


def is_shaded(pi: Bipartition) -> bool:
    """Shaded: the leading same-side opaque positions stay among themselves.

    Let ``m`` be the naturally smallest translucent position.  Every opaque
    ``k < m`` on the same string as ``m`` must lie in a block entirely made
    of such positions.  Without translucent positions the condition is
    vacuous.  Requires a noncrossing input.
    """
    if not is_noncrossing(pi):
        raise ValueError(f"is_shaded requires a noncrossing bipartition: {pi}")
    return _replays(pi, "shaded_nc")


# ---------------------------------------------------------------------------
# enumeration

def _enum_cap() -> int:
    raw = os.environ.get(MAX_ENUM_ENV)
    if raw is None:
        return DEFAULT_MAX_OPAQUE
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise EnumerationLimitError(
            f"{MAX_ENUM_ENV} must be a nonnegative integer, got {raw!r}") from None
    return min(cap, HARD_MAX_OPAQUE)


def _monotone_labelings(pi: Bipartition) -> list[Blocks]:
    """All block orders making ``pi`` monotone, as label-1-upward sequences.

    ``pi`` is a leaf of the monotone rule.  Valid labelings are the linear
    extensions of the nesting order (outer block before inner block),
    listed lexicographically by block index.
    """
    rank = standard_order(pi.type.alpha).rank
    blocks = pi.blocks
    spans = [(min(map(rank, b)), max(map(rank, b))) for b in blocks]
    outer = [{i for i, (lo, hi) in enumerate(spans) if lo < lo_j < hi}
             for lo_j, _hi in spans]

    def extensions(used: frozenset):
        if len(used) == len(blocks):
            yield ()
            return
        for j in range(len(blocks)):
            if j not in used and outer[j] <= used:
                for rest in extensions(used | {j}):
                    yield (blocks[j],) + rest

    return list(extensions(frozenset()))


def _walk(t: TranslucentWord, cls: str, leaf) -> None:
    """:func:`_grow`, calling ``leaf(blocks, count)`` with the entries per leaf.

    ``count`` is 1, except for ``monotone``: its labellings are the linear
    extensions of the nesting forest, ``m!/prod(hook)`` by the hook-length
    formula, where the hook of a block is 1 plus the number of blocks
    nested in it.  The leaf's blocks come in opening order with their
    positions in standard order, so the hook of block ``b`` is the number
    of blocks opened up to its last position, minus ``b``.
    """
    if cls != "monotone":
        _grow(t, cls, lambda blocks: leaf(blocks, 1))
        return
    rank = {p: r for r, p in enumerate(standard_order(t.alpha).perm)}

    def weighed(blocks):
        firsts = [rank[b[0]] for b in blocks]
        hooks = 1
        for i, b in enumerate(blocks):
            hooks *= bisect_right(firsts, rank[b[-1]]) - i
        leaf(blocks, math.factorial(len(blocks)) // hooks)

    _grow(t, cls, weighed)


def _check_request(t: TranslucentWord, cls: str) -> None:
    if cls not in CLASSES:
        raise ValueError(f"unknown bipartition class {cls!r}; choose from {CLASSES}")
    size = len(opaque_positions(t))
    cap = _enum_cap()
    if size > cap:
        raise EnumerationLimitError(
            f"{size} opaque positions exceed the enumeration cap {cap} "
            f"(override with {MAX_ENUM_ENV}, hard cap {HARD_MAX_OPAQUE})"
        )


@lru_cache(maxsize=65536)
def _enumerate_cached(t: TranslucentWord, cls: str):
    out = []
    if cls == "monotone":
        def leaf(blocks):
            pi = make_bipartition(t, blocks)
            out.extend(LabeledBipartition(pi, order) for order in _monotone_labelings(pi))
    else:
        def leaf(blocks):
            out.append(make_bipartition(t, blocks))
    _grow(t, cls, leaf)
    return tuple(out)


def enumerate_bipartitions(t: TranslucentWord, cls: str = "all") -> list:
    """All bipartitions of ``t`` in the given class, deterministic order.

    ``cls`` is one of ``all``, ``nc``, ``interval``, ``monotone``,
    ``shaded_nc``; the monotone class yields :class:`LabeledBipartition`,
    the others :class:`Bipartition`.
    """
    _check_request(t, cls)
    return list(_enumerate_cached(t, cls))


def count_bipartitions(t: TranslucentWord, cls: str = "all") -> int:
    """``len(enumerate_bipartitions(t, cls))``, without listing anything.

    The class ``all`` holds every set partition of the opaque positions, so
    its count is their Bell number; the other classes walk :func:`_grow`.
    """
    _check_request(t, cls)
    if cls == "all":
        return _bell(len(opaque_positions(t)))
    total = 0

    def leaf(_blocks, count):
        nonlocal total
        total += count

    _walk(t, cls, leaf)
    return total


def _bell(n: int) -> int:
    """The Bell number ``B(n)``, by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def class_terms(t: TranslucentWord, cls: str) -> tuple[tuple[Blocks, Fraction], ...]:
    """``(blocks, weight)`` pairs of the bipartition class ``cls`` of ``t``.

    Weight 1 per bipartition, except the monotone class, whose labelled
    bipartitions come grouped by their blocks with total weight
    ``count / |blocks|! = 1 / prod(hook)``.  Blocks are in canonical order.
    Each call walks the class afresh; ``block_sum`` keeps the terms compiled.
    """
    _check_request(t, cls)
    out = []
    one = Fraction(1)

    def leaf(blocks, count):
        weight = Fraction(count, math.factorial(len(blocks))) if cls == "monotone" else one
        out.append((tuple(tuple(sorted(b)) for b in blocks), weight))

    _walk(t, cls, leaf)
    return tuple(out)


# ---------------------------------------------------------------------------
# composition, restriction, translucidation

def compose_bipartitions(rho: Bipartition, sigma: Bipartition) -> Bipartition:
    """Substitute ``rho`` for the translucent block of ``sigma``.

    Requires the types to be composable; the result lives on the composed
    type, keeps the blocks of ``sigma`` and adds the blocks of ``rho``
    pushed forward along the translucent positions of ``sigma``'s type.
    """
    if not composable(rho.type, sigma.type):
        raise ValueError(
            f"types not composable: source {source(rho.type)!r} != "
            f"target {target(sigma.type)!r}"
        )
    transl = translucent_positions(sigma.type)
    pushed = tuple(tuple(transl[k - 1] for k in block) for block in rho.blocks)
    t = compose(rho.type, sigma.type)
    return make_bipartition(t, sigma.blocks + pushed)


def restrict_bipartition(pi: Bipartition, positions: Iterable[int]) -> Bipartition:
    """Restriction: keep the given positions, re-indexed along natural order."""
    pos = sorted(set(positions))
    index = {p: k for k, p in enumerate(pos, start=1)}
    t = restrict(pi.type, pos)
    blocks = []
    for block in pi.blocks:
        kept = tuple(index[p] for p in block if p in index)
        if kept:
            blocks.append(kept)
    return make_bipartition(t, blocks)


def translucidate_blocks(pi: Bipartition, keep: Iterable[tuple[int, ...]]) -> Bipartition:
    """Turn off every block not in ``keep``; positions are unchanged."""
    keep_set = {tuple(sorted(b)) for b in keep}
    unknown = keep_set - set(pi.blocks)
    if unknown:
        raise ValueError(f"not blocks of the bipartition: {sorted(unknown)}")
    dropped = [p for b in pi.blocks if b not in keep_set for p in b]
    t = translucidate(pi.type, dropped)
    return make_bipartition(t, [b for b in pi.blocks if b in keep_set])
