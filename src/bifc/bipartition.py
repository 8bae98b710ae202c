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

Enumeration generates restricted-growth strings over the opaque positions
sorted by the standard order and filters by predicate; order of output is
deterministic.
"""

from __future__ import annotations

import math
import os
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

    def label_of(self, block: tuple[int, ...]) -> int:
        return self.order.index(block) + 1

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
# class predicates

def _extended_blocks(pi: Bipartition) -> Blocks:
    extra = translucent_positions(pi.type)
    return pi.blocks + ((extra,) if extra else ())


def _noncrossing_ranked(blocks: Blocks, rank) -> bool:
    # stack scan over standard-order ranks: a block may only close or
    # continue while it is topmost
    events: dict[int, int] = {}
    last: dict[int, int] = {}
    for bi, block in enumerate(blocks):
        for p in block:
            events[rank(p)] = bi
            last[bi] = max(last.get(bi, 0), rank(p))
    stack: list[int] = []
    opened: set[int] = set()
    for r in sorted(events):
        bi = events[r]
        if stack and stack[-1] == bi:
            pass
        elif bi in opened:
            return False
        else:
            stack.append(bi)
            opened.add(bi)
        if r == last[bi]:
            if stack[-1] != bi:
                return False
            stack.pop()
    return True


def is_noncrossing(pi: Bipartition) -> bool:
    """Noncrossing for the standard order, translucent block included."""
    so = standard_order(pi.type.alpha)
    return _noncrossing_ranked(_extended_blocks(pi), so.rank)


def is_interval(pi: Bipartition) -> bool:
    """Every block contiguous inside the opaque positions, standard order."""
    so = standard_order(pi.type.alpha)
    opaque_sorted = so.sort_positions(opaque_positions(pi.type))
    pos_rank = {p: k for k, p in enumerate(opaque_sorted)}
    for block in pi.blocks:
        ranks = sorted(pos_rank[p] for p in block)
        if ranks[-1] - ranks[0] + 1 != len(ranks):
            return False
    return True


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
    transl = translucent_positions(pi.type)
    if not transl:
        return True
    m = min(transl)
    side = pi.type.alpha[m - 1]
    guarded = {
        k for k in range(1, m) if pi.type.mask[k - 1] == "1" and pi.type.alpha[k - 1] == side
    }
    if not guarded:
        return True
    for block in pi.blocks:
        if any(p in guarded for p in block):
            if not all(q < m and pi.type.alpha[q - 1] == side for q in block):
                return False
    return True


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


def _set_partitions_of(elems: tuple[int, ...]):
    """Set partitions of a sequence, in lexicographic restricted-growth order."""
    n = len(elems)
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(k: int, mx: int):
        if k == n:
            blocks: list[list[int]] = [[] for _ in range(mx + 1)]
            for idx, b in enumerate(rgs):
                blocks[b].append(elems[idx])
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(mx + 2):
            rgs[k] = b
            yield from rec(k + 1, max(mx, b))

    yield from rec(1, 0)


def _block_spans(pi: Bipartition) -> list[tuple[int, int]] | None:
    """Standard-order rank span ``(lo, hi)`` of each block of a noncrossing ``pi``.

    ``None`` when a translucent position lies strictly inside a block: then
    no labelling is monotone.  Otherwise block ``j`` is nested in block
    ``i`` exactly when ``lo_i < lo_j < hi_i``.
    """
    rank = standard_order(pi.type.alpha).rank
    transl = [rank(p) for p in translucent_positions(pi.type)]
    spans = []
    for block in pi.blocks:
        ranks = [rank(p) for p in block]
        lo, hi = min(ranks), max(ranks)
        if any(lo < r < hi for r in transl):
            return None
        spans.append((lo, hi))
    return spans


def _monotone_labelings(pi: Bipartition) -> list[Blocks]:
    """All block orders making ``pi`` monotone, as label-1-upward sequences.

    Valid labelings are the linear extensions of the nesting order (outer
    block before inner block), listed lexicographically by block index.
    """
    spans = _block_spans(pi)
    if spans is None:
        return []
    blocks = pi.blocks
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


def _check_enum_cap(t: TranslucentWord) -> None:
    size = len(opaque_positions(t))
    cap = _enum_cap()
    if size > cap:
        raise EnumerationLimitError(
            f"{size} opaque positions exceed the enumeration cap {cap} "
            f"(override with {MAX_ENUM_ENV}, hard cap {HARD_MAX_OPAQUE})"
        )


@lru_cache(maxsize=None)
def _enumerate_cached(t: TranslucentWord, cls: str):
    so = standard_order(t.alpha)
    opaque_sorted = so.sort_positions(opaque_positions(t))
    out = []
    for raw in _set_partitions_of(opaque_sorted):
        pi = make_bipartition(t, raw)
        if cls == "all":
            out.append(pi)
        elif cls == "nc":
            if is_noncrossing(pi):
                out.append(pi)
        elif cls == "interval":
            if is_interval(pi):
                out.append(pi)
        elif cls == "shaded_nc":
            if is_noncrossing(pi) and is_shaded(pi):
                out.append(pi)
        elif cls == "monotone":
            if is_noncrossing(pi):
                for order in _monotone_labelings(pi):
                    out.append(LabeledBipartition(pi, order))
        else:
            raise ValueError(f"unknown bipartition class {cls!r}; choose from {CLASSES}")
    return tuple(out)


def enumerate_bipartitions(t: TranslucentWord, cls: str = "all") -> list:
    """All bipartitions of ``t`` in the given class, deterministic order.

    ``cls`` is one of ``all``, ``nc``, ``interval``, ``monotone``,
    ``shaded_nc``; the monotone class yields :class:`LabeledBipartition`,
    the others :class:`Bipartition`.
    """
    if cls not in CLASSES:
        raise ValueError(f"unknown bipartition class {cls!r}; choose from {CLASSES}")
    _check_enum_cap(t)
    return list(_enumerate_cached(t, cls))


def count_bipartitions(t: TranslucentWord, cls: str = "all") -> int:
    """``len(enumerate_bipartitions(t, cls))``.

    The monotone class is counted from :func:`monotone_block_weights`
    without listing its labellings.
    """
    if cls == "monotone":
        return sum(count for _blocks, count, _weight in monotone_block_weights(t))
    return len(enumerate_bipartitions(t, cls))


def monotone_block_weights(t: TranslucentWord) -> tuple[tuple[Blocks, int, Fraction], ...]:
    """Noncrossing partitions with their monotone labelling count and weight.

    Returns triples ``(blocks, count, count / len(blocks)!)``; summing
    ``weight * product-over-blocks`` reproduces the labelled monotone sum
    without enumerating labelings per summand.
    """
    _check_enum_cap(t)
    return _monotone_weights_cached(t)


@lru_cache(maxsize=None)
def _monotone_weights_cached(t: TranslucentWord):
    # The labellings are the linear extensions of the nesting forest, so by
    # the hook-length formula weight = 1 / prod(1 + blocks nested inside).
    out = []
    for pi in _enumerate_cached(t, "nc"):
        spans = _block_spans(pi)
        if spans is None:
            continue
        den = 1
        for lo, hi in spans:
            den *= 1 + sum(lo < lo_j < hi for lo_j, _hi in spans)
        out.append((pi.blocks, math.factorial(len(spans)) // den, Fraction(1, den)))
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
