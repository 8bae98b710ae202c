"""Expected outputs of the benchmarked ``bifc`` calls, computed apart from it.

Nothing here imports ``bifc``.  Every value is derived from the definitions
in the package documentation, written again from scratch:

* the standard order of an {L, R}-word walks down the left positions in
  natural order and back up the right positions (rights descending);
* a bipartition of a translucent word is a set partition of its opaque
  positions, the translucent positions forming one extra implicit block;
* ``nc``: that extended partition has no crossing in standard order;
* ``interval``: each opaque block is a run of the opaque positions sorted by
  standard order (the translucent block is exempt);
* ``shaded_nc``: noncrossing, and with ``m`` the naturally first translucent
  position, a block holding an opaque position ``k < m`` on the side of ``m``
  holds only such positions;
* ``monotone``: noncrossing, counted with the injective block labellings in
  which the translucent block is lowest and a nested block is labelled above
  the block around it.  The labellings are counted with the hook-length
  formula for forests (Hasebe-Saigo), not enumerated.

Fully opaque words have closed forms (Catalan, ``2**(n-1)``,
``(n+1)!/2``, Bell); types with translucent positions are counted by brute
force over restricted-growth strings.  The check counts of the ``verify``
suites and the moments of the length-2 cumulant tables are closed forms
derived from the suites' loops and from pair-partition counting.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import lru_cache

CLASSES = ("nc", "interval", "shaded_nc", "monotone", "all")


# ---------------------------------------------------------------------------
# standard order

def std_ranks(sides: str) -> list[int]:
    """1-based standard-order rank of every 1-based position (index 0 unused)."""
    order = sorted(range(1, len(sides) + 1),
                   key=lambda p: (0, p) if sides[p - 1] == "L" else (1, -p))
    ranks = [0] * (len(sides) + 1)
    for r, p in enumerate(order, start=1):
        ranks[p] = r
    return ranks


# ---------------------------------------------------------------------------
# closed forms

def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    # Bell triangle
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def fully_opaque_count(cls: str, n: int) -> int:
    """Size of a class on a fully opaque word of ``n`` positions."""
    if n == 0:
        return 1
    return {
        "nc": catalan(n),
        "shaded_nc": catalan(n),
        "interval": 2 ** (n - 1),
        "monotone": math.factorial(n + 1) // 2,
        "all": bell(n),
    }[cls]


# ---------------------------------------------------------------------------
# brute force over set partitions

def set_partitions(items: list[int]):
    """Every set partition of ``items`` as a list of blocks (restricted growth)."""
    n = len(items)
    if n == 0:
        yield []
        return
    blocks: list[list[int]] = []

    def rec(k: int):
        if k == n:
            yield [list(b) for b in blocks]
            return
        x = items[k]
        for b in blocks:
            b.append(x)
            yield from rec(k + 1)
            b.pop()
        blocks.append([x])
        yield from rec(k + 1)
        blocks.pop()

    yield from rec(0)


def _cross(a: list[int], b: list[int]) -> bool:
    # sorted rank lists; b must sit in one gap of a, the outside counting once
    gaps = {bisect.bisect(a, x) % len(a) for x in b}
    return len(gaps) > 1


def noncrossing(blocks: list[list[int]]) -> bool:
    """No crossing among sorted rank blocks."""
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if _cross(blocks[i], blocks[j]) or _cross(blocks[j], blocks[i]):
                return False
    return True


def monotone_labellings(opaque: list[list[int]], transl: list[int]) -> int:
    """Admissible labellings of a noncrossing partition given in ranks."""
    spans = [(min(b), max(b)) for b in opaque]
    for lo, hi in spans:
        if any(lo < r < hi for r in transl):
            return 0
    hooks = 1
    for lo, hi in spans:
        hooks *= sum(1 for lo2, _hi2 in spans if lo <= lo2 <= hi)
    return math.factorial(len(opaque)) // hooks


def _shaded(blocks_pos: list[list[int]], sides: str, mask: str) -> bool:
    transl = [p for p in range(1, len(mask) + 1) if mask[p - 1] == "0"]
    if not transl:
        return True
    m = transl[0]
    guarded = {k for k in range(1, m) if mask[k - 1] == "1" and sides[k - 1] == sides[m - 1]}
    for b in blocks_pos:
        if guarded.intersection(b) and not all(q in guarded for q in b):
            return False
    return True


def in_class(cls: str, sides: str, mask: str, blocks_pos: list[list[int]],
             order: list[int] | None = None) -> bool:
    """Class membership of one bipartition given by natural positions.

    For ``monotone`` an ``order`` (block indices from label 1 upward) must
    be given and is checked for admissibility.
    """
    if cls == "all":
        return True
    ranks = std_ranks(sides)
    rb = [sorted(ranks[p] for p in b) for b in blocks_pos]
    if cls == "interval":
        opaque = sorted(ranks[p] for p in range(1, len(mask) + 1) if mask[p - 1] == "1")
        slot = {r: k for k, r in enumerate(opaque)}
        return all(slot[b[-1]] - slot[b[0]] + 1 == len(b) for b in rb)
    transl = sorted(ranks[p] for p in range(1, len(mask) + 1) if mask[p - 1] == "0")
    if not noncrossing(rb + ([transl] if transl else [])):
        return False
    if cls == "nc":
        return True
    if cls == "shaded_nc":
        return _shaded(blocks_pos, sides, mask)
    if order is None or sorted(order) != list(range(len(rb))):
        return False
    label = {blk: k for k, blk in enumerate(order, start=1)}
    for i, (lo, hi) in enumerate((b[0], b[-1]) for b in rb):
        if any(lo < r < hi for r in transl):
            return False
        for j, inner in enumerate(rb):
            if j != i and lo < inner[0] < hi and label[j] < label[i]:
                return False
    return True


def brute_count(cls: str, sides: str, mask: str) -> int:
    """Class size of a translucent word by brute force over set partitions."""
    ranks = std_ranks(sides)
    opaque = sorted(ranks[p] for p in range(1, len(mask) + 1) if mask[p - 1] == "1")
    transl = sorted(ranks[p] for p in range(1, len(mask) + 1) if mask[p - 1] == "0")
    pos_of = {ranks[p]: p for p in range(1, len(mask) + 1)}
    total = 0
    for blocks in set_partitions(opaque):
        if cls == "all":
            total += 1
            continue
        if cls == "interval":
            slot = {r: k for k, r in enumerate(opaque)}
            total += all(slot[b[-1]] - slot[b[0]] + 1 == len(b) for b in blocks)
            continue
        if not noncrossing(blocks + ([transl] if transl else [])):
            continue
        if cls == "nc":
            total += 1
        elif cls == "shaded_nc":
            total += _shaded([[pos_of[r] for r in b] for b in blocks], sides, mask)
        else:
            total += monotone_labellings(blocks, transl)
    return total


def expected_count(cls: str, sides: str, mask: str) -> int:
    if "0" not in mask:
        return fully_opaque_count(cls, len(mask))
    opaque = mask.count("1")
    if cls == "all":
        return bell(opaque)
    if cls == "interval":
        return 2 ** (opaque - 1) if opaque else 1
    return brute_count(cls, sides, mask)


# ---------------------------------------------------------------------------
# verify suites

def _words_up_to(max_len: int, base: int) -> int:
    return sum(base ** n for n in range(max_len + 1)) if max_len >= 0 else 0


def exchange_checks(max_len: int) -> int:
    """Checks of the exchange suite: sum over translucent words ``t``."""
    total = 0
    for n in range(max_len + 1):
        for alpha in range(2 ** n):
            sides = "".join("LR"[(alpha >> k) & 1] for k in range(n))
            ranks = std_ranks(sides)
            for mask in range(2 ** n):
                transl = [p for p in range(1, n + 1) if not (mask >> (p - 1)) & 1]
                o, k = n - len(transl), len(transl)
                total += math.comb(k, 2) * 2 ** o + k * 3 ** o
                for i in transl:
                    opaque_before = any(
                        (mask >> (p - 1)) & 1 and ranks[p] < ranks[i]
                        for p in range(1, n + 1))
                    total += 1 + 2 * opaque_before
    return total


def suite_checks(suite: str, max_len: int) -> int:
    w = _words_up_to(max_len, 4)
    if suite == "exponentials":
        return 5 * (w - 1)
    if suite == "codendriform":
        return w + 5 * (w - _words_up_to(max_len, 2))
    if suite == "dendriform":
        return 6 * w + 1
    if suite == "prelie":
        return 2 * w + 2 * _words_up_to(max_len - 1, 4)
    if suite == "exchange":
        return exchange_checks(max_len)
    raise ValueError(f"no check-count formula for suite {suite!r}")


# ---------------------------------------------------------------------------
# convert

def pair_moment(family: str, length: int) -> Fraction:
    """Moment of a word when every length-2 cumulant is 1 and the rest 0."""
    if length % 2:
        return Fraction(0)
    k = length // 2
    if family == "bifree":
        return Fraction(catalan(k))
    if family == "biboolean":
        return Fraction(1)
    if family == "bimonotone":
        return Fraction(math.comb(2 * k, k), 2 ** k)
    raise ValueError(f"unknown family {family!r}")
