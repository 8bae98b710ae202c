"""Exact-rational linear functionals on incomplete words.

A functional is stored as a kind tag plus a finite table on complete
(variable-only) words; the kind fixes how values extend to arbitrary
incomplete words:

* ``lie_interval``: zero unless the opaque positions form a single
  standard-order interval, else the table value of the opaque restriction;
  zero on placeholder-only words.
* ``group_multiplicative``: the product of table values over the
  standard-order components of the opaque positions (empty product 1).
* ``lie_full`` / ``group_full``: table value of the opaque restriction,
  with 0 / 1 on placeholder-only words.
* ``generic``: a direct table on incomplete words, ``unit_value`` on
  placeholder-only words.

Every functional here is a :class:`Lazy`: a pointwise rule with a
``unit_value`` (its value on every placeholder-only word), memoized per
word as a numerator and a denominator.  The products return one, and a
table-backed :class:`Functional` is the :class:`Lazy` of its kind's rule.

Duality with the coproducts of :mod:`bifc.words` gives the convolution
``star`` and the half-products ``prec`` and ``succ``; the preLie product is
``prec`` minus the flipped ``succ``.  All of them are one cut sum,
:func:`_cut_sum`, which reads the cuts from a plan in the type's record
and both factors' memos on plain ``(letters, sides)`` tuples, adds its
terms up in Python ints and builds one :class:`~fractions.Fraction` per
value.  The plan follows the right factor's kind: an interval-kind one
vanishes unless the dropped opaque positions form one standard-order run,
so only those cuts are visited (``bifc.translucent._facts(t).run_plan``);
for any other kind every cut is (``_facts(t).plan``).  That covers the
star powers of ``exp_star``, ``exp_succ`` and both halves of an
interval-kind preLie product.  The
exponentials are that cut sum under a :class:`Lazy` too: the fixed points
``M = counit + k prec M`` (sums over shaded noncrossing bipartitions) and
``M = counit + M succ b`` (interval bipartitions), and the convolution
exponential with ``1/n!`` weights (labelled monotone bipartitions with
``1/|blocks|!``), whose star powers, like those of ``log_star``, are one
:class:`Lazy` each; for full-kind directions all three collapse to the sum
over all bipartitions.  :func:`oracle_sum` computes those bipartition sums
directly and independently, with ``block_sum(t, cls, w, lookup)`` over the
``(blocks, weight)`` terms of :func:`bifc.bipartition.class_terms`; that is
the one-word case of :func:`block_sums`, which the cumulant conversions
call once per side pattern.  The terms depend on the type only through the
key of :func:`bifc.bipartition._rank_key`, its mask in standard order, so
they are compiled once per key, in rank space, and kept nowhere else, into
a plan of distinct blocks and integer weights over a common denominator;
each type relabels the blocks into letter pickers through its standard
order.  A block sum runs in Python ints and builds one
:class:`~fractions.Fraction` per word.

All arithmetic is exact: values are :class:`fractions.Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .bipartition import RankKey, _check_request, _key_terms, _rank_key, class_terms
from .biset import standard_order
from .translucent import TranslucentWord, _facts, _picker, opaque_intervals
from .words import (
    Alphabet,
    IncompleteWord,
    _restrict_sorted,
    is_complete,
    is_placeholder_only,
    restrict_word,
    type_of,
)

LIE_INTERVAL = "lie_interval"
GROUP_MULTIPLICATIVE = "group_multiplicative"
LIE_FULL = "lie_full"
GROUP_FULL = "group_full"
GENERIC = "generic"

KINDS = (LIE_INTERVAL, GROUP_MULTIPLICATIVE, LIE_FULL, GROUP_FULL, GENERIC)
_LIE_KINDS = (LIE_INTERVAL, LIE_FULL)
_GROUP_KINDS = (GROUP_MULTIPLICATIVE, GROUP_FULL)

Q = Fraction
ZERO = Q(0)
ONE = Q(1)
_ZERO_PAIR = (0, 1)  # shared by the memos' many zeros


class MissingTableEntryError(KeyError):
    """A group-kind functional was asked for a word missing from its table."""


class Lazy:
    """Functional given pointwise by ``func``, memoized per word.

    The memo maps a word to its value's ``(numerator, denominator)``.  An
    :class:`IncompleteWord` hashes and compares as its plain ``(letters,
    sides)`` tuple, so :func:`_cut_sum` reads the memo with plain tuples
    and builds a word only on a miss.
    """

    __slots__ = ("func", "unit_value", "_memo")

    def __init__(self, func, unit_value: Fraction | int = 0):
        self.func = func
        self.unit_value = Q(unit_value)
        self._memo: dict[tuple, tuple[int, int]] = {}

    def _miss(self, key: tuple) -> tuple[int, int]:
        """Compute and memoize the ``(numerator, denominator)`` at the word ``key``."""
        # the word is kept as the memo key, shared with type_of's cache
        w = key if isinstance(key, IncompleteWord) else IncompleteWord(*key)
        value = self.func(w)
        pair = self._memo[w] = (value.numerator, value.denominator) if value else _ZERO_PAIR
        return pair

    def _pair(self, key: tuple) -> tuple[int, int]:
        """The ``(numerator, denominator)`` at the word ``key``."""
        return self._memo.get(key) or self._miss(key)

    def eval(self, w: IncompleteWord) -> Fraction:
        return Q(*self._pair(w))


class Functional(Lazy):
    """A linear functional determined by a kind and a finite word table.

    It is the :class:`Lazy` of its kind's extension rule.
    """

    __slots__ = ("kind", "alphabet", "table")

    def __init__(
        self,
        kind: str,
        alphabet: Alphabet,
        table: Mapping[IncompleteWord, Fraction] | None = None,
        unit_value: Fraction | int | None = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
        self.kind = kind
        self.alphabet = alphabet
        self.table = {w: Q(v) for w, v in (table or {}).items()}
        for w in self.table:
            if kind != GENERIC and not is_complete(w):
                raise ValueError(f"{kind} table keys must be complete words: {w.text!r}")
            if len(w) == 0:
                raise ValueError("the empty word belongs to the unit, not the table")
        if kind in _LIE_KINDS:
            forced = ZERO
        elif kind in _GROUP_KINDS:
            forced = ONE
        else:
            forced = Q(unit_value) if unit_value is not None else ZERO
        if unit_value is not None and Q(unit_value) != forced and kind != GENERIC:
            raise ValueError(f"unit value of a {kind} functional is forced to {forced}")
        super().__init__(self._kind_rule, forced)

    @classmethod
    def counit(cls, alphabet: Alphabet) -> "Functional":
        """1 on placeholder-only words, 0 elsewhere; the unit for star."""
        return cls(GENERIC, alphabet, {}, unit_value=1)

    def _lookup(self, w: IncompleteWord) -> Fraction:
        try:
            return self.table[w]
        except KeyError:
            raise MissingTableEntryError(
                f"{self.kind} functional has no entry for {w.text!r}"
            ) from None

    def eval(self, w: IncompleteWord) -> Fraction:
        """The kind's rule at ``w``, not memoized: the rule is a table
        lookup, which a memo entry would only copy.  The cut sums fill the
        memo."""
        return self._kind_rule(w)

    def _kind_rule(self, w: IncompleteWord) -> Fraction:
        value = self.table.get(w)
        if value is not None and self.kind != GENERIC:
            return value  # w is complete, where every other kind reads its own entry
        facts = _facts(type_of(w))
        if not facts.opaque:
            return self.unit_value
        if self.kind == GENERIC:
            return ZERO if value is None else value
        if self.kind == GROUP_MULTIPLICATIVE:
            value = ONE
            for component in facts.intervals:
                value *= self._lookup(_restrict_sorted(w, component))
            return value
        if self.kind == LIE_INTERVAL:
            if len(facts.intervals) != 1:
                return ZERO
            return self.table.get(_restrict_sorted(w, facts.intervals[0]), ZERO)
        restricted = _restrict_sorted(w, facts.opaque)
        if self.kind == LIE_FULL:
            return self.table.get(restricted, ZERO)
        return self._lookup(restricted)  # GROUP_FULL

    def __repr__(self) -> str:
        return f"Functional({self.kind}, {len(self.table)} entries)"


def _cut_sum(f: Lazy, g: Lazy, w: IncompleteWord, keep_min: bool | None) -> Fraction:
    """``f`` on the restriction times ``g`` on the translucidation, summed
    over the cuts of ``w`` selected by ``keep_min`` (see
    :meth:`bifc.translucent._Facts.plan`).

    An interval-kind ``g`` vanishes unless the translucidation's opaque
    positions form one standard-order run, so then only the cuts of
    :meth:`bifc.translucent._Facts.run_plan` are visited.  ``g`` is read
    only where ``f`` is nonzero.  Both memos are read on plain ``(letters,
    sides)`` tuples, and the terms are added up in Python ints by
    :func:`_fraction_sum`.
    """
    facts = _facts(type_of(w))
    if isinstance(g, Functional) and g.kind == LIE_INTERVAL:
        plan = facts.run_plan(keep_min)
    else:
        plan = facts.plan(keep_min)
    letters, sides = w
    both = letters + tuple(sides)
    f_memo, g_memo = f._memo, g._memo
    nums = []
    dens = []
    for restrict, kept_sides, translucidate in plan:
        key = (restrict(letters), kept_sides)
        left_num, left_den = f_memo.get(key) or f._miss(key)  # Lazy._pair, inlined
        if left_num:
            key = (translucidate(both), sides)
            right_num, right_den = g_memo.get(key) or g._miss(key)
            if right_num:
                nums.append(left_num * right_num)
                dens.append(left_den * right_den)
    return _fraction_sum(nums, dens)


def _fraction_sum(nums: list[int], dens: list[int], scale: int = 1) -> Fraction:
    """``sum(n / d for n, d in zip(nums, dens)) / scale`` as one Fraction.

    The terms are brought to the lcm of their denominators in Python ints,
    so only the result is normalized.
    """
    common = math.lcm(*dens)
    if common > 1:
        nums = [n * (common // d) for n, d in zip(nums, dens)]
    return Q(sum(nums), common * scale)


def star_eval(f, g, w: IncompleteWord) -> Fraction:
    """Convolution ``(f star g)(w)``, dual to the decomposition coproduct."""
    return _cut_sum(f, g, w, None)


def _check_half_product_args(f, g, op: str) -> None:
    if f.unit_value and g.unit_value:
        raise ValueError(
            f"{op} needs at least one factor vanishing on placeholder-only words"
        )


def prec_eval(f, g, w: IncompleteWord) -> Fraction:
    """Left half-product: cuts keeping the lessdot-first opaque letter left.

    The cut at the full position set pairs ``f`` with the unit value of
    ``g``, realizing ``f prec counit = f``; ``counit prec counit`` stays
    undefined.
    """
    _check_half_product_args(f, g, "prec")
    if is_placeholder_only(w):
        return ZERO
    return _cut_sum(f, g, w, True)


def succ_eval(f, g, w: IncompleteWord) -> Fraction:
    """Right half-product: the lessdot-first opaque letter goes right."""
    _check_half_product_args(f, g, "succ")
    if is_placeholder_only(w):
        return ZERO
    return _cut_sum(f, g, w, False)


def star(f, g) -> Lazy:
    return Lazy(lambda w: star_eval(f, g, w), f.unit_value * g.unit_value)


def prec(f, g) -> Lazy:
    _check_half_product_args(f, g, "prec")
    return Lazy(lambda w: prec_eval(f, g, w))


def succ(f, g) -> Lazy:
    _check_half_product_args(f, g, "succ")
    return Lazy(lambda w: succ_eval(f, g, w))


def prelie_eval(f, g, w: IncompleteWord) -> Fraction:
    """preLie product ``(f prec g) - (g succ f)`` evaluated at ``w``."""
    if f.unit_value or g.unit_value:
        raise ValueError("the preLie product needs both factors to vanish on "
                         "placeholder-only words")
    return prec_eval(f, g, w) - succ_eval(g, f, w)


def prelie_interval_form(f: Functional, g: Functional, w: IncompleteWord) -> Fraction:
    """Closed form of the preLie product for interval-kind directions.

    For ``w`` whose opaque positions form one standard-order interval, sum
    ``f(w | I1 u I2) * g(w | J)`` over the splittings of the interval into a
    prefix ``I1``, a middle ``J`` and a suffix ``I2`` with ``I1, I2``
    nonempty; elsewhere the product vanishes.
    """
    if f.kind != LIE_INTERVAL or g.kind != LIE_INTERVAL:
        raise ValueError("closed form applies to lie_interval functionals")
    components = opaque_intervals(type_of(w))
    if len(components) != 1:
        return ZERO
    so = standard_order(w.sides)
    run = so.sort_positions(components[0])
    n = len(run)
    total = ZERO
    for a in range(1, n):          # |I1| = a >= 1
        for b in range(1, n - a + 1):   # |J| = b >= 1, |I2| = n - a - b >= 1
            if n - a - b < 1:
                continue
            outer = run[:a] + run[a + b:]
            middle = run[a : a + b]
            total += f.eval(restrict_word(w, outer)) * g.eval(restrict_word(w, middle))
    return total


# ---------------------------------------------------------------------------
# exponentials

def _require_kind(f: Functional, kind: str, op: str) -> None:
    if f.kind != kind:
        raise ValueError(f"{op} expects a {kind} functional, got {f.kind}")


def _fixed_point_table(alphabet: Alphabet, max_len: int, step) -> dict:
    """``M = counit + step(M, w)`` tabulated on the complete words up to ``max_len``.

    ``M`` is a :class:`Lazy`, so each word's value is computed once; the
    recursion terminates because every cut ``step`` sums over leaves fewer
    opaque letters on the side where ``M`` is evaluated.
    """
    M = Lazy(lambda w: ONE if is_placeholder_only(w) else step(M, w), 1)
    return {v: M.eval(v) for v in alphabet.complete_words(max_len, min_len=1)}


def exp_prec(k: Functional, max_len: int) -> Functional:
    """Solve ``M = counit + k prec M``; tabulated on complete words.

    The recursion sums, over the kept sets containing the lessdot-first
    opaque position, ``k`` on the restriction times ``M`` on the
    translucidation.
    """
    _require_kind(k, LIE_INTERVAL, "exp_prec")
    return Functional(GROUP_MULTIPLICATIVE, k.alphabet, _fixed_point_table(
        k.alphabet, max_len, lambda M, w: _cut_sum(k, M, w, True)))


def exp_succ(b: Functional, max_len: int) -> Functional:
    """Solve ``M = counit + M succ b``; tabulated on complete words."""
    _require_kind(b, LIE_INTERVAL, "exp_succ")
    return Functional(GROUP_MULTIPLICATIVE, b.alphabet, _fixed_point_table(
        b.alphabet, max_len, lambda M, w: _cut_sum(M, b, w, False)))


def _star_powers(f: Lazy, max_len: int) -> list[Lazy]:
    """``[f**(star n) for n = 1..max_len]``, each power a :class:`Lazy`.

    ``f`` must vanish on placeholder-only words, so each factor of a power
    takes at least one opaque letter and ``f**(star n)`` vanishes on words
    with fewer than ``n`` opaque letters.
    """
    powers = [f]
    for n in range(2, max_len + 1):
        powers.append(Lazy(lambda w, n=n, prev=powers[-1]:
                           ZERO if len(_facts(type_of(w)).opaque) < n
                           else _cut_sum(prev, f, w, None)))
    return powers


def _power_series_table(f: Lazy, alphabet: Alphabet, max_len: int, coefficient) -> dict:
    """``sum(coefficient(n) * f**(star n))`` on the complete words up to ``max_len``.

    The terms are added up in Python ints, one :class:`~fractions.Fraction`
    per word.
    """
    powers = _star_powers(f, max_len)
    weights = [(c.numerator, c.denominator)
               for c in map(coefficient, range(1, max_len + 1))]
    table = {}
    for v in alphabet.complete_words(max_len, min_len=1):
        nums = []
        dens = []
        for (c_num, c_den), power in zip(weights, powers[:len(v)]):
            num, den = power._pair(v)
            if num:
                nums.append(c_num * num)
                dens.append(c_den * den)
        table[v] = _fraction_sum(nums, dens)
    return table


def exp_star(m: Functional, max_len: int) -> Functional:
    """Convolution exponential ``counit + sum(m**(star n) / n!)``."""
    _require_kind(m, LIE_INTERVAL, "exp_star")
    return Functional(GROUP_MULTIPLICATIVE, m.alphabet, _power_series_table(
        m, m.alphabet, max_len, lambda n: Q(1, math.factorial(n))))


def log_star(M: Functional, max_len: int) -> Functional:
    """Convolution logarithm, the inverse of :func:`exp_star`.

    Alternating series ``sum((-1)**(n-1)/n * (M - counit)**(star n))``; the
    series is finite on every word.
    """
    _require_kind(M, GROUP_MULTIPLICATIVE, "log_star")
    shifted = Lazy(lambda w: ZERO if is_placeholder_only(w) else M.eval(w))
    return Functional(LIE_INTERVAL, M.alphabet, _power_series_table(
        shifted, M.alphabet, max_len, lambda n: Q((-1) ** (n - 1), n)))


def exp_full(k: Functional, max_len: int) -> Functional:
    """Exponential of a full-kind direction; all three exponentials agree.

    Uses the left fixed-point recursion with full-kind evaluation; the value
    on a word is the sum over all bipartitions of its type of the product of
    ``k`` over the blocks.
    """
    _require_kind(k, LIE_FULL, "exp_full")
    return Functional(GROUP_FULL, k.alphabet, _fixed_point_table(
        k.alphabet, max_len, lambda M, w: _cut_sum(k, M, w, True)))


# ---------------------------------------------------------------------------
# bipartition-sum oracle

def block_sums(t: TranslucentWord, cls: str, words, lookup,
               skip_one_block: bool = False) -> list[Fraction]:
    """:func:`block_sum` of each of ``words``, all of type ``t``, in their order.

    The cap is read, and the plan fetched, once per call.  The terms are
    added up in Python ints, one :class:`~fractions.Fraction` per word.  A
    block's value is looked up only when a term reaches it, and each
    distinct block subword at most once per call; a product stops at its
    first zero factor.  ``skip_one_block`` leaves out the one-block term
    before anything is looked up, so ``lookup`` need not know the words
    themselves.
    """
    _check_request(t, cls)  # the enumeration cap is read on every call
    scale, blocks, terms = _block_sum_plan(t, cls)
    if skip_one_block and len(terms[0][1]) == 1:
        terms = terms[1:]  # all in one block is the first restricted-growth string
    known: dict[tuple, tuple[int, int]] = {}  # block subword -> (numerator, denominator)
    out = []
    for w in words:
        letters = w.letters
        values: list = [None] * len(blocks)
        nums = []
        dens = []
        for num, indices in terms:
            den = 1
            for i in indices:
                v = values[i]
                if v is None:
                    pick, sides = blocks[i]
                    sub = (pick(letters), sides)
                    v = known.get(sub)
                    if v is None:
                        q = lookup(IncompleteWord(*sub))
                        v = known[sub] = (q.numerator, q.denominator)
                    values[i] = v
                num *= v[0]
                if not num:
                    break
                den *= v[1]
            if num:
                nums.append(num)
                dens.append(den)
        out.append(_fraction_sum(nums, dens, scale))
    return out


def block_sum(t: TranslucentWord, cls: str, w: IncompleteWord, lookup,
              skip_one_block: bool = False) -> Fraction:
    """Sum of ``weight * prod(lookup(w | block))`` over ``class_terms(t, cls)``.

    ``w`` is a word of type ``t``; this is :func:`block_sums` on one word.
    """
    return block_sums(t, cls, (w,), lookup, skip_one_block)[0]


@lru_cache(maxsize=65536)
def _rank_plan(key: RankKey):
    """``(scale, blocks, terms)`` of the class terms of a key of
    :func:`bifc.bipartition._rank_key`, in rank space.

    ``blocks`` holds each distinct block once, as its tuple of 0-based
    standard-order ranks.  ``terms`` holds ``(numerator, block indices)``
    pairs whose weights are the numerators over the common denominator
    ``scale``.  On the fully opaque types there is one key per length and
    class, whatever the side pattern.
    """
    terms = _key_terms(key, range(len(key[0])))
    scale = math.lcm(*(weight.denominator for _bl, weight in terms))
    index: dict[tuple[int, ...], int] = {}
    plan = []
    for bl, weight in terms:
        indices = tuple(index.setdefault(block, len(index)) for block in bl)
        plan.append((weight.numerator * (scale // weight.denominator), indices))
    return scale, tuple(index), tuple(plan)


@lru_cache(maxsize=65536)
def _block_sum_plan(t: TranslucentWord, cls: str):
    """``(scale, blocks, terms)`` for :func:`block_sums` on type ``t``.

    ``scale`` and ``terms`` are those of :func:`_rank_plan`, shared by
    every type of one key.  ``blocks`` relabels its blocks through
    ``standard_order(t.alpha).perm``, each as ``(pick, sides)``: ``pick``
    takes the block's letters from a word's letter tuple, in natural order,
    and ``sides`` is their side string, which depends only on ``t``.
    """
    scale, ranks, terms = _rank_plan(_rank_key(t, cls))
    perm = standard_order(t.alpha).perm
    blocks = []
    for block in ranks:
        at = sorted(perm[r] - 1 for r in block)
        blocks.append((_picker(tuple(at)), "".join(t.alpha[p] for p in at)))
    return scale, tuple(blocks), terms


def oracle_sum(k, w: IncompleteWord, cls: str) -> Fraction:
    """Brute-force bipartition sum over the given class of ``type_of(w)``.

    Weight 1 per bipartition, except the monotone class which weighs each
    labelled bipartition by ``1 / |blocks|!``.  This is the independent
    check for every exponential.
    """
    return block_sum(type_of(w), cls, w, k.eval)
