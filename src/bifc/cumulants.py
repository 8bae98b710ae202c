"""Moment-cumulant conversion for the three two-faced families.

Moments are the values of a unital functional on complete words; cumulants
come in three families, each defined by a bipartition class of the fully
opaque type of a word (standard order of its side pattern):

* ``bifree``      - noncrossing bipartitions,
* ``biboolean``   - interval bipartitions,
* ``bimonotone``  - labelled monotone bipartitions, weighted ``1/|blocks|!``.

In each case the moment of a word is the weighted sum over the class of the
product of cumulants of the block restrictions; the cumulants are recovered
by the triangular recursion that peels off the one-block term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .functional import (
    Functional,
    LIE_INTERVAL,
    block_sums,
    exp_prec,
    exp_star,
    exp_succ,
)
from .translucent import fully_opaque
from .words import Alphabet, EMPTY_WORD, IncompleteWord, is_complete

Q = Fraction

FAMILIES = ("bifree", "biboolean", "bimonotone")
_FAMILY_CLASS = {"bifree": "nc", "biboolean": "interval", "bimonotone": "monotone"}


class MomentData:
    __slots__ = ("alphabet", "values")

    def __init__(self, alphabet: Alphabet, values: Mapping[IncompleteWord, Fraction]):
        self.alphabet = alphabet
        self.values = {w: Q(v) for w, v in values.items()}
        for w in self.values:
            if not is_complete(w):
                raise ValueError(f"moments are keyed by complete words: {w.text!r}")
        self.values.setdefault(EMPTY_WORD, Q(1))
        if self.values[EMPTY_WORD] != 1:
            raise ValueError("the empty-word moment must be 1")

    def __repr__(self) -> str:
        return f"MomentData(alphabet={self.alphabet!r}, values={self.values!r})"

    def __eq__(self, other) -> bool:
        return (type(other) is MomentData and self.alphabet == other.alphabet
                and self.values == other.values)

    def moment(self, w: IncompleteWord) -> Fraction:
        try:
            return self.values[w]
        except KeyError:
            raise KeyError(f"missing moment entry for {w.text!r}") from None


class CumulantData:
    __slots__ = ("family", "alphabet", "values")

    def __init__(self, family: str, alphabet: Alphabet,
                 values: Mapping[IncompleteWord, Fraction] | None = None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
        self.family = family
        self.alphabet = alphabet
        self.values = {w: Q(v) for w, v in (values or {}).items()}
        for w in self.values:
            if not is_complete(w) or len(w) == 0:
                raise ValueError(
                    f"cumulants are keyed by nonempty complete words: {w.text!r}"
                )

    def __repr__(self) -> str:
        return (f"CumulantData(family={self.family!r}, alphabet={self.alphabet!r}, "
                f"values={self.values!r})")

    def __eq__(self, other) -> bool:
        return (type(other) is CumulantData and self.family == other.family
                and self.alphabet == other.alphabet and self.values == other.values)

    def cumulant(self, w: IncompleteWord) -> Fraction:
        try:
            return self.values[w]
        except KeyError:
            raise KeyError(f"missing cumulant entry for {w.text!r}") from None


def _length_sums(alphabet: Alphabet, n: int, cls: str, lookup,
                 skip_one_block: bool = False) -> dict[IncompleteWord, Fraction]:
    """:func:`block_sums` of the complete words of length ``n``, one call per
    side pattern, keyed in complete-word order."""
    words = list(alphabet.complete_words(n, min_len=n))
    patterns: dict[str, list[IncompleteWord]] = {}
    for w in words:
        patterns.setdefault(w.sides, []).append(w)
    sums = {}
    for sides, group in patterns.items():
        sums.update(zip(group, block_sums(fully_opaque(sides), cls, group, lookup,
                                          skip_one_block)))
    return {w: sums[w] for w in words}


def cumulants_to_moments(c: CumulantData, max_len: int) -> MomentData:
    """Weighted bipartition sums of cumulant products, up to ``max_len``."""
    cls = _FAMILY_CLASS[c.family]
    values = {}
    for n in range(1, max_len + 1):
        # every word's one-block term needs its own cumulant: ask in
        # complete-word order, so a missing one is named in that order
        for w in c.alphabet.complete_words(n, min_len=n):
            c.cumulant(w)
        values.update(_length_sums(c.alphabet, n, cls, c.cumulant))
    return MomentData(c.alphabet, values)


def moments_to_cumulants(m: MomentData, family: str, max_len: int) -> CumulantData:
    """Triangular inversion of :func:`cumulants_to_moments`.

    The one-block bipartition carries weight 1 in every family, so the
    cumulant of a word is its moment minus the other terms, which only
    involve shorter words.
    """
    out = CumulantData(family, m.alphabet)
    cls = _FAMILY_CLASS[family]
    for n in range(1, max_len + 1):
        rest = _length_sums(m.alphabet, n, cls, out.cumulant, skip_one_block=True)
        for w, others in rest.items():
            out.values[w] = m.moment(w) - others
    return out


def cumulant_functional(c: CumulantData) -> Functional:
    """The interval-kind functional tabulating a cumulant family."""
    return Functional(LIE_INTERVAL, c.alphabet, c.values)


class CheckLine(NamedTuple):
    family: str
    word: IncompleteWord
    expected: Fraction
    got: Fraction

    @property
    def ok(self) -> bool:
        return self.expected == self.got

    def __str__(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (f"{self.family:11s} {self.word.text!r:30s} moment={self.expected} "
                f"exp={self.got} {status}")


def check_against_exponentials(m: MomentData, max_len: int) -> list[CheckLine]:
    """Compare the moment functional with the three exponentials.

    Derives the cumulant family tables from the moments, exponentiates each
    with its matching exponential (bifree with the left fixed point,
    biboolean with the right one, bimonotone with the convolution
    exponential) and reports both values per complete word.
    """
    report = []
    exps = {"bifree": exp_prec, "biboolean": exp_succ, "bimonotone": exp_star}
    for family in FAMILIES:
        cums = moments_to_cumulants(m, family, max_len)
        rebuilt = exps[family](cumulant_functional(cums), max_len)
        for w in m.alphabet.complete_words(max_len, min_len=1):
            report.append(CheckLine(family, w, m.moment(w), rebuilt.eval(w)))
    return report


def independence_diagnostic(
    m: MomentData,
    family: str,
    tags: Mapping[str, int],
    max_len: int,
) -> IncompleteWord | None:
    """Largest mixed word with a nonvanishing cumulant, or None.

    ``tags`` assigns each variable to one of two groups; a word is mixed if
    it uses both groups.  Vanishing of all mixed bifree (resp. biboolean)
    cumulants characterizes bifreeness (resp. biboolean independence) of the
    two groups.  Words are scanned from long to short, ties broken by the
    deterministic word order.
    """
    if family not in ("bifree", "biboolean"):
        raise ValueError("mixed-cumulant diagnostics cover bifree and biboolean")
    cums = moments_to_cumulants(m, family, max_len)
    witnesses = []
    for w, value in cums.values.items():
        groups = {tags[x] for x in w.letters}
        if len(groups) > 1 and value != 0:
            witnesses.append(w)
    if not witnesses:
        return None
    return max(witnesses, key=lambda w: (len(w), w.letters))
