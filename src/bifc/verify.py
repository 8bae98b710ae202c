"""Verification suites behind ``bifc verify``.

Each suite exhaustively checks one family of identities at desk scale and
reports the first counterexample verbatim.  A suite's body is a private
generator that yields once per check: ``None`` when it passes, the
counterexample text when it fails.  :func:`_first_failure` counts every
check it draws, passing or failing, and stops at the first failure, so a
failing suite reports the checks up to and including the one that failed.
Suites:

* ``codendriform``: coassociativity, the three coDendriform splitting
  axioms and conilpotency, over every incomplete word on a one-left /
  one-right alphabet up to the length bound.
* ``dendriform``: the three dendriform relations, star-associativity and
  unitality, pointwise for random rational functionals.
* ``exchange``: the two associativity constraints of the four-point
  exchange construction, plus compatibility of the coproduct and its halves
  with the horizontal product, over all translucent ambients up to the
  bound.
* ``exponentials``: the three exponentials against their bipartition-sum
  oracles, and the full-kind exponential against the all-bipartition sum.
* ``prelie``: triviality on full-kind directions and the interval-splitting
  closed form on interval-kind directions.
* ``roundtrip``: moments to cumulants and back, all three families.
* ``single_faced``: two-faced conversions on all-left words against the
  independent classical free/Boolean/monotone conversions.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from . import cumulants as cm
from . import functional as fn
from . import single_faced as sf
from . import translucent as tr
from . import words as wd
from .biset import standard_order

Q = Fraction


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    checked: int
    counterexample: str | None = None

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        line = f"{self.name}: {status} ({self.checked} checks)"
        if self.counterexample:
            line += f"\n  first counterexample: {self.counterexample}"
        return line


def _first_failure(name: str, checks: Iterator[str | None]) -> SuiteResult:
    """Count ``checks`` up to and including the first failure, which ends
    the run: ``checks`` is not resumed after it."""
    checked = 0
    for counterexample in checks:
        checked += 1
        if counterexample is not None:
            return SuiteResult(name, False, checked, counterexample)
    return SuiteResult(name, True, checked)


def _small_alphabet() -> wd.Alphabet:
    return wd.Alphabet.make(left={"aL"}, right={"aR"})


def _two_by_two_alphabet() -> wd.Alphabet:
    return wd.Alphabet.make(left={"aL", "bL"}, right={"aR", "bR"})


def _random_table(alphabet: wd.Alphabet, rng: random.Random, max_len: int,
                  complete_only: bool = True) -> dict:
    words = alphabet.complete_words(max_len, 1) if complete_only else (
        w for w in alphabet.words(max_len, 1) if not wd.is_placeholder_only(w)
    )
    return {w: Q(rng.randint(-6, 6), rng.randint(1, 6)) for w in words}


# ---------------------------------------------------------------------------
# codendriform

@lru_cache(maxsize=65536)
def _coproduct_terms(op, w: wd.IncompleteWord) -> tuple:
    """``op(w)``'s ``((left, right), multiplicity)`` terms, expanded once per word.

    Keyed on the operation itself, so a replaced ``wd.coproduct*`` is
    expanded afresh; ``op`` returns a new mutable ``WordSum``, kept here
    as a tuple.
    """
    return tuple(op(w).items())


def _expand_slot(terms: Counter, slot: int, op) -> Counter:
    out: Counter = Counter()
    for tup, mult in terms.items():
        for (a, b), m in _coproduct_terms(op, tup[slot]):
            out[tup[:slot] + (a, b) + tup[slot + 1:]] += mult * m
    return out


def suite_codendriform(max_len: int = 4, seed: int = 0) -> SuiteResult:
    return _first_failure("codendriform", _codendriform_checks(max_len))


def _codendriform_checks(max_len: int) -> Iterator[str | None]:
    alphabet = _small_alphabet()
    for w in alphabet.words(max_len):
        # coassociativity of the full coproduct
        base = Counter({(w,): 1})
        left = _expand_slot(_expand_slot(base, 0, wd.coproduct), 0, wd.coproduct)
        right = _expand_slot(_expand_slot(base, 0, wd.coproduct), 1, wd.coproduct)
        yield f"coassociativity fails on {w.text!r}" if left != right else None
        if wd.is_placeholder_only(w):
            continue
        # reduced coproduct splits into the two halves
        halves = wd.coproduct_left(w) + wd.coproduct_right(w)
        yield (f"half-splitting fails on {w.text!r}"
               if halves != wd.reduced_coproduct(w) else None)
        start = Counter({(w,): 1})
        pairs = [
            ("(cl x id)cl = (id x red)cl",
             _expand_slot(_expand_slot(start, 0, wd.coproduct_left), 0, wd.coproduct_left),
             _expand_slot(_expand_slot(start, 0, wd.coproduct_left), 1, wd.reduced_coproduct)),
            ("(id x cr)cr = (red x id)cr",
             _expand_slot(_expand_slot(start, 0, wd.coproduct_right), 1, wd.coproduct_right),
             _expand_slot(_expand_slot(start, 0, wd.coproduct_right), 0, wd.reduced_coproduct)),
            ("(cr x id)cl = (id x cl)cr",
             _expand_slot(_expand_slot(start, 0, wd.coproduct_left), 0, wd.coproduct_right),
             _expand_slot(_expand_slot(start, 0, wd.coproduct_right), 1, wd.coproduct_left)),
        ]
        for label, lhs, rhs in pairs:
            yield f"{label} fails on {w.text!r}" if lhs != rhs else None
        # conilpotency: the reduced coproduct dies after |opaque| iterations
        terms = Counter({(w,): 1})
        for _ in range(len(wd.opaque_positions_w(w))):
            terms = _expand_slot(terms, 0, wd.reduced_coproduct)
        yield f"conilpotency fails on {w.text!r}" if terms else None


# ---------------------------------------------------------------------------
# dendriform

def suite_dendriform(max_len: int = 4, seed: int = 42) -> SuiteResult:
    return _first_failure("dendriform", _dendriform_checks(max_len, seed))


def _dendriform_checks(max_len: int, seed: int) -> Iterator[str | None]:
    alphabet = _small_alphabet()
    rng = random.Random(seed)
    f1, f2, f3 = (
        fn.Functional(fn.GENERIC, alphabet,
                      _random_table(alphabet, rng, max_len, complete_only=False))
        for _ in range(3)
    )
    eps = fn.Functional.counit(alphabet)
    relations = [
        ("(f1<f2)<f3 = f1<(f2*f3)",
         fn.prec(fn.prec(f1, f2), f3), fn.prec(f1, fn.star(f2, f3))),
        ("f1>(f2>f3) = (f1*f2)>f3",
         fn.succ(f1, fn.succ(f2, f3)), fn.succ(fn.star(f1, f2), f3)),
        ("f1>(f2<f3) = (f1>f2)<f3",
         fn.succ(f1, fn.prec(f2, f3)), fn.prec(fn.succ(f1, f2), f3)),
        ("(f1*f2)*f3 = f1*(f2*f3)",
         fn.star(fn.star(f1, f2), f3), fn.star(f1, fn.star(f2, f3))),
        ("eps*f1 = f1", fn.star(eps, f1), f1),
        ("f1*eps = f1", fn.star(f1, eps), f1),
    ]
    for w in alphabet.words(max_len):
        for label, lhs, rhs in relations:
            yield (f"{label} fails on {w.text!r}: {lhs.eval(w)} != {rhs.eval(w)}"
                   if lhs.eval(w) != rhs.eval(w) else None)
    try:
        fn.prec_eval(eps, eps, alphabet.word("aL"))
    except ValueError:
        yield None
    else:
        yield "counit-on-both-sides was not rejected"


# ---------------------------------------------------------------------------
# exchange

def _exchange_assoc_first(t: tr.TranslucentWord) -> Iterator[str | None]:
    transl = standard_order(t.alpha).sort_positions(tr.translucent_positions(t))
    for a in range(len(transl)):
        for b in range(a + 1, len(transl)):
            i, j = transl[a], transl[b]
            _, after_i, seg_minus, t_from_i = tr._split_at(t, i)
            before_j, _, t_upto_j, seg_plus = tr._split_at(t, j)
            i_in_j = before_j.index(i) + 1
            j_in_i = after_i.index(j) + 1
            mid_factors = [s for _r, s in tr.factorizations(tr.split(t_upto_j, i_in_j)[1])]
            plus_factors = [s for _r, s in tr.factorizations(seg_plus)]
            # s_hi depends on (s_mid, s_plus) only and s_lo on
            # (s_minus, s_mid) only: merge each pair once.
            s_hi = {
                (s_mid, s_plus): tr.exchange(s_mid, s_plus, t_from_i, j_in_i)[1]
                for s_mid in mid_factors
                for s_plus in plus_factors
            }
            for _r, s_minus in tr.factorizations(seg_minus):
                for s_mid in mid_factors:
                    _, s_lo = tr.exchange(s_minus, s_mid, t_upto_j, i_in_j)
                    for s_plus in plus_factors:
                        route1 = tr.exchange(s_lo, s_plus, t, j)
                        route2 = tr.exchange(
                            s_minus, s_hi[s_mid, s_plus], t, i)
                        yield (f"first associativity constraint fails on t={t} "
                               f"i={i} j={j}" if route1 != route2 else None)


def _exchange_assoc_second(t: tr.TranslucentWord) -> Iterator[str | None]:
    for i in tr.translucent_positions(t):
        t_minus, t_plus = tr.split(t, i)
        plus = [(s_plus, [(r_plus, tr.compose(r_plus, s_plus))
                          for _c, r_plus in tr.factorizations(c_plus)])
                for c_plus, s_plus in tr.factorizations(t_plus)]
        for c_minus, s_minus in tr.factorizations(t_minus):
            # the merge of (s_minus, s_plus) does not depend on the r factors
            big = {}
            for s_plus, _ in plus:
                big_r, big_s = tr.exchange(s_minus, s_plus, t, i)
                i_prime = tr.translucent_positions(big_s).index(i) + 1
                big[s_plus] = (big_r, big_s, i_prime,
                               tr.compose(big_r, big_s) == t)
            for _c, r_minus in tr.factorizations(c_minus):
                rs_minus = tr.compose(r_minus, s_minus)
                for s_plus, r_pluses in plus:
                    big_r, big_s, i_prime, recomposes = big[s_plus]
                    for r_plus, rs_plus in r_pluses:
                        mid_r, mid_s = tr.exchange(rs_minus, rs_plus, t, i)
                        if not recomposes:
                            yield f"recomposition fails on t={t} i={i}"
                            continue
                        inner = tr.exchange(s_minus, s_plus, mid_s, i)
                        if inner[1] != big_s:
                            yield (f"second associativity constraint (s part) "
                                   f"fails on t={t} i={i}")
                            continue
                        outer = tr.exchange(r_minus, r_plus, big_r, i_prime)
                        yield (f"second associativity constraint (r part) fails "
                               f"on t={t} i={i}"
                               if outer[0] != mid_r or outer[1] != inner[0] else None)


_HALVES_KEEP_MIN = {"full": None, "left": True, "right": False}


def _compat_counters(w_minus, w_plus, t, i, halves: str):
    """Both sides of the coproduct/horizontal-product compatibility.

    ``halves`` selects the full coproduct or one of the unreduced halves on
    the left factor; the right factor always carries the full coproduct.
    """
    keep_min = _HALVES_KEEP_MIN[halves]
    w = wd.horizontal_product(w_minus, w_plus, t, i)
    lhs = Counter(wd.admissible_cuts(w, keep_min))
    rhs: Counter = Counter()
    plus_cuts = [(ell_plus, u_plus, wd.type_of(u_plus))
                 for ell_plus, u_plus in wd.admissible_cuts(w_plus)]
    for ell_minus, u_minus in wd.admissible_cuts(w_minus, keep_min):
        s_minus = wd.type_of(u_minus)
        for ell_plus, u_plus, s_plus in plus_cuts:
            r, s = tr.exchange(s_minus, s_plus, t, i)
            u = wd.horizontal_product(u_minus, u_plus, s, i)
            i_prime = tr.translucent_positions(s).index(i) + 1
            ell = wd.horizontal_product(ell_minus, ell_plus, r, i_prime)
            rhs[(ell, u)] += 1
    return lhs, rhs


def suite_exchange(max_len: int = 5, seed: int = 0) -> SuiteResult:
    return _first_failure("exchange", _exchange_checks(max_len))


def _exchange_checks(max_len: int) -> Iterator[str | None]:
    alphabet = _small_alphabet()
    for t in tr.all_words(max_len):
        yield from _exchange_assoc_first(t)
        yield from _exchange_assoc_second(t)
        for i in tr.translucent_positions(t):
            t_minus, t_plus = tr.split(t, i)
            w_minus = next(alphabet.words_of_type(t_minus))
            w_plus = next(alphabet.words_of_type(t_plus))
            for halves in ("full", "left", "right"):
                if halves != "full" and not tr.opaque_positions(
                        wd.type_of(w_minus)):
                    continue
                lhs, rhs = _compat_counters(w_minus, w_plus, t, i, halves)
                yield (f"coproduct/horizontal compatibility ({halves}) fails on "
                       f"t={t} i={i}" if lhs != rhs else None)


# ---------------------------------------------------------------------------
# exponentials

def suite_exponentials(max_len: int = 5, seed: int = 42) -> SuiteResult:
    return _first_failure("exponentials", _exponentials_checks(max_len, seed))


def _exponentials_checks(max_len: int, seed: int) -> Iterator[str | None]:
    alphabet = _two_by_two_alphabet()
    rng = random.Random(seed)
    k = fn.Functional(fn.LIE_INTERVAL, alphabet, _random_table(alphabet, rng, max_len))
    kf = fn.Functional(fn.LIE_FULL, alphabet, _random_table(alphabet, rng, max_len))
    m_star = fn.exp_star(k, max_len)
    built = [
        ("exp_prec vs shaded_nc", fn.exp_prec(k, max_len), k, "shaded_nc"),
        ("exp_succ vs interval", fn.exp_succ(k, max_len), k, "interval"),
        ("exp_star vs monotone", m_star, k, "monotone"),
        ("exp_full vs all", fn.exp_full(kf, max_len), kf, "all"),
    ]
    for label, M, direction, cls in built:
        for w in alphabet.complete_words(max_len, 1):
            lhs, rhs = M.eval(w), fn.oracle_sum(direction, w, cls)
            yield f"{label} fails on {w.text!r}: {lhs} != {rhs}" if lhs != rhs else None
    logk = fn.log_star(m_star, max_len)
    for w in alphabet.complete_words(max_len, 1):
        yield (f"log_star(exp_star) fails on {w.text!r}"
               if logk.eval(w) != k.eval(w) else None)


# ---------------------------------------------------------------------------
# prelie

def suite_prelie(max_len: int = 4, seed: int = 42) -> SuiteResult:
    return _first_failure("prelie", _prelie_checks(max_len, seed))


def _prelie_checks(max_len: int, seed: int) -> Iterator[str | None]:
    alphabet = _small_alphabet()
    rng = random.Random(seed)
    ff = fn.Functional(fn.LIE_FULL, alphabet, _random_table(alphabet, rng, max_len))
    gf = fn.Functional(fn.LIE_FULL, alphabet, _random_table(alphabet, rng, max_len))
    fi = fn.Functional(fn.LIE_INTERVAL, alphabet, _random_table(alphabet, rng, max_len))
    gi = fn.Functional(fn.LIE_INTERVAL, alphabet, _random_table(alphabet, rng, max_len))
    for w in alphabet.words(max_len):
        yield (f"full-kind preLie product nonzero on {w.text!r}"
               if fn.prelie_eval(ff, gf, w) != 0 else None)
        lhs = fn.prelie_eval(fi, gi, w)
        rhs = fn.prelie_interval_form(fi, gi, w)
        yield (f"interval closed form fails on {w.text!r}: {lhs} != {rhs}"
               if lhs != rhs else None)
    # preLie identity: the associator is symmetric in its last two arguments
    for a, b, c in [(fi, gi, fi), (gi, fi, fi)]:
        ab = _prelie_lazy(a, b)
        bc = _prelie_lazy(b, c)
        ac = _prelie_lazy(a, c)
        cb = _prelie_lazy(c, b)
        for w in alphabet.words(max_len - 1):
            lhs = (fn.prelie_eval(ab, c, w) - fn.prelie_eval(a, bc, w))
            rhs = (fn.prelie_eval(ac, b, w) - fn.prelie_eval(a, cb, w))
            yield (f"preLie associator symmetry fails on {w.text!r}"
                   if lhs != rhs else None)


def _prelie_lazy(a, b) -> fn.Lazy:
    return fn.Lazy(lambda w: fn.prelie_eval(a, b, w))


# ---------------------------------------------------------------------------
# roundtrip and single-faced

def suite_roundtrip(max_len: int = 4, seed: int = 42) -> SuiteResult:
    return _first_failure("roundtrip", _roundtrip_checks(max_len, seed))


def _roundtrip_checks(max_len: int, seed: int) -> Iterator[str | None]:
    alphabet = _two_by_two_alphabet()
    rng = random.Random(seed)
    moments = cm.MomentData(alphabet, _random_table(alphabet, rng, max_len))
    for family in cm.FAMILIES:
        cums = cm.moments_to_cumulants(moments, family, max_len)
        back = cm.cumulants_to_moments(cums, max_len)
        for w in alphabet.complete_words(max_len, 1):
            yield (f"{family} roundtrip fails on {w.text!r}: "
                   f"{back.moment(w)} != {moments.moment(w)}"
                   if back.moment(w) != moments.moment(w) else None)


def suite_single_faced(max_len: int = 5, seed: int = 42) -> SuiteResult:
    return _first_failure("single_faced", _single_faced_checks(max_len, seed))


def _single_faced_checks(max_len: int, seed: int) -> Iterator[str | None]:
    alphabet = wd.Alphabet.make(left={"x", "y"}, right=set())
    rng = random.Random(seed)
    moments = cm.MomentData(alphabet, _random_table(alphabet, rng, max_len))
    letters = ("x", "y")
    flat = {tuple(w.letters): moments.moment(w)
            for w in alphabet.complete_words(max_len)}
    pairs = {"bifree": "free", "biboolean": "boolean", "bimonotone": "monotone"}
    for two_faced, classical in pairs.items():
        ours = cm.moments_to_cumulants(moments, two_faced, max_len)
        reference = sf.cumulants_from_moments(flat, classical, letters, max_len)
        for w in alphabet.complete_words(max_len, 1):
            expected = reference[tuple(w.letters)]
            yield (f"{two_faced} vs {classical} differ on {w.text!r}: "
                   f"{ours.cumulant(w)} != {expected}"
                   if ours.cumulant(w) != expected else None)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "codendriform": suite_codendriform,
    "dendriform": suite_dendriform,
    "exchange": suite_exchange,
    "exponentials": suite_exponentials,
    "prelie": suite_prelie,
    "roundtrip": suite_roundtrip,
    "single_faced": suite_single_faced,
}


def run_suite(name: str, max_len: int | None = None, seed: int | None = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    kwargs = {}
    if max_len is not None:
        kwargs["max_len"] = max_len
    if seed is not None:
        kwargs["seed"] = seed
    return SUITES[name](**kwargs)
