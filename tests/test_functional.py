import random
from fractions import Fraction as Q

import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bifc import bipartition as bp
from bifc import functional as fn
from bifc import translucent as tr
from bifc import words as wd
from bifc.biset import standard_order

AB = wd.Alphabet.make(left={"aL"}, right={"aR"})
TWO = wd.Alphabet.make(left={"aL", "bL"}, right={"aR", "bR"})


def rand_table(alphabet, max_len, seed, lo=-6, hi=6):
    rng = random.Random(seed)
    return {
        w: Q(rng.randint(lo, hi), rng.randint(1, 6))
        for w in alphabet.complete_words(max_len, 1)
    }


@pytest.fixture(scope="module")
def k_interval():
    return fn.Functional(fn.LIE_INTERVAL, AB, rand_table(AB, 5, seed=7))


@pytest.fixture(scope="module")
def k_full():
    return fn.Functional(fn.LIE_FULL, AB, rand_table(AB, 5, seed=8))


class TestEval:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            fn.Functional("weird", AB, {})
        with pytest.raises(ValueError):
            fn.Functional(fn.LIE_INTERVAL, AB, {AB.word("aL L"): Q(1)})
        with pytest.raises(ValueError):
            fn.Functional(fn.LIE_INTERVAL, AB, {}, unit_value=1)

    def test_unit_values(self, k_interval):
        ph = AB.word("L R L")
        assert k_interval.eval(ph) == 0
        group = fn.Functional(fn.GROUP_FULL, AB, {})
        assert group.eval(ph) == 1
        eps = fn.Functional.counit(AB)
        assert eps.eval(ph) == 1 and eps.eval(AB.word("aL")) == 0

    def test_lie_interval_support(self, k_interval):
        # two standard-order components: value 0
        w = AB.word("aL L aL")
        assert len(tr.opaque_intervals(wd.type_of(w))) == 2
        assert k_interval.eval(w) == 0
        # one component: value of the opaque restriction
        v = AB.word("aR L aR")
        assert len(tr.opaque_intervals(wd.type_of(v))) == 1
        assert k_interval.eval(v) == k_interval.eval(AB.word("aR aR"))

    def test_group_multiplicative_eval(self):
        table = rand_table(TWO, 4, seed=3)
        f = fn.Functional(fn.GROUP_MULTIPLICATIVE, TWO, table)
        w = TWO.word("aL bL L aR bR")
        comps = tr.opaque_intervals(wd.type_of(w))
        assert [tuple(c) for c in comps] == [(1, 2), (4, 5)]
        assert f.eval(w) == table[TWO.word("aL bL")] * table[TWO.word("aR bR")]

    def test_group_missing_entry(self):
        f = fn.Functional(fn.GROUP_MULTIPLICATIVE, AB, {AB.word("aL"): Q(2)})
        with pytest.raises(fn.MissingTableEntryError):
            f.eval(AB.word("aR"))

    def test_lie_full_sees_any_opaque_pattern(self, k_full):
        w = AB.word("aL L aL")
        assert k_full.eval(w) == k_full.eval(AB.word("aL aL"))


class TestProducts:
    def test_counit_laws(self, k_interval):
        eps = fn.Functional.counit(AB)
        M = fn.exp_prec(k_interval, 4)
        for w in AB.words(3):
            assert fn.star_eval(eps, M, w) == M.eval(w)
            assert fn.star_eval(M, eps, w) == M.eval(w)

    def test_half_products_on_primitive(self, k_interval, k_full):
        w = AB.word("aL")
        assert fn.prec_eval(k_interval, k_full, w) == 0
        assert fn.succ_eval(k_interval, k_full, w) == 0

    def test_partial_extensions(self, k_interval):
        eps = fn.Functional.counit(AB)
        for w in AB.words(3):
            assert fn.prec_eval(k_interval, eps, w) == k_interval.eval(w)
            assert fn.succ_eval(eps, k_interval, w) == k_interval.eval(w)
            if not wd.is_placeholder_only(w):
                assert fn.prec_eval(eps, k_interval, w) == 0
                assert fn.succ_eval(k_interval, eps, w) == 0

    def test_eps_eps_rejected(self):
        eps = fn.Functional.counit(AB)
        with pytest.raises(ValueError):
            fn.prec_eval(eps, eps, AB.word("aL"))
        with pytest.raises(ValueError):
            fn.succ_eval(eps, eps, AB.word("aL"))

    def test_star_splits_into_halves(self, k_interval, k_full):
        for w in AB.words(4):
            if wd.is_placeholder_only(w):
                continue
            full = fn.star_eval(k_interval, k_full, w)
            halves = (fn.prec_eval(k_interval, k_full, w)
                      + fn.succ_eval(k_interval, k_full, w))
            # the two trivial cut terms vanish for directions, so star = halves
            assert full == halves

    def test_worked_left_product(self, k_interval):
        # (k prec M)(a^R a^L) = k(a^L) M(a^R) + k(a^R a^L)
        M = fn.exp_prec(k_interval, 4)
        w = AB.word("aR aL")
        got = fn.prec_eval(k_interval, M, w)
        assert got == (k_interval.eval(AB.word("aL")) * M.eval(AB.word("aR"))
                       + k_interval.eval(w))

    def test_dendriform_relations_random(self):
        rng = random.Random(5)
        fs = []
        for _ in range(3):
            table = {
                w: Q(rng.randint(-5, 5), rng.randint(1, 5))
                for w in AB.words(4, 1) if not wd.is_placeholder_only(w)
            }
            fs.append(fn.Functional(fn.GENERIC, AB, table))
        f1, f2, f3 = fs
        for w in AB.words(4):
            assert fn.prec(fn.prec(f1, f2), f3).eval(w) == \
                fn.prec(f1, fn.star(f2, f3)).eval(w)
            assert fn.succ(f1, fn.succ(f2, f3)).eval(w) == \
                fn.succ(fn.star(f1, f2), f3).eval(w)
            assert fn.succ(f1, fn.prec(f2, f3)).eval(w) == \
                fn.prec(fn.succ(f1, f2), f3).eval(w)

    def test_group_values_multiply_along_horizontal_products(self):
        # (f star g) of a horizontal product is the product of its values
        table_f = rand_table(AB, 5, seed=11, lo=1, hi=5)
        table_g = rand_table(AB, 5, seed=12, lo=1, hi=5)
        f = fn.Functional(fn.GROUP_MULTIPLICATIVE, AB, table_f)
        g = fn.Functional(fn.GROUP_MULTIPLICATIVE, AB, table_g)
        h = fn.star(f, g)
        for t in tr.all_words(5):
            for i in tr.translucent_positions(t):
                t_minus, t_plus = tr.split(t, i)
                w_minus = next(AB.words_of_type(t_minus))
                w_plus = next(AB.words_of_type(t_plus))
                w = wd.horizontal_product(w_minus, w_plus, t, i)
                assert h.eval(w) == h.eval(w_minus) * h.eval(w_plus)


class TestPreLie:
    def test_requires_directions(self, k_interval):
        M = fn.exp_prec(k_interval, 3)
        with pytest.raises(ValueError):
            fn.prelie_eval(k_interval, M, AB.word("aL"))

    def test_full_kind_trivial(self, k_full):
        other = fn.Functional(fn.LIE_FULL, AB, rand_table(AB, 4, seed=9))
        for w in AB.words(4):
            assert fn.prelie_eval(k_full, other, w) == 0

    def test_single_letter_vanishes(self, k_interval):
        other = fn.Functional(fn.LIE_INTERVAL, AB, rand_table(AB, 4, seed=10))
        assert fn.prelie_eval(k_interval, other, AB.word("aL")) == 0

    def test_closed_form_example(self):
        B = wd.Alphabet.make(left={"aL", "bL", "cL"}, right={"aR"})
        f = fn.Functional(fn.LIE_INTERVAL, B, rand_table(B, 4, seed=13))
        g = fn.Functional(fn.LIE_INTERVAL, B, rand_table(B, 4, seed=14))
        w = B.word("aL R aR bL cL")
        expected = (f.eval(B.word("aL aR")) * g.eval(B.word("bL cL"))
                    + f.eval(B.word("aL aR cL")) * g.eval(B.word("bL"))
                    + f.eval(B.word("aL aR bL")) * g.eval(B.word("cL")))
        assert fn.prelie_eval(f, g, w) == expected
        assert fn.prelie_interval_form(f, g, w) == expected

    def test_closed_form_matches_everywhere(self, k_interval):
        other = fn.Functional(fn.LIE_INTERVAL, AB, rand_table(AB, 4, seed=10))
        for w in AB.words(4):
            assert fn.prelie_eval(k_interval, other, w) == \
                fn.prelie_interval_form(k_interval, other, w)


class TestExponentials:
    def test_exp_prec_goldens(self, k_interval):
        k = k_interval
        M = fn.exp_prec(k, 4)
        w = AB.word("aR aL")
        assert M.eval(w) == k.eval(AB.word("aL")) * k.eval(AB.word("aR")) + k.eval(w)
        w4 = AB.word("aR aL aR aL")
        # the recursion expands into 8 terms, one per kept set, the last
        # being the table value of the whole word
        total = Q(0)
        kept_sets = list(tr.cut_sets(wd.type_of(w4), True))
        assert len(kept_sets) == 8
        for kept in kept_sets:
            total += (k.eval(wd.restrict_word(w4, kept))
                      * M.eval(wd.translucidate_word(w4, kept)))
        assert M.eval(w4) == total == fn.oracle_sum(k, w4, "shaded_nc")

    def test_exp_prec_nc_count(self):
        ones = fn.Functional(
            fn.LIE_INTERVAL, AB, {w: Q(1) for w in AB.complete_words(4, 1)})
        M = fn.exp_prec(ones, 4)
        assert M.eval(AB.word("aR aL aR aL")) == 14

    def test_exp_prec_zero_direction(self):
        zero = fn.Functional(fn.LIE_INTERVAL, AB, {})
        M = fn.exp_prec(zero, 3)
        assert M.eval(AB.word("L R")) == 1
        assert M.eval(AB.word("aL")) == 0

    def test_exp_succ_goldens(self, k_interval):
        k = k_interval
        M = fn.exp_succ(k, 4)
        assert M.eval(AB.word("aL aL")) == (
            k.eval(AB.word("aL aL")) + k.eval(AB.word("aL")) ** 2)
        assert M.eval(AB.word("aR aL")) == (
            k.eval(AB.word("aR aL"))
            + k.eval(AB.word("aL")) * k.eval(AB.word("aR")))

    def test_exp_star_goldens(self, k_interval):
        k = k_interval
        M = fn.exp_star(k, 4)
        assert M.eval(AB.word("aL")) == k.eval(AB.word("aL"))
        assert M.eval(AB.word("aL aL")) == (
            k.eval(AB.word("aL aL")) + k.eval(AB.word("aL")) ** 2)

    def test_log_star_roundtrip(self, k_interval):
        M = fn.exp_star(k_interval, 4)
        back = fn.log_star(M, 4)
        for w in AB.complete_words(4, 1):
            assert back.eval(w) == k_interval.eval(w)

    def test_exp_full_goldens(self, k_full):
        k = k_full
        M = fn.exp_full(k, 4)
        assert M.eval(AB.word("aL aL")) == (
            k.eval(AB.word("aL aL")) + k.eval(AB.word("aL")) ** 2)
        w = AB.word("aL aR aL")
        assert M.eval(w) == fn.oracle_sum(k, w, "all")

    def test_kind_mismatch(self, k_interval, k_full):
        with pytest.raises(ValueError):
            fn.exp_prec(k_full, 3)
        with pytest.raises(ValueError):
            fn.exp_full(k_interval, 3)
        with pytest.raises(ValueError):
            fn.log_star(k_interval, 3)

    @pytest.mark.parametrize(
        "builder,cls",
        [(fn.exp_prec, "shaded_nc"), (fn.exp_succ, "interval"),
         (fn.exp_star, "monotone")],
    )
    def test_exponentials_match_oracles(self, k_interval, builder, cls):
        M = builder(k_interval, 4)
        for w in AB.complete_words(4, 1):
            assert M.eval(w) == fn.oracle_sum(k_interval, w, cls), (cls, w.text)


class TestOracle:
    def test_oracle_classes_on_two_letters(self, k_interval):
        k = k_interval
        w = AB.word("aR aL")  # standard order reversed: 2 <. 1
        kk = k.eval(AB.word("aL")) * k.eval(AB.word("aR"))
        assert fn.oracle_sum(k, w, "interval") == k.eval(w) + kk
        assert fn.oracle_sum(k, w, "monotone") == k.eval(w) + kk
        assert fn.oracle_sum(k, w, "nc") == k.eval(w) + kk

    def test_oracle_monotone_weights(self, k_interval):
        k = k_interval
        w = AB.word("aL aL")
        # one block, weight 1; two labelled singleton splits, weight 1/2 each
        assert fn.oracle_sum(k, w, "monotone") == (
            k.eval(w) + k.eval(AB.word("aL")) ** 2)

    def test_oracle_on_placeholder_only(self, k_interval):
        assert fn.oracle_sum(k_interval, AB.word("L R"), "all") == 1


def reference_block_sum(terms, w, lookup, skip_one_block=False):
    """The block-sum loop over ``(blocks, weight)`` terms in plain Fractions."""
    values = {}
    total = Q(0)
    for blocks, weight in terms:
        if skip_one_block and len(blocks) == 1:
            continue
        num, den = weight.numerator, weight.denominator
        for block in blocks:
            v = values.get(block)
            if v is None:
                v = values[block] = lookup(wd.restrict_word(w, block))
            num *= v.numerator
            if not num:
                break
            den *= v.denominator
        if num:
            total += Q(num, den)
    return total


def word_of_type(t, rng):
    """A word over ``TWO`` of type ``t`` with seeded variable letters."""
    letters = [
        rng.choice(sorted(TWO.left if side == "L" else TWO.right)) if bit == "1" else side
        for side, bit in zip(t.alpha, t.mask)
    ]
    return TWO.word(letters)


class TestBlockSum:
    # 0, signs and denominators 2, 3, 5, 7, so the common denominator of a
    # call is rarely 1
    VALUES = [Q(0), Q(1), Q(-1), Q(3), Q(1, 2), Q(-2, 3), Q(3, 5), Q(-5, 7), Q(7, 2), Q(-4, 5)]

    def table(self, seed):
        rng = random.Random(seed)
        return {w: rng.choice(self.VALUES) for w in TWO.complete_words(5, 1)}

    def test_matches_fraction_loop_on_every_type(self):
        from bifc.bipartition import CLASSES

        rng = random.Random(11)
        for seed in (1, 2):
            lookup = self.table(seed).__getitem__
            for t in tr.all_words(5):
                w = word_of_type(t, rng)
                # every word of the type in one batched call, too
                words = list(TWO.words_of_type(t)) if seed == 1 else []
                for cls in CLASSES:
                    terms = fn.class_terms(t, cls)
                    for skip in (False, True):
                        assert fn.block_sum(t, cls, w, lookup, skip) == \
                            reference_block_sum(terms, w, lookup, skip), (t, cls, skip)
                        assert fn.block_sums(t, cls, words, lookup, skip) == [
                            reference_block_sum(terms, u, lookup, skip) for u in words
                        ], (t, cls, skip)

    def test_reaches_blocks_lazily_and_once(self):
        from bifc.bipartition import CLASSES

        t = tr.fully_opaque("LLRR")
        w = TWO.word("aL bL aR bR")
        table = self.table(3)
        table[TWO.word("aL")] = Q(0)
        # in the interval class, block {2} only comes after block {1}, whose
        # value is 0, so ``bL`` must never be looked up
        assert all(bl[0] == (1,) for bl, _w in fn.class_terms(t, "interval") if (2,) in bl)

        def lookup(u):
            if u == TWO.word("bL"):
                raise AssertionError("looked up a block past a zero factor")
            return table[u]

        assert fn.block_sum(t, "interval", w, lookup) == reference_block_sum(
            fn.class_terms(t, "interval"), w, table.__getitem__)
        # the letters of w are distinct, so each block has its own word
        for cls in CLASSES:
            calls = []

            def counting(u):
                calls.append(u)
                return table[u]

            fn.block_sum(t, cls, w, counting)
            assert len(calls) == len(set(calls)), cls
        # moments_to_cumulants skips the one-block term because the cumulant
        # of the whole word is not known yet: it must never be looked up
        rng = random.Random(12)
        for t in tr.all_words(5):
            if "0" in t.mask:
                continue
            whole = word_of_type(t, rng)

            def guarded(u):
                if u == whole:
                    raise AssertionError(f"looked up the whole word {u.text!r}")
                return table[u]

            for cls in CLASSES:
                fn.block_sum(t, cls, whole, guarded, skip_one_block=True)

    def test_cap_read_on_every_call(self, monkeypatch):
        from bifc import bipartition as bp

        t = tr.fully_opaque("LRL")
        w = TWO.word("aL aR bL")
        lookup = self.table(4).__getitem__
        fn.block_sum(t, "nc", w, lookup)
        monkeypatch.setenv(bp.MAX_ENUM_ENV, "2")
        with pytest.raises(bp.EnumerationLimitError):
            fn.block_sum(t, "nc", w, lookup)


def reference_terms(t, cls):
    """The class terms by a walk over the natural positions of ``t`` itself:
    the growth rule of :func:`bifc.bipartition._grow` before it moved to
    rank space, kept as a reference."""
    perm = standard_order(t.alpha).perm
    opaque = [t.mask[p - 1] == "1" for p in perm]
    transl = tr.translucent_positions(t)
    shade_at = transl[0] if cls == "shaded_nc" and transl else None
    stacked = cls in ("nc", "shaded_nc", "monotone")
    rank = {p: r for r, p in enumerate(perm)}
    blocks, out = [], []

    def leaf():
        weight = Q(1)
        if cls == "monotone":  # labellings m!/prod(hook), over m!
            firsts = [rank[b[0]] for b in blocks]
            hooks = math.prod(sum(f <= rank[b[-1]] for f in firsts) - i
                              for i, b in enumerate(blocks))
            weight = Q(1, hooks)
        out.append((tuple(tuple(sorted(b)) for b in blocks), weight))

    def step(k, stack, seen):
        while k < len(perm) and not opaque[k]:
            if stacked:
                if -1 in stack:
                    stack = stack[:stack.index(-1) + 1]
                elif seen:
                    return
                else:
                    stack += (-1,)
                if cls == "monotone" or perm[k] == shade_at:
                    stack = (-1,)
            seen = True
            k += 1
        if k == len(perm):
            leaf()
            return
        p = perm[k]
        for i, b in enumerate(stack):
            if b != -1:
                blocks[b].append(p)
                step(k + 1, stack[:i + 1] if stacked else stack, seen)
                blocks[b].pop()
        blocks.append([p])
        step(k + 1, (len(blocks) - 1,) if cls == "interval" else stack + (len(blocks) - 1,),
             seen)
        blocks.pop()

    step(0, (), False)
    return out


def reference_plan(t, cls):
    """``(scale, blocks, terms)`` compiled from :func:`reference_terms` for
    ``t`` alone, each block as ``(0-based natural positions, sides)``."""
    terms = reference_terms(t, cls)
    scale = math.lcm(*(weight.denominator for _bl, weight in terms))
    index, plan = {}, []
    for bl, weight in terms:
        indices = tuple(index.setdefault(block, len(index)) for block in bl)
        plan.append((weight.numerator * (scale // weight.denominator), indices))
    blocks = tuple((tuple(p - 1 for p in block), "".join(t.alpha[p - 1] for p in block))
                   for block in index)
    return scale, blocks, tuple(plan)


def plan_of(t, cls):
    """:func:`bifc.functional._block_sum_plan` with each picker read off as
    the 0-based positions it takes."""
    scale, blocks, terms = fn._block_sum_plan(t, cls)
    positions = tuple(range(len(t.alpha)))
    return scale, tuple((tuple(pick(positions)), sides) for pick, sides in blocks), terms


class TestRankPlan:
    def test_matches_per_type_compile_on_every_type(self):
        for t in tr.all_words(6):
            for cls in bp.CLASSES:
                assert plan_of(t, cls) == reference_plan(t, cls), (t, cls)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(7, 9), st.data())
    def test_matches_per_type_compile_at_seven_to_nine(self, n, data):
        alpha = data.draw(st.text("LR", min_size=n, max_size=n))
        mask = data.draw(st.text("01", min_size=n, max_size=n))
        cls = data.draw(st.sampled_from(bp.CLASSES))
        t = tr.TranslucentWord(alpha, mask)
        assert plan_of(t, cls) == reference_plan(t, cls)

    def test_side_patterns_of_one_key_share_the_terms(self):
        for cls in bp.CLASSES:
            for n in range(6):
                plans = [fn._block_sum_plan(tr.fully_opaque("".join(alpha)), cls)
                         for alpha in product("LR", repeat=n)]
                assert all(plan[2] is plans[0][2] for plan in plans), (cls, n)

    def test_shaded_key_holds_the_first_translucent_rank(self):
        # one standard-order mask, "10011", with the naturally first
        # translucent position at rank 1 and at rank 2: the keys differ,
        # and each type gets its own terms, which bar the opaque block at
        # rank 0 from nesting the translucent block as plain nc allows
        t1, t2 = tr.TranslucentWord("LLLLL", "10011"), tr.TranslucentWord("LRRRL", "11100")
        k1, k2 = bp._rank_key(t1, "shaded_nc"), bp._rank_key(t2, "shaded_nc")
        assert k1 == ("10011", "shaded_nc", 1) and k2 == ("10011", "shaded_nc", 2)
        assert fn._block_sum_plan(t1, "shaded_nc")[2] is not fn._block_sum_plan(
            t2, "shaded_nc")[2]
        assert fn.class_terms(t1, "shaded_nc") == (
            (((1,), (4, 5)), 1), (((1,), (4,), (5,)), 1))
        assert fn.class_terms(t2, "shaded_nc") == (
            (((1,), (2, 3)), 1), (((1,), (3,), (2,)), 1))
        for t in (t1, t2):
            assert plan_of(t, "shaded_nc") == reference_plan(t, "shaded_nc")
            assert len(fn.class_terms(t, "nc")) == 5


def reference_cut_sum(f, g, w, keep_min):
    """The cut sum in plain Fractions, one restriction and translucidation per set."""
    total = Q(0)
    for kept in tr.cut_sets(wd.type_of(w), keep_min):
        left = f.eval(wd.restrict_word(w, kept))
        if left:
            total += left * g.eval(wd.translucidate_word(w, kept))
    return total


def reference_star_powers(f, top, interval_kind, memo):
    """``f**(star n)(top)`` for ``n = 1..len(top)``, term by term in Fractions.

    ``top`` is complete.  With ``interval_kind`` set, only the cuts whose
    dropped positions form one standard-order run can contribute; the others
    are skipped and ``f`` is read on the restriction to the run.  ``memo``
    maps ``(n, word)`` to a value and may be shared between calls.
    """

    def power(n, u):
        if n == 1:
            return f.eval(u)
        if n > len(u):
            return Q(0)
        if (n, u) not in memo:
            perm = standard_order(u.sides).perm
            runs = {tuple(sorted(perm[i:j]))
                    for i in range(len(u)) for j in range(i + 1, len(u) + 1)}
            total = Q(0)
            for kept in tr.cut_sets(wd.type_of(u), None):
                dropped = tuple(p for p in range(1, len(u) + 1) if p not in kept)
                if not interval_kind:
                    coeff = f.eval(wd.translucidate_word(u, kept))
                elif dropped in runs:
                    coeff = f.eval(wd.restrict_word(u, dropped))
                else:
                    continue
                if coeff:
                    total += power(n - 1, wd.restrict_word(u, kept)) * coeff
            memo[n, u] = total
        return memo[n, u]

    return [power(n, top) for n in range(1, len(top) + 1)]


class TestCutSums:
    def functional(self, seed, kind=fn.GENERIC, unit_value=None, alphabet=AB):
        rng = random.Random(seed)
        words = (alphabet.words(5, 1) if kind == fn.GENERIC
                 else alphabet.complete_words(5, 1))
        table = {w: rng.choice(TestBlockSum.VALUES) for w in words
                 if not wd.is_placeholder_only(w)}
        return fn.Functional(kind, alphabet, table, unit_value=unit_value)

    def test_cut_sum_matches_fraction_loop(self):
        for seed in (1, 2):
            f = self.functional(seed, unit_value=Q(-2, 3))
            g = self.functional(seed + 10, unit_value=Q(5, 7))
            for w in AB.words(5):
                for keep_min in (None, True, False):
                    if keep_min is not None and wd.is_placeholder_only(w):
                        continue
                    assert fn._cut_sum(f, g, w, keep_min) == \
                        reference_cut_sum(f, g, w, keep_min), (w, keep_min)

    @pytest.mark.parametrize("interval_kind", [True, False])
    def test_star_powers_match_fraction_loop(self, interval_kind):
        kind = fn.LIE_INTERVAL if interval_kind else fn.GENERIC
        for seed in (3, 4):
            f = self.functional(seed, kind, alphabet=TWO)
            powers = fn._star_powers(f, 5)
            memo = {}
            for v in TWO.complete_words(5, 1):
                assert [p.eval(v) for p in powers[:len(v)]] == \
                    reference_star_powers(f, v, interval_kind, memo), v

    def test_cut_sum_with_interval_kind_right_factor(self):
        # an interval-kind right factor sends the cut sum to the run-only plan
        for seed in (5, 6):
            f = self.functional(seed, unit_value=Q(-2, 3))
            g = self.functional(seed + 10, fn.LIE_INTERVAL)
            for w in AB.words(5):
                for keep_min in (None, True, False):
                    if keep_min is not None and wd.is_placeholder_only(w):
                        continue
                    assert fn._cut_sum(f, g, w, keep_min) == \
                        reference_cut_sum(f, g, w, keep_min), (w, keep_min)

    @pytest.mark.parametrize("interval_kind", [True, False])
    def test_star_powers_vanish_below_their_opaque_count(self, interval_kind):
        # each factor of f**(star n) takes an opaque letter, so the cut sum a
        # power skips on words with fewer than n opaque letters adds up to 0
        kind = fn.LIE_INTERVAL if interval_kind else fn.GENERIC
        f = self.functional(3, kind, alphabet=TWO)
        powers = fn._star_powers(f, 5)
        for w in TWO.words(5):
            for n in range(len(wd.opaque_positions_w(w)) + 1, 6):
                assert powers[n - 1].eval(w) == 0, (w, n)
                if n > 1:
                    assert fn._cut_sum(powers[n - 2], f, w, None) == 0, (w, n)

    @pytest.mark.parametrize("interval_kind", [True, False])
    def test_power_series_table_matches_fraction_sum(self, interval_kind):
        kind = fn.LIE_INTERVAL if interval_kind else fn.GENERIC
        f = self.functional(4, kind, alphabet=TWO)
        for coefficient in (lambda n: Q(1, math.factorial(n)), lambda n: Q((-1) ** (n - 1), n)):
            table = fn._power_series_table(f, TWO, 4, coefficient)
            memo = {}
            assert len(table) == sum(4 ** n for n in range(1, 5))
            for v in TWO.complete_words(4, 1):
                terms = reference_star_powers(f, v, interval_kind, memo)
                assert table[v] == sum(
                    (coefficient(n) * p for n, p in enumerate(terms, start=1)), Q(0)), v
