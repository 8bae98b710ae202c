from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bifc import translucent as tr
from bifc import words as wd

AB = wd.Alphabet.make(left={"aL"}, right={"aR"})
WIDE = wd.Alphabet.make(left={"xL", "aL", "bL"}, right={"xR", "yR", "aR", "bR"})


def words_up_to(alphabet, n):
    return list(alphabet.words(n))


class TestAlphabet:
    def test_rejects_collisions(self):
        with pytest.raises(ValueError):
            wd.Alphabet.make({"L"}, set())
        with pytest.raises(ValueError):
            wd.Alphabet.make({"a"}, {"a"})
        with pytest.raises(ValueError):
            wd.Alphabet.make({"a b"}, set())

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            AB.word("aL zz")

    def test_words_of_type_counts(self):
        two = wd.Alphabet.make(left={"a", "b"}, right={"c"})
        # opaque left position: 2 letters; opaque right: 1; translucent: fixed
        assert len(list(two.words_of_type(tr.make("LLR", "101")))) == 2
        assert len(list(two.words_of_type(tr.make("LLR", "111")))) == 4


class TestTypes:
    def test_type_golden(self):
        assert wd.type_of(AB.word("aL aR L aR R")) == tr.make("LRLRR", "11010")
        assert wd.type_of(AB.word("L R")) == tr.make("LR", "00")
        assert wd.type_of(AB.word("aL")) == tr.make("L", "1")

    def test_restrict_translucidate_commute_with_types(self):
        w = WIDE.word("xL L aR bL R")
        for kept in ([1, 3], [2, 4, 5], []):
            assert wd.type_of(wd.restrict_word(w, kept)) == tr.restrict(
                wd.type_of(w), kept)
            assert wd.type_of(wd.translucidate_word(w, kept)) == tr.translucidate(
                wd.type_of(w), kept)


class TestCompose:
    def test_golden(self):
        w = WIDE.word("xL L xR yR")
        wp = WIDE.word("L aL aR L R bL R bL")
        assert wd.compose_words(w, wp) == WIDE.word("xL aL aR L xR bL yR bL")

    def test_units(self):
        wp = WIDE.word("L aL aR L R bL R bL")
        t = wd.type_of(wp)
        target_word = wd.placeholder_word(tr.target(t))
        assert wd.compose_words(target_word, wp) == wp
        alpha_word = wd.placeholder_word(t.alpha)
        assert wd.compose_words(wp, alpha_word) == wp

    def test_not_composable(self):
        with pytest.raises(ValueError):
            wd.compose_words(AB.word("aL"), AB.word("R aR"))

    def test_factorization_bijection(self):
        # every admissible cut recomposes; cuts are pairwise distinct
        for w in words_up_to(AB, 4):
            cuts = list(wd.admissible_cuts(w))
            assert len(cuts) == 2 ** len(wd.opaque_positions_w(w))
            assert len(set(cuts)) == len(cuts)
            for left, right in cuts:
                assert wd.compose_words(left, right) == w


class TestCutGenerator:
    @pytest.mark.parametrize("keep_min", [None, True, False])
    def test_matches_brute_force(self, keep_min):
        # every position set holding all translucent positions, split by
        # whether it holds the lessdot-first opaque position
        for w in words_up_to(AB, 5):
            if keep_min is not None and wd.is_placeholder_only(w):
                continue
            base = set(wd.translucent_positions_w(w))
            expected = set()
            for size in range(len(w) + 1):
                for kept in combinations(range(1, len(w) + 1), size):
                    if not base <= set(kept):
                        continue
                    if keep_min is not None and (
                            (wd.min_opaque(w) in kept) != keep_min):
                        continue
                    expected.add((wd.restrict_word(w, kept),
                                  wd.translucidate_word(w, kept)))
            cuts = list(wd.admissible_cuts(w, keep_min))
            assert len(cuts) == len(set(cuts))
            assert set(cuts) == expected

    def test_plan_matches_restrict_and_translucidate(self):
        # one variable per position, so a picker taking a wrong index shows
        for t in tr.all_words(6):
            w = wd.IncompleteWord(
                tuple(f"x{p}{side}" if bit == "1" else side
                      for p, (side, bit) in enumerate(zip(t.alpha, t.mask), start=1)),
                t.alpha)
            facts = tr._facts(t)
            # the mirrored side pattern of the same mask shares every picker
            mirror = tr._facts(tr.TranslucentWord(
                t.alpha.translate(str.maketrans("LR", "RL")), t.mask))
            shared = {kept: (restrict, translucidate) for kept, (restrict, _sides, translucidate)
                      in zip(tr.cut_sets(t, None), mirror.plan(None))}
            for keep_min in (None, True, False):
                if keep_min is not None and "1" not in t.mask:
                    with pytest.raises(ValueError):
                        facts.plan(keep_min)
                    continue
                expected = [(wd._restrict_sorted(w, kept), wd._translucidate_set(w, kept))
                            for kept in tr.cut_sets(t, keep_min)]
                assert list(wd.admissible_cuts(w, keep_min)) == expected, (t, keep_min)
                plan = facts.plan(keep_min)
                if keep_min is not None:
                    # either half is the whole plan filtered on the first position
                    assert plan == tuple(
                        cut for cut, kept in zip(facts.plan(None), tr.cut_sets(t, None))
                        if (wd.min_opaque(w) in kept) == keep_min), (t, keep_min)
                for kept, (restrict, _sides, translucidate) in zip(
                        tr.cut_sets(t, keep_min), plan):
                    assert shared[kept][0] is restrict, (t, keep_min, kept)
                    assert shared[kept][1] is translucidate, (t, keep_min, kept)

    def test_factorizations_match_brute_force(self):
        # one pair (restrict(t, J), translucidate(t, J)) per set J between
        # the translucent positions of t and all of its positions
        for t in tr.all_words(5):
            n = len(t.alpha)
            base = set(tr.translucent_positions(t))
            expected = {
                (tr.restrict(t, kept), tr.translucidate(t, kept))
                for size in range(n + 1)
                for kept in combinations(range(1, n + 1), size)
                if base <= set(kept)
            }
            pairs = tr.factorizations(t)
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == expected


class TestCoproduct:
    def test_golden_eight_terms(self):
        B = wd.Alphabet.make(left={"a1"}, right={"a2", "a3"})
        w = B.word("a1 L R a2 a3")
        got = {(l.text, r.text) for l, r in wd.coproduct(w)}
        assert got == {
            ("L R", "a1 L R a2 a3"),
            ("a1 L R a2 a3", "L L R R R"),
            ("a1 L R", "L L R a2 a3"),
            ("L R a2", "a1 L R R a3"),
            ("L R a3", "a1 L R a2 R"),
            ("a1 L R a2", "L L R R a3"),
            ("a1 L R a3", "L L R a2 R"),
            ("L R a2 a3", "a1 L R R R"),
        }
        assert len(wd.coproduct(w)) == 8

    def test_placeholder_only_group_like(self):
        w = AB.word("L R L")
        assert wd.coproduct(w) == wd.WordSum([(w, w)])

    @given(st.integers(0, 3), st.data())
    def test_term_count(self, n, data):
        letters = data.draw(st.lists(
            st.sampled_from(("aL", "aR", "L", "R")), min_size=n, max_size=n))
        w = AB.word(letters)
        assert len(wd.coproduct(w)) == 2 ** len(wd.opaque_positions_w(w))

    def test_half_goldens(self):
        C = wd.Alphabet.make(left={"aL", "bL"}, right={"aR", "bR"})
        w = C.word("aL L bL bR")
        left = {(l.text, r.text) for l, r in wd.coproduct_left(w)}
        right = {(l.text, r.text) for l, r in wd.coproduct_right(w)}
        assert left == {
            ("aL L", "L L bL bR"),
            ("aL L bL", "L L L bR"),
            ("aL L bR", "L L bL R"),
        }
        assert right == {
            ("L bL bR", "aL L L R"),
            ("L bL", "aL L L bR"),
            ("L bR", "aL L bL R"),
        }

    def test_single_letter_halves_empty(self):
        assert len(wd.coproduct_left(AB.word("aL"))) == 0
        assert len(wd.coproduct_right(AB.word("aL"))) == 0

    def test_halves_need_an_opaque_letter(self):
        with pytest.raises(ValueError):
            wd.coproduct_left(AB.word("L R"))

    def test_halves_sum_to_reduced(self):
        for w in words_up_to(AB, 4):
            if wd.is_placeholder_only(w):
                continue
            assert (wd.coproduct_left(w) + wd.coproduct_right(w)
                    == wd.reduced_coproduct(w))


def expand(terms: Counter, slot: int, op) -> Counter:
    out: Counter = Counter()
    for tup, mult in terms.items():
        for (a, b), m in op(tup[slot]).items():
            out[tup[:slot] + (a, b) + tup[slot + 1:]] += mult * m
    return out


class TestCoDendriform:
    def test_coassociativity(self):
        for w in words_up_to(AB, 4):
            base = Counter({(w,): 1})
            lhs = expand(expand(base, 0, wd.coproduct), 0, wd.coproduct)
            rhs = expand(expand(base, 0, wd.coproduct), 1, wd.coproduct)
            assert lhs == rhs

    def test_axioms(self):
        for w in words_up_to(AB, 4):
            if wd.is_placeholder_only(w):
                continue
            base = Counter({(w,): 1})
            a1l = expand(expand(base, 0, wd.coproduct_left), 0, wd.coproduct_left)
            a1r = expand(expand(base, 0, wd.coproduct_left), 1, wd.reduced_coproduct)
            assert a1l == a1r
            a2l = expand(expand(base, 0, wd.coproduct_right), 1, wd.coproduct_right)
            a2r = expand(expand(base, 0, wd.coproduct_right), 0, wd.reduced_coproduct)
            assert a2l == a2r
            a3l = expand(expand(base, 0, wd.coproduct_left), 0, wd.coproduct_right)
            a3r = expand(expand(base, 0, wd.coproduct_right), 1, wd.coproduct_left)
            assert a3l == a3r

    def test_conilpotency(self):
        for w in words_up_to(AB, 4):
            if wd.is_placeholder_only(w):
                continue
            terms = Counter({(w,): 1})
            for _ in range(len(wd.opaque_positions_w(w))):
                terms = expand(terms, 0, wd.reduced_coproduct)
            assert not terms


class TestHorizontal:
    def test_golden(self):
        C = wd.Alphabet.make(left={"aL", "bL"}, right={"aR", "bR"})
        w_minus = C.word("L R aL aR")
        w_plus = C.word("bR R R")
        t = tr.make("RLRRRRLR", "10000011")
        assert wd.horizontal_product(w_minus, w_plus, t, 5) == C.word(
            "bR L R R R R aL aR")

    def test_empty_left_prepends(self):
        t = tr.make("LL", "01")
        out = wd.horizontal_product(wd.EMPTY_WORD, AB.word("aL"), t, 1)
        assert out == AB.word("L aL")

    def test_all_left_concatenation(self):
        t = tr.make("LLL", "101")
        out = wd.horizontal_product(AB.word("aL"), AB.word("aL"), t, 2)
        assert out == AB.word("aL L aL")

    def test_type_mismatch_rejected(self):
        t = tr.make("LLL", "101")
        with pytest.raises(ValueError):
            wd.horizontal_product(AB.word("aR"), AB.word("aL"), t, 2)
        with pytest.raises(ValueError):
            wd.horizontal_product(AB.word("aL"), AB.word("aL"), t, 1)

    def test_ambient_matters(self):
        # the same factors give different words in different ambients
        w_minus, w_plus = AB.word("L aL"), AB.word("aR")
        t1 = tr.make("LLLR", "0101")
        t2 = tr.make("LLRL", "0110")
        out1 = wd.horizontal_product(w_minus, w_plus, t1, 3)
        out2 = wd.horizontal_product(w_minus, w_plus, t2, 4)
        assert out1 != out2
        assert wd.type_of(out1) == t1 and wd.type_of(out2) == t2


class TestOpaqueFactorize:
    def test_goldens(self):
        D = wd.Alphabet.make(left={"aL", "bL"}, right={"aR", "bR"})
        w = D.word("L aR aL bL L bR")
        assert [f.text for f in wd.opaque_factorize(w)] == ["", "aL bL", "aR bR"]
        complete = D.word("aL bL")
        assert wd.opaque_factorize(complete) == [complete]
        ph = D.word("L R")
        assert wd.opaque_factorize(ph) == [wd.EMPTY_WORD] * 3

    @settings(max_examples=60)
    @given(st.integers(0, 6), st.data())
    def test_roundtrip(self, n, data):
        letters = data.draw(st.lists(
            st.sampled_from(("aL", "aR", "L", "R")), min_size=n, max_size=n))
        w = AB.word(letters)
        t = wd.type_of(w)
        assert wd.reassemble(wd.opaque_factorize(w), t) == w

    def test_roundtrip_exhaustive(self):
        for w in words_up_to(AB, 5):
            assert wd.reassemble(wd.opaque_factorize(w), wd.type_of(w)) == w
