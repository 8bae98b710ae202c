import random
from fractions import Fraction as Q

import pytest

from bifc import cumulants as cm
from bifc import single_faced as sf
from bifc.words import Alphabet

AB = Alphabet.make(left={"a"}, right={"b"})


def random_moments(alphabet, max_len, seed):
    rng = random.Random(seed)
    return cm.MomentData(alphabet, {
        w: Q(rng.randint(-6, 6), rng.randint(1, 6))
        for w in alphabet.complete_words(max_len, 1)
    })


class TestData:
    def test_empty_moment_forced(self):
        m = cm.MomentData(AB, {})
        from bifc.words import EMPTY_WORD
        assert m.moment(EMPTY_WORD) == 1
        with pytest.raises(ValueError):
            cm.MomentData(AB, {EMPTY_WORD: Q(2)})

    def test_cumulants_reject_empty_word(self):
        from bifc.words import EMPTY_WORD
        with pytest.raises(ValueError):
            cm.CumulantData("bifree", AB, {EMPTY_WORD: Q(1)})
        with pytest.raises(ValueError):
            cm.CumulantData("nope", AB, {})

    def test_values_in_complete_word_order(self):
        two = Alphabet.make(left={"aL", "bL"}, right={"aR", "bR"})
        m = random_moments(two, 4, seed=10)
        order = list(two.complete_words(4, 1))
        for family in cm.FAMILIES:
            c = cm.moments_to_cumulants(m, family, 4)
            assert list(c.values) == order
            from bifc.words import EMPTY_WORD
            assert list(cm.cumulants_to_moments(c, 4).values) == order + [EMPTY_WORD]

    def test_missing_entries_raise(self):
        m = cm.MomentData(AB, {AB.word("a"): Q(1)})
        with pytest.raises(KeyError):
            cm.moments_to_cumulants(m, "bifree", 2)
        c = cm.CumulantData("bifree", AB, {AB.word("a"): Q(1)})
        with pytest.raises(KeyError):
            cm.cumulants_to_moments(c, 2)


class TestGoldens:
    def test_single_letters(self):
        m = random_moments(AB, 3, seed=1)
        for family in cm.FAMILIES:
            c = cm.moments_to_cumulants(m, family, 1)
            for w in AB.complete_words(1, 1):
                assert c.cumulant(w) == m.moment(w)

    def test_two_letter_bifree(self):
        m = random_moments(AB, 2, seed=2)
        c = cm.moments_to_cumulants(m, "bifree", 2)
        w = AB.word("a b")
        assert c.cumulant(w) == m.moment(w) - m.moment(AB.word("a")) * m.moment(
            AB.word("b"))

    def test_two_letter_biboolean_all_left(self):
        m = random_moments(AB, 2, seed=3)
        c = cm.moments_to_cumulants(m, "biboolean", 2)
        w = AB.word("a a")
        assert c.cumulant(w) == m.moment(w) - m.moment(AB.word("a")) ** 2

    def test_forward_two_letter(self):
        rng = random.Random(4)
        values = {
            w: Q(rng.randint(-4, 4), rng.randint(1, 4))
            for w in AB.complete_words(2, 1)
        }
        c = cm.CumulantData("bifree", AB, values)
        m = cm.cumulants_to_moments(c, 2)
        w = AB.word("a b")
        assert m.moment(w) == values[w] + values[AB.word("a")] * values[AB.word("b")]


class TestRoundtrip:
    @pytest.mark.parametrize("family", cm.FAMILIES)
    def test_roundtrip(self, family):
        m = random_moments(AB, 4, seed=42)
        c = cm.moments_to_cumulants(m, family, 4)
        back = cm.cumulants_to_moments(c, 4)
        for w in AB.complete_words(4, 1):
            assert back.moment(w) == m.moment(w)

    def test_zero_cumulants_zero_moments(self):
        c = cm.CumulantData(
            "bimonotone", AB, {w: Q(0) for w in AB.complete_words(3, 1)})
        m = cm.cumulants_to_moments(c, 3)
        for w in AB.complete_words(3, 1):
            assert m.moment(w) == 0

    def test_sparse_pair_table(self):
        # only the pair cumulants are nonzero, so most block products stop
        # at a zero single-letter factor; the moments count the pairings of
        # each family: Catalan numbers, one interval pairing, and the
        # arcsine moments binom(2k, k) / 2**k of the monotone family
        want = {"bifree": [1, 2, 5], "biboolean": [1, 1, 1],
                "bimonotone": [1, Q(3, 2), Q(5, 2)]}
        for family in cm.FAMILIES:
            c = cm.CumulantData(family, AB, {
                w: Q(int(len(w) == 2)) for w in AB.complete_words(6, 1)})
            m = cm.cumulants_to_moments(c, 6)
            for w in AB.complete_words(6, 1):
                n = len(w)
                assert m.moment(w) == (want[family][n // 2 - 1] if n % 2 == 0 else 0)

    def test_multilinearity_scaling(self):
        # scaling the moments by lambda**(occurrences of one letter) scales
        # every cumulant the same way
        lam = Q(3, 2)
        m = random_moments(AB, 4, seed=5)
        scaled = cm.MomentData(AB, {
            w: v * lam ** sum(1 for x in w.letters if x == "a")
            for w, v in m.values.items() if len(w) > 0
        })
        for family in cm.FAMILIES:
            base = cm.moments_to_cumulants(m, family, 4)
            out = cm.moments_to_cumulants(scaled, family, 4)
            for w, v in base.values.items():
                power = sum(1 for x in w.letters if x == "a")
                assert out.cumulant(w) == v * lam ** power


class TestExponentialBridge:
    def test_check_against_exponentials(self):
        m = random_moments(AB, 4, seed=42)
        report = cm.check_against_exponentials(m, 4)
        assert report and all(line.ok for line in report)

    def test_report_details_failures(self):
        m = cm.MomentData(AB, {w: Q(1) for w in AB.complete_words(2, 1)})
        report = cm.check_against_exponentials(m, 2)
        # sanity of the report structure rather than a failure scenario
        assert {line.family for line in report} == set(cm.FAMILIES)
        assert all(line.ok for line in report)

    def test_catalan_moments_have_unit_free_cumulants(self):
        one = Alphabet.make(left={"a"}, right=set())
        catalan = [1, 1, 2, 5, 14, 42]
        m = cm.MomentData(one, {
            one.word(" ".join(["a"] * n)): Q(catalan[n]) for n in range(1, 6)
        })
        c = cm.moments_to_cumulants(m, "bifree", 5)
        # Catalan moments count noncrossing partitions, so every free
        # cumulant equals 1
        for w in one.complete_words(5, 1):
            assert c.cumulant(w) == 1
        # and the independent classical implementation agrees
        flat = {tuple(w.letters): m.moment(w) for w in one.complete_words(5)}
        ref = sf.cumulants_from_moments(flat, "free", ("a",), 5)
        for w in one.complete_words(5, 1):
            assert c.cumulant(w) == ref[tuple(w.letters)]


class TestSingleFacedReduction:
    def test_all_three_families(self):
        left_only = Alphabet.make(left={"x", "y"}, right=set())
        m = random_moments(left_only, 4, seed=6)
        flat = {tuple(w.letters): m.moment(w)
                for w in left_only.complete_words(4)}
        for two_faced, classical in [
            ("bifree", "free"), ("biboolean", "boolean"),
            ("bimonotone", "monotone"),
        ]:
            ours = cm.moments_to_cumulants(m, two_faced, 4)
            ref = sf.cumulants_from_moments(flat, classical, ("x", "y"), 4)
            for w in left_only.complete_words(4, 1):
                assert ours.cumulant(w) == ref[tuple(w.letters)]

    def test_classical_roundtrip(self):
        rng = random.Random(7)
        letters = ("x",)
        moments = {(): Q(1)}
        from itertools import product as iproduct
        for n in range(1, 6):
            for word in iproduct(letters, repeat=n):
                moments[word] = Q(rng.randint(-5, 5), rng.randint(1, 5))
        for family in sf.SINGLE_FAMILIES:
            cums = sf.cumulants_from_moments(moments, family, letters, 5)
            back = sf.moments_from_cumulants(cums, family, letters, 5)
            assert all(back[w] == moments[w] for w in moments)

    def test_monotone_label_count_examples(self):
        assert sf.monotone_label_count(((1, 3), (2,))) == 1
        assert sf.monotone_label_count(((1, 2), (3,))) == 2
        assert sf.monotone_label_count(((1, 3), (2, 4))) == 0
        assert sf.monotone_label_count(((1, 2, 3),)) == 1


class TestIndependenceDiagnostic:
    def test_bifree_product_moments_pass(self):
        # two commuting groups with product moments are bifree: mixed
        # cumulants vanish
        two = Alphabet.make(left={"x", "y"}, right=set())
        rng = random.Random(8)
        singles = {"x": {}, "y": {}}
        for name in singles:
            for n in range(1, 5):
                singles[name][n] = Q(rng.randint(-3, 3), rng.randint(1, 3))
        # moments factorize across the two letters only if each word is a
        # power of one letter times a power of the other in free position;
        # use genuinely free product moments instead: build from cumulants
        cums = {}
        for w in two.complete_words(4, 1):
            names = set(w.letters)
            cums[w] = Q(rng.randint(-3, 3), rng.randint(1, 3)) if len(names) == 1 else Q(0)
        m = cm.cumulants_to_moments(cm.CumulantData("bifree", two, cums), 4)
        tags = {"x": 0, "y": 1}
        assert cm.independence_diagnostic(m, "bifree", tags, 4) is None

    def test_reports_maximal_mixed_word(self):
        two = Alphabet.make(left={"x", "y"}, right=set())
        rng = random.Random(9)
        m = cm.MomentData(two, {
            w: Q(rng.randint(1, 9), rng.randint(1, 9))
            for w in two.complete_words(3, 1)
        })
        witness = cm.independence_diagnostic(m, "bifree", {"x": 0, "y": 1}, 3)
        assert witness is not None and len(witness) == 3
        with pytest.raises(ValueError):
            cm.independence_diagnostic(m, "bimonotone", {"x": 0, "y": 1}, 3)
