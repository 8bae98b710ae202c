from itertools import product

import pytest

from bifc import translucent as tr
from bifc.biset import standard_order


def tw(alpha, mask):
    return tr.make(alpha, mask)


class TestBasics:
    def test_parse_and_encode(self):
        t = tr.TranslucentWord.parse("LLRR,1011")
        assert t == tw("LLRR", "1011")
        assert t.encode() == "LLRR,1011"

    @pytest.mark.parametrize("text", ["LLRR", "LLRR,101", "LLXR,1011", "LLRR,1012"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            tr.TranslucentWord.parse(text)

    def test_source_target(self):
        t = tw("LLRLRLRR", "01100101")
        assert tr.source(t) == "LLRLRLRR"
        assert tr.target(t) == "LLRR"
        assert tr.target(tw("LRL", "000")) == "LRL"
        assert tr.target(tw("LRL", "111")) == ""


class TestCompose:
    def test_golden_composition(self):
        s = tw("LLRR", "1011")
        t = tw("LLRLRLRR", "01100101")
        assert tr.compose(s, t) == tw("LLRLRLRR", "11101111")

    def test_identities(self):
        t = tw("LLRLRLRR", "01100101")
        assert tr.compose(tr.identity(tr.target(t)), t) == t
        assert tr.compose(t, tr.identity(t.alpha)) == t

    def test_noncomposable_raises(self):
        with pytest.raises(ValueError):
            tr.compose(tw("LL", "00"), tw("LR", "01"))

    def test_associativity_exhaustive(self):
        # all composable triples q o (r o s) with |s| <= 4
        for s in tr.all_words(4):
            for r_mask in product("01", repeat=len(tr.target(s))):
                r = tw(tr.target(s), "".join(r_mask))
                rs = tr.compose(r, s)
                for q_mask in product("01", repeat=len(tr.target(r))):
                    q = tw(tr.target(r), "".join(q_mask))
                    assert tr.compose(tr.compose(q, r), s) == tr.compose(q, rs)

    def test_iota_functoriality(self):
        # position maps compose contravariantly with word composition
        for t in tr.all_words(4):
            for r, s in tr.factorizations(t):
                assert tr.compose(r, s) == t
                composed = tuple(tr.iota(s)[k - 1] for k in tr.iota(r))
                assert composed == tr.iota(t)


class TestRestrictTranslucidate:
    def test_translucidate(self):
        assert tr.translucidate(tw("LRLL", "1111"), {2, 3}) == tw("LRLL", "1001")
        t = tw("LRLL", "0101")
        assert tr.translucidate(t, set()) == t

    def test_restrict(self):
        # positional transcription: subwords of both components
        t = tw("LLRLRLRR", "01100101")
        assert tr.restrict(t, {1, 4, 5, 7}) == tw("LLRR", "0000")
        assert tr.restrict(t, {1, 4, 5, 8}) == tw("LLRR", "0001")
        assert tr.restrict(t, {2, 3, 6, 8}) == tw("LRLR", "1111")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tr.restrict(tw("LL", "01"), {5})
        with pytest.raises(ValueError):
            tr.translucidate(tw("LL", "01"), {0})


class TestFactorizations:
    def test_counts(self):
        assert len(tr.factorizations(tw("L", "1"))) == 2
        assert len(tr.factorizations(tw("LL", "11"))) == 4
        assert len(tr.factorizations(tw("LRL", "000"))) == 1

    def test_all_recompose(self):
        for t in tr.all_words(5):
            pairs = tr.factorizations(t)
            assert len(pairs) == 2 ** len(tr.opaque_positions(t))
            assert len(set(pairs)) == len(pairs)
            for r, s in pairs:
                assert tr.compose(r, s) == t

    @pytest.mark.parametrize("keep_min", [None, True, False])
    def test_cut_set_order(self, keep_min):
        # binary counting over the opaque positions, the naturally last one
        # the lowest bit, after setting the lessdot-first one aside
        for t in tr.all_words(6):
            opaque = [p for p, b in enumerate(t.mask, start=1) if b == "1"]
            if keep_min is not None and not opaque:
                with pytest.raises(ValueError):
                    tr.cut_sets(t, keep_min)
                continue
            head = []
            if keep_min is not None:
                first = next(p for p in standard_order(t.alpha).perm if p in opaque)
                opaque.remove(first)
                head = [first] if keep_min else []
            base = [p for p, b in enumerate(t.mask, start=1) if b == "0"] + head
            m = len(opaque)
            expected = [
                tuple(sorted(base + [p for j, p in enumerate(opaque) if k >> (m - 1 - j) & 1]))
                for k in range(2 ** m)]
            assert list(tr.cut_sets(t, keep_min)) == expected, (t, keep_min)


class TestSplit:
    def test_golden_splits(self):
        t = tw("LRLL", "0101")
        minus, plus = tr.split(t, 1)
        assert minus == tr.EMPTY
        assert (plus.alpha, plus.mask) == ("RLL", "101")
        minus, plus = tr.split(t, 3)
        assert minus.alpha == "L" and plus.alpha == "RL"

    def test_split_at_natural_min_of_all_left(self):
        t = tw("LLLL", "0110")
        minus, plus = tr.split(t, 1)
        assert minus == tr.EMPTY and plus == tw("LLL", "110")

    def test_split_requires_translucent(self):
        with pytest.raises(ValueError):
            tr.split(tw("LL", "10"), 1)

    def test_split_sizes(self):
        for t in tr.all_words(5):
            for i in tr.translucent_positions(t):
                minus, plus = tr.split(t, i)
                assert len(minus.alpha) + len(plus.alpha) == len(t.alpha) - 1


class TestFacts:
    def test_fields_and_splits_match_reference(self):
        # every field of the record against a computation from scratch
        for t in tr.all_words(6):
            facts = tr._facts(t)
            so = standard_order(t.alpha)
            translucent = [p for p, b in enumerate(t.mask, start=1) if b == "0"]
            opaque = [p for p, b in enumerate(t.mask, start=1) if b == "1"]
            assert facts.t == t
            assert facts.translucent == tuple(translucent) == tr.translucent_positions(t)
            assert facts.opaque == tuple(opaque) == tr.opaque_positions(t)
            assert facts.target == "".join(t.alpha[p - 1] for p in translucent) == tr.target(t)
            assert facts.first == (min(opaque, key=so.rank) if opaque else None), t
            runs, current = [], []
            for p in so.perm:
                if p in opaque:
                    current.append(p)
                elif current:
                    runs.append(tuple(sorted(current)))
                    current = []
            if current:
                runs.append(tuple(sorted(current)))
            assert facts.intervals == tuple(runs) == tr.opaque_intervals(t), t
            for i in translucent:
                before, after = so.before(i), so.after(i)
                assert facts.split(i) == (before, after, tr._restrict_sorted(t, before),
                                          tr._restrict_sorted(t, after)), (t, i)
                assert tr._split_at(t, i) is facts.split(i)
            assert tr._facts(t) is facts

    def test_run_plan_is_plan_filtered_on_one_run(self):
        # the very entries of plan(keep_min) whose dropped opaque positions,
        # the opaque ones of the translucidation, form one standard-order run
        for t in tr.all_words(6):
            facts = tr._facts(t)
            for keep_min in (None, True, False):
                if keep_min is not None and "1" not in t.mask:
                    with pytest.raises(ValueError):
                        facts.run_plan(keep_min)
                    continue
                expected = tuple(
                    entry for entry, kept in zip(facts.plan(keep_min), tr.cut_sets(t, keep_min))
                    if len(tr.opaque_intervals(tr.translucidate(t, kept))) == 1)
                runs = facts.run_plan(keep_min)
                assert runs == expected, (t, keep_min)
                assert all(a is b for a, b in zip(runs, expected)), (t, keep_min)
                assert facts.run_plan(keep_min) is runs


class TestOpaqueIntervals:
    def test_golden(self):
        assert tr.opaque_intervals(tw("LRLLLR", "011101")) == ((3, 4), (2, 6))

    def test_extremes(self):
        assert tr.opaque_intervals(tw("LRL", "111")) == ((1, 3, 2),) or \
            tr.opaque_intervals(tw("LRL", "111")) == ((1, 2, 3),)
        assert tr.opaque_intervals(tw("LRL", "000")) == ()

    def test_fully_opaque_single_interval(self):
        for n in range(1, 6):
            for alpha in map("".join, product("LR", repeat=n)):
                comps = tr.opaque_intervals(tr.fully_opaque(alpha))
                assert len(comps) == 1 and set(comps[0]) == set(range(1, n + 1))

    def test_components_partition_and_are_runs(self):
        for t in tr.all_words(5):
            comps = tr.opaque_intervals(t)
            flat = [p for comp in comps for p in comp]
            assert sorted(flat) == list(tr.opaque_positions(t))
            so = standard_order(t.alpha)
            for comp in comps:
                assert so.is_interval(comp)


class TestExchange:
    def test_two_fully_translucent_factors(self):
        t = tw("LLL", "101")
        t_minus, t_plus = tr.split(t, 2)
        s_minus = tr.identity(t_minus.alpha) if t_minus.alpha else tr.EMPTY
        s_plus = tr.identity(t_plus.alpha)
        r, s = tr.exchange(s_minus, s_plus, t, 2)
        assert s == tr.identity("LLL")
        assert r == t
        assert tr.compose(r, s) == t

    def test_invalid_right_factor(self):
        t = tw("LLL", "001")
        bad = tw("L", "1")  # opaque where the split is translucent
        for _ in range(2):  # exceptions are not cached
            with pytest.raises(ValueError):
                tr.exchange(bad, tw("L", "0"), t, 2)

    def test_cache_matches_uncached(self):
        for t in tr.all_words(5):
            for i in tr.translucent_positions(t):
                t_minus, t_plus = tr.split(t, i)
                for _, s_minus in tr.factorizations(t_minus):
                    for _, s_plus in tr.factorizations(t_plus):
                        args = (s_minus, s_plus, t, i)
                        assert tr.exchange(*args) == tr.exchange.__wrapped__(*args)

    def test_recomposition_exhaustive(self):
        for t in tr.all_words(5):
            for i in tr.translucent_positions(t):
                t_minus, t_plus = tr.split(t, i)
                for _, s_minus in tr.factorizations(t_minus):
                    for _, s_plus in tr.factorizations(t_plus):
                        r, s = tr.exchange(s_minus, s_plus, t, i)
                        assert tr.compose(r, s) == t
                        assert tr.split(s, i) == (s_minus, s_plus)
