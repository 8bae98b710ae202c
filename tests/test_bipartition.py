import json
import math
from itertools import product

import pytest

from bifc import bipartition as bp
from bifc import translucent as tr
from bifc.biset import standard_order

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def tw(alpha, mask):
    return tr.make(alpha, mask)


def mk(alpha, mask, blocks):
    return bp.make_bipartition(tw(alpha, mask), blocks)


# independent reference: restricted-growth set partitions plus a quartet scan
def rgs_partitions(elems):
    elems = list(elems)
    n = len(elems)
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def rec(k, mx):
        if k == n:
            blocks = [[] for _ in range(mx + 1)]
            for idx, b in enumerate(rgs):
                blocks[b].append(elems[idx])
            yield blocks
            return
        for b in range(mx + 2):
            rgs[k] = b
            yield from rec(k + 1, max(mx, b))

    yield from rec(1, 0)


def crossing_quartet_exists(blocks, rank):
    block_of = {}
    for bi, block in enumerate(blocks):
        for p in block:
            block_of[rank(p)] = bi
    ranks = sorted(block_of)
    for ia, a in enumerate(ranks):
        for ib in range(ia + 1, len(ranks)):
            for ic in range(ib + 1, len(ranks)):
                for idx in range(ic + 1, len(ranks)):
                    b, c, d = ranks[ib], ranks[ic], ranks[idx]
                    if (block_of[a] == block_of[c] and block_of[b] == block_of[d]
                            and block_of[a] != block_of[b]):
                        return True
    return False


# independent references for interval and shaded, from their definitions
def interval_reference(t, blocks):
    # every block contiguous among the opaque positions in standard order
    slot = {p: k for k, p in enumerate(
        standard_order(t.alpha).sort_positions(tr.opaque_positions(t)))}
    return all(max(slot[p] for p in b) - min(slot[p] for p in b) + 1 == len(b)
               for b in blocks)


def shaded_reference(t, blocks):
    # natural order: with m the first translucent position, a block meeting
    # the positions k < m on m's string lies inside them
    transl = tr.translucent_positions(t)
    if not transl:
        return True
    m = transl[0]
    guarded = {k for k in range(1, m) if t.alpha[k - 1] == t.alpha[m - 1]}
    return all(set(b) <= guarded or not set(b) & guarded for b in blocks)


def rgs_bipartitions(t):
    # every bipartition of t, in restricted-growth order over the standard order
    opaque_sorted = standard_order(t.alpha).sort_positions(tr.opaque_positions(t))
    return [bp.make_bipartition(t, raw) for raw in rgs_partitions(opaque_sorted)]


class TestConstruction:
    def test_blocks_canonical_order(self):
        pi = mk("RL", "11", [[1], [2]])
        # standard order 2 <. 1, so the block {2} comes first
        assert pi.blocks == ((2,), (1,))

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            mk("LL", "11", [[1]])
        with pytest.raises(ValueError):
            mk("LL", "11", [[1, 2], [2]])
        with pytest.raises(ValueError):
            mk("LL", "01", [[1, 2]])

    def test_json_roundtrip(self):
        pi = mk("LRLL", "0111", [[2, 4], [3]])
        data = json.loads(json.dumps(pi.to_json()))
        assert bp.from_json(data) == pi
        lp = bp.make_labeled(tw("LLL", "111"), [[1, 3], [2]], [[1, 3], [2]])
        data = json.loads(json.dumps(lp.to_json()))
        assert bp.from_json(data) == lp


class TestNoncrossing:
    def test_goldens(self):
        assert bp.is_noncrossing(mk("LL", "11", [[1, 2]]))
        assert not bp.is_noncrossing(mk("LLLL", "1111", [[1, 3], [2, 4]]))
        assert bp.is_noncrossing(mk("LR", "11", [[1], [2]]))

    def test_translucent_block_participates(self):
        # blocks {1,3} with translucent {2,4}: nested in standard order of LLRR
        assert bp.is_noncrossing(mk("LLRR", "1010", [[1, 3]]))
        # but on LLLL the translucent block {2,4} crosses {1,3}
        assert not bp.is_noncrossing(mk("LLLL", "1010", [[1, 3]]))

    def test_against_quartet_scan(self):
        for t in tr.all_words(6, min_len=1):
            so = standard_order(t.alpha)
            transl = tr.translucent_positions(t)
            for raw in rgs_partitions(tr.opaque_positions(t)):
                pi = bp.make_bipartition(t, raw)
                extended = list(pi.blocks) + ([list(transl)] if transl else [])
                assert bp.is_noncrossing(pi) == (
                    not crossing_quartet_exists(extended, so.rank)
                )


class TestInterval:
    def test_goldens(self):
        assert bp.is_interval(mk("LLL", "111", [[1, 2, 3]]))
        assert bp.is_interval(mk("LRL", "101", [[1, 3]]))
        assert not bp.is_interval(mk("LLLL", "1111", [[1, 3], [2], [4]]))

    def test_contiguity_is_within_the_opaque_positions(self):
        # {1,3} skips an opaque 2: not contiguous; skipping translucent 2 is fine
        assert not bp.is_interval(mk("LLL", "111", [[1, 3], [2]]))
        assert bp.is_interval(mk("LLL", "101", [[1, 3]]))


    def test_against_definition(self):
        for t in tr.all_words(6):
            every = rgs_bipartitions(t)
            expected = [pi for pi in every if interval_reference(t, pi.blocks)]
            for pi in every:
                assert bp.is_interval(pi) == interval_reference(t, pi.blocks)
            assert bp.enumerate_bipartitions(t, "interval") == expected


class TestMonotone:
    def test_single_block(self):
        lp = bp.make_labeled(tw("LL", "11"), [[1, 2]], [[1, 2]])
        assert bp.is_monotone(lp)

    def test_nesting_forces_inner_higher(self):
        inner_high = bp.make_labeled(tw("LLL", "111"), [[1, 3], [2]], [[1, 3], [2]])
        inner_low = bp.make_labeled(tw("LLL", "111"), [[1, 3], [2]], [[2], [1, 3]])
        assert bp.is_monotone(inner_high)
        assert not bp.is_monotone(inner_low)

    def test_translucent_block_is_minimal(self):
        lp = bp.make_labeled(tw("LL", "01"), [[2]], [[2]])
        assert bp.is_monotone(lp)
        # a block spanning a translucent point can never be labelled
        spanning = bp.make_labeled(tw("LLL", "101"), [[1, 3]], [[1, 3]])
        assert not bp.is_monotone(spanning)

    def test_crossing_never_monotone(self):
        lp = bp.make_labeled(tw("LLLL", "1111"), [[1, 3], [2, 4]], [[1, 3], [2, 4]])
        assert not bp.is_monotone(lp)


class TestShaded:
    def test_no_translucent_reduces_to_noncrossing(self):
        for raw in rgs_partitions(range(1, 5)):
            pi = bp.make_bipartition(tr.fully_opaque("LRLR"), raw)
            if bp.is_noncrossing(pi):
                assert bp.is_shaded(pi)

    def test_goldens(self):
        assert bp.is_shaded(mk("LL", "01", [[2]]))
        # same-side positions above the first translucent one must stay together
        assert bp.is_shaded(mk("LLL", "101", [[1], [3]]))
        assert not bp.is_shaded(mk("LLL", "101", [[1, 3]]))
        # right-side letters above a left translucent point are unconstrained
        assert bp.is_shaded(mk("RL", "10", [[1]]))
        assert bp.is_shaded(mk("RLR", "101", [[1, 3]]))

    def test_hand_built_diagrams(self):
        # two shaded, one not: the unshaded one ties a guarded left point to
        # a block reaching past the first translucent position
        shaded_one = mk("LLRR", "1011", [[1], [3, 4]])
        shaded_two = mk("LLLR", "1101", [[1, 2], [4]])
        unshaded = mk("LLLR", "1011", [[1, 3], [4]])
        assert bp.is_shaded(shaded_one)
        assert bp.is_shaded(shaded_two)
        assert not bp.is_shaded(unshaded)

    def test_precondition(self):
        crossing = mk("LLLL", "1111", [[1, 3], [2, 4]])
        with pytest.raises(ValueError):
            bp.is_shaded(crossing)

    def test_against_definition(self):
        for t in tr.all_words(6):
            rank = standard_order(t.alpha).rank
            transl = tr.translucent_positions(t)
            expected = []
            for pi in rgs_bipartitions(t):
                extended = list(pi.blocks) + ([list(transl)] if transl else [])
                if crossing_quartet_exists(extended, rank):
                    with pytest.raises(ValueError):
                        bp.is_shaded(pi)
                    continue
                assert bp.is_shaded(pi) == shaded_reference(t, pi.blocks)
                if shaded_reference(t, pi.blocks):
                    expected.append(pi)
            assert bp.enumerate_bipartitions(t, "shaded_nc") == expected

    def test_blocks_stay_in_components_and_counting_bijection(self):
        for t in tr.all_words(6, min_len=1):
            comps = tr.opaque_intervals(t)
            shaded = bp.enumerate_bipartitions(t, "shaded_nc")
            for pi in shaded:
                for block in pi.blocks:
                    assert any(set(block) <= set(c) for c in comps)
            restricted_tuples = {
                tuple(bp.restrict_bipartition(pi, comp) for comp in comps)
                for pi in shaded
            }
            expected = math.prod(
                len(bp.enumerate_bipartitions(tr.restrict(t, comp), "shaded_nc"))
                for comp in comps
            )
            assert len(shaded) == len(restricted_tuples) == expected


class TestEnumerate:
    @pytest.mark.parametrize(
        "cls,count",
        [("nc", 5), ("interval", 4), ("monotone", 12), ("all", 5), ("shaded_nc", 5)],
    )
    def test_lll_counts(self, cls, count):
        assert len(bp.enumerate_bipartitions(tw("LLL", "111"), cls)) == count

    def test_llll_nc_catalan(self):
        assert len(bp.enumerate_bipartitions(tw("LLLL", "1111"), "nc")) == 14

    def test_fully_translucent_single_empty(self):
        for cls in bp.CLASSES:
            out = bp.enumerate_bipartitions(tw("LRL", "000"), cls)
            assert len(out) == 1
            base = out[0].base if cls == "monotone" else out[0]
            assert base.blocks == ()

    def test_counts_match_rgs_filter(self):
        for t in tr.all_words(5, min_len=1):
            so = standard_order(t.alpha)
            transl = tr.translucent_positions(t)
            raw_parts = [
                bp.make_bipartition(t, raw)
                for raw in rgs_partitions(tr.opaque_positions(t))
            ]
            nc_ref = [
                pi for pi in raw_parts
                if not crossing_quartet_exists(
                    list(pi.blocks) + ([list(transl)] if transl else []), so.rank)
            ]
            assert sorted(bp.enumerate_bipartitions(t, "all")) == sorted(raw_parts)
            assert sorted(bp.enumerate_bipartitions(t, "nc")) == sorted(nc_ref)

    def test_monotone_labelings_against_filter(self):
        from itertools import permutations

        for t in tr.all_words(5, min_len=1):
            expected = []
            for pi in bp.enumerate_bipartitions(t, "nc"):
                for perm in permutations(pi.blocks):
                    lp = bp.LabeledBipartition(pi, perm)
                    if bp.is_monotone(lp):
                        expected.append(lp)
            got = bp.enumerate_bipartitions(t, "monotone")
            assert sorted(got) == sorted(expected)

    def test_monotone_block_weights_collapse(self):
        for t in tr.all_words(5):
            labelled = bp.enumerate_bipartitions(t, "monotone")
            counts = {}
            for blocks, weight in bp.class_terms(t, "monotone"):
                counts[blocks] = weight * math.factorial(len(blocks))
            by_base = {}
            for lp in labelled:
                by_base[lp.base.blocks] = by_base.get(lp.base.blocks, 0) + 1
            assert counts == by_base

    def test_monotone_count_and_terms_list_nothing(self, monkeypatch):
        # the monotone count and terms are read off the growth walk alone
        for fn in vars(bp).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

        def listing(*_args):
            raise AssertionError("listed the bipartitions")

        monkeypatch.setattr(bp, "_enumerate_cached", listing)
        t = tw("LRRLLRL", "1101111")
        assert bp.count_bipartitions(t, "monotone") == sum(
            weight * math.factorial(len(blocks))
            for blocks, weight in bp.class_terms(t, "monotone"))

    def test_all_count_is_bell_number(self):
        # the growth walk stays the reference for the closed form
        for t in tr.all_words(8):
            walked = 0

            def leaf(_blocks, count):
                nonlocal walked
                walked += count

            bp._walk(t, "all", leaf)
            assert bp.count_bipartitions(t, "all") == walked, t

    @pytest.mark.parametrize("cls", bp.CLASSES)
    def test_count_matches_enumeration(self, cls):
        for t in tr.all_words(5):
            assert bp.count_bipartitions(t, cls) == len(
                bp.enumerate_bipartitions(t, cls))

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            bp.enumerate_bipartitions(tw("L", "1"), "nope")

    def test_guardrail(self, monkeypatch):
        monkeypatch.setenv(bp.MAX_ENUM_ENV, "3")
        with pytest.raises(bp.EnumerationLimitError):
            bp.enumerate_bipartitions(tr.fully_opaque("LLLL"), "all")
        monkeypatch.delenv(bp.MAX_ENUM_ENV)
        assert bp._enum_cap() == bp.DEFAULT_MAX_OPAQUE
        monkeypatch.setenv(bp.MAX_ENUM_ENV, "99")
        assert bp._enum_cap() == bp.HARD_MAX_OPAQUE

    def test_guardrail_after_cached_call(self, monkeypatch):
        # a cached result must not skip the cap read on a later call
        from bifc.functional import class_terms

        t = tr.fully_opaque("LRL")
        for cls in bp.CLASSES:
            bp.count_bipartitions(t, cls)
            list(class_terms(t, cls))
        monkeypatch.setenv(bp.MAX_ENUM_ENV, "2")
        for cls in bp.CLASSES:
            with pytest.raises(bp.EnumerationLimitError):
                bp.enumerate_bipartitions(t, cls)
            with pytest.raises(bp.EnumerationLimitError):
                bp.count_bipartitions(t, cls)
            with pytest.raises(bp.EnumerationLimitError):
                list(class_terms(t, cls))


class TestCompose:
    def test_unit_laws(self):
        pi = mk("LRLL", "0111", [[2, 4], [3]])
        unit_inner = bp.make_bipartition(tr.identity("L"), [])
        assert bp.compose_bipartitions(unit_inner, pi) == pi
        unit_outer = bp.make_bipartition(tr.identity("LRLL"), [])
        lifted = bp.compose_bipartitions(pi, unit_outer)
        assert lifted == pi

    def test_substitution(self):
        sigma = mk("LLLL", "0101", [[2], [4]])
        rho = mk("LL", "11", [[1, 2]])
        out = bp.compose_bipartitions(rho, sigma)
        assert out.type == tw("LLLL", "1111")
        assert set(out.blocks) == {(2,), (4,), (1, 3)}

    def test_noncrossing_closed_under_composition(self):
        for sigma_t in tr.all_words(4, min_len=1):
            target = tr.target(sigma_t)
            for sigma in bp.enumerate_bipartitions(sigma_t, "nc"):
                for rho_mask in product("01", repeat=len(target)):
                    rho_t = tw(target, "".join(rho_mask))
                    for rho in bp.enumerate_bipartitions(rho_t, "nc"):
                        out = bp.compose_bipartitions(rho, sigma)
                        assert bp.is_noncrossing(out)

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            bp.compose_bipartitions(mk("LL", "11", [[1, 2]]), mk("LR", "01", [[2]]))


class TestRestrictTranslucidate:
    def test_restrict_to_opaque_gives_complete(self):
        pi = mk("LRLL", "0111", [[2, 4], [3]])
        out = bp.restrict_bipartition(pi, [2, 3, 4])
        assert out.type == tw("RLL", "111")
        assert set(out.blocks) == {(1, 3), (2,)}

    def test_translucidate_blocks(self):
        pi = mk("LRLL", "0111", [[2, 4], [3]])
        assert bp.translucidate_blocks(pi, pi.blocks) == pi
        empty = bp.translucidate_blocks(pi, [])
        assert empty.type == tw("LRLL", "0000") and empty.blocks == ()
        kept = bp.translucidate_blocks(pi, [(3,)])
        assert kept.type == tw("LRLL", "0010") and kept.blocks == ((3,),)

    def test_translucidate_unknown_block(self):
        pi = mk("LL", "11", [[1, 2]])
        with pytest.raises(ValueError):
            bp.translucidate_blocks(pi, [(1,)])
