"""Acceptance suite: every criterion at its stated scale and budget.

Each test prints one pass line (visible with ``pytest -s`` or in the
captured output); a failed assertion marks the criterion failed.  Budgets
are wall-clock caps asserted after the work completes.
"""

import json
import time
from fractions import Fraction as Q

from bifc import bipartition as bp
from bifc import cli
from bifc import functional as fn
from bifc import translucent as tr
from bifc import verify as vf
from bifc import words as wd

AB = wd.Alphabet.make(left={"aL"}, right={"aR"})


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"criterion {number:2d} PASS  {label}  [{elapsed:.2f}s / {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# -- criterion 1: golden worked examples ------------------------------------

def test_criterion_01_golden_examples():
    t0 = time.time()
    # translucent composition
    assert tr.compose(tr.make("LLRR", "1011"), tr.make("LLRLRLRR", "01100101")) \
        == tr.make("LLRLRLRR", "11101111")

    # word composition
    W = wd.Alphabet.make(left={"xL", "aL", "bL"}, right={"xR", "yR", "aR", "bR"})
    assert wd.compose_words(
        W.word("xL L xR yR"), W.word("L aL aR L R bL R bL")
    ) == W.word("xL aL aR L xR bL yR bL")

    # eight-term decomposition coproduct
    B = wd.Alphabet.make(left={"a1"}, right={"a2", "a3"})
    got = {(l.text, r.text) for l, r in wd.coproduct(B.word("a1 L R a2 a3"))}
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

    # three plus three half-coproduct terms
    C = wd.Alphabet.make(left={"aL", "bL"}, right={"aR", "bR"})
    w = C.word("aL L bL bR")
    assert {(l.text, r.text) for l, r in wd.coproduct_left(w)} == {
        ("aL L", "L L bL bR"), ("aL L bL", "L L L bR"), ("aL L bR", "L L bL R")}
    assert {(l.text, r.text) for l, r in wd.coproduct_right(w)} == {
        ("L bL bR", "aL L L R"), ("L bL", "aL L L bR"), ("L bR", "aL L bL R")}

    # horizontal product
    assert wd.horizontal_product(
        C.word("L R aL aR"), C.word("bR R R"),
        tr.make("RLRRRRLR", "10000011"), 5,
    ) == C.word("bR L R R R R aL aR")

    # left half-dendriform exponential on two and four letters
    import random
    rng = random.Random(2024)
    table = {v: Q(rng.randint(-7, 7), rng.randint(1, 7))
             for v in AB.complete_words(4, 1)}
    k = fn.Functional(fn.LIE_INTERVAL, AB, table)
    M = fn.exp_prec(k, 4)

    def kv(text):
        return k.eval(AB.word(text))

    assert M.eval(AB.word("aR aL")) == kv("aL") * kv("aR") + kv("aR aL")

    w4 = AB.word("aR aL aR aL")
    # the recursion produces one term per kept set containing the
    # standard-order first opaque letter: eight of them
    kept_sets = list(tr.cut_sets(wd.type_of(w4), True))
    assert len(kept_sets) == 8
    restrictions = sorted(wd.restrict_word(w4, s).text for s in kept_sets)
    assert restrictions == sorted([
        "aL", "aR aL", "aL aR", "aL aL",
        "aR aL aR", "aR aL aL", "aL aR aL", "aR aL aR aL"])
    eight_terms = sum(
        (k.eval(wd.restrict_word(w4, s)) * M.eval(wd.translucidate_word(w4, s))
         for s in kept_sets), Q(0))
    # and the value expands into the full sum over the fourteen noncrossing
    # bipartitions of the standard order 2 <. 4 <. 3 <. 1
    fourteen = (
        kv("aR aL aR aL")
        + kv("aL aR aL") * kv("aR") + kv("aR aL aL") * kv("aR")
        + kv("aR aL aR") * kv("aL") + kv("aR aR aL") * kv("aL")
        + kv("aL aL") * kv("aR aR") + kv("aR aL") ** 2
        + kv("aL aL") * kv("aR") ** 2 + kv("aL aR") * kv("aL") * kv("aR")
        + 3 * kv("aR aL") * kv("aL") * kv("aR")
        + kv("aR aR") * kv("aL") ** 2 + kv("aL") ** 2 * kv("aR") ** 2
    )
    assert M.eval(w4) == eight_terms == fourteen
    report(1, "golden worked examples", time.time() - t0, 1.0)


# -- criterion 2: counting against a brute-force oracle ---------------------

def _rgs_partitions(n):
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def rec(k, mx):
        if k == n:
            blocks = [[] for _ in range(mx + 1)]
            for idx, b in enumerate(rgs):
                blocks[b].append(idx + 1)
            yield blocks
            return
        for b in range(mx + 2):
            rgs[k] = b
            yield from rec(k + 1, max(mx, b))

    yield from rec(1, 0)


def _nc_on_a_line(blocks):
    opener = {}
    for bi, block in enumerate(blocks):
        for p in block:
            opener[p] = bi
    stack = []
    seen = set()
    last = {bi: max(block) for bi, block in enumerate(blocks)}
    for p in sorted(opener):
        bi = opener[p]
        if stack and stack[-1] == bi:
            pass
        elif bi in seen:
            return False
        else:
            stack.append(bi)
            seen.add(bi)
        if p == last[bi]:
            if stack[-1] != bi:
                return False
            stack.pop()
    return True


def _interval_on_a_line(blocks):
    return all(max(b) - min(b) + 1 == len(b) for b in blocks)


def test_criterion_02_counting_vs_brute_force():
    t0 = time.time()
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for n in range(1, 11):
        t = tr.fully_opaque("L" * n)
        got_nc = len(bp.enumerate_bipartitions(t, "nc"))
        got_iv = len(bp.enumerate_bipartitions(t, "interval"))
        oracle_nc = sum(1 for blocks in _rgs_partitions(n) if _nc_on_a_line(blocks))
        oracle_iv = sum(
            1 for blocks in _rgs_partitions(n) if _interval_on_a_line(blocks))
        assert got_nc == oracle_nc == catalan[n]
        assert got_iv == oracle_iv == 2 ** (n - 1)
    report(2, "Catalan and interval counting, n <= 10", time.time() - t0, 60.0)


# -- criteria 3..9: exhaustive identity suites -------------------------------

def _suite_criterion(number, name, max_len, budget, label, seed=None):
    t0 = time.time()
    result = vf.run_suite(name, max_len=max_len, seed=seed)
    assert result.ok, str(result)
    report(number, label, time.time() - t0, budget)


def test_criterion_03_exponentials_vs_bipartition_sums():
    _suite_criterion(3, "exponentials", 6, 120.0,
                     "exponentials equal bipartition sums, words <= 6", seed=42)


def test_criterion_04_codendriform_axioms():
    _suite_criterion(4, "codendriform", 5, 60.0,
                     "coDendriform axioms, words <= 5")


def test_criterion_05_dendriform_relations():
    _suite_criterion(5, "dendriform", 5, 60.0,
                     "dendriform relations, words <= 5", seed=42)


def test_criterion_06_exchange_compatibility():
    _suite_criterion(6, "exchange", 6, 60.0,
                     "exchange associativity and coproduct compatibility, |t| <= 6")


def test_criterion_07_moment_cumulant_roundtrip():
    _suite_criterion(7, "roundtrip", 6, 30.0,
                     "moment/cumulant roundtrips, words <= 6", seed=42)


def test_criterion_08_single_faced_reduction():
    _suite_criterion(8, "single_faced", 7, 30.0,
                     "single-faced reductions, words <= 7", seed=42)


def test_criterion_09_prelie():
    _suite_criterion(9, "prelie", 5, 30.0,
                     "preLie triviality and closed form, words <= 5", seed=42)


# -- criterion 10: CLI determinism -------------------------------------------

def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    jobs = [
        ["enumerate", "--type", "LRLL,0111", "--class", "monotone",
         "--format", "json"],
        ["enumerate", "--type", "LRLL,0111", "--class", "shaded_nc",
         "--format", "svg"],
        ["enumerate", "--word", "a1L L R a2R a3R", "--class", "nc",
         "--format", "count"],
        ["verify", "--suite", "prelie", "--max-len", "3"],
    ]
    moments = tmp_path / "m.json"
    moments.write_text(json.dumps({
        "variables": {"a": "L", "b": "R"},
        "moments": {
            "": "1", "a": "1/2", "b": "-2", "a a": "3", "a b": "1/3",
            "b a": "0", "b b": "7/2",
        },
    }))
    jobs.append(["convert", "--input", str(moments), "--from", "moments",
                 "--to", "bimonotone", "--max-len", "2"])
    for argv in jobs:
        outputs = []
        for _ in range(2):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outputs.append(captured.out.encode())
        assert outputs[0] == outputs[1], f"nondeterministic output for {argv}"
    report(10, "CLI byte determinism incl. SVG", time.time() - t0, 30.0)
