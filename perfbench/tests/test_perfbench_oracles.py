"""Tests of the benchmark's own oracles and input generator.

Run from the repository root with ``python -m pytest perfbench/tests``.
They check the closed forms against brute force at small sizes, the
standard-order ranks on hand examples, and that a seed fixes the inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _types(n_max: int, seed: int = 0, per_size: int = 6):
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for _ in range(per_size):
            yield workloads.random_type(rng, n, rng.randint(0, n))


# ---------------------------------------------------------------------------
# standard order

@pytest.mark.parametrize("sides, ranks", [
    ("LLL", [1, 2, 3]),
    ("RRR", [3, 2, 1]),
    ("LRLR", [1, 4, 2, 3]),
    ("RRL", [3, 2, 1]),
    ("RLLRL", [5, 1, 2, 4, 3]),
])
def test_std_ranks_hand_examples(sides, ranks):
    assert oracles.std_ranks(sides)[1:] == ranks


# ---------------------------------------------------------------------------
# closed forms against brute force

@pytest.mark.parametrize("cls", oracles.CLASSES)
def test_fully_opaque_closed_forms(cls):
    rng = random.Random(cls)
    for n in range(0, 8):
        for _ in range(3):
            sides = "".join(rng.choice("LR") for _ in range(n))
            assert oracles.brute_count(cls, sides, "1" * n) == oracles.fully_opaque_count(cls, n)


def test_closed_form_sequences():
    assert [oracles.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [oracles.bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


@pytest.mark.parametrize("cls, count", [
    ("all", 5), ("interval", 4), ("monotone", 12), ("nc", 5), ("shaded_nc", 5)])
def test_three_left_positions(cls, count):
    assert oracles.expected_count(cls, "LLL", "111") == count
    assert oracles.brute_count(cls, "LLL", "111") == count


def test_translucent_closed_forms_match_brute_force():
    for sides, mask in _types(7):
        for cls in ("all", "interval"):
            assert oracles.expected_count(cls, sides, mask) == oracles.brute_count(cls, sides, mask)


def test_monotone_hook_lengths_match_labelling_enumeration():
    for sides, mask in _types(6, seed=1):
        ranks = oracles.std_ranks(sides)
        opaque = sorted(ranks[p] for p in range(1, len(mask) + 1) if mask[p - 1] == "1")
        transl = sorted(ranks[p] for p in range(1, len(mask) + 1) if mask[p - 1] == "0")
        pos_of = {ranks[p]: p for p in range(1, len(mask) + 1)}
        for blocks in oracles.set_partitions(opaque):
            if not oracles.noncrossing(blocks + ([transl] if transl else [])):
                continue
            natural = [[pos_of[r] for r in b] for b in blocks]
            admissible = sum(
                oracles.in_class("monotone", sides, mask, natural, list(order))
                for order in itertools.permutations(range(len(blocks))))
            assert admissible == oracles.monotone_labellings(blocks, transl)


def test_crossing_and_nesting_by_hand():
    assert not oracles.noncrossing([[1, 3], [2, 4]])
    assert oracles.noncrossing([[1, 4], [2, 3]])
    assert oracles.noncrossing([[1, 2], [3, 4]])
    # LLLL with blocks {1,4}, {2,3}: the inner block must carry the higher label
    assert oracles.in_class("monotone", "LLLL", "1111", [[1, 4], [2, 3]], [0, 1])
    assert not oracles.in_class("monotone", "LLLL", "1111", [[1, 4], [2, 3]], [1, 0])
    # a translucent position inside an opaque block's span rules out monotone
    assert not oracles.in_class("monotone", "LLL", "101", [[1, 3]], [0])
    assert oracles.in_class("nc", "LLL", "101", [[1, 3]])


def test_pair_moments_match_pair_partition_counts():
    for k in range(0, 5):
        n = 2 * k
        pairings = [b for b in oracles.set_partitions(list(range(1, n + 1)))
                    if all(len(x) == 2 for x in b)]
        nc = [b for b in pairings if oracles.noncrossing(b)]
        interval = [b for b in pairings if all(x[1] == x[0] + 1 for x in b)]
        monotone = sum(Fraction(oracles.monotone_labellings(b, []), math.factorial(k))
                       for b in nc)
        assert oracles.pair_moment("bifree", n) == len(nc)
        assert oracles.pair_moment("biboolean", n) == len(interval)
        assert oracles.pair_moment("bimonotone", n) == monotone
        assert oracles.pair_moment("bifree", n + 1) == 0


# ---------------------------------------------------------------------------
# verify check counts

def _brute_exchange_checks(max_len: int) -> int:
    total = 0
    for n in range(max_len + 1):
        for sides in itertools.product("LR", repeat=n):
            ranks = oracles.std_ranks("".join(sides))
            for mask in itertools.product("01", repeat=n):
                transl = sorted((p for p in range(1, n + 1) if mask[p - 1] == "0"),
                                key=lambda p: ranks[p])
                opaque = [p for p in range(1, n + 1) if mask[p - 1] == "1"]
                # first constraint: a right factor of each of the three segments
                for a, b in itertools.combinations(transl, 2):
                    segments = [[p for p in opaque if ranks[p] < ranks[a]],
                                [p for p in opaque if ranks[a] < ranks[p] < ranks[b]],
                                [p for p in opaque if ranks[p] > ranks[b]]]
                    total += math.prod(2 ** len(s) for s in segments)
                for i in transl:
                    before = [p for p in opaque if ranks[p] < ranks[i]]
                    after = [p for p in opaque if ranks[p] > ranks[i]]
                    # second constraint: right factors s of each split, then
                    # right factors r of what s turned translucent
                    total += math.prod(
                        sum(2 ** r * math.comb(len(seg), r) for r in range(len(seg) + 1))
                        for seg in (before, after))
                    # compatibility: full coproduct, plus both halves when the
                    # left factor holds a variable
                    total += 1 + 2 * bool(before)
    return total


def _words(pool, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(pool, repeat=n)


def test_exchange_check_count_matches_loop_brute_force():
    for max_len in range(0, 5):
        assert oracles.exchange_checks(max_len) == _brute_exchange_checks(max_len)
    assert oracles.suite_checks("exchange", 5) == 62008


@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_word_suite_check_counts(max_len):
    pool = ("aL", "aR", "L", "R")
    words = list(_words(pool, max_len))
    placeholder_only = [w for w in words if all(x in ("L", "R") for x in w)]
    complete = [w for w in _words(("aL", "bL", "aR", "bR"), max_len) if w]
    assert oracles.suite_checks("codendriform", max_len) == (
        len(words) + 5 * (len(words) - len(placeholder_only)))
    assert oracles.suite_checks("exponentials", max_len) == 5 * len(complete)
    assert oracles.suite_checks("dendriform", max_len) == 6 * len(words) + 1
    assert oracles.suite_checks("prelie", max_len) == (
        2 * len(words) + 2 * len(list(_words(pool, max_len - 1))))


# ---------------------------------------------------------------------------
# seeded inputs

def _snapshot(name: str, seed: int, work: Path):
    calls = workloads.build(name, seed, work)
    argv = [[a.replace(str(work), "WORK") for a in c.argv] for c in calls]
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return argv, files


@pytest.mark.parametrize("name", ["enumerate", "convert", "verify"])
def test_seed_fixes_the_inputs(name, tmp_path):
    first = _snapshot(name, 7, tmp_path / "a")
    assert first == _snapshot(name, 7, tmp_path / "b")
    assert first != _snapshot(name, 8, tmp_path / "c")


def test_convert_inputs_cover_every_word(tmp_path):
    workloads.build("convert", 3, tmp_path)
    doc = json.loads((tmp_path / "moments.json").read_text())
    assert len(doc["moments"]) == sum(4 ** n for n in range(workloads.CONVERT_MAX_LEN + 1))
    assert doc["moments"][""] == "1"


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints

def test_benchmark_json_lists_the_printed_metrics():
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    spec = json.loads(spec_path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _fn) in run.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == {"enumerate", "convert", "verify"}
