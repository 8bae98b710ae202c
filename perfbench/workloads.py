"""Seeded inputs and fixed call lists of the three benchmark workloads.

``build(name, seed, work)`` writes the workload's input files under
``work`` and returns its list of :class:`Call`.  Each call carries the CLI
arguments a user would type after ``bifc`` and a check that compares what
the call printed or wrote with values from :mod:`oracles`, computed here,
before any call is timed.  The same seed gives the same files and calls.
"""

from __future__ import annotations

import itertools
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

FAMILIES = ("bifree", "biboolean", "bimonotone")
VARIABLES = {"aL": "L", "bL": "L", "aR": "R", "bR": "R"}
CONVERT_MAX_LEN = 5
# suite -> --max-len; exchange and exponentials carry most of the round
VERIFY_SIZES = {"exchange": 4, "exponentials": 4, "codendriform": 4, "dendriform": 4,
                "prelie": 4}
SUITES = tuple(VERIFY_SIZES)

# (class, positions, translucent positions, format) of each enumerate call
ENUMERATE_SPECS = (
    ("nc", 9, 0, "count"),
    ("all", 9, 0, "count"),
    ("shaded_nc", 9, 0, "count"),
    ("interval", 9, 0, "count"),
    ("monotone", 8, 0, "count"),
    ("nc", 10, 1, "count"),
    ("shaded_nc", 10, 2, "count"),
    ("interval", 11, 3, "count"),
    ("monotone", 9, 2, "count"),
    ("all", 11, 2, "count"),
    ("nc", 6, 1, "json"),
    ("monotone", 6, 2, "json"),
    ("all", 5, 1, "json"),
    ("shaded_nc", 6, 1, "svg"),
)


@dataclass
class Call:
    label: str
    argv: list[str]
    # takes the call's standard output, returns an error message or None
    check: Callable[[str], str | None]


def build(name: str, seed: int, work: Path) -> list[Call]:
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return {"enumerate": _enumerate, "convert": _convert, "verify": _verify}[name](rng, work)


# ---------------------------------------------------------------------------
# enumerate

def random_type(rng: random.Random, n: int, translucent: int) -> tuple[str, str]:
    sides = "".join(rng.choice("LR") for _ in range(n))
    holes = set(rng.sample(range(n), translucent))
    mask = "".join("0" if k in holes else "1" for k in range(n))
    return sides, mask


def _as_word(sides: str, mask: str) -> str:
    return " ".join(s if b == "0" else f"x{k}{s}"
                    for k, (s, b) in enumerate(zip(sides, mask), start=1))


def _check_entries(entries, cls: str, sides: str, mask: str, expected: int) -> str | None:
    if len(entries) != expected:
        return f"{len(entries)} entries, expected {expected}"
    opaque = [p for p in range(1, len(mask) + 1) if mask[p - 1] == "1"]
    seen = set()
    for e in entries:
        if e["type"] != f"{sides},{mask}":
            return f"entry of type {e['type']!r}"
        blocks = [list(b) for b in e["blocks"]]
        if sorted(p for b in blocks for p in b) != opaque or not all(blocks):
            return f"blocks {blocks} do not partition the opaque positions"
        key = json.dumps(e, sort_keys=True)
        if key in seen:
            return f"duplicate entry {key}"
        seen.add(key)
        if not oracles.in_class(cls, sides, mask, blocks, e.get("order")):
            return f"entry {key} is not in class {cls}"
    return None


def _enumerate(rng: random.Random, work: Path) -> list[Call]:
    calls = []
    for k, (cls, n, translucent, fmt) in enumerate(ENUMERATE_SPECS):
        sides, mask = random_type(rng, n, translucent)
        expected = oracles.expected_count(cls, sides, mask)
        label = f"enumerate-{cls}-{n}-{translucent}-{fmt}"
        argv = ["enumerate", "--class", cls, "--format", fmt]
        if fmt == "json" and cls == "monotone":
            argv += ["--word", _as_word(sides, mask)]
        else:
            argv += ["--type", f"{sides},{mask}"]
        if fmt == "count":
            def check(out, expected=expected):
                return None if out == f"{expected}\n" else f"printed {out!r}, expected {expected}"
        elif fmt == "json":
            def check(out, cls=cls, sides=sides, mask=mask, expected=expected):
                return _check_entries(json.loads(out), cls, sides, mask, expected)
        else:
            path = work / f"enumerate-{k}.svg"
            argv += ["--output", str(path)]

            def check(out, path=path, sides=sides, mask=mask, expected=expected):
                try:
                    root = ET.fromstring(path.read_bytes())
                except ET.ParseError as exc:
                    return f"SVG does not parse: {exc}"
                groups = [g for g in root if g.tag.endswith("}g")]
                titles = {g.find("{http://www.w3.org/2000/svg}title").text for g in groups}
                if not root.tag.endswith("}svg") or len(groups) != expected:
                    return f"{len(groups)} diagrams, expected {expected}"
                if titles != {f"{sides},{mask}"}:
                    return f"diagram titles {sorted(titles)}"
                return None
        calls.append(Call(label, argv, check))
    return calls


# ---------------------------------------------------------------------------
# convert

def _words(max_len: int, min_len: int = 0):
    letters = sorted(VARIABLES)
    for n in range(min_len, max_len + 1):
        for combo in itertools.product(letters, repeat=n):
            yield " ".join(combo)


def _write_table(path: Path, values: dict[str, Fraction], family: str | None = None) -> None:
    doc: dict = {"variables": VARIABLES}
    if family:
        doc["family"] = family
    doc["moments"] = {w: str(v) for w, v in values.items()}
    path.write_text(json.dumps(doc), encoding="utf-8")


def _read_table(path: Path) -> tuple[str | None, dict[str, Fraction]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["variables"] != VARIABLES:
        raise ValueError(f"variables {doc['variables']}")
    return doc.get("family"), {w: Fraction(v) for w, v in doc["moments"].items()}


def _convert(rng: random.Random, work: Path) -> list[Call]:
    # nonzero values: zeros cut block products short, so their number would
    # make the cost of a table depend on the seed
    moments = {w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for w in _words(CONVERT_MAX_LEN, 1)}
    moments[""] = Fraction(1)
    _write_table(work / "moments.json", moments)
    max_len = ["--max-len", str(CONVERT_MAX_LEN)]
    nonempty = set(_words(CONVERT_MAX_LEN, 1))
    calls = []
    for family in FAMILIES:
        cums, back = work / f"{family}.json", work / f"{family}-moments.json"

        def check_cumulants(out, family=family, cums=cums):
            got_family, table = _read_table(cums)
            if got_family != family or set(table) != nonempty:
                return f"{cums.name}: family {got_family!r}, {len(table)} words"
            # every family agrees with the moments up to length 2
            for w, v in table.items():
                letters = w.split()
                want = moments[w]
                if len(letters) == 2:
                    want -= moments[letters[0]] * moments[letters[1]]
                if len(letters) <= 2 and v != want:
                    return f"{family} cumulant of {w!r} is {v}, expected {want}"
            return None

        def check_roundtrip(out, back=back):
            got_family, table = _read_table(back)
            if got_family is not None or table != moments:
                diff = sorted(w for w in moments if table.get(w) != moments[w])
                return f"{back.name} differs from the input on {diff[:3]}"
            return None

        calls.append(Call(f"convert-moments-{family}",
                          ["convert", "--input", str(work / "moments.json"), "--from", "moments",
                           "--to", family, *max_len, "--output", str(cums)],
                          check_cumulants))
        calls.append(Call(f"convert-{family}-moments",
                          ["convert", "--input", str(cums), "--from", family,
                           "--to", "moments", *max_len, "--output", str(back)],
                          check_roundtrip))
    for family in FAMILIES:
        pairs = {w: Fraction(int(len(w.split()) == 2)) for w in _words(CONVERT_MAX_LEN, 1)}
        source, out_path = work / f"pairs-{family}.json", work / f"pairs-{family}-moments.json"
        _write_table(source, pairs, family)

        def check_pairs(out, family=family, out_path=out_path):
            _family, table = _read_table(out_path)
            if set(table) != nonempty | {""}:
                return f"{out_path.name}: {len(table)} words"
            for w, v in table.items():
                want = oracles.pair_moment(family, len(w.split()))
                if v != want:
                    return f"{family} moment of {w!r} is {v}, expected {want}"
            return None

        calls.append(Call(f"convert-pairs-{family}",
                          ["convert", "--input", str(source), "--from", family,
                           "--to", "moments", *max_len, "--output", str(out_path)],
                          check_pairs))
    return calls


# ---------------------------------------------------------------------------
# verify

def _verify(rng: random.Random, work: Path) -> list[Call]:
    calls = []
    for suite, max_len in VERIFY_SIZES.items():
        expected = f"{suite}: pass ({oracles.suite_checks(suite, max_len)} checks)\n"

        def check(out, expected=expected):
            return None if out == expected else f"printed {out!r}, expected {expected!r}"

        calls.append(Call(f"verify-{suite}",
                          ["verify", "--suite", suite, "--max-len", str(max_len),
                           "--seed", str(rng.randrange(10 ** 6))],
                          check))
    return calls
