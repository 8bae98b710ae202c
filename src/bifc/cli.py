"""Command line surface: enumeration, conversion and verification.

Exit codes: 0 on success, 1 on a verification failure, 2 on usage, parse or
schema errors.  All commands are pure functions of their arguments and
input files; randomness only enters through an explicit seed.

Moment tables are JSON documents ``{"variables": {"a": "L", "b": "R"},
"moments": {"": "1", "a": "1/2", "a b": "3"}}`` with words as
space-separated variable names and values as exact rational literals.
Cumulant tables use the identical schema plus a ``"family"`` field.

In ``--word`` arguments the tokens ``L`` and ``R`` are placeholders and any
other token declares a variable whose trailing ``L`` or ``R`` names its
side, e.g. ``a1L L R a2R a3R``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .bipartition import (
    CLASSES,
    EnumerationLimitError,
    count_bipartitions,
    enumerate_bipartitions,
)
from .cumulants import (
    FAMILIES,
    CumulantData,
    MomentData,
    cumulants_to_moments,
    moments_to_cumulants,
)
from .diagrams import render_svg
from .translucent import TranslucentWord
from .verify import SUITES, run_suite
from .words import Alphabet, IncompleteWord, type_of

MAX_LEN_CAP = 14
# Block products one ``convert`` may evaluate (see ``_convert_work``).  A
# 2+2-letter table at length 6, converted from one family to another, needs
# about 1.4 M; integer tables run at about a million products a second.
CONVERT_BUDGET = 2_000_000
# Entries one ``enumerate --format json`` or ``svg`` may list.  The document
# is built in memory, so memory binds before time: 93,298 monotone entries
# take 3.9 s and 1.07 GB as SVG (3.2 s and 0.4 GB as JSON) on a 2-core host
# with Python 3.11.
LIST_BUDGET = 100_000
# Building one term of a class costs about as much as this many block
# products.  It was sized when the terms were built once per side pattern:
# one letter at length 12 had 0.29 M products and 0.29 M terms to build, and
# took 3.2 s and 230 MB.  The terms are now built once per length and class
# and only the block pickers once per side pattern, so the estimate below
# overstates that part.
TERM_BUILD_COST = 10
# Largest --max-len each ``verify`` suite admits.  One length more takes
# 30 s or longer on a 2-core host with Python 3.11: dendriform over 100 s,
# exponentials 61-87 s (319 MB), exchange 62 s (249 MB), codendriform 58 s
# (483 MB; 4.4 s and 103 MB at its admitted 6), prelie 60 s (802 MB),
# single_faced 77 s; roundtrip 27-34 s and 78 MB in three single runs, too
# close to 30 s to move its entry on them.
VERIFY_MAX_LEN = {"codendriform": 6, "dendriform": 7, "exchange": 6, "exponentials": 6,
                  "prelie": 7, "roundtrip": 6, "single_faced": 8}


class UsageError(Exception):
    pass


def _parse_word_tokens(text: str) -> tuple[Alphabet, IncompleteWord]:
    tokens = text.split()
    left, right = set(), set()
    for tok in tokens:
        if tok in ("L", "R"):
            continue
        if tok.endswith("L"):
            left.add(tok)
        elif tok.endswith("R"):
            right.add(tok)
        else:
            raise UsageError(
                f"cannot infer the side of {tok!r}: variable tokens must end in L or R"
            )
    alphabet = Alphabet.make(left, right)
    return alphabet, alphabet.word(tokens)


def _resolve_type(args) -> TranslucentWord:
    if args.type and args.word:
        raise UsageError("give either --type or --word, not both")
    if args.type:
        return TranslucentWord.parse(args.type)
    if args.word:
        _alphabet, w = _parse_word_tokens(args.word)
        return type_of(w)
    raise UsageError("one of --type or --word is required")


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc}")
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    t = _resolve_type(args)
    entries = count_bipartitions(t, args.cls)
    if args.format == "count":
        _emit(f"{entries}\n", args.output)
        return 0
    if entries > LIST_BUDGET:
        raise UsageError(
            f"--class {args.cls} on {t} has {entries:,} entries, over the listing "
            f"budget of {LIST_BUDGET:,}; use --format count"
        )
    bps = enumerate_bipartitions(t, args.cls)
    if args.format == "json":
        payload = [bp.to_json() for bp in bps]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit(render_svg(bps), args.output)
    return 0


_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?\Z")


def _load_rational(raw, where: str) -> Fraction:
    # accepted literals: optionally signed integers and p/q strings
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if not isinstance(raw, str) or not _RATIONAL_RE.match(raw.strip()):
        raise UsageError(f"{where}: not a rational literal: {raw!r}")
    try:
        return Fraction(raw.strip())
    except ZeroDivisionError:
        raise UsageError(f"{where}: zero denominator: {raw!r}")


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} appears twice")
        out[key] = value
    return out


def _load_table(path: str, expect_family: bool):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")
    if not (isinstance(data, dict) and isinstance(data.get("variables"), dict)
            and isinstance(data.get("moments"), dict)):
        raise UsageError(f"{path}: expected an object with 'variables' and 'moments' objects")
    sides = data["variables"]
    left = {name for name, side in sides.items() if side == "L"}
    right = {name for name, side in sides.items() if side == "R"}
    if left | right != set(sides):
        raise UsageError(f"{path}: variable sides must be 'L' or 'R'")
    try:
        alphabet = Alphabet.make(left, right)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")
    table = {}
    spelled = {}
    for key, raw in data["moments"].items():
        try:
            word = alphabet.word(key)
        except ValueError as exc:
            raise UsageError(f"{path}: bad word {key!r}: {exc}")
        if word in spelled:
            raise UsageError(f"{path}: keys {spelled[word]!r} and {key!r} spell the same word")
        spelled[word] = key
        table[word] = _load_rational(raw, f"{path}[{key!r}]")
    family = data.get("family")
    if expect_family and family not in FAMILIES:
        raise UsageError(f"{path}: 'family' must be one of {FAMILIES}")
    return alphabet, table, family


def _dump_table(alphabet: Alphabet, table, family: str | None) -> str:
    variables = {
        name: ("L" if name in alphabet.left else "R")
        for name in sorted(alphabet.left) + sorted(alphabet.right)
    }
    words = sorted(table, key=lambda w: (len(w), w.letters))
    doc: dict = {"variables": variables}
    if family:
        doc["family"] = family
    doc["moments"] = {w.text: str(table[w]) for w in words}
    return json.dumps(doc, indent=2) + "\n"


def _convert_work(letters: int, sides: int, families, max_len: int) -> int:
    """Upper bound on the work of a conversion up to ``max_len``, in block products.

    Each word is one block sum per family passed through, with Catalan(n)
    terms at length ``n`` for ``bifree`` and ``bimonotone`` and 2^(n-1) for
    ``biboolean``.  Each of the ``sides**n`` side patterns (``sides``, 1 or
    2, is the number of sides that carry letters) is charged
    ``TERM_BUILD_COST`` per term, the cost of building the terms once per
    side pattern.  The terms are now built once per length and class, and
    the block pickers once per side pattern, so this part is an overstatement.
    """
    def terms(family: str, n: int) -> int:
        return 2 ** (n - 1) if family == "biboolean" else math.comb(2 * n, n) // (n + 1)

    return sum((letters ** n + TERM_BUILD_COST * sides ** n) * terms(family, n)
               for family in families for n in range(1, max_len + 1))


def cmd_convert(args) -> int:
    kinds = ("moments",) + FAMILIES
    if args.source not in kinds or args.target not in kinds:
        raise UsageError(f"--from/--to must be one of {kinds}")
    if args.source == args.target:
        raise UsageError("--from and --to coincide; nothing to convert")
    alphabet, table, family = _load_table(args.input, expect_family=args.source != "moments")
    letters = len(alphabet.letters())
    work = _convert_work(letters, bool(alphabet.left) + bool(alphabet.right),
                         [k for k in (args.source, args.target) if k != "moments"],
                         args.max_len)
    if work > CONVERT_BUDGET:
        raise UsageError(
            f"--max-len {args.max_len} over {letters} letters needs about {work:,} "
            f"block products, over the budget of {CONVERT_BUDGET:,}; lower --max-len"
        )
    try:
        if args.source == "moments":
            moments = MomentData(alphabet, table)
        else:
            if family != args.source:
                raise UsageError(
                    f"{args.input}: family {family!r} does not match --from {args.source!r}"
                )
            cums = CumulantData(args.source, alphabet,
                                {w: v for w, v in table.items() if len(w) > 0})
            moments = cumulants_to_moments(cums, args.max_len)
        if args.target == "moments":
            out_family = None
            out_table = dict(moments.values)
        else:
            cums = moments_to_cumulants(moments, args.target, args.max_len)
            out_family = args.target
            out_table = dict(cums.values)
    except KeyError as exc:
        raise UsageError(f"missing table entry: {exc.args[0]}")
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(_dump_table(alphabet, out_table, out_family), args.output)
    return 0


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else sorted(SUITES)
    if args.max_len is not None:
        for name in names:
            if args.max_len > VERIFY_MAX_LEN[name]:
                raise UsageError(
                    f"--max-len {args.max_len} is too long for the {name} suite, "
                    f"which admits at most {VERIFY_MAX_LEN[name]}"
                )
    failed = False
    for name in names:
        start = time.perf_counter()
        result = run_suite(name, max_len=args.max_len, seed=args.seed)
        if args.json:
            print(json.dumps({"name": result.name, "ok": result.ok, "checks": result.checked,
                              "elapsed_s": round(time.perf_counter() - start, 6),
                              "counterexample": result.counterexample}))
        else:
            print(result)
        failed = failed or not result.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifc",
        description="combinatorics of two-faced moment-cumulant relations",
    )
    parser.add_argument("--version", action="version", version=f"bifc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="enumerate bipartitions of a type")
    enum.add_argument("--type", help='translucent word, e.g. "LLRR,1011"')
    enum.add_argument("--word", help='incomplete word, e.g. "a1L L R a2R"')
    enum.add_argument("--class", dest="cls", default="all", choices=CLASSES)
    enum.add_argument("--format", default="count", choices=("count", "json", "svg"))
    enum.add_argument("--output")
    enum.set_defaults(func=cmd_enumerate)

    conv = sub.add_parser("convert", help="convert between moments and cumulants")
    conv.add_argument("--input", required=True)
    conv.add_argument("--from", dest="source", required=True)
    conv.add_argument("--to", dest="target", required=True)
    conv.add_argument("--max-len", type=int, default=6)
    conv.add_argument("--output")
    conv.set_defaults(func=cmd_convert)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=sorted(SUITES))
    ver.add_argument("--max-len", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--json", action="store_true",
                     help="print one JSON object per suite instead of text")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    max_len = getattr(args, "max_len", None)
    if max_len is not None and max_len > MAX_LEN_CAP:
        print(f"error: --max-len is capped at {MAX_LEN_CAP}", file=sys.stderr)
        return 2
    if max_len is not None and max_len < 0:
        print("error: --max-len must not be negative", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (UsageError, EnumerationLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
