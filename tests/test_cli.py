import json
from pathlib import Path

import pytest

from bifc import cli
from bifc import verify as vf
from bifc.bipartition import CLASSES, make_bipartition, make_labeled
from bifc.cumulants import FAMILIES
from bifc.diagrams import render_svg
from bifc.translucent import TranslucentWord

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_count_nc(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "LLL,111",
                           "--class", "nc", "--format", "count")
        assert code == 0 and out == "5\n"

    def test_count_all_partial(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "LRLL,0101",
                           "--class", "all", "--format", "count")
        assert code == 0 and out == "2\n"

    def test_count_fully_translucent(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "LLL,000",
                           "--format", "count")
        assert code == 0 and out == "1\n"

    def test_count_monotone_ten_opaque(self, capsys):
        # 11!/2 labelled monotone bipartitions, counted without listing them
        code, out, _ = run(capsys, "enumerate", "--type",
                           "LRRLLRRRLL,1111111111", "--class", "monotone")
        assert code == 0 and out == "19958400\n"

    def test_word_argument(self, capsys):
        # three opaque letters: all five set partitions
        code, out, _ = run(capsys, "enumerate", "--word", "a1L L R a2R a3R",
                           "--class", "all", "--format", "count")
        assert code == 0 and out == "5\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "LL,11",
                           "--class", "nc", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [entry["blocks"] for entry in data] == [[[1, 2]], [[1], [2]]]

    def test_bad_side_token(self, capsys):
        code, _, err = run(capsys, "enumerate", "--word", "aX L")
        assert code == 2 and "side" in err

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "enumerate", "--type", "LLQ,111")
        assert code == 2 and "error" in err

    def test_type_and_word_conflict(self, capsys):
        code, _, err = run(capsys, "enumerate", "--type", "L,1",
                           "--word", "aL")
        assert code == 2

    def test_guardrail_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("BIFC_MAX_ENUM", "2")
        code, _, err = run(capsys, "enumerate", "--type", "LLL,111",
                           "--format", "count")
        assert code == 2 and "cap" in err

    def test_oversized_listing_refused_up_front(self, capsys):
        for type_, cls in (("LRRLLRRLLRRLL,1111111111111", "nc"),
                           ("LRRLLRRLLRRLLR,11111111111111", "all"),
                           ("LRRLLRRL,11111111", "monotone")):
            for fmt in ("json", "svg"):
                code, out, err = run(capsys, "enumerate", "--type", type_,
                                     "--class", cls, "--format", fmt)
                assert code == 2 and out == ""
                assert err.startswith("error:") and "listing budget" in err
        # every listing at 6 opaque positions or fewer stays admitted
        assert 7 * 6 * 5 * 4 * 3 <= cli.LIST_BUDGET  # monotone at 6: 7!/2

    @pytest.mark.parametrize("raw", ["abc", "-1"])
    def test_guardrail_rejects_bad_value(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("BIFC_MAX_ENUM", raw)
        code, out, err = run(capsys, "enumerate", "--type", "LLL,111",
                             "--class", "nc", "--format", "count")
        assert code == 2 and out == ""
        assert err.startswith("error: BIFC_MAX_ENUM must be a nonnegative integer")


def test_unwritable_output(tmp_path, capsys):
    # a write failure is a usage error (exit 2), not a verification failure
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"variables": {"a": "L"}, "moments": {"a": "1"}}))
    target = str(tmp_path / "missing" / "out")
    for argv in (("enumerate", "--type", "LL,11", "--output", target),
                 ("convert", "--input", str(src), "--from", "moments",
                  "--to", "bifree", "--max-len", "1", "--output", target)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write")


class TestSvg:
    def test_deterministic_and_well_formed(self, capsys):
        args = ("enumerate", "--type", "LRLL,0111", "--class", "shaded_nc",
                "--format", "svg")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("<?xml") and out1.rstrip().endswith("</svg>")

    def test_translucent_block_is_red_with_top_chord(self):
        bp = make_bipartition(TranslucentWord.parse("LRLL,0111"),
                              [[2, 4], [3]])
        svg = render_svg([bp])
        assert 'stroke="red"' in svg
        assert 'y1="6"' in svg  # the chord reaches the top of the diagram
        assert svg.count('fill="white"') == 1  # one translucent dot
        assert svg.count('fill="black"') >= 3

    def test_monotone_labels_rendered(self):
        lp = make_labeled(TranslucentWord.parse("LL,11"), [[1], [2]],
                          [[1], [2]])
        svg = render_svg([lp])
        assert ">1</text>" in svg and ">2</text>" in svg

    def test_empty_class_renders(self):
        svg = render_svg([])
        assert svg.startswith("<?xml")


class TestConvert:
    def write_moments(self, path):
        path.write_text(json.dumps({
            "variables": {"a": "L"},
            "moments": {"": "1", "a": "1", "a a": "2", "a a a": "5"},
        }))

    def test_moments_to_bifree(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        self.write_moments(src)
        code, out, _ = run(capsys, "convert", "--input", str(src),
                           "--from", "moments", "--to", "bifree",
                           "--max-len", "3")
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "bifree"
        assert data["moments"] == {"a": "1", "a a": "1", "a a a": "1"}

    def test_roundtrip_bytes(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        self.write_moments(src)
        mid = tmp_path / "c.json"
        code, _, _ = run(capsys, "convert", "--input", str(src),
                         "--from", "moments", "--to", "biboolean",
                         "--max-len", "3", "--output", str(mid))
        assert code == 0
        code, out, _ = run(capsys, "convert", "--input", str(mid),
                           "--from", "biboolean", "--to", "moments",
                           "--max-len", "3")
        assert code == 0
        assert json.loads(out)["moments"] == {
            "": "1", "a": "1", "a a": "2", "a a a": "5"}
        # byte-identical to the canonical dump of the original table
        from bifc.cli import _dump_table, _load_table
        alphabet, table, _family = _load_table(str(src), expect_family=False)
        assert out == _dump_table(alphabet, table, None)

    def test_cumulant_to_cumulant_via_moments(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        self.write_moments(src)
        mid = tmp_path / "c.json"
        run(capsys, "convert", "--input", str(src), "--from", "moments",
            "--to", "bifree", "--max-len", "3", "--output", str(mid))
        code, out, _ = run(capsys, "convert", "--input", str(mid),
                           "--from", "bifree", "--to", "bimonotone",
                           "--max-len", "3")
        assert code == 0
        assert json.loads(out)["family"] == "bimonotone"

    def test_schema_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"moments": {}}')
        code, _, err = run(capsys, "convert", "--input", str(bad),
                           "--from", "moments", "--to", "bifree")
        assert code == 2 and "variables" in err
        bad.write_text(json.dumps({
            "variables": {"a": "L"}, "moments": {"a": "0.5"}}))
        code, _, err = run(capsys, "convert", "--input", str(bad),
                           "--from", "moments", "--to", "bifree")
        assert code == 2 and "rational" in err

    def test_malformed_tables(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for doc in ({"variables": ["a"], "moments": {}},
                    {"variables": {"a": "L"}, "moments": [["a", "1"]]}):
            bad.write_text(json.dumps(doc))
            code, out, err = run(capsys, "convert", "--input", str(bad),
                                 "--from", "moments", "--to", "bifree")
            assert code == 2 and out == ""
            assert err.startswith("error:") and "objects" in err

    def test_missing_entries(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        src.write_text(json.dumps({
            "variables": {"a": "L"}, "moments": {"a": "1"}}))
        code, _, err = run(capsys, "convert", "--input", str(src),
                           "--from", "moments", "--to", "bifree",
                           "--max-len", "2")
        assert code == 2 and "missing" in err

    def test_family_mismatch(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        src.write_text(json.dumps({
            "variables": {"a": "L"}, "family": "bifree",
            "moments": {"a": "1"}}))
        code, _, err = run(capsys, "convert", "--input", str(src),
                           "--from", "biboolean", "--to", "moments",
                           "--max-len", "1")
        assert code == 2 and "family" in err

    def test_max_len_cap(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        self.write_moments(src)
        code, _, err = run(capsys, "convert", "--input", str(src),
                           "--from", "moments", "--to", "bifree",
                           "--max-len", "15")
        assert code == 2 and "capped" in err

    def test_oversized_convert_refused_up_front(self, capsys):
        src = DATA / "moments_2x2.json"
        for argv in (("--from", "moments", "--to", "bifree", "--max-len", "14"),
                     ("--from", "moments", "--to", "biboolean", "--max-len", "9")):
            code, out, err = run(capsys, "convert", "--input", str(src), *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "budget" in err
        # the 2+2-letter sizes in use stay under the budget: roundtrips at
        # length 6, the goldens at 4 and the benchmark tables at 5
        for family in FAMILIES:
            for max_len, families in ((6, (family, "bimonotone")), (5, (family,))):
                assert cli._convert_work(4, 2, families, max_len) <= cli.CONVERT_BUDGET
        assert cli._convert_work(4, 2, ("bifree",), 7) > cli.CONVERT_BUDGET

    def test_term_building_counted(self, tmp_path, capsys):
        # one letter has few products but one side pattern per length whose
        # Catalan(n) terms must be built: length 13 is refused before any work
        src = tmp_path / "one.json"
        src.write_text(json.dumps({"variables": {"aL": "L"},
                                   "moments": {" ".join(["aL"] * n): "1" for n in range(14)}}))
        code, out, err = run(capsys, "convert", "--input", str(src),
                             "--from", "moments", "--to", "bifree", "--max-len", "13")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget" in err
        code, out, _ = run(capsys, "convert", "--input", str(src),
                           "--from", "moments", "--to", "bifree", "--max-len", "8")
        assert code == 0 and json.loads(out)["family"] == "bifree"

    def test_word_spelled_twice_refused(self, tmp_path, capsys):
        # "aL  bR" parses to the word of "aL bR"; a later key must not
        # silently overwrite an earlier one, nor a literal repeat of a key
        src = tmp_path / "m.json"
        for pair, second in (('"aL bR": "1", "aL  bR": "5"', "'aL  bR'"),
                             ('"aL bR": "1", "aL bR": "5"', "twice")):
            src.write_text('{"variables": {"aL": "L", "bR": "R"}, "moments": {"aL": "1", '
                           '"bR": "1", "aL aL": "1", "bR aL": "1", "bR bR": "1", '
                           + pair + '}}')
            code, out, err = run(capsys, "convert", "--input", str(src),
                                 "--from", "moments", "--to", "bifree", "--max-len", "2")
            assert code == 2 and out == ""
            assert err.startswith("error:") and "'aL bR'" in err and second in err

    def test_negative_max_len(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        self.write_moments(src)
        for argv in (("convert", "--input", str(src), "--from", "moments",
                      "--to", "bifree", "--max-len", "-2"),
                     ("verify", "--suite", "exponentials", "--max-len", "-3")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "--max-len" in err


class TestGolden:
    """The CLI keeps writing the bytes pinned under ``data/golden/``.

    ``data/moments_2x2.json`` is a seeded table of nonzero rationals on every
    word of length <= 4 over ``aL bL | aR bR``; the cumulant inputs are the
    same table tagged with a family.  The golden files were written by the
    CLI as it stood before its cut, lazy-functional and block-sum loops were
    merged, so any change in the exact values shows up here.  The
    ``enumerate_*`` files were written by the CLI as it stood before
    enumeration grew each class directly instead of filtering every set
    partition, on types with two translucent positions.
    """

    @pytest.mark.parametrize("family", FAMILIES)
    def test_moments_to_cumulants(self, capsys, family):
        code, out, _ = run(capsys, "convert", "--input", str(DATA / "moments_2x2.json"),
                           "--from", "moments", "--to", family, "--max-len", "4")
        assert code == 0
        assert out == (GOLDEN / f"moments_to_{family}.json").read_text()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cumulants_to_moments(self, tmp_path, capsys, family):
        table = json.loads((DATA / "moments_2x2.json").read_text())
        table["family"] = family
        src = tmp_path / "c.json"
        src.write_text(json.dumps(table))
        code, out, _ = run(capsys, "convert", "--input", str(src),
                           "--from", family, "--to", "moments", "--max-len", "4")
        assert code == 0
        assert out == (GOLDEN / f"{family}_to_moments.json").read_text()

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("type_", ["LRLLRL,110101", "RLLRLR,101101", "RLRRLR,110101"])
    def test_enumerate_json(self, capsys, cls, type_):
        code, out, _ = run(capsys, "enumerate", "--type", type_, "--class", cls,
                           "--format", "json")
        assert code == 0
        name = f"enumerate_{cls}_{type_.replace(',', '_')}.json"
        assert out == (GOLDEN / name).read_text()

    def test_enumerate_svg(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "LRLL,0111",
                           "--class", "shaded_nc", "--format", "svg")
        assert code == 0
        assert out == (GOLDEN / "enumerate_shaded_nc_LRLL_0111.svg").read_text()

    def test_verify_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "3", "--seed", "1")
        assert code == 0
        assert out == (GOLDEN / "verify_len3_seed1.txt").read_text()


class TestVerify:
    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "prelie", "--max-len", "3",
                           "--json")
        assert code == 0
        [record] = [json.loads(line) for line in out.splitlines()]
        assert set(record) == {"name", "ok", "checks", "elapsed_s", "counterexample"}
        assert record["name"] == "prelie" and record["ok"] is True
        assert record["checks"] > 0 and record["counterexample"] is None
        assert record["elapsed_s"] >= 0

    def test_json_matches_text(self, capsys):
        args = ("verify", "--max-len", "2", "--seed", "3")
        code, text, _ = run(capsys, *args)
        assert code == 0
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) >= 2
        assert [f"{r['name']}: pass ({r['checks']} checks)" for r in records] == \
            text.splitlines()

    def test_oversized_verify_refused_up_front(self, capsys):
        for argv in (("--suite", "exchange", "--max-len", "9"), ("--max-len", "7")):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "admits at most" in err
        # the acceptance sizes and the benchmark's length-4 calls stay admitted
        sizes = {"exponentials": 6, "codendriform": 5, "dendriform": 5, "exchange": 6,
                 "roundtrip": 6, "single_faced": 7, "prelie": 5}
        assert set(cli.VERIFY_MAX_LEN) == set(vf.SUITES)
        for name, max_len in sizes.items():
            assert 4 <= max_len <= cli.VERIFY_MAX_LEN[name]

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "prelie",
                           "--max-len", "3")
        assert code == 0 and "prelie: pass" in out

    def test_seed_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dendriform",
                           "--max-len", "3", "--seed", "7")
        assert code == 0 and "dendriform: pass" in out
