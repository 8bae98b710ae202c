import pytest

from bifc import verify as vf


@pytest.mark.parametrize("name", sorted(vf.SUITES))
def test_suites_pass_at_small_scale(name):
    for max_len in (0, 1, 2, 3, 4):
        result = vf.run_suite(name, max_len=max_len)
        assert result.ok, str(result)
        assert result.checked > 0 or max_len == 0
        assert result.counterexample is None


def test_unknown_suite():
    with pytest.raises(ValueError):
        vf.run_suite("nope")


def test_result_formatting():
    res = vf.SuiteResult("demo", False, 3, "bad thing")
    text = str(res)
    assert "FAIL" in text and "bad thing" in text
    assert "pass" in str(vf.SuiteResult("demo", True, 3))


def test_seed_changes_tables_not_outcome():
    a = vf.run_suite("dendriform", max_len=3, seed=1)
    b = vf.run_suite("dendriform", max_len=3, seed=2)
    assert a.ok and b.ok
