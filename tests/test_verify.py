import functools

import pytest

from bifc import verify as vf
from bifc import words as wd


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


def test_codendriform_sees_a_broken_half(monkeypatch):
    # the suite's coproduct memo, warm from a first run, must not hide a
    # left half that lost a term; the reduced coproduct loses it too, so
    # only the expanded axioms can tell
    assert vf.suite_codendriform(max_len=3).ok

    def drop_first_left_term(op):
        @functools.wraps(op)  # same name, so only the function itself tells
        def dropped(w):
            out = op(w)
            left = sorted(original_left(w).counter, key=str)
            if left and left[0] in out.counter:
                del out.counter[left[0]]
            return out
        return dropped

    original_left = wd.coproduct_left
    monkeypatch.setattr(wd, "coproduct_left", drop_first_left_term(wd.coproduct_left))
    monkeypatch.setattr(wd, "reduced_coproduct", drop_first_left_term(wd.reduced_coproduct))
    result = vf.suite_codendriform(max_len=3)
    assert not result.ok
    assert "splitting" not in result.counterexample, result.counterexample
