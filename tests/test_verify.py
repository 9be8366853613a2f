"""The identity suites on reduced grids, and the grid parser."""

import inspect

import pytest

from superschur.verify import GridSpec, SUITES, run_suite


def test_grid_spec_parse():
    g = GridSpec.parse("m<=4,n<=1,entry<=2")
    assert (g.m_max, g.n_max, g.entry_max) == (4, 1, 2)
    # subsets and spaces are fine; omitted keys keep defaults
    g = GridSpec.parse(" n<=1 ")
    assert (g.m_max, g.n_max, g.entry_max) == (3, 1, 3)
    assert GridSpec.parse("") == GridSpec()
    with pytest.raises(ValueError):
        GridSpec.parse("m=3")
    with pytest.raises(ValueError):
        GridSpec.parse("k<=3")


SMALL = GridSpec(m_max=2, n_max=1, entry_max=2)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_on_small_grid(name):
    (report,) = run_suite(name, SMALL, seed=3)
    assert report["suite"] == name
    assert report["cases"] > 0
    assert report["failures"] == []


def test_run_suite_all_chains_everything():
    reports = run_suite("all", SMALL, seed=3)
    assert [r["suite"] for r in reports] == sorted(SUITES, key=list(SUITES).index)
    assert [r["cases"] for r in reports] == [1, 6, 2, 20, 100, 500, 100]
    assert all(not r["failures"] for r in reports)


def test_every_suite_is_a_generator_of_cases():
    # a suite yields (case, passed) pairs; run_suite alone counts the
    # cases and collects the failures
    assert [name for name, suite in SUITES.items()
            if not inspect.isgeneratorfunction(suite)] == []


def test_jt_vs_oracle_checks_the_dimension(monkeypatch):
    # the suite also compares the determinant at x = y = 1 with the
    # expanded character, so a wrong dimension fails it
    from superschur import verify
    monkeypatch.setattr(verify, "dimension", lambda w: -1)
    (report,) = run_suite("jt-vs-oracle", SMALL, seed=3)
    assert report["cases"] > 0
    assert len(report["failures"]) == report["cases"]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_raise_oracle_is_seed_deterministic():
    (r1,) = run_suite("raise-oracle", SMALL, seed=5)
    (r2,) = run_suite("raise-oracle", SMALL, seed=5)
    assert r1 == r2
