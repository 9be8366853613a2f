"""The benchmark's checks accept the golden character and reject corrupted ones."""

import random
from itertools import permutations

import pytest

import checks
from superschur.jacobi_trudi import character
from superschur.weights import Weight

M, N, LAM, MU = 3, 2, (3, 2, -1), (-1, -1)
HW = tuple(2 * a for a in LAM) + tuple(2 * b for b in MU)


@pytest.fixture(scope="module")
def golden():
    return dict(character(Weight(M, N, LAM, MU), "jt").terms)


def low_term(terms):
    """A monomial well below the highest weight, with distinct x entries."""
    return min((e for e in terms if len(set(e[:M])) == M),
               key=lambda e: (sum(e[:M]), e))


def changed_coefficient(terms):
    out = dict(terms)
    out[low_term(terms)] += 1
    return out


def moved_off_orbit(terms):
    e = low_term(terms)
    out = dict(terms)
    c = out.pop(e)
    moved = (e[0] + 2,) + e[1:M] + (e[M] - 2,) + e[M + 1:]
    out[moved] = out.get(moved, 0) + c
    return out


def added_above(terms):
    out = dict(terms)
    out[(HW[0] + 2, HW[1] - 2) + HW[2:]] = 1
    return out


CORRUPTIONS = [changed_coefficient, moved_off_orbit, added_above]


def orbit(e):
    return {xs + ys for xs in permutations(e[:M]) for ys in permutations(e[M:])}


def test_golden_passes_every_check(golden):
    rng = random.Random(0)
    assert checks.jt_dimension(M, N, LAM, MU) == 1536 == 2 ** 6 * 24
    assert sum(golden.values()) == 1536
    assert checks.is_typical(M, N, LAM, MU)
    assert checks.check_character(golden, M, N, LAM, MU, rng) == []
    routes = {route: character(Weight(M, N, LAM, MU), route).terms
              for route in ("jt", "suzhang", "typical", "reduction")}
    assert checks.check_agree(routes) == []


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_each_check_rejects_a_corruption(golden, corrupt):
    bad = corrupt(golden)
    rng = random.Random(1)
    point = checks.random_point(rng, M + N)
    assert checks.check_invariants(bad, M, N, LAM, MU, rng)
    assert checks.check_determinant(bad, M, N, LAM, MU, point)
    assert checks.check_kac(bad, M, N, LAM, MU, point)
    assert checks.check_agree({"jt": golden, "bad": bad}) == ["bad"]


def test_invariants_name_each_broken_property(golden):
    rng = random.Random(2)
    for corrupt in (changed_coefficient, moved_off_orbit):
        assert "orbit" in checks.check_invariants(
            corrupt(golden), M, N, LAM, MU, rng)[0]
    above = dict(golden)
    for e in orbit((HW[0] + 2, HW[1] - 2) + HW[2:]):
        above[e] = 1
    assert "not below" in checks.check_invariants(
        above, M, N, LAM, MU, rng)[0]
    extra = dict(golden)
    for e in orbit(low_term(golden)):
        extra[e] += 1
    assert "x_m = t" in checks.check_invariants(extra, M, N, LAM, MU, rng)[0]
    negative = dict(golden)
    negative[low_term(golden)] = -1
    assert "positive" in checks.check_invariants(
        negative, M, N, LAM, MU, rng)[0]
    top = dict(golden)
    top[HW] = 2
    assert "highest weight" in checks.check_invariants(
        top, M, N, LAM, MU, rng)[0]


def test_determinant_normalization_follows_the_twist(golden):
    # twisting by j*(1,1,1;-1,-1) multiplies the character by a monomial
    j = 2
    lam = tuple(a + j for a in LAM)
    mu = tuple(b - j for b in MU)
    twisted = {tuple(v + 2 * j for v in e[:M]) + tuple(v - 2 * j for v in e[M:]):
               c for e, c in golden.items()}
    point = checks.random_point(random.Random(3), M + N)
    assert checks.check_determinant(twisted, M, N, lam, mu, point) == []
    assert checks.check_determinant(golden, M, N, lam, mu, point)
