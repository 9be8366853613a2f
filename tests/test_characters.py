"""The alternating-sum character formula and its supporting machinery.

The worked r=2 character of gl(3|2) is frozen here as an explicit
two-alternant expansion, built with nothing but polynomial arithmetic.
It pins the cycle weights and the signs of the formula, but it is not
an independent oracle: it rests on the same identity-only permutation
set as `su_zhang_char`, which is wrong when two atypical roots are not
close.  This weight's are not, so the test cannot confirm its 343; a
highest-weight oracle that shares no code with either (ROADMAP item 1)
gives 330.
"""

from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.characters import (CapExceeded, _alternant_quotient,
                                   cone_offsets, dot_action,
                                   lemma_rho_identities,
                                   lexical_raise_weight, reduction_char,
                                   s_lambda_set, su_zhang_char,
                                   typical_constant_delta_char)
from superschur.combinatorics import CompositePartition, Partition
from superschur.jacobi_trudi import general_char, jt_matrix
from superschur.laurent import (LaurentPoly, NonzeroRemainder,
                                distinct_permutations, perm_sign)
from superschur.symfunc import composite_super_schur, poly_det
from superschur.weights import Weight, atypical_roots, special_class

from reference import (act_permutation, alternating_sum, c_related,
                       strongly_c_related, var_x, var_y)


@st.composite
def constant_delta_weight_strategy(draw, m_max=2, n_max=2, bound=2):
    """Dominant weights with constant delta-part, the alternating-sum
    formula's oracle-validated domain (the determinant grid plus the
    worked examples all live here or reduce to it)."""
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(1, n_max))
    lam = tuple(sorted((draw(st.integers(-bound, bound)) for _ in range(m)),
                       reverse=True))
    mu = (draw(st.integers(-bound, bound)),) * n
    return Weight(m, n, lam, mu)


def mono(m, n, xexp, yexp):
    e = tuple(2 * v for v in xexp) + tuple(2 * v for v in yexp)
    return LaurentPoly.monomial(m, n, e)


def worked_r2_oracle():
    """ch V(1,0,-1;-1,-2) on gl(3|2) from its two-alternant expansion.

    The expansion assumes the identity-only permutation set, as
    `su_zhang_char` does, so agreeing with it confirms the cycle
    weights and signs, not the set.  On that assumption the character
    equals
        [ alt(x1^2 x3^-3 y2^-2 Q) - (1/2) alt(x3^-3 Q) ]
          / (prod_{i<j}(x_i - x_j) * (y_1 - y_2)),
    where Q = (x1+y1)(x2+y2)(x3+y1)(x3+y2) and alt is the signed sum
    over S_3 x S_2 acting on the variable blocks.
    """
    m, n = 3, 2
    x = [var_x(m, n, i) for i in range(1, 4)]
    y = [var_y(m, n, j) for j in range(1, 3)]
    q = (x[0] + y[0]) * (x[1] + y[1]) * (x[2] + y[0]) * (x[2] + y[1])
    blocks = [("x", (1, 2, 3)), ("y", (1, 2))]
    alt1 = alternating_sum(mono(m, n, (2, 0, -3), (0, -2)) * q, blocks)
    alt2 = alternating_sum(mono(m, n, (0, 0, -3), (0, 0)) * q, blocks)
    numer = 2 * alt1 - alt2
    denom = [x[0] - x[1], x[0] - x[2], x[1] - x[2], y[0] - y[1]]
    quotient = numer.exact_divide(denom)
    assert all(c % 2 == 0 for c in quotient.terms.values())
    return LaurentPoly(m, n, {e: c // 2 for e, c in quotient.terms.items()})


def test_worked_r2_character_matches_oracle():
    w = Weight(3, 2, (1, 0, -1), (-1, -2))
    ch = su_zhang_char(w)
    assert ch == worked_r2_oracle()
    assert ch.sum_of_coefficients() == 343
    assert ch.terms.get(w.doubled(), 0) == 1
    assert all(isinstance(c, int) and c > 0 for c in ch.terms.values())


def test_worked_r2_reduction_agrees():
    w = Weight(3, 2, (1, 0, -1), (-1, -2))
    sc = special_class(w)
    assert reduction_char(sc) == su_zhang_char(w)


# -- trivial and typical sanity ------------------------------------------------


def test_trivial_modules_have_character_one():
    for m, n in [(1, 1), (2, 2), (3, 3)]:
        w = Weight(m, n, (0,) * m, (0,) * n)
        assert su_zhang_char(w) == LaurentPoly.one(m, n)


def test_one_dimensional_sigma_powers():
    # (j,...,j; -j,...,-j) is the j-th power of the superdeterminant
    for j in (-2, 1, 3):
        w = Weight(2, 1, (j, j), (-j,))
        expected = LaurentPoly.monomial(2, 1, (2 * j, 2 * j, -2 * j))
        assert su_zhang_char(w) == expected


def test_typical_closed_form_matches_alternating_sum():
    cases = [
        Weight(2, 1, (2, 1), (0,)),
        Weight(2, 1, (3, 0), (-1,)),
        Weight(2, 2, (3, 2), (0, 0)),
        Weight(3, 2, (3, 2, -1), (-1, -1)),
    ]
    for w in cases:
        assert atypical_roots(w) == ()
        assert typical_constant_delta_char(w) == su_zhang_char(w)


def test_typical_closed_form_rejects_bad_input():
    with pytest.raises(ValueError):
        typical_constant_delta_char(Weight(1, 1, (0,), (0,)))  # atypical
    with pytest.raises(ValueError):
        typical_constant_delta_char(Weight(1, 2, (5,), (0, -1)))


def test_kac_structure_of_typical_characters():
    # a typical constant-delta character is the odd-root product times
    # a Weyl-group alternant: all 2^{mn} odd directions contribute
    w = Weight(2, 1, (2, 1), (0,))
    ch = typical_constant_delta_char(w)
    assert ch.sum_of_coefficients() % 2 ** (w.m * w.n) == 0


# -- the alternant quotient --------------------------------------------------


def expand_quotient(quotient):
    """The full quotient, from the one term per orbit that it keeps."""
    k = len(next(iter(quotient)))
    return LaurentPoly(k, 0, {e: c for a, c in quotient.items()
                              for e in distinct_permutations(a)})


@st.composite
def alternant_exponents(draw, min_k=1):
    """Strictly decreasing doubled exponents with even gaps, 1 to 4 of them."""
    k = draw(st.integers(min_k, 4))
    base = draw(st.integers(-7, 7))
    gaps = draw(st.lists(st.integers(1, 3), min_size=k - 1, max_size=k - 1))
    return tuple(base + 2 * sum(gaps[i:]) for i in range(k))


@settings(max_examples=60, deadline=None)
@given(alternant_exponents())
def test_alternant_quotient_times_half_vandermonde_is_the_alternant(vals):
    k = len(vals)
    restored = expand_quotient(_alternant_quotient(vals))
    for i in range(k):
        for j in range(i + 1, k):
            e1 = [0] * k
            e1[i], e1[j] = 1, -1
            e2 = [-v for v in e1]
            restored = restored * LaurentPoly(k, 0, {tuple(e1): 1,
                                                     tuple(e2): -1})
    alternant = LaurentPoly(k, 0, {tuple(vals[i] for i in p): perm_sign(p)
                                   for p in permutations(range(k))})
    assert restored == alternant


@settings(max_examples=60, deadline=None)
@given(alternant_exponents(min_k=2))
def test_alternant_quotient_keeps_one_term_per_orbit(vals):
    # a weakly decreasing tuple is the one representative of its orbit;
    # expanding the orbits afterwards would hide extra keys, since they
    # would be overwritten with their equal coefficients
    for e in _alternant_quotient(vals):
        assert all(a >= b for a, b in zip(e, e[1:])), e


def test_alternant_quotient_rejects_bad_exponents():
    with pytest.raises(NonzeroRemainder):
        _alternant_quotient((5, 2, 0))
    with pytest.raises(NonzeroRemainder):
        _alternant_quotient((3, 0))
    with pytest.raises(ValueError, match="strictly decreasing"):
        _alternant_quotient((0, 2))


def test_alternant_quotient_known_value():
    # lam = (2,1,0), k = 3: s_21 = m_21 + 2 m_111, the adjoint of gl(3)
    q = _alternant_quotient((8, 4, 0))
    assert q == {(6, 4, 2): 1, (4, 4, 4): 2}
    full = expand_quotient(q)
    assert len(full) == 7
    assert full.sum_of_coefficients() == 8
    assert full.terms[(4, 4, 4)] == 2


def test_cap_guard():
    with pytest.raises(CapExceeded):
        su_zhang_char(Weight(3, 2, (1, 0, -1), (-1, -2)), cap=5)


def assert_orbits_whole(p):
    """Each S_m x S_n orbit of p's terms is present whole, with one
    coefficient: grouped by block-sorted exponents, a group holds
    m! n! / (product of multiplicity factorials) terms, all alike."""
    m, n = p.m, p.n
    groups = {}
    for e, c in p.terms.items():
        rep = tuple(sorted(e[:m])) + tuple(sorted(e[m:]))
        groups.setdefault(rep, []).append(c)
    for rep, coeffs in groups.items():
        size = factorial(m) * factorial(n)
        for block in (rep[:m], rep[m:]):
            for v in set(block):
                size //= factorial(block.count(v))
        assert len(coeffs) == size, rep
        assert len(set(coeffs)) == 1, rep


@pytest.mark.parametrize("w", [Weight(4, 3, (4, 2, 0, -3), (-1, -1, -1)),
                               Weight(3, 2, (1, 0, -1), (-1, -2))])
def test_su_zhang_writes_whole_orbits(w):
    assert_orbits_whole(su_zhang_char(w))


def test_determinant_writes_whole_orbits():
    # gl(3|2) 1,0,-1;-1,-2 has no constant delta-part, hence no block
    # matrix, so poly_det is checked there on a composite S-function
    w = Weight(4, 3, (4, 2, 0, -3), (-1, -1, -1))
    assert_orbits_whole(poly_det(jt_matrix(special_class(w)), 4, 3))
    c = CompositePartition(Partition((2, 1)), Partition((2,)))
    assert_orbits_whole(composite_super_schur(c, 3, 2))


ORBIT_ROUTES = {
    # the golden weight twisted by sigma: the shift goes on a matrix row
    "jt-twisted": lambda: general_char(Weight(3, 2, (4, 3, 0), (-2, -2))),
    # m = 0: the matrix is empty, and the shift is the whole determinant
    "jt-m0": lambda: general_char(Weight(0, 2, (), (1, 1))),
    "suzhang": lambda: su_zhang_char(Weight(3, 2, (1, 0, -1), (-1, -2))),
    "schur": lambda: composite_super_schur(
        CompositePartition(Partition((2, 1)), Partition((2,))), 3, 2),
}


@pytest.mark.parametrize("route", sorted(ORBIT_ROUTES))
def test_routes_keep_their_orbit_representatives(route):
    # the JSON writer reads the representatives instead of the terms
    p = ORBIT_ROUTES[route]()
    assert p.orbits is not None
    assert LaurentPoly.from_orbits(p.m, p.n, p.orbits) == p


# -- closeness and the permutation set ---------------------------------------


def test_worked_r2_slots_are_not_close():
    w = Weight(3, 2, (1, 0, -1), (-1, -2))
    roots = atypical_roots(w)
    assert not c_related(w, 1, 2, roots)
    assert not strongly_c_related(w, 1, 2, roots)
    assert c_related(w, 1, 1, roots)


def test_constant_delta_slots_are_chain_close():
    w = Weight(3, 3, (0, 0, 0), (0, 0, 0))
    roots = atypical_roots(w)
    assert len(roots) == 3
    assert strongly_c_related(w, 1, 3, roots)


def test_s_lambda_set_is_identity_only():
    for w in [Weight(3, 2, (1, 0, -1), (-1, -2)),
              Weight(2, 2, (0, 0), (0, 0))]:
        assert s_lambda_set(w) == [tuple(range(len(atypical_roots(w))))]


def test_closeness_index_bounds():
    w = Weight(1, 1, (0,), (0,))
    with pytest.raises(IndexError):
        c_related(w, 1, 2)


# -- dot action and lexical raising -------------------------------------------


def test_dot_action_worked_values():
    w = Weight(3, 2, (1, 0, -1), (-1, -2))
    roots = atypical_roots(w)
    swap = (1, 0)
    assert lexical_raise_weight(dot_action(swap, w, roots), roots) == \
        Weight(3, 2, (-1, 0, -1), (-1, 0))
    head = Weight(2, 2, (1, 0), (0, -1))
    hroots = atypical_roots(head)
    assert lexical_raise_weight(dot_action(swap, head, hroots), hroots) == \
        Weight(2, 2, (-1, 0), (0, 1))


def test_dot_action_identity_fixes_weight():
    w = Weight(3, 2, (1, 0, -1), (-1, -2))
    roots = atypical_roots(w)
    assert dot_action((0, 1), w, roots) == w


def test_lexical_raise_produces_lexical_weight():
    w = Weight(3, 2, (1, 0, -1), (-1, -2))
    roots = atypical_roots(w)
    # w - 2 gamma_1, with gamma_1 the first atypical root (2, 1)
    v = Weight(3, 2, (1, -2, -1), (1, -2))
    raised = lexical_raise_weight(v, roots)
    a = [raised.mu[ns - 1] - ns for _, ns in roots]
    assert all(a[s] >= a[s + 1] for s in range(len(a) - 1))
    # raising is idempotent
    assert lexical_raise_weight(raised, roots) == raised


def test_cone_offsets_roundtrip_and_rejection():
    w = Weight(3, 2, (1, 0, -1), (-1, -2))
    roots = atypical_roots(w)
    # w - gamma_1 - 2 gamma_2, with atypical roots (2, 1) and (1, 2)
    v = Weight(3, 2, (-1, -1, -1), (0, 0))
    assert cone_offsets(w, v, roots) == (1, 2)
    outside = Weight(3, 2, (2, 0, -1), (-1, -2))
    with pytest.raises(ValueError):
        cone_offsets(w, outside, roots)


# -- rho bookkeeping ------------------------------------------------------------


def test_lemma_rho_identities_small():
    for (m, n, p, q) in [(2, 1, 1, 1), (3, 2, 1, 2), (3, 2, 2, 1),
                         (4, 1, 2, 2)]:
        res = lemma_rho_identities(m, n, p, q)
        assert res["a"] and res["b"]
    with pytest.raises(ValueError):
        lemma_rho_identities(3, 1, 1, 1)


# -- reduction route -------------------------------------------------------------


def test_reduction_matches_alternating_sum_on_specials():
    cases = [
        Weight(2, 2, (1, 0), (-1, -1)),
        Weight(3, 2, (2, 1, 0), (-1, -1)),
        Weight(3, 2, (1, 0, -1), (-2, -2)),
        Weight(2, 1, (1, -1), (-1,)),
    ]
    for w in cases:
        sc = special_class(w)
        assert sc is not None
        assert reduction_char(sc) == su_zhang_char(w)


# -- structural properties over random weights ------------------------------------


@settings(max_examples=25, deadline=None)
@given(constant_delta_weight_strategy())
def test_character_structure(w):
    ch = su_zhang_char(w)
    # nonnegative integer coefficients
    assert all(isinstance(c, int) and c > 0 for c in ch.terms.values())
    # highest-weight multiplicity one
    assert ch.terms.get(w.doubled(), 0) == 1
    # positive integer dimension
    assert ch.sum_of_coefficients() >= 1
    # S_m x S_n symmetry: adjacent transpositions fix the character
    if w.m > 1:
        assert act_permutation(ch, wx=(1, 0) + tuple(range(2, w.m))) == ch
    if w.n > 1:
        assert act_permutation(ch, wy=(1, 0) + tuple(range(2, w.n))) == ch
