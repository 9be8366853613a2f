"""Symmetric-function generators, determinants, and split identities."""

import gc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superschur.characters import _alternant_quotient, _split_assemble
from superschur.combinatorics import CompositePartition, Partition
from superschur.laurent import (ArityMismatchError, LaurentPoly,
                                NonzeroRemainder, distinct_permutations,
                                perm_sign)
from superschur.symfunc import (_dual_super_h, _e_y, _h_x, _super_h,
                                composite_block_matrix, composite_super_schur,
                                isolate_last_y, poly_det, schur)
from superschur.verify import split_classical_factors, split_super_factors

from reference import composite_schur_by_shift, evaluate, var_x, var_y


def brute_h(m, n, r):
    """Complete homogeneous h_r(x) by monomial enumeration."""
    out = LaurentPoly.zero(m, n)
    for combo in combinations_with_replacement(range(m), r):
        e = [0] * (m + n)
        for i in combo:
            e[i] += 2
        out = out + LaurentPoly.monomial(m, n, tuple(e))
    return out


def brute_e(m, n, r):
    """Elementary e_r(y) by subset enumeration."""
    out = LaurentPoly.zero(m, n)
    for combo in combinations(range(n), r):
        e = [0] * (m + n)
        for j in combo:
            e[m + j] = 2
        out = out + LaurentPoly.monomial(m, n, tuple(e))
    return out


def brute_det(mat, m, n):
    """Determinant by the full permutation expansion."""
    size = len(mat)
    out = LaurentPoly.zero(m, n)
    for w in permutations(range(size)):
        prod = LaurentPoly.one(m, n)
        for i in range(size):
            prod = prod * mat[i][w[i]]
        out = out + perm_sign(w) * prod
    return out


def composite_schur_by_det(c, m, n):
    """Composite Schur polynomial s_{nu-bar;mu}(x) as the block
    determinant in h_r(x) and h_r of the inverted variables."""
    mat = composite_block_matrix(
        c.nu.parts, c.mu.parts, lambda r: _h_x(m, n, r),
        lambda r: _h_x(m, n, r).invert_variables())
    return poly_det(mat, m, n)


def orbit_sum(m, n, exp2):
    """Sum of the monomials in the S_m x S_n-orbit of exp2."""
    x, y = exp2[:m], exp2[m:]
    return LaurentPoly(m, n, {px + py: 1 for px in set(permutations(x))
                              for py in set(permutations(y))})


@st.composite
def small_matrix_strategy(draw, size_max=3):
    """Square matrices of S_m x S_n-invariant entries on gl(2|1) or gl(2|2):
    each entry is a sum of whole orbits with random int coefficients."""
    m, n = draw(st.sampled_from([(2, 1), (2, 2)]))
    size = draw(st.integers(1, size_max))
    def entry():
        out = LaurentPoly.zero(m, n)
        for _ in range(draw(st.integers(0, 3))):
            e = tuple(2 * draw(st.integers(-2, 2)) for _ in range(m + n))
            out = out + draw(st.integers(-4, 4)) * orbit_sum(m, n, e)
        return out
    return m, n, [[entry() for _ in range(size)] for _ in range(size)]


# -- generators ------------------------------------------------------------


def test_h_classical_matches_enumeration():
    for r in range(0, 5):
        assert _h_x(3, 2, r) == brute_h(3, 2, r)
    assert not _h_x(3, 2, -1)


def test_e_classical_matches_enumeration():
    for r in range(0, 5):
        assert _e_y(2, 3, r) == brute_e(2, 3, r)
    assert not _e_y(2, 3, 4)  # e_r(y) = 0 for r > n


def test_super_h_is_convolution():
    for r in range(0, 5):
        expected = LaurentPoly.zero(2, 2)
        for k in range(0, r + 1):
            expected = expected + brute_h(2, 2, k) * brute_e(2, 2, r - k)
        assert _super_h(2, 2, r) == expected
    assert not _super_h(2, 2, -2)


def test_dual_super_h_is_inverted():
    for r in range(0, 4):
        assert _dual_super_h(2, 2, r) == _super_h(2, 2, r).invert_variables()


def test_super_h_supersymmetry_cancellation():
    # substituting x_m = t, y_n = -t makes the value independent of t
    for r in range(1, 5):
        p = _super_h(2, 2, r)
        v1 = evaluate(p, [3, 2], [5, -2])
        v2 = evaluate(p, [3, 7], [5, -7])
        assert v1 == v2


# -- determinants -----------------------------------------------------------


def wide_exponent_case():
    """A gl(2|1) matrix whose exponents need 2-byte packed fields."""
    a = orbit_sum(2, 1, (60, -40, 2))
    b = orbit_sum(2, 1, (-60, 0, -2)) + LaurentPoly.one(2, 1)
    c = 3 * orbit_sum(2, 1, (2, 2, 58))
    return 2, 1, [[a, b, c], [c, a, b], [b, c, a]]


@settings(max_examples=40, deadline=None)
@given(small_matrix_strategy())
@example(wide_exponent_case())
def test_poly_det_matches_permutation_expansion(case):
    m, n, mat = case
    assert poly_det(mat, m, n) == brute_det(mat, m, n)


def test_poly_det_rejects_non_invariant_entries():
    x1, x2 = var_x(2, 1, 1), var_x(2, 1, 2)
    y1 = var_y(2, 1, 1)
    sym = x1 + x2
    for bad in (x1, x1 + 2 * x2, x1 * y1):
        with pytest.raises(ValueError, match="invariant"):
            poly_det([[sym, bad], [sym, sym]], 2, 1)
    with pytest.raises(ValueError, match="int coefficients"):
        poly_det([[LaurentPoly(2, 1, {e: Fraction(1, 2) for e in sym.terms})]],
                 2, 1)


def test_schur_and_poly_det_leave_no_cyclic_garbage():
    # garbage in a reference cycle lives until a full collection, so a
    # determinant's memo must be freed when poly_det returns
    mat = [[_h_x(2, 1, 1), _h_x(2, 1, 2)], [_h_x(2, 1, 0), _h_x(2, 1, 1)]]
    gc.collect()
    gc.disable()
    try:
        schur(Partition((2, 1)), 3, 0)
        poly_det(mat, 2, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_poly_det_empty_and_identity():
    assert poly_det([], 1, 1) == LaurentPoly.one(1, 1)
    one = LaurentPoly.one(1, 0)
    zero = LaurentPoly.zero(1, 0)
    assert poly_det([[one, zero], [zero, one]], 1, 0) == one


# -- Schur polynomials ---------------------------------------------------------


def test_schur_known_values():
    x1, x2 = var_x(2, 0, 1), var_x(2, 0, 2)
    assert schur(Partition((1,)), 2, 0) == x1 + x2
    assert schur(Partition((1, 1)), 2, 0) == x1 * x2
    assert schur(Partition((2, 1)), 2, 0) == x1 * x2 * (x1 + x2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=0, max_size=3))
def test_schur_det_equals_bialternant(parts):
    # the h-determinant against the bialternant quotient at 2(lam + delta),
    # which is (prod x)^{(k-1)/2} s_lam and is built without any division
    lam = Partition(tuple(sorted(parts, reverse=True)))
    vals = tuple(2 * (p + 2 - i) for i, p in enumerate(lam.padded(3)))
    quotient = {tuple(v - 2 for v in e): c
                for a, c in _alternant_quotient(vals).items()
                for e in distinct_permutations(a)}
    assert schur(lam, 3, 0) == LaurentPoly(3, 0, quotient)


def test_schur_too_long_vanishes():
    assert not schur(Partition((1, 1, 1)), 2, 0)


# -- composite Schur: block determinant against the shift route -------------


def test_composite_schur_examples():
    inv_x1 = LaurentPoly.monomial(2, 0, (-2, 0))
    inv_x2 = LaurentPoly.monomial(2, 0, (0, -2))
    x1, x2 = var_x(2, 0, 1), var_x(2, 0, 2)
    c = CompositePartition(Partition((1,)), Partition())
    expected = inv_x1 + inv_x2
    assert composite_schur_by_det(c, 2, 0) == expected
    assert composite_schur_by_shift(c, 2, 0) == expected
    c = CompositePartition(Partition((1,)), Partition((1,)))
    expected = x1 * inv_x2 + LaurentPoly.one(2, 0) + inv_x1 * x2
    assert composite_schur_by_det(c, 2, 0) == expected
    assert composite_schur_by_shift(c, 2, 0) == expected


def test_composite_schur_requires_standard():
    with pytest.raises(ValueError):
        composite_schur_by_shift(
            CompositePartition(Partition((1,)), Partition((1,))), 1, 0)


def test_composite_schur_shift_vs_det_grid():
    # both routes agree on every m-standard composite with small parts
    for m in (2, 3):
        parts = [Partition(p) for p in
                 [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]]
        for nu in parts:
            for mu in parts:
                c = CompositePartition(nu, mu)
                if not c.is_standard(m):
                    continue
                assert (composite_schur_by_det(c, m, 0)
                        == composite_schur_by_shift(c, m, 0)), c


# -- supersymmetric S-functions -----------------------------------------------


def test_composite_super_schur_single_dual_entry():
    c = CompositePartition(Partition((1,)), Partition())
    assert composite_super_schur(c, 1, 1) == (
        LaurentPoly.monomial(1, 1, (-2, 0)) + LaurentPoly.monomial(1, 1, (0, -2)))


def test_composite_super_schur_empty_is_one():
    c = CompositePartition(Partition(), Partition())
    assert composite_super_schur(c, 2, 1) == LaurentPoly.one(2, 1)


# -- split identities -----------------------------------------------------------


def test_split_assemble_classical_small():
    # sum over 1-subsets x' of (x')^2 s_2(x') s_1(x'') is s_{2,1,0}(x)
    left = schur(Partition((2,)), 1, 0)
    right = schur(Partition((1,)), 2, 0)
    lhs = _split_assemble(3, 0, 1, 2, left, right)
    assert lhs == schur(Partition((2, 1, 0)), 3, 0)


def test_split_sum_classical_rejects_bad_blocks():
    with pytest.raises(ValueError):
        split_classical_factors(3, Partition((1,)), Partition((2,)), 1, 1)
    with pytest.raises(ValueError):
        split_classical_factors(3, Partition((1,)), Partition((2,)), 1, 2)


def test_split_assemble_super_small():
    # nu = (1,), mu = (1,) on gl(2|1): the cut at q = 1 leaves eta empty
    c = CompositePartition(Partition((1,)), Partition((1,)))
    left = composite_super_schur(
        CompositePartition(Partition(), Partition((1,))), 1, 1)
    right = composite_super_schur(
        CompositePartition(Partition((1,)), Partition()), 1, 1)
    lhs = _split_assemble(2, 1, 1, 1, left, right)
    assert lhs == composite_super_schur(c, 2, 1)


def test_split_sum_super_rejects_bad_cut():
    c = CompositePartition(Partition((1,)), Partition((1,)))
    with pytest.raises(ValueError):
        split_super_factors(c, 2, 2, 1)  # needs q < m + 1 - l(mu)


def test_split_assemble_rejects_wrong_arity():
    # on gl(3|n) with p = 1 the head lives on (1|n) and the tail on (2|n)
    one_1, one_2 = LaurentPoly.one(1, 0), LaurentPoly.one(2, 0)
    with pytest.raises(ArityMismatchError):
        _split_assemble(3, 0, 1, 0, one_2, one_2)
    with pytest.raises(ArityMismatchError):
        _split_assemble(3, 0, 1, 0, one_1, one_1)
    with pytest.raises(ArityMismatchError):
        _split_assemble(3, 1, 1, 0, one_1, LaurentPoly.one(2, 1))


def test_split_assemble_rejects_non_symmetric_factor():
    # a left factor on (2|0) that is not symmetric in x' leaves a split
    # numerator that is not antisymmetric: x_1 (x_1 - x_2) has a term
    # with a repeated x' exponent, and x_1^2 (x_1 - x_2) has block-sorted
    # terms whose swapped partners are missing
    x1, right = var_x(2, 0, 1), LaurentPoly.one(1, 0)
    for left in (x1, x1 * x1):
        with pytest.raises(NonzeroRemainder):
            _split_assemble(3, 0, 2, 0, left, right)


def divided_split_sum(m, n, p, power, left, right):
    """The split sum of _split_assemble, summed over every p-subset and
    divided exactly by the full x-Vandermonde."""
    y_slots = tuple(range(1, n + 1))
    vandermonde = LaurentPoly.one(m, n)
    for a, b in combinations(range(1, m + 1), 2):
        vandermonde = vandermonde * (var_x(m, n, a) - var_x(m, n, b))
    total = LaurentPoly.zero(m, n)
    for head in combinations(range(1, m + 1), p):
        tail = tuple(i for i in range(1, m + 1) if i not in head)
        # V(x) is this sign times the block Vandermondes times the
        # cross factors, so the piece over V is the piece over the
        # cross factors prod (x_i - x_j), i in head, j in tail
        piece = LaurentPoly.constant(
            m, n, perm_sign(tuple(i - 1 for i in head + tail)))
        for a, b in combinations(head, 2):
            piece = piece * (var_x(m, n, a) - var_x(m, n, b))
        for a, b in combinations(tail, 2):
            piece = piece * (var_x(m, n, a) - var_x(m, n, b))
        exp2 = [0] * (m + n)
        for i in head:
            exp2[i - 1] = 2 * power
        piece = piece * LaurentPoly.monomial(m, n, exp2)
        total = total + (piece
                         * left.embed(m, n, x_slots=head, y_slots=y_slots)
                         * right.embed(m, n, x_slots=tail, y_slots=y_slots))
    return total.exact_divide(vandermonde)


@pytest.mark.parametrize("m,n,p,power", [
    (2, 0, 1, 0), (3, 0, 1, 2), (3, 1, 2, 1), (4, 1, 2, 2), (4, 2, 1, -1)])
def test_split_assemble_matches_exact_division(m, n, p, power):
    left = _super_h(p, n, 2) * _dual_super_h(p, n, 1)
    right = _super_h(m - p, n, 1) + _super_h(m - p, n, 3)
    assert (_split_assemble(m, n, p, power, left, right)
            == divided_split_sum(m, n, p, power, left, right))


def test_isolate_last_y_reconstruction():
    m, n = 2, 2
    c = CompositePartition(Partition((1,)), Partition((1,)))
    total = LaurentPoly.zero(m, n)
    for piece, y_exp in isolate_last_y(c, n):
        term = composite_super_schur(piece, m, n - 1).embed(
            m, n, x_slots=(1, 2), y_slots=(1,))
        mono = LaurentPoly.monomial(m, n, (0, 0, 0, 2 * y_exp))
        total = total + term * mono
    assert total == composite_super_schur(c, m, n)


def test_division_catches_non_identities():
    # the exact division that tests use as a reference fails loudly on junk
    x1, x2 = var_x(2, 0, 1), var_x(2, 0, 2)
    with pytest.raises(NonzeroRemainder):
        (x1 + 1).exact_divide(x1 - x2)
