"""The block determinant route and its agreement with the alternating sum.

The 3x3 matrix for gl(3|2), (3,2,-1;-1,-1) is frozen label-for-label:
    | hbar_3  h_2  h_0 |
    | hbar_2  h_3  h_1 |
    | hbar_1  h_4  h_2 |
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.characters import su_zhang_char, typical_constant_delta_char
from superschur.jacobi_trudi import (character, dimension, general_char,
                                     jt_matrix, jt_matrix_labels)
from superschur.laurent import LaurentPoly
from superschur.symfunc import _dual_super_h, _super_h
from superschur.weights import Weight, special_class
from reference import weyl_dimension
from test_symfunc import brute_det


GOLDEN = Weight(3, 2, (3, 2, -1), (-1, -1))


@st.composite
def constant_delta_weight_strategy(draw, m_max=3, n_max=2, bound=3):
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(1, n_max))
    lam = tuple(sorted((draw(st.integers(-bound, bound)) for _ in range(m)),
                       reverse=True))
    mu = (draw(st.integers(-bound, bound)),) * n
    return Weight(m, n, lam, mu)


# -- the frozen 3x3 matrix ---------------------------------------------------


def test_golden_matrix_labels():
    sc = special_class(GOLDEN)
    assert sc is not None and sc.k == 1
    assert jt_matrix_labels(sc) == [
        ["hbar_3", "h_2", "h_0"],
        ["hbar_2", "h_3", "h_1"],
        ["hbar_1", "h_4", "h_2"],
    ]


def test_golden_matrix_entries_expand_generators():
    sc = special_class(GOLDEN)
    for row, lrow in zip(jt_matrix(sc), jt_matrix_labels(sc)):
        for entry, label in zip(row, lrow):
            kind, r = label.split("_")
            generator = _super_h if kind == "h" else _dual_super_h
            assert entry == generator(3, 2, int(r))


def test_golden_determinant_equals_both_other_routes():
    sc = special_class(GOLDEN)
    det = general_char(sc.weight)
    assert det == brute_det(jt_matrix(sc), 3, 2)
    assert det == su_zhang_char(GOLDEN)
    assert det == typical_constant_delta_char(GOLDEN)


def test_typical_gl43_determinant_equals_typical_route():
    # the entries cancel down to 8,471 terms
    w = Weight(4, 3, (5, 4, 3, 3), (0, 0, 0))
    assert general_char(w) == typical_constant_delta_char(w)


def test_golden_dimension():
    assert weyl_dimension((3, 2, -1)) == 24
    assert dimension(GOLDEN) == 2 ** 6 * 24 == 1536
    assert dimension(GOLDEN, "suzhang") == 1536
    assert dimension(GOLDEN, "typical") == 1536


@pytest.mark.parametrize("w", [
    Weight(4, 3, (4, 2, 0, -3), (-1, -1, -1)),   # a ladder weight
    # a twisted grid class: twice sigma from a typical special weight
    Weight(4, 3, (7, 6, 5, 5), (-2, -2, -2)),
], ids=str)
def test_dimension_is_the_determinant_at_one(w):
    # jt takes the determinant at x = y = 1; the expansion must agree
    assert dimension(w) == character(w).sum_of_coefficients()


def test_dimension_without_expanding_gl54():
    # the coefficients of the expanded character sum to the same value
    w = Weight(5, 4, (3, 2, 1, 0, -2), (-2, -2, -2, -2))
    assert dimension(w) == 640569600


@pytest.mark.parametrize("w,cap", [
    (Weight(2, 2, (1, 0), (0, -1)), None),   # delta-part not constant
    (GOLDEN, 5),                             # Weyl group size 12 > 5
    (Weight(2, 2, (1, 0), (0, -1)), 1),      # both: the weight is first
], ids=["non-constant-delta", "cap", "both"])
def test_dimension_refuses_as_character_does(w, cap):
    with pytest.raises(Exception) as expected:
        character(w, cap=cap)
    with pytest.raises(expected.type) as got:
        dimension(w, cap=cap)
    assert got.type is expected.type
    assert str(got.value) == str(expected.value)


# -- small hand-checked determinants ------------------------------------------


def test_k1_two_by_two_indices():
    # gl(2|1), (0,-1;-1) lies in P_1; the index grid follows the formula
    sc = special_class(Weight(2, 1, (0, -1), (-1,)))
    assert sc is not None and sc.k == 1
    assert jt_matrix_labels(sc) == [["hbar_2", "h_-1"], ["hbar_1", "h_0"]]
    assert general_char(sc.weight) == su_zhang_char(sc.weight)


def test_p0_matrix_is_classical_shape():
    # k = 0: pure h-block with the usual h_{alpha_j + i - j} pattern
    sc = special_class(Weight(2, 1, (2, 1), (0,)))
    assert sc.k == 0
    assert jt_matrix_labels(sc) == [["h_2", "h_0"], ["h_3", "h_1"]]


def test_requires_constant_delta():
    sc = special_class(Weight(3, 2, (1, 0, -1), (-1, -2)))
    assert sc is not None  # in P_1, but mu is not constant
    with pytest.raises(ValueError):
        general_char(sc.weight)
    with pytest.raises(ValueError):
        general_char(Weight(2, 2, (1, 0), (0, -1)))


# -- the sigma-shift wrapper -----------------------------------------------------


def test_general_char_shift_known_value():
    # (j,...,j;-j,...,-j) is a monomial for any j
    w = Weight(2, 1, (-2, -2), (2,))
    assert general_char(w) == LaurentPoly.monomial(2, 1, (-4, -4, 4))


def test_sigma_shift_orientation():
    # gl(1|1), (-1;0) is not special: general_char shifts it by sigma
    w = Weight(1, 1, (-1,), (0,))
    assert general_char(w) == su_zhang_char(w)


def test_general_char_requires_dominant():
    with pytest.raises(ValueError):
        general_char(Weight(2, 1, (0, 1), (0,)))


@settings(max_examples=30, deadline=None)
@given(constant_delta_weight_strategy())
def test_general_char_matches_alternating_sum(w):
    assert general_char(w) == su_zhang_char(w)


# -- dispatch ----------------------------------------------------------------------


def test_character_dispatch_routes_agree_on_golden():
    polys = [character(GOLDEN, meth)
             for meth in ("jt", "suzhang", "typical", "reduction")]
    assert all(p == polys[0] for p in polys)


def test_character_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        character(GOLDEN, "nope")


def test_reduction_dispatch_names_violated_hypothesis():
    with pytest.raises(ValueError, match="0 <= k <= m"):
        character(Weight(2, 1, (1, 0), (-3,)), "reduction")
    with pytest.raises(ValueError, match="alpha_{m-k}"):
        character(Weight(2, 1, (1, -1), (0,)), "reduction")


def test_weyl_dimension_values():
    assert weyl_dimension((0,)) == 1
    assert weyl_dimension((1, 0)) == 2
    assert weyl_dimension((2, 1, 0)) == 8
    assert weyl_dimension(()) == 1
