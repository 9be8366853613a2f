"""Exact Laurent-polynomial arithmetic, division, and substitutions."""

import json
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superschur.cli import _canonical
from superschur.laurent import (ArityMismatchError, ExponentCodec,
                                LaurentPoly, NonzeroRemainder, add_products,
                                order_key, perm_sign)

from reference import (act_permutation, alternating_sum, evaluate, var_x,
                       var_y)


@st.composite
def poly_strategy(draw, m=2, n=1, max_terms=5, max_exp=3):
    """Random integer Laurent polynomials on a fixed small alphabet."""
    count = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(count):
        e = tuple(2 * draw(st.integers(-max_exp, max_exp))
                  for _ in range(m + n))
        c = draw(st.integers(-9, 9))
        if c:
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly(m, n, terms)


@st.composite
def wide_poly_strategy(draw):
    """Polynomials of any arity, with odd doubled exponents and
    coefficients of either sign beyond 2**64."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0 if m else 1, 3))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(-7, 7)] * (m + n)),
        st.integers(-2**70, 2**70).filter(bool), max_size=8))
    return LaurentPoly(m, n, terms)


@st.composite
def point_strategy(draw, m=2, n=1):
    """Nonzero rational evaluation points."""
    def nonzero():
        v = draw(st.integers(-7, 7).filter(lambda t: t != 0))
        d = draw(st.integers(1, 4))
        return Fraction(v, d)
    return [nonzero() for _ in range(m)], [nonzero() for _ in range(n)]


# -- construction and normalization ------------------------------------


def test_zero_one_monomial():
    z = LaurentPoly.zero(2, 1)
    assert not z and len(z) == 0
    assert LaurentPoly.one(2, 1).terms == {(0, 0, 0): 1}
    assert LaurentPoly.monomial(2, 1, (2, 0, -1), 3).terms == {(2, 0, -1): 3}
    assert LaurentPoly.constant(2, 1, 0).terms == {}


def test_zero_coefficients_are_dropped():
    p = LaurentPoly(1, 1, {(2, 0): 0, (0, 2): 3})
    assert p.terms == {(0, 2): 3}


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatchError):
        LaurentPoly(2, 1, {(2, 0): 1})
    with pytest.raises(ArityMismatchError):
        LaurentPoly.one(2, 1) + LaurentPoly.one(1, 1)


def test_order_key_graded_lex():
    assert order_key((2, 0)) > order_key((0, 0))
    assert order_key((2, 0)) > order_key((0, 2))  # same degree, x first
    assert order_key((0, 4)) > order_key((2, 0))  # degree dominates


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def test_pack_unpack_roundtrip():
    codec = ExponentCodec(2, 1, 5, 2)
    for e in [(0, 0, 0), (5, -5, 3), (-5, -5, -5)]:
        assert codec.unpack(codec.pack(e)) == e
    # a sum of two encodings carries a double bias
    a, b = (3, -2, 1), (-4, 5, 0)
    k = codec.pack(a) + codec.pack(b)
    assert codec.unpack(k, 2) == (-1, 3, 1)


def test_codec_fields_grow_by_whole_bytes():
    assert ExponentCodec(2, 1, 5, 2).shift == 8
    assert ExponentCodec(2, 1, 60, 3).shift == 16
    big = 2 * 10 ** 21
    codec = ExponentCodec(1, 1, big, 2)
    k = codec.pack((big, -big)) + codec.pack((-big, 2))
    assert codec.unpack(k, 2) == (0, 2 - big)


def test_sort_blocks_sorts_each_block_and_keeps_the_bias():
    codec = ExponentCodec(3, 2, 300, 2)
    k = codec.pack((4, -300, 2, 6, -6)) + codec.pack((0, 2, 0, 0, 0))
    assert codec.unpack(codec.sort_blocks(k), 2) == (-298, 2, 4, -6, 6)


def test_add_products_accumulates_signed_products():
    codec = ExponentCodec(1, 0, 3, 2)
    pack = codec.pack
    # 4x^2 - (2x + x^-1)(x + 2x^3): the x^2 sum cancels and stays as 0
    acc = {pack((1,)) + pack((1,)): 4}
    add_products(acc, {pack((1,)): 2, pack((-1,)): 1},
                 {pack((1,)): 1, pack((3,)): 2}, -1)
    assert {codec.unpack(k, 2): c for k, c in acc.items()} == {
        (2,): 0, (4,): -4, (0,): -1}


# -- arithmetic against the evaluation homomorphism --------------------


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), point_strategy())
def test_add_mul_match_evaluation(a, b, pt):
    xs, ys = pt
    va, vb = evaluate(a, xs, ys), evaluate(b, xs, ys)
    assert evaluate(a + b, xs, ys) == va + vb
    assert evaluate(a * b, xs, ys) == va * vb
    assert evaluate(a - b, xs, ys) == va - vb


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


def test_scalar_arithmetic():
    p = var_x(1, 0, 1)
    assert (p + 1) - 1 == p
    assert 3 * p == p + p + p
    assert (2 - p) == -(p - 2)
    # coefficients are ints: other scalars are not LaurentPoly operands
    for other in (Fraction(1, 2), 0.5):
        for op in (lambda: p + other, lambda: other - p, lambda: other * p):
            with pytest.raises(TypeError):
                op()


# -- exact division -----------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_exact_divide_roundtrip(a, b):
    if not b:
        return
    assert (a * b).exact_divide(b) == a


def test_exact_divide_factor_list():
    m, n = 2, 0
    x1, x2 = var_x(m, n, 1), var_x(m, n, 2)
    prod = (x1 - x2) * (x1 + x2) * (x1 * x2 - 1)
    assert prod.exact_divide([x1 - x2, x1 + x2]) == x1 * x2 - 1


def test_nonzero_remainder_raises():
    x1, x2 = var_x(2, 0, 1), var_x(2, 0, 2)
    with pytest.raises(NonzeroRemainder):
        (x1 + 1).exact_divide(x1 - x2)


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.one(1, 0).exact_divide(LaurentPoly.zero(1, 0))


# -- the reference symmetry actions and substitutions ----------------------


@settings(max_examples=30, deadline=None)
@given(poly_strategy(), point_strategy())
def test_act_permutation_matches_point_permutation(p, pt):
    xs, ys = pt
    swapped = act_permutation(p, wx=(1, 0))
    assert evaluate(swapped, [xs[1], xs[0]], ys) == evaluate(p, xs, ys)


def test_alternating_sum_is_antisymmetric():
    p = LaurentPoly.monomial(2, 0, (4, 0))
    alt = alternating_sum(p, [("x", (1, 2))])
    assert alt == LaurentPoly(2, 0, {(4, 0): 1, (0, 4): -1})
    # a symmetric exponent is killed
    q = LaurentPoly.monomial(2, 0, (2, 2))
    assert not alternating_sum(q, [("x", (1, 2))])


def test_alternating_sum_brute_force_s3():
    from itertools import permutations
    p = LaurentPoly.monomial(3, 0, (4, 2, 0))
    alt = alternating_sum(p, [("x", (1, 2, 3))])
    brute = LaurentPoly.zero(3, 0)
    for w in permutations(range(3)):
        brute = brute + perm_sign(w) * act_permutation(p, wx=w)
    assert alt == brute


def test_invert_variables_involution():
    p = LaurentPoly(1, 1, {(2, -4): 3, (0, 2): -1})
    assert p.invert_variables().invert_variables() == p
    assert p.invert_variables().terms.get((-2, 4), 0) == 3


def test_embed_places_variables():
    p = var_x(1, 1, 1) * var_y(1, 1, 1)
    big = p.embed(3, 2, x_slots=(2,), y_slots=(2,))
    assert big == var_x(3, 2, 2) * var_y(3, 2, 2)
    with pytest.raises(ValueError):
        LaurentPoly.one(2, 0).embed(3, 0, x_slots=(1, 1))
    x1 = var_x(1, 0, 1)
    for m, n, slot in [(1, 1, 2), (2, 0, 0), (2, 0, 3)]:
        with pytest.raises(ValueError, match="slots must lie"):
            x1.embed(m, n, x_slots=(slot,))
    with pytest.raises(ValueError, match="slots must lie"):
        var_y(0, 1, 1).embed(1, 1, y_slots=(2,))


def test_sum_of_coefficients_is_all_ones_evaluation():
    p = LaurentPoly(2, 1, {(2, 0, -2): 3, (0, 0, 0): -1})
    assert p.sum_of_coefficients() == evaluate(p, [1, 1], [1]) == 2


# -- serialization and display -------------------------------------------


@settings(max_examples=30, deadline=None)
@given(poly_strategy())
def test_json_roundtrip(p):
    # the CLI writes _canonical(p); the text keeps every term
    data = json.loads(_canonical(p))
    assert data["arity"] == [p.m, p.n]
    assert LaurentPoly(p.m, p.n, {tuple(t["exp2"]): int(t["coeff"])
                                  for t in data["terms"]}) == p


def test_json_is_canonical():
    p = LaurentPoly(1, 1, {(2, 0): 1, (0, 2): 2})
    q = LaurentPoly(1, 1, {(0, 2): 2, (2, 0): 1})
    assert _canonical(p) == _canonical(q)


def _by_order_key(p):
    return sorted(p.terms.items(), key=lambda t: order_key(t[0]),
                  reverse=True)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _per_term_json(p):
    return {"arity": [p.m, p.n],
            "terms": [{"coeff": str(c), "exp2": list(e)}
                      for e, c in _by_order_key(p)]}


@settings(max_examples=60, deadline=None)
@given(wide_poly_strategy())
@example(LaurentPoly.zero(2, 1))
@example(LaurentPoly(3, 0, {(1, -3, 0): 2**64 + 1, (0, 0, 0): -1}))
@example(LaurentPoly(0, 2, {(-1, 3): -2**65, (3, -1): 7, (2, 0): 1}))
def test_canonical_writes_polynomials_as_per_term_dicts(p):
    ref = _per_term_json(p)
    assert _canonical(p) == _dumps(ref)
    assert _dumps(p.to_json_dict()) == _dumps(ref)
    # a polynomial inside a dict is written the same way
    assert (_canonical({"poly": p, "label": "n/a", "rows": [[1, "h_2"]]})
            == _dumps({"poly": ref, "label": "n/a", "rows": [[1, "h_2"]]}))


@st.composite
def orbit_reps_strategy(draw):
    """(m, n, reps): orbit representatives of any arity, each block
    sorted descending, with odd doubled exponents and coefficients of
    either sign beyond 2**64."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    raw = draw(st.dictionaries(
        st.tuples(*[st.integers(-5, 5)] * (m + n)),
        st.integers(-2**70, 2**70).filter(bool), max_size=6))
    return m, n, {tuple(sorted(e[:m], reverse=True))
                  + tuple(sorted(e[m:], reverse=True)): c
                  for e, c in raw.items()}


@settings(max_examples=80, deadline=None)
@given(orbit_reps_strategy())
@example((2, 1, {}))
@example((3, 0, {(3, 1, -1): 2**64 + 1, (0, 0, 0): -1}))
@example((0, 2, {(1, -3): -2**65, (2, 2): 7, (0, 0): 1}))
@example((1, 0, {(4,): -3}))
@example((0, 1, {(-1,): 2**70}))
@example((2, 2, {(3, 3, 1, -1): -1, (5, -5, 0, 0): 2**65, (4, 0, 2, -2): 2}))
def test_canonical_writes_orbits_as_per_term_dicts(case):
    m, n, reps = case
    p = LaurentPoly.from_orbits(m, n, reps)
    # every orbit is written whole, with its representative's coefficient
    assert p.terms == {xs + ys: c for e, c in reps.items()
                       for xs in set(permutations(e[:m]))
                       for ys in set(permutations(e[m:]))}
    assert p.orbits == reps
    text = _canonical(p)
    assert text == _dumps(_per_term_json(p))
    assert text == _canonical(LaurentPoly(m, n, p.terms))
    assert (_canonical({"poly": p, "label": "n/a"})
            == _dumps({"poly": _per_term_json(p), "label": "n/a"}))


@pytest.mark.parametrize("m,n,reps", [
    (2, 1, {(0, 2, 0): 1}),
    (2, 2, {(2, 0, 0, 2): 1}),
    (2, 1, {(2, 0, 0): 1, (0, 0, 0): 0}),
], ids=["x-block-unsorted", "y-block-unsorted", "zero-coefficient"])
def test_from_orbits_rejects_bad_representatives(m, n, reps):
    with pytest.raises(ValueError):
        LaurentPoly.from_orbits(m, n, reps)


def test_operations_drop_orbits():
    p = LaurentPoly.from_orbits(2, 1, {(2, 0, 0): 1})
    assert p.orbits == {(2, 0, 0): 1}
    assert all(q.orbits is None
               for q in (p + p, p * p, -p, 3 * p, p.invert_variables()))


@settings(max_examples=60, deadline=None)
@given(wide_poly_strategy())
def test_sorted_terms_follows_order_key(p):
    assert p.sorted_terms() == _by_order_key(p)


def test_str_rendering():
    m, n = 2, 1
    x1, y1 = var_x(m, n, 1), var_y(m, n, 1)
    assert str(LaurentPoly.zero(m, n)) == "0"
    assert str(x1 * x1 - 2 * y1) == "x1^2 - 2*y1"
    assert str(LaurentPoly.monomial(m, n, (-2, 0, 0))) == "x1^-1"


def test_leading_trailing():
    p = LaurentPoly(2, 0, {(4, 0): 1, (0, 0): 5, (-2, 0): 7})
    assert p.leading() == ((4, 0), 1)
    assert p.trailing() == ((-2, 0), 7)
    with pytest.raises(ValueError):
        LaurentPoly.zero(1, 0).leading()
