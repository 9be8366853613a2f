"""Weights, rho vectors, atypicality, special classes, and the bijection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.combinatorics import CompositePartition, Partition
from superschur.weights import (Weight, atypical_roots, decompose,
                                has_constant_mu, normalize_to_special, phi,
                                phi_inverse, rho0_doubled, special_class,
                                special_violation)


@st.composite
def dominant_weight_strategy(draw, m_max=4, n_max=3, bound=4):
    m = draw(st.integers(1, m_max))
    n = draw(st.integers(1, n_max))
    lam = tuple(sorted((draw(st.integers(-bound, bound)) for _ in range(m)),
                       reverse=True))
    mu = tuple(sorted((draw(st.integers(-bound, bound)) for _ in range(n)),
                      reverse=True))
    return Weight(m, n, lam, mu)


# -- basic weight structure ------------------------------------------------


def test_weight_parse_and_str():
    w = Weight.parse(3, 2, "3, 2, -1; -1, -1")
    assert w.lam == (3, 2, -1) and w.mu == (-1, -1)
    assert str(w) == "3,2,-1;-1,-1"
    with pytest.raises(ValueError):
        Weight.parse(2, 1, "1;0")  # wrong lambda length
    with pytest.raises(ValueError):
        Weight.parse(2, 1, "1,0,0")  # missing separator


def test_dominance():
    assert Weight(2, 1, (1, 0), (0,)).is_dominant()
    assert not Weight(2, 1, (0, 1), (0,)).is_dominant()
    with pytest.raises(ValueError):
        Weight(2, 1, (0, 1), (0,)).require_dominant()


def test_sigma_shift():
    w = Weight(2, 2, (1, 0), (-1, -2))
    assert w.plus_sigma(2) == Weight(2, 2, (3, 2), (-3, -4))
    assert w.plus_sigma(0) == w


def test_rho_vectors():
    # rho0 = ((m-1)/2, ..., (1-m)/2; (n-1)/2, ..., (1-n)/2), doubled
    assert rho0_doubled(3, 2) == (2, 0, -2, 1, -1)
    assert rho0_doubled(2, 0) == (1, -1)


# -- atypicality ------------------------------------------------------------


def test_atypical_roots_worked_example():
    # gl(3|2), (1,0,-1;-1,-2): atypical roots eps_1 - del_2 and eps_2 - del_1
    roots = atypical_roots(Weight(3, 2, (1, 0, -1), (-1, -2)))
    assert set(roots) == {(1, 2), (2, 1)}
    # root order sorts by j - i
    assert roots == ((2, 1), (1, 2))


def test_typical_weight_has_no_atypical_roots():
    assert atypical_roots(Weight(3, 2, (3, 2, -1), (-1, -1))) == ()


@settings(max_examples=100, deadline=None)
@given(dominant_weight_strategy())
def test_atypical_roots_are_orthogonality_pairs(w):
    roots = atypical_roots(w)
    for i, j in roots:
        assert (w.lam[i - 1] + w.m + 1 - i) + (w.mu[j - 1] - j) == 0
    # degree is bounded by min(m, n)
    assert len(roots) <= min(w.m, w.n)


# -- special classes ---------------------------------------------------------


def test_special_class_membership():
    sc = special_class(Weight(3, 2, (3, 2, -1), (-1, -1)))
    assert sc is not None and sc.k == 1
    # the worked atypical example sits in P_1 despite non-constant mu
    sc = special_class(Weight(3, 2, (1, 0, -1), (-1, -2)))
    assert sc is not None and sc.k == 1
    assert special_class(Weight(2, 1, (1, 0), (-3,))) is None  # k > m
    assert special_class(Weight(2, 1, (1, -1), (0,))) is None  # sign condition


def test_special_violation_messages():
    assert special_violation(Weight(3, 2, (3, 2, -1), (-1, -1))) is None
    msg = special_violation(Weight(2, 1, (1, 0), (-3,)))
    assert "0 <= k <= m" in msg
    msg = special_violation(Weight(2, 1, (1, -1), (0,)))
    assert "alpha_{m-k} >= 0 >= alpha_{m-k+1}" in msg


def test_normalize_to_special_requires_constant_mu():
    with pytest.raises(ValueError):
        normalize_to_special(Weight(2, 2, (1, 0), (0, -1)))


def test_normalize_examples():
    j, sc = normalize_to_special(Weight(2, 1, (5, 4), (2,)))
    assert sc.weight == Weight(2, 1, (5 + j, 4 + j), (2 - j,))
    assert special_class(sc.weight).k == sc.k
    j0, sc0 = normalize_to_special(Weight(3, 2, (3, 2, -1), (-1, -1)))
    assert j0 == 0 and sc0.k == 1


@settings(max_examples=150, deadline=None)
@given(dominant_weight_strategy())
def test_normalizing_shift_is_unique(w):
    # exactly one j with w + j*sigma special (the ladder never branches)
    beta = w.mu[0]
    found = []
    for k in range(w.m + 1):
        sc = special_class(w.plus_sigma(beta + k))
        if sc is not None and sc.k == k:
            found.append(beta + k)
    if has_constant_mu(w):
        assert len(found) == 1
        j, sc = normalize_to_special(w)
        assert [j] == found


# -- bijection with composite partitions -------------------------------------


def test_phi_known_values():
    # P_0 weight: nu empty, mu = alpha
    sc = special_class(Weight(2, 1, (2, 1), (0,)))
    assert phi(sc) == CompositePartition(Partition(), Partition((2, 1)))
    # trivial weight of gl(1|1) in P_0
    sc = special_class(Weight(1, 1, (0,), (0,)))
    assert phi(sc) == CompositePartition(Partition(), Partition())
    # the worked atypical example
    sc = special_class(Weight(3, 2, (1, 0, -1), (-1, -2)))
    c = phi(sc)
    assert c.nu == Partition((3, 1)) and c.mu == Partition((1,))


def test_phi_inverse_rejects_overlong_mu():
    with pytest.raises(ValueError):
        phi_inverse(CompositePartition(Partition((2, 2)),
                                       Partition((1, 1, 1))), 3, 2)


@settings(max_examples=150, deadline=None)
@given(dominant_weight_strategy(bound=3))
def test_phi_roundtrip_on_specials(w):
    sc = special_class(w)
    if sc is None:
        return
    c = phi(sc)
    # image lies in Q_k: mu fits above the dual block and nu'_n = k
    assert c.mu.length <= w.m - sc.k
    assert sum(1 for p in c.nu.parts if p >= w.n) == sc.k
    assert phi_inverse(c, w.m, w.n).weight == w


# -- head/tail decomposition ---------------------------------------------------


def test_decompose_reassembly():
    sc = special_class(Weight(3, 2, (1, 0, -1), (-1, -2)))
    head, tail = decompose(sc)
    assert head == Weight(2, 2, (1, 0), (0, -1))
    assert tail == Weight(1, 2, (-1,), (-1, -1))
    assert head.lam + tail.lam == sc.weight.lam
    assert tuple(a + b for a, b in zip(head.mu, tail.mu)) == sc.weight.mu


@settings(max_examples=100, deadline=None)
@given(dominant_weight_strategy(bound=3))
def test_decompose_head_is_p0(w):
    sc = special_class(w)
    if sc is None:
        return
    head, tail = decompose(sc)
    if head.m:
        hc = special_class(head)
        assert hc is not None and hc.k == 0
    assert tail.mu == (-sc.k,) * w.n
