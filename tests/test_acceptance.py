"""Acceptance gate: eight end-to-end criteria, one test (= one pass/fail
line under pytest -v) per criterion.  Everything is exact polynomial
equality; runtime budgets are asserted where a criterion carries one.
"""

import json
import random
import time
import pytest

from superschur.characters import (dot_action, lexical_raise_weight,
                                   reduction_char, su_zhang_char,
                                   typical_constant_delta_char)
from superschur.cli import main
from superschur.combinatorics import CompositePartition, Partition
from superschur.jacobi_trudi import general_char
from superschur.verify import GridSpec, _dominant_tuples, run_suite
from superschur.weights import (Weight, atypical_roots, decompose,
                                normalize_to_special, phi, phi_inverse,
                                special_class)

from reference import act_permutation, composite_schur_by_shift, weyl_dimension
from test_symfunc import composite_schur_by_det

GOLDEN = Weight(3, 2, (3, 2, -1), (-1, -1))
WORKED = Weight(3, 2, (1, 0, -1), (-1, -2))


def test_criterion_1_golden_example(capsys):
    start = time.time()
    code = main(["char", "--m", "3", "--n", "2", "--weight", "3,2,-1;-1,-1",
                 "--method", "jt", "--emit-matrix"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matrix:"
    assert lines[1].split() == ["hbar_3", "h_2", "h_0"]
    assert lines[2].split() == ["hbar_2", "h_3", "h_1"]
    assert lines[3].split() == ["hbar_1", "h_4", "h_2"]
    jt = general_char(GOLDEN)
    assert jt == su_zhang_char(GOLDEN)
    assert jt == typical_constant_delta_char(GOLDEN)
    assert time.time() - start < 5.0


def test_criterion_2_worked_atypical_replay():
    start = time.time()
    roots = atypical_roots(WORKED)
    assert set(roots) == {(1, 2), (2, 1)}
    swap = (1, 0)
    assert lexical_raise_weight(dot_action(swap, WORKED, roots), roots) == \
        Weight(3, 2, (-1, 0, -1), (-1, 0))
    sc = special_class(WORKED)
    head, _ = decompose(sc)
    hroots = atypical_roots(head)
    assert lexical_raise_weight(dot_action(swap, head, hroots), hroots) == \
        Weight(2, 2, (-1, 0), (0, 1))
    assert reduction_char(sc) == su_zhang_char(WORKED)
    assert time.time() - start < 10.0


def test_criterion_3_determinant_differential_suite():
    start = time.time()
    # exhaustive constant-delta grid m <= 3, n <= 2, |entry| <= 3
    (report,) = run_suite("jt-vs-oracle", GridSpec(3, 2, 3))
    assert report["failures"] == []
    assert report["cases"] >= 1000
    # 200 seeded random cases at m = 4, n = 3, |entry| <= 4
    rng = random.Random(20240823)
    for _ in range(200):
        lam = tuple(sorted((rng.randint(-4, 4) for _ in range(4)),
                           reverse=True))
        beta = rng.randint(-4, 4)
        w = Weight(4, 3, lam, (beta,) * 3)
        assert general_char(w) == su_zhang_char(w), f"disagreement at {w}"
    assert time.time() - start < 600.0


def test_criterion_4_identity_suites():
    start = time.time()
    (rho,) = run_suite("rho", GridSpec(m_max=4, n_max=3))
    assert rho["failures"] == []
    (classical,) = run_suite("split-classical", GridSpec(4, 0, 3))
    assert classical["failures"] == []
    (isolate,) = run_suite("isolate-y", GridSpec(3, 2, 3))
    assert isolate["failures"] == []
    (split_super,) = run_suite("split-super", GridSpec(4, 2, 3))
    assert split_super["failures"] == []
    # determinant route vs shift route for composite Schur polynomials
    for m in range(2, 5):
        parts = [Partition(p) for p in
                 [(), (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1)]]
        for nu in parts:
            for mu in parts:
                c = CompositePartition(nu, mu)
                if c.is_standard(m):
                    assert (composite_schur_by_det(c, m, 0)
                            == composite_schur_by_shift(c, m, 0)), c
    assert time.time() - start < 300.0


def test_criterion_5_lexical_raise_oracle():
    (report,) = run_suite("raise-oracle", GridSpec(4, 3, 4), seed=7)
    # the suite asserts both agreement and uniqueness of the cone maximum
    assert report["cases"] >= 500
    assert report["failures"] == []


def test_criterion_6_structural_invariants():
    weights = [GOLDEN, WORKED]
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        for alpha in _dominant_tuples(m, 2):
            for beta in (-1, 0, 1):
                weights.append(Weight(m, n, alpha, (beta,) * n))
    for w in weights:
        ch = su_zhang_char(w)
        assert all(isinstance(c, int) and c > 0 for c in ch.terms.values())
        assert ch.terms.get(w.doubled(), 0) == 1
        dim = ch.sum_of_coefficients()
        assert isinstance(dim, int) and dim >= 1
        if w.m > 1:
            assert act_permutation(
                ch, wx=(1, 0) + tuple(range(2, w.m))) == ch
        if w.n > 1:
            assert act_permutation(
                ch, wy=(1, 0) + tuple(range(2, w.n))) == ch
        if not atypical_roots(w) and len(set(w.mu)) == 1:
            assert dim == 2 ** (w.m * w.n) * weyl_dimension(w.lam)
    # the golden weight's dimension, by the formula: 2^6 * 24 = 1536
    assert su_zhang_char(GOLDEN).sum_of_coefficients() == 1536


def test_criterion_7_bijection_and_reassembly():
    (report,) = run_suite("phi-roundtrip", GridSpec(3, 2, 3))
    assert report["failures"] == []
    assert report["cases"] >= 1000
    # the normalizing shift is unique on the same grid
    for m in range(1, 4):
        for n in range(1, 3):
            for alpha in _dominant_tuples(m, 3):
                for beta in range(-3, 4):
                    w = Weight(m, n, alpha, (beta,) * n)
                    found = [j for j in range(beta, beta + m + 1)
                             if (sc := special_class(w.plus_sigma(j)))
                             is not None and sc.k == j - beta]
                    j, _ = normalize_to_special(w)
                    assert found == [j]
    # head/tail reassembly on the worked example, exactly
    sc = special_class(WORKED)
    head, tail = decompose(sc)
    assert head.lam + tail.lam == WORKED.lam
    assert tuple(a + b for a, b in zip(head.mu, tail.mu)) == WORKED.mu
    assert phi_inverse(phi(sc), 3, 2).weight == WORKED


def test_criterion_8_rank_one_odd_completeness():
    for m in (2, 3):
        for alpha in _dominant_tuples(m, 3):
            for beta in range(-3, 4):
                w = Weight(m, 1, alpha, (beta,))
                assert general_char(w) == su_zhang_char(w), \
                    f"disagreement at {w}"
