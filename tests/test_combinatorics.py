"""Partitions, composite partitions and cycle types."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superschur.combinatorics import (CompositePartition,
                                      CycleTypePermutation, Partition,
                                      enumerate_cycle_types)


@st.composite
def partition_strategy(draw, max_len=5, max_part=6):
    k = draw(st.integers(0, max_len))
    parts = sorted((draw(st.integers(1, max_part)) for _ in range(k)),
                   reverse=True)
    return Partition(tuple(parts))


# -- partitions ----------------------------------------------------------


def test_partition_basics():
    p = Partition((3, 1))
    assert p.length == 2 and p.size == 4
    assert p.part(1) == 3 and p.part(2) == 1 and p.part(3) == 0
    assert p.padded(4) == (3, 1, 0, 0)
    assert Partition().length == 0


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_conjugate_known_values():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert Partition((2, 2)).conjugate() == Partition((2, 2))
    assert Partition().conjugate() == Partition()


@settings(max_examples=80, deadline=None)
@given(partition_strategy())
def test_conjugate_is_an_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().size == p.size


@settings(max_examples=80, deadline=None)
@given(partition_strategy())
def test_conjugate_counts_columns(p):
    conj = p.conjugate()
    for j in range(1, p.part(1) + 1):
        assert conj.part(j) == sum(1 for v in p.parts if v >= j)


def test_partition_parse_str_roundtrip():
    assert Partition.parse("3,1") == Partition((3, 1))
    assert Partition.parse("0") == Partition()
    assert str(Partition((2, 1))) == "2,1"
    assert str(Partition()) == "0"


# -- composite partitions --------------------------------------------------


def test_composite_standardness():
    c = CompositePartition(Partition((2, 1)), Partition((3,)))
    assert c.is_standard(3) and not c.is_standard(2)
    # nu_{m - l(mu) + 1} <= n with m=3: nu_3 = 0 <= n always
    assert c.is_super_standard(3, 1)
    deep = CompositePartition(Partition((2, 2, 2)), Partition((1,)))
    # with m=3 and l(mu)=1 the check reads nu_3 = 2
    assert deep.is_super_standard(3, 2)
    assert not deep.is_super_standard(3, 1)


def test_composite_parse_str_roundtrip():
    c = CompositePartition.parse("2,1|3")
    assert c.nu == Partition((2, 1)) and c.mu == Partition((3,))
    assert str(c) == "2,1|3"
    assert str(CompositePartition.parse("1|0")) == "1|0"
    with pytest.raises(ValueError):
        CompositePartition.parse("2,1")


# -- cycle types -----------------------------------------------------------


def test_enumerate_cycle_types_counts():
    # one permutation per composition of r
    for r in range(0, 6):
        expected = 1 if r == 0 else 2 ** (r - 1)
        assert len(enumerate_cycle_types(r)) == expected


def test_cycle_permutation_one_line_form():
    ct = CycleTypePermutation.from_blocks((2, 1))
    assert ct.perm == (1, 0, 2)
    assert ct.length == 1
    ct3 = CycleTypePermutation.from_blocks((3,))
    assert ct3.perm == (1, 2, 0)
    assert ct3.length == 2


def test_cycle_weights_frozen_values():
    # weights r! * prod_j (P_{j-1} + 1) / P_j over prefix sums P_j
    expected = {
        (1,): 1,
        (1, 1): 2, (2,): 1,
        (1, 1, 1): 6, (2, 1): 3, (1, 2): 4, (3,): 2,
        (1, 1, 1, 1): 24, (2, 1, 1): 12, (1, 2, 1): 16, (1, 1, 2): 18,
        (3, 1): 8, (1, 3): 12, (2, 2): 9, (4,): 6,
    }
    for blocks, mult in expected.items():
        assert CycleTypePermutation.from_blocks(blocks).multiplicity == mult


def test_cycle_weights_sum_to_r_factorial_times_harmonic_pattern():
    # the single-cycle weight is (r-1)! and all-singletons weight is r!
    for r in range(1, 6):
        cts = {ct.blocks: ct for ct in enumerate_cycle_types(r)}
        assert cts[(r,)].multiplicity == factorial(r - 1)
        assert cts[(1,) * r].multiplicity == factorial(r)


def test_cycle_length_is_r_minus_block_count():
    for ct in enumerate_cycle_types(4):
        assert ct.length == 4 - len(ct.blocks)
