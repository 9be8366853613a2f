"""Partitions, composite partitions and block-cycle permutations."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of nonnegative ints, trailing zeros trimmed."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @property
    def length(self):
        return len(self.parts)

    @property
    def size(self):
        return sum(self.parts)

    def part(self, i):
        """The i-th part, 1-based; zero beyond the length."""
        if i < 1:
            raise IndexError("part index is 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def conjugate(self):
        if not self.parts:
            return Partition()
        cols = self.parts[0]
        return Partition(tuple(sum(1 for p in self.parts if p >= j)
                               for j in range(1, cols + 1)))

    def padded(self, length):
        if length < self.length:
            raise ValueError("padding shorter than the partition")
        return self.parts + (0,) * (length - self.length)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if not text or text == "0":
            return cls()
        return cls(tuple(int(t) for t in text.split(",")))

    def __str__(self):
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


@dataclass(frozen=True)
class CompositePartition:
    """A pair of partitions nu (inverted side) and mu (straight side)."""

    nu: Partition
    mu: Partition

    def is_standard(self, m):
        """l(nu) + l(mu) <= m."""
        return self.nu.length + self.mu.length <= m

    def is_super_standard(self, m, n):
        """nu_{m-l(mu)+1} <= n, with nu_i read as 0 beyond l(nu); no
        constraint when l(mu) > m, where `is_standard` fails."""
        i = m - self.mu.length + 1
        return i < 1 or self.nu.part(i) <= n

    @classmethod
    def parse(cls, text):
        if "|" not in text:
            raise ValueError("composite partition must be 'nu|mu'")
        nu_s, mu_s = text.split("|", 1)
        return cls(Partition.parse(nu_s), Partition.parse(mu_s))

    def __str__(self):
        return f"{self.nu}|{self.mu}"


@dataclass(frozen=True)
class CycleTypePermutation:
    """Permutation of 1..r made of cycles on consecutive blocks.

    A composition (i_1, ..., i_t) of r cuts 1..r into consecutive
    blocks; each block (a, a+1, ..., b) becomes the cycle sending a to
    a+1, ..., b to a.  perm holds 0-based one-line images.

    multiplicity is the integer weight r! * prod_j (P_{j-1} + 1) / P_j,
    where P_j = i_1 + ... + i_j are the prefix sums (P_0 = 0).  Blocks
    of size one contribute a factor of one; a single r-cycle gets
    r!/r = (r-1)!.  These weights were solved for exactly - uniquely,
    and weight-independently - from the block-determinant characters of
    r <= 3 modules and the trivial r = 4 module, and are pinned by the
    same differential tests.
    """

    blocks: tuple[int, ...]
    perm: tuple[int, ...]
    multiplicity: int
    length: int

    @classmethod
    def from_blocks(cls, blocks):
        r = sum(blocks)
        perm = list(range(r))
        start = 0
        for b in blocks:
            for i in range(b - 1):
                perm[start + i] = start + i + 1
            perm[start + b - 1] = start
            start += b
        num = factorial(r)
        den = 1
        prefix = 0
        for b in blocks:
            num *= prefix + 1
            prefix += b
            den *= prefix
        mult, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(
                f"non-integral cycle weight for blocks {blocks}")
        return cls(tuple(blocks), tuple(perm), mult, r - len(blocks))


def enumerate_cycle_types(r):
    """All block-cycle permutations of 1..r, one per composition of r.

    For r = 0 the single empty permutation is returned.
    """
    if r == 0:
        return [CycleTypePermutation((), (), 1, 0)]
    out = []
    for mask in range(1 << (r - 1)):
        blocks = []
        last = 0
        for pos in range(1, r):
            if mask & (1 << (pos - 1)):
                blocks.append(pos - last)
                last = pos
        blocks.append(r - last)
        out.append(CycleTypePermutation.from_blocks(tuple(blocks)))
    return out
