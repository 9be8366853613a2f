"""Complete symmetric functions and their supersymmetric analogues,
Schur and composite S-function determinants, and last-y-variable
isolation.

All functions are exact LaurentPoly computations on explicit finite
alphabets x_1..x_m, y_1..y_n.  The complete functions h_r(x) and
h_r(x/y) are built by `LaurentPoly.from_orbits` from their S_m x S_n
orbit representatives, and `poly_det` works at representatives too.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .combinatorics import CompositePartition, Partition
from .laurent import (ExponentCodec, LaurentPoly, NonzeroRemainder,
                      add_products, orbit_size, perm_sign)


def x_vandermonde_polys(m, n, slots):
    """Binomials x_a - x_b over ordered pairs of the given 1-based x-slots."""
    slots = list(slots)
    out = []
    for ai in range(len(slots)):
        for bi in range(ai + 1, len(slots)):
            a, b = slots[ai] - 1, slots[bi] - 1
            e1 = [0] * (m + n)
            e1[a] = 2
            e2 = [0] * (m + n)
            e2[b] = 2
            out.append(LaurentPoly(m, n, {tuple(e1): 1, tuple(e2): -1}))
    return out


@lru_cache(maxsize=None)
def _h_x(m, n, r):
    """Complete symmetric function h_r(x), from its orbit representatives:
    the partitions of r into at most m parts."""
    reps = {}
    for parts in combinations_with_replacement(range(r, -1, -1), m):
        if sum(parts) == r:
            reps[tuple(2 * a for a in parts) + (0,) * n] = 1
    return LaurentPoly.from_orbits(m, n, reps)


@lru_cache(maxsize=None)
def _super_h(m, n, r):
    """h_r(x/y) = sum_k h_k(x) e_{r-k}(y), from its orbit representatives:
    a partition of k from `_h_x`, then r - k ones among the n y-slots."""
    reps = {}
    for k in range(max(r - n, 0), r + 1):
        ys = (2,) * (r - k) + (0,) * (n - r + k)
        for e in _h_x(m, n, k).orbits:
            reps[e[:m] + ys] = 1
    return LaurentPoly.from_orbits(m, n, reps)


@lru_cache(maxsize=None)
def _dual_super_h(m, n, r):
    return _super_h(m, n, r).invert_variables()


def poly_det(mat, m, n):
    """Determinant of a square matrix of S_m x S_n-invariant LaurentPolys.

    Cofactor expansion memoized by column set, sparsest rows first, on
    exponents packed by one ExponentCodec; a minor spanning d rows is a
    sum of d keys and carries a uniform d-fold bias.

    Every entry is invariant under permuting x_1..x_m and y_1..y_n, and
    so is every minor.  A minor is therefore stored only at its orbit
    representatives, the keys that `ExponentCodec.sort_blocks` returns
    (exponents sorted descending within each block), one per orbit,
    holding the sum of its coefficients over that orbit.  Multiplying
    such a minor by a full entry and folding each product key onto its
    orbit gives the orbit sums of the next minor, since for invariant E
    and M

        sum_{c' in O(c)} coeff_{c'}(E M)
            = sum_b (orbit sum of M at b) * sum_{c' in O(c)} E_{c' - b}

    with b over the representatives of M.  Each orbit sum is a multiple
    of the orbit size.  Each key of the determinant unpacks to its
    representative, and the determinant is returned by
    `LaurentPoly.from_orbits`, which keeps the representatives, from
    which `cli._canonical` writes the JSON, and writes the full orbits
    only when its terms are read.

    Raises ValueError unless every entry has int coefficients and is
    S_m x S_n-invariant.
    """
    size = len(mat)
    if size == 0:
        return LaurentPoly.one(m, n)
    bound = max((max(map(abs, e), default=0)
                 for row in mat for entry in row for e in entry.terms),
                default=0)
    codec = ExponentCodec(m, n, bound, size)
    pack, sort_blocks = codec.pack, codec.sort_blocks
    rep_of = {}
    orbit_sizes = {}

    def fold(k):
        """Block-sorted key of k's orbit; its size goes in orbit_sizes."""
        r = sort_blocks(k)
        if r not in orbit_sizes:
            # a uniform bias leaves equal exponents equal
            orbit_sizes[r] = orbit_size(codec.unpack(r), m)
        rep_of[k] = r
        return r

    packed = {}
    for row in mat:
        for entry in row:
            if id(entry) in packed:
                continue
            full = {}
            for e, c in entry.terms.items():
                if not isinstance(c, int):
                    raise ValueError(
                        f"poly_det needs int coefficients, got {c!r}")
                full[pack(e)] = c
            # invariant: each orbit is present whole, with one coefficient
            seen = Counter(map(fold, full))
            if (any(full.get(rep_of[k]) != c for k, c in full.items())
                    or any(seen[r] != orbit_sizes[r] for r in seen)):
                raise ValueError("poly_det needs S_m x S_n-invariant entries")
            packed[id(entry)] = full

    # expand the sparsest rows first: row i is multiplied into minors
    # spanning all later rows, so big rows are cheapest at the bottom
    order = sorted(range(size),
                   key=lambda i: sum(len(e.terms) for e in mat[i]))
    row_sign = perm_sign(tuple(order))
    pmat = [[packed[id(entry)] for entry in mat[i]] for i in order]
    det = _minor(pmat, 0, tuple(range(size)), {}, fold, rep_of, orbit_sizes)
    reps = {}
    for r, s in det.items():
        reps[codec.unpack(r, size)] = s // orbit_sizes[r] * row_sign
    return LaurentPoly.from_orbits(m, n, reps)


def _minor(pmat, row, cols, memo, fold, rep_of, orbit_sizes):
    """Orbit sums of the minor of pmat on rows row.. and columns cols.

    memo, keyed by column set, is shared by the recursive calls; fold
    maps a packed key to its orbit representative and records it in
    rep_of, and orbit_sizes holds each representative's orbit size.
    """
    if row == len(pmat):
        return {0: 1}
    cached = memo.get(cols)
    if cached is not None:
        return cached
    acc = {}
    for idx, c in enumerate(cols):
        entry = pmat[row][c]
        if entry:
            sub = _minor(pmat, row + 1, cols[:idx] + cols[idx + 1:], memo,
                         fold, rep_of, orbit_sizes)
            add_products(acc, sub, entry, 1 if idx % 2 == 0 else -1)
    sums = {}
    for k, c in acc.items():
        if c:
            r = rep_of.get(k)
            if r is None:
                r = fold(k)
            sums[r] = sums.get(r, 0) + c
    out = {}
    for r, s in sums.items():
        if s:
            if s % orbit_sizes[r]:
                raise NonzeroRemainder(
                    f"orbit sum {s} is not a multiple of the orbit "
                    f"size {orbit_sizes[r]}")
            out[r] = s
    memo[cols] = out
    return out


def composite_block_matrix(nu, mu, h_fn, dual_h_fn):
    """The block Jacobi-Trudi matrix of a composite partition.

    nu and mu are sequences of parts, and the size is len(nu) + len(mu).
    Row i = 1 - len(nu), ..., len(mu) holds the dual block's entries
    dual_h_fn(nu_t - i - t + 1) for t = len(nu), ..., 1, then the direct
    block's h_fn(mu_j + i - j) for j = 1, ..., len(mu).
    """
    q = len(nu)
    return [[dual_h_fn(nu[t - 1] - i - t + 1) for t in range(q, 0, -1)]
            + [h_fn(part + i - j) for j, part in enumerate(mu, 1)]
            for i in range(1 - q, len(mu) + 1)]


def schur(lam, m, n):
    """Schur polynomial s_lam(x) via the h-determinant."""
    size = lam.length
    mat = [[_h_x(m, n, lam.part(i) - i + j)
            for j in range(1, size + 1)] for i in range(1, size + 1)]
    return poly_det(mat, m, n)


def composite_super_schur(c, m, n):
    """Composite S-function s_{nu-bar;mu}(x/y) via the block determinant."""
    mat = composite_block_matrix(
        c.nu.parts, c.mu.parts,
        lambda r: _super_h(m, n, r),
        lambda r: _dual_super_h(m, n, r))
    return poly_det(mat, m, n)


def isolate_last_y(c, n):
    """Vertical-strip expansion over the last of the n y variables.

    Returns pairs (composite partition on (m, n-1), exponent of y_n)
    such that summing s_{beta-bar;alpha}(x/y^(n-1)) * y_n^exponent
    over the pairs reproduces s_{nu-bar;mu}(x/y).
    """
    if n < 1:
        raise ValueError("no y variable to isolate")
    out = []
    for alpha in _vertical_strip_subs(c.mu):
        for beta in _vertical_strip_subs(c.nu):
            a = c.mu.size - alpha.size
            b = c.nu.size - beta.size
            out.append((CompositePartition(beta, alpha), a - b))
    return out


def _vertical_strip_subs(lam):
    """All partitions obtained by removing a vertical strip (0/1 per part)."""
    out = []
    for strip in product((0, 1), repeat=lam.length):
        sub = tuple(a - d for a, d in zip(lam.parts, strip))
        if all(a >= b for a, b in zip(sub, sub[1:])):
            out.append(Partition(sub))
    return out
